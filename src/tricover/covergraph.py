"""The cover graph of a cord set and its 2-tree decompositions.

The cover graph has the taxa as vertices and the cords as edges, so a
:class:`TripletCover` is its own graph: the functions here read the cover's
neighbour masks, built once, at birth or on first read.  The graph's
triangles coincide with the supported triples of the cover, which makes it a
purely combinatorial mirror of the tree-side analysis; everything here is
computed from the graph alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterator

from .covers import (
    Cord,
    Triple,
    TripletCover,
    _bits,
    _section_triples,
    _triple_masks,
    _triple_name,
    cord_set,
)
from .errors import SectionError
from .tree import _quote_each, _quote_first

# A "re-enters the block" text names at most this many block taxa.
BLOCK_TAXA_SHOWN = 10


def build_cover_graph(cover: TripletCover) -> TripletCover:
    """The cover graph of ``cover``, which is the cover itself.

    No library code calls it; it stays because perfbench's classify
    workload, which the test suite runs, imports it."""
    return cover


def _triangle_masks(nbr: tuple[int, ...]) -> list[int]:
    """All 3-cliques i < j < k of the graph with neighbour masks ``nbr``, as
    taxon masks, found through common neighbourhoods."""
    out = []
    for i, near in enumerate(nbr):
        js = near >> i + 1 << i + 1
        while js:
            bit_j = js & -js
            js ^= bit_j
            ij = 1 << i | bit_j
            ks = near & nbr[bit_j.bit_length() - 1] & ~((bit_j << 1) - 1)
            while ks:
                bit_k = ks & -ks
                ks ^= bit_k
                out.append(ij | bit_k)
    return out


def triangles(cover: TripletCover) -> frozenset[Triple]:
    """All 3-cliques, named from :func:`_triangle_masks`."""
    taxa = cover._taxa
    return frozenset(_triple_name(taxa, t) for t in _triangle_masks(cover._nbr))


def is_two_connected(cover: TripletCover) -> bool:
    """Connected with no cut vertex, decided by one depth-first search from
    vertex 0 with lowpoints (Hopcroft & Tarjan, 1973).

    ``low[v]`` is the least depth that v's subtree reaches by one edge, so a
    vertex u below the root is a cut vertex when one of its children has
    ``low >= depth[u]``.  The root is one when it has a second child, which
    the search finds as a vertex left unreached on returning from the first
    (in a disconnected graph too).  A vertex's neighbours reached before it
    are its ancestors, so its own edges up are read once, when the search
    reaches it; its children come from its unreached neighbours.
    """
    nbr = cover._nbr
    n = len(nbr)
    if n < 3:
        raise ValueError("2-connectivity test needs at least 3 vertices")
    if not nbr[0]:
        return False
    depth = [0] * n
    low = [0] * n
    depth[0] = low[0] = 1
    seen = 1
    path = [0]  # the search path; the vertex at index i has depth i + 1
    while True:
        v = path[-1]
        ahead = nbr[v] & ~seen
        if ahead:
            bit = ahead & -ahead
            w = bit.bit_length() - 1
            seen |= bit
            path.append(w)
            depth[w] = least = len(path)
            up = nbr[w] & seen
            while up:
                bit = up & -up
                up ^= bit
                d = depth[bit.bit_length() - 1]
                if d < least:
                    least = d
            low[w] = least
            continue
        path.pop()
        if len(path) == 1:  # v is the root's first child
            return seen == (1 << n) - 1
        u = path[-1]
        if low[v] >= depth[u]:
            return False
        if low[v] < low[u]:
            low[u] = low[v]


def is_two_tree(cover: TripletCover) -> tuple[bool, list[str] | None]:
    """Recognise 2-trees by eliminating degree-2 vertices with adjacent
    neighbours; returns a witness construction order when successful.

    A degree-2 vertex whose neighbours are adjacent lies in exactly one
    triangle, so the elimination directly reverses the defining ordering.
    The least such vertex goes first.
    """
    n = len(cover._taxa)
    if n < 3:
        raise ValueError("a 2-tree needs at least 3 vertices")
    if len(cover) != 2 * n - 3:
        return False, None
    nbr = list(cover._nbr)
    alive = (1 << n) - 1
    eliminated: list[int] = []
    while alive.bit_count() > 3:
        for v in _bits(alive):
            low = nbr[v] & -nbr[v]
            if nbr[v].bit_count() == 2 and nbr[low.bit_length() - 1] & (nbr[v] ^ low):
                break
        else:
            return False, None
        for w in _bits(nbr[v]):
            nbr[w] ^= 1 << v
        alive ^= 1 << v
        eliminated.append(v)
    last = list(_bits(alive))
    if any(nbr[v].bit_count() != 2 for v in last):
        return False, None
    return True, [cover._taxa[v] for v in last + eliminated[::-1]]


@dataclass(frozen=True)
class TwoTreeBlock:
    """One block of a decomposition, with the triple order that accreted it."""

    vertices: frozenset[str]
    edges: frozenset[Cord]
    order: tuple[Triple, ...]

    @property
    def triangles(self) -> frozenset[Triple]:
        return frozenset(self.order)


@dataclass(frozen=True)
class TwoTreeDecomposition:
    blocks: tuple[TwoTreeBlock, ...]

    def __post_init__(self):
        seen: set[Cord] = set()
        for block in self.blocks:
            if seen & block.edges:
                raise ValueError("block edge sets must be pairwise disjoint")
            seen |= block.edges
        if not self.blocks:
            raise ValueError("a decomposition needs at least one block")

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def vertex_union(self) -> frozenset[str]:
        out: set[str] = set()
        for block in self.blocks:
            out |= block.vertices
        return frozenset(out)

    @property
    def edge_union(self) -> frozenset[Cord]:
        out: set[Cord] = set()
        for block in self.blocks:
            out |= block.edges
        return frozenset(out)

    @property
    def triangle_partition(self) -> frozenset[Triple]:
        out: set[Triple] = set()
        for block in self.blocks:
            out |= block.triangles
        return frozenset(out)


def _decompose(
    masks: list[int], taxa, name: Callable[[int], Triple]
) -> Iterator[tuple[int, set[int], list[int]]]:
    """The accretion of :func:`decomposition_from_section` on distinct triple
    masks in name order, yielding each block as it is complete: its taxon
    mask, its pair masks and the positions of its triples in accretion
    order.  ``taxa[x]`` names bit x and ``name(i)`` the i-th triple, for the
    re-entry :class:`SectionError`.  On a section of a triplet cover the
    pair masks are the block's edges and each block is a 2-tree;
    :func:`decomposition_from_section` checks the latter on the names.

    A triple shares two taxa with a block triple exactly when one of its
    pairs is a block pair, so a block keeps its pairs' masks as its
    frontier; each new pair puts the unused triples through it on a heap of
    sorted positions, whose least is the next pick.
    """
    pairs = []
    through: dict[int, list[int]] = {}  # pair mask -> positions of its triples
    for i, m in enumerate(masks):
        low, high = m & -m, 1 << (m.bit_length() - 1)
        pairs.append((m ^ low, low | high, m ^ high))
        for pair in pairs[i]:
            through.setdefault(pair, []).append(i)
    queued = [False] * len(masks)
    for first in range(len(masks)):
        if queued[first]:
            continue
        queued[first] = True
        seq: list[int] = []
        vertices = 0
        frontier: set[int] = set()
        ready = [first]
        while ready:
            i = heappop(ready)
            if seq and (masks[i] & ~vertices).bit_count() != 1:
                names = [taxa[x] for x in _bits(vertices)]
                shown = _quote_first(names, BLOCK_TAXA_SHOWN)
                if len(names) > BLOCK_TAXA_SHOWN:
                    shown += f" ({len(names)} taxa)"
                raise SectionError(
                    f"triple {_quote_each(name(i))} re-enters the block on "
                    f"{shown}; the family is not a section"
                )
            seq.append(i)
            vertices |= masks[i]
            for pair in pairs[i]:
                if pair not in frontier:
                    frontier.add(pair)
                    for j in through[pair]:
                        if not queued[j]:
                            queued[j] = True
                            heappush(ready, j)
        yield vertices, frontier, seq


def decomposition_from_section(section) -> TwoTreeDecomposition:
    """Greedy triple accretion: grow a block by repeatedly taking the least
    unused triple sharing two taxa with a triple already in the block, then
    start the next block.  Valid sections always produce 2-tree blocks; any
    violation, or a member that is not three distinct taxon names, means
    the input was not a section and raises :class:`SectionError`.  The
    accretion is :func:`_decompose` on the triples' masks; each block is
    named from its positions as it comes.
    """
    triples = _section_triples(section)
    if not triples:
        raise SectionError("empty triple family")
    taxa = sorted(set().union(*triples))
    masks = _triple_masks(taxa, triples)
    blocks = []
    for _, _, order in _decompose(masks, taxa, triples.__getitem__):
        seq = tuple(triples[i] for i in order)
        block_taxa, edges = frozenset().union(*seq), cord_set(seq)
        if len(edges) != 2 * len(block_taxa) - 3:
            raise SectionError("block is not a 2-tree; the family is not a section")
        blocks.append(TwoTreeBlock(block_taxa, edges, seq))
    try:
        return TwoTreeDecomposition(tuple(blocks))
    except ValueError as exc:
        raise SectionError(str(exc)) from None


def _is_strict(triangles: list[int], blocks: list[set[int]]) -> bool:
    """:func:`is_strict` on the graph's triangle masks and each block's pair
    masks, the blocks edge-disjoint and their pairs edges of the graph:
    every triangle has its three pairs in one block."""
    owner = {pair: b for b, pairs in enumerate(blocks) for pair in pairs}
    for t in triangles:
        low, high = t & -t, 1 << (t.bit_length() - 1)
        home = owner.get(t ^ high)
        if home is None or not owner.get(low | high) == home == owner.get(t ^ low):
            return False
    return True


def is_strict(cover: TripletCover, decomposition: TwoTreeDecomposition) -> bool:
    """True iff every triangle of the graph lies inside one block's edge set.

    Block edge sets are disjoint, so each cord has at most one block, and a
    triangle lies inside one block when its three cords have the same one:
    :func:`_is_strict` on the blocks' cords as pair masks."""
    for block in decomposition.blocks:
        if not block.edges <= cover.cords:
            raise ValueError("decomposition block is not a subgraph")
    index = {x: i for i, x in enumerate(cover._taxa)}
    blocks = [
        {1 << index[x] | 1 << index[y] for x, y in block.edges}
        for block in decomposition.blocks
    ]
    return _is_strict(_triangle_masks(cover._nbr), blocks)


def _counting_holds(edges: int, vertices: int, m: int) -> bool:
    """|F| = 2|W| - 4 + m for ``edges`` block edges in all, ``vertices``
    taxa in the blocks' union and ``m`` blocks."""
    return edges == 2 * vertices - 4 + m


def verify_counting(decomposition: TwoTreeDecomposition) -> bool:
    """Exact check of |F| = 2|W| - 4 + m for the decomposition's own graph."""
    total_edges = sum(len(block.edges) for block in decomposition.blocks)
    return _counting_holds(
        total_edges, len(decomposition.vertex_union), decomposition.m
    )
