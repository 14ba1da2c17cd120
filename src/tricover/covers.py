"""Triplet covers of a binary phylogenetic tree and their classification.

A cord is an unordered pair of taxa; a cord set is a triplet cover when every
interior vertex v has a supporting triple: one leaf from each component of the
tree minus v, all three pairs being cords.  This module computes supports,
the supported-triple set and its sections, and the minimal / sparse /
Hall-type predicates, all exactly and at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator

from .errors import CapacityError, CoverError, NotTripletCoverError
from .tree import PhyloTree, _brief, _quote, _quote_each, is_valid_label

Cord = tuple[str, str]
Triple = tuple[str, str, str]

# vertex id -> set of supporting triples
SupportMap = dict[int, frozenset[Triple]]

HALL_SUBSET_CAP = 22


def cord(x: str, y: str) -> Cord:
    if x == y:
        raise CoverError(f"a cord needs two distinct taxa, got {_quote(x)} twice")
    return (x, y) if x < y else (y, x)


def make_triple(x: str, y: str, z: str) -> Triple:
    if len({x, y, z}) != 3:
        raise CoverError(
            f"a triple needs three distinct taxa: {_brief(x)},{_brief(y)},{_brief(z)}"
        )
    a, b, c = sorted((x, y, z))
    return (a, b, c)


def cord_set(triples: Iterable[Triple]) -> frozenset[Cord]:
    """All 2-subsets of the given triples."""
    out = set()
    for t in triples:
        for pair in combinations(sorted(t), 2):
            out.add(pair)
    return frozenset(out)


def all_cords(taxa: Iterable[str]) -> frozenset[Cord]:
    return frozenset(combinations(sorted(taxa), 2))


@dataclass(frozen=True)
class TripletCover:
    """A set of cords over a fixed taxon set (not necessarily a cover).

    The cover is its own cover graph: the taxa are the vertices and the cords
    the edges.  ``_taxa`` (sorted) and ``_nbr`` (bit j of ``_nbr[i]`` joins
    ``_taxa[i]`` and ``_taxa[j]``) are built once: a builder that already
    holds the cords' bit indices (:func:`canonical_cover`,
    :func:`minimalize`, the lab's union covers) sets them at birth through
    :meth:`_with_masks`, and any other cover builds them on the first read
    of either.  Equality and hashing read only ``taxa`` and ``cords``."""

    taxa: frozenset[str]
    cords: frozenset[Cord]

    @classmethod
    def make(cls, taxa: Iterable[str], pairs: Iterable[Iterable[str]]) -> "TripletCover":
        """A checked cover: the taxa pass :func:`_check_taxa`, and each pair is
        two strings from the taxa, in either order; the first faulty pair is
        named."""
        taxon_set = frozenset(taxa)
        _check_taxa(taxon_set)
        cords = set()
        for pair in pairs:
            try:  # a string is not a pair of one-letter taxa
                x, y = (None, None) if isinstance(pair, str) else pair
            except (TypeError, ValueError):
                x = y = None
            if not (isinstance(x, str) and isinstance(y, str)):
                raise CoverError(f"bad cord entry {_quote(pair)}")
            if x not in taxon_set or y not in taxon_set:
                _refuse_outside(x, y)
            cords.add(cord(x, y))
        return cls(taxon_set, frozenset(cords))

    @classmethod
    def _with_masks(
        cls,
        taxa: frozenset[str],
        cords: frozenset[Cord],
        names: tuple[str, ...],
        nbr: tuple[int, ...],
    ) -> "TripletCover":
        """The cover of ``cords`` with ``_taxa`` set to ``names`` and ``_nbr``
        to ``nbr``, unchecked: ``names`` must be ``tuple(sorted(taxa))`` and
        ``nbr`` the :func:`_neighbour_masks` of ``cords`` over it."""
        cover = cls(taxa, cords)
        object.__setattr__(cover, "_taxa", names)
        object.__setattr__(cover, "_nbr", nbr)
        return cover

    def __getattr__(self, name: str):
        """Build ``_taxa`` and ``_nbr`` together on the first read of either;
        later reads find them as plain attributes and never get here."""
        if name not in ("_taxa", "_nbr"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        taxa = tuple(sorted(self.taxa))
        object.__setattr__(self, "_taxa", taxa)
        object.__setattr__(self, "_nbr", tuple(_neighbour_masks(taxa, self.cords)))
        return vars(self)[name]

    def __len__(self) -> int:
        return len(self.cords)

    def multiplicity(self, x: str) -> int:
        """Number of cords containing x: its degree in the cover graph."""
        if x not in self.taxa:
            raise CoverError(f"unknown taxon {_quote(x)}")
        return self._nbr[self._taxa.index(x)].bit_count()

    def min_multiplicity(self) -> int:
        """Minimum multiplicity over all taxa (the report's "mu")."""
        return min(m.bit_count() for m in self._nbr)

    def add_cords(self, pairs: Iterable[Cord]) -> "TripletCover":
        return TripletCover.make(self.taxa, set(self.cords) | set(pairs))

    def without(self, c: Cord) -> "TripletCover":
        return TripletCover(self.taxa, self.cords - {c})


def _check_taxa(taxon_set: frozenset[str]) -> None:
    """Refuse a cover's taxon set with fewer than 3 taxa, or with a bad
    label (see :func:`is_valid_label`); of several bad labels the least in
    string order is named, so the text does not depend on set order."""
    if len(taxon_set) < 3:
        raise CoverError(f"need at least 3 taxa, got {len(taxon_set)}")
    bad = [t for t in taxon_set if not is_valid_label(t)]
    if bad:
        raise CoverError(f"bad taxon label {_quote(min(bad))}")


def _refuse_outside(x: str, y: str):
    """Raise the :class:`CoverError` of the cord x,y, which uses a taxon
    outside the taxon set."""
    raise CoverError(f"cord {_brief(x)},{_brief(y)} uses a taxon outside the taxon set")


def _check_same_taxa(tree: PhyloTree, cover: TripletCover):
    if tree.taxa != cover.taxa:
        t = min(tree.taxa ^ cover.taxa)
        side = "cover" if t in cover.taxa else "tree"
        raise CoverError(
            f"cover taxa do not match tree taxa: {_brief(t)} is only in the {side}"
        )


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbour_masks(taxa: tuple[str, ...], cords: frozenset[Cord]) -> list[int]:
    """Bit j of entry i is set when taxa[i]-taxa[j] is a cord; ``taxa`` is
    sorted, so the bits follow the tree index's leaf masks.  Every cord must
    be a sorted pair of distinct taxa from ``taxa``; otherwise the least
    faulty cord is named in a :class:`CoverError`."""
    index = {x: i for i, x in enumerate(taxa)}
    nbr = [0] * len(taxa)
    for x, y in cords:
        i, j = index.get(x, -1), index.get(y, -1)
        if not 0 <= i < j:
            _refuse_cord(cords, index)
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def _refuse_cord(cords: frozenset[Cord], index: dict[str, int]):
    """Raise the :class:`CoverError` of the least cord that is not a sorted
    pair of distinct taxa from ``index``."""
    x, y = min(c for c in cords if not 0 <= index.get(c[0], -1) < index.get(c[1], -1))
    if x not in index or y not in index:
        _refuse_outside(x, y)
    cord(x, y)  # raises for x == y
    x, y = _brief(x), _brief(y)
    raise CoverError(f"cord {x},{y} is not a sorted pair; write it as {y},{x}")


def support_map(tree: PhyloTree, cover: TripletCover) -> SupportMap:
    """The support of every interior vertex: all triples, one leaf per
    component of the tree minus the vertex, whose three pairs are cords.

    At each vertex the search walks the leaves a of its smallest component,
    then b over a's cords into the second and c over the cords shared by a
    and b into the third.  The three bit indices are sorted as integers,
    which sorts the triple's taxa since bit i is the i-th sorted taxon, so
    the order of the components does not change the map; they lie in
    disjoint components, so they are distinct.  The walk costs the sum
    over the vertices of min(|A|, |B|, |C|), plus the cords and triples
    found, where walking one fixed component costs about n^2.  That sum is
    at most n log2(n): the smallest component is no larger than the smaller
    of the two below, and a leaf lies in the smaller one below a vertex at
    most log2(n) times, as the leaves below at least double each time.
    """
    _check_same_taxa(tree, cover)
    taxa, nbr = cover._taxa, cover._nbr
    result: SupportMap = {}
    for v in tree.interior_vertices():
        comp_a, comp_b, comp_c = sorted(tree._component_masks(v), key=int.bit_count)
        found = []
        for a in _bits(comp_a):
            for b in _bits(nbr[a] & comp_b):
                for c in _bits(nbr[a] & nbr[b] & comp_c):
                    i, j, k = sorted((a, b, c))
                    found.append((taxa[i], taxa[j], taxa[k]))
        result[v] = frozenset(found)
    # Supports of distinct vertices are disjoint (each triple's median is
    # the supported vertex); guard the bookkeeping.
    total = sum(len(s) for s in result.values())
    if total != len(frozenset().union(*result.values())):
        raise CoverError("supports of distinct vertices must be disjoint")
    return result


def is_triplet_cover(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff every interior vertex has at least one supporting triple."""
    return unsupported_vertex(tree, support_map(tree, cover)) is None


def unsupported_vertex(tree: PhyloTree, support: SupportMap) -> Triple | None:
    """The least :meth:`PhyloTree.component_triple` of an unsupported
    vertex, or None when every vertex is supported."""
    return min(
        (tree.component_triple(v) for v, triples in support.items() if not triples),
        default=None,
    )


def cover_support(tree: PhyloTree, cover: TripletCover, op: str) -> SupportMap:
    """The support map, for a triplet cover only: otherwise raises
    :class:`NotTripletCoverError` naming the least unsupported vertex."""
    support = support_map(tree, cover)
    name = unsupported_vertex(tree, support)
    if name is not None:
        raise NotTripletCoverError(
            f"{op} requires a triplet cover; interior vertex {name} is unsupported"
        )
    return support


def supported_triples(tree: PhyloTree, cover: TripletCover) -> frozenset[Triple]:
    """Disjoint union of all supports (every triangle of the cover graph)."""
    return frozenset().union(*support_map(tree, cover).values())


def required_cords(support: SupportMap) -> frozenset[Cord]:
    """Cords lying in every triple of some vertex's support: on a triplet
    cover, exactly the cords whose removal leaves a vertex unsupported."""
    out: set[Cord] = set()
    for triples in support.values():
        if triples:
            out |= set.intersection(*(set(combinations(t, 2)) for t in triples))
    return frozenset(out)


def is_minimal(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff removing any single cord destroys the cover property, i.e.
    every cord is required."""
    return required_cords(cover_support(tree, cover, "is_minimal")) == cover.cords


def minimalize(tree: PhyloTree, cover: TripletCover) -> TripletCover:
    """Greedily remove cords in lexicographic order while the result stays a
    triplet cover.  One ordered pass suffices: covering is monotone, so a
    cord that survives its own trial can never become removable later.

    A triple is live while none of its cords has been dropped.  Each
    supporting triple gets one bit, a vertex's triples consecutive bits, so
    the live triples are one mask.  From the one support map come, per cord,
    the mask of the triples holding it and the masks of the vertices those
    triples support.  A cord drops when every one of those vertices keeps a
    live triple without it; its triples then die.  A vertex the cord does
    not touch keeps its live triple anyway, and a cord in no supported
    triple always drops.  The cords are tried in sorted index order, which
    is sorted name order since bit i is the i-th sorted taxon, and the
    result's neighbour masks are the cover's with the dropped cords cleared.
    """
    support = cover_support(tree, cover, "minimalize")
    holders: dict[Cord, int] = {}
    spans: dict[Cord, list[int]] = {}
    bit = 1
    for triples in support.values():
        first = bit
        touched = []
        for a, b, c in triples:
            for pair in ((a, b), (a, c), (b, c)):
                held = holders.get(pair, 0)
                if held < first:  # the pair's first triple at this vertex
                    touched.append(pair)
                holders[pair] = held | bit
            bit <<= 1
        for pair in touched:
            spans.setdefault(pair, []).append(bit - first)
    taxa, nbr = cover._taxa, list(cover._nbr)
    live = bit - 1
    kept = []
    for i, x in enumerate(taxa):
        for j in _bits(nbr[i] >> i + 1 << i + 1):
            c = (x, taxa[j])
            rest = live & ~holders.get(c, 0)
            for span in spans.get(c, ()):
                if not rest & span:
                    kept.append(c)
                    break
            else:
                live = rest
                nbr[i] ^= 1 << j
                nbr[j] ^= 1 << i
    return TripletCover._with_masks(cover.taxa, frozenset(kept), taxa, tuple(nbr))


def is_sparse(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff the supported-triple set has exactly |X|-2 members."""
    support = cover_support(tree, cover, "is_sparse")
    return sum(len(triples) for triples in support.values()) == len(cover.taxa) - 2


def _augment(match: dict[int, int], sets: list[int], i: int) -> bool:
    """Give set ``i`` a representative in ``match`` (taxon bit -> set index)
    along an alternating path, found breadth first; False when there is none,
    which leaves ``match`` as it was."""
    held = {i: 0}  # set index -> the bit it held when the search reached it
    came_from: dict[int, int] = {}  # taxon bit -> set index that reached it
    seen = 0
    queue = [i]
    for j in queue:
        fresh = sets[j] & ~seen
        seen |= fresh
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            came_from[bit] = j
            if bit not in match:
                while bit:
                    owner = came_from[bit]
                    previous = held[owner]
                    match[bit] = owner
                    bit = previous
                return True
            held[match[bit]] = bit
            queue.append(match[bit])
    return False


def _triple_masks(taxa: list[str], triples: list[Triple]) -> list[int]:
    """Bit i of a triple's mask stands for ``taxa[i]``; a triple with a taxon
    outside ``taxa`` raises :class:`CoverError`."""
    index = {x: i for i, x in enumerate(taxa)}
    masks = []
    for t in triples:
        m = 0
        for x in t:
            if x not in index:
                raise CoverError(
                    f"triple {_quote_each(t)} uses a taxon outside the taxon set"
                )
            m |= 1 << index[x]
        masks.append(m)
    return masks


def is_hall_type(
    taxa: Iterable[str], triples: Iterable[Triple], cap: int = HALL_SUBSET_CAP
) -> bool:
    """Hall-type test: the triples must cover the taxon set and every
    nonempty subfamily C' must satisfy |union C'| >= |C'| + 2.

    By Hall's theorem that holds iff, for every triple t, the family with t
    taken three times has distinct representatives: one matching of the
    family, then two augmenting paths per triple.  Families larger than
    ``cap`` raise :class:`CapacityError`.
    """
    taxon_list = sorted(set(taxa))
    triple_list = sorted(set(triples))
    k = len(triple_list)
    if k > cap:
        raise CapacityError(f"Hall-type check capped at {cap} triples, got {k}")
    masks = _triple_masks(taxon_list, triple_list)
    full = (1 << len(taxon_list)) - 1
    union_all = 0
    for m in masks:
        union_all |= m
    if union_all != full:
        return False

    match: dict[int, int] = {}
    if not all(_augment(match, masks, i) for i in range(k)):
        return False
    for i in range(k):
        tripled = masks + [masks[i], masks[i]]
        trial = dict(match)
        if not (_augment(trial, tripled, k) and _augment(trial, tripled, k + 1)):
            return False
    return True


def section_count(support: SupportMap) -> int:
    """Number of sections: the product of the support sizes."""
    total = 1
    for triples in support.values():
        total *= len(triples)
    return total


def _sorted_support_items(support: SupportMap) -> list[tuple[int, list[Triple]]]:
    items = [(v, sorted(triples)) for v, triples in support.items()]
    # Supports are disjoint and nonempty, so the least triple is a unique key.
    items.sort(key=lambda item: item[1][0])
    return items


def iter_sections(support: SupportMap) -> Iterator[frozenset[Triple]]:
    """Lazily yield sections (one triple per vertex) in lexicographic order."""
    for v, triples in support.items():
        if not triples:
            raise NotTripletCoverError(
                f"vertex {v} has empty support; sections need a triplet cover"
            )
    items = _sorted_support_items(support)
    for choice in product(*(triples for _, triples in items)):
        yield frozenset(choice)


# A chooser gets the tree's sorted taxa, an interior vertex and the leaf
# masks of its three components (bit i stands for taxa[i], ordered by least
# taxon) and returns one taxon from each component.
Chooser = Callable[[tuple[str, ...], int, tuple[int, int, int]], tuple[str, str, str]]


def least_label_chooser(
    taxa: tuple[str, ...], v: int, masks: tuple[int, int, int]
) -> tuple[str, str, str]:
    picks = tuple(taxa[(m & -m).bit_length() - 1] for m in masks)
    return picks  # type: ignore[return-value]


def _nth_bit(mask: int, k: int) -> int:
    """Index of the set bit of ``mask`` with k set bits below it, found by
    halving on bit counts."""
    lo, hi = 0, mask.bit_length()
    # Below lo at most k bits are set, below hi more than k.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() <= k:
            lo = mid
        else:
            hi = mid
    return lo


def seeded_chooser(seed: int) -> Chooser:
    """One uniformly random leaf per component, reproducible from the seed:
    the k-th of the component's taxa in sorted order, k drawn uniformly.

    The returned chooser is stateful; :func:`canonical_cover` invokes it in
    the canonical interior-vertex order, which keeps results deterministic.
    """
    rng = random.Random(seed)

    def choose(taxa, v, masks):
        return tuple(taxa[_nth_bit(m, rng.randrange(m.bit_count()))] for m in masks)

    return choose


def canonical_cover(
    tree: PhyloTree, chooser: Chooser = least_label_chooser
) -> TripletCover:
    """Cover built by picking one leaf per component at every interior vertex
    and taking the three pairs; always a triplet cover by construction.

    The chooser sees the vertices in :meth:`PhyloTree.component_triple`
    order, which is the order of the lowest bits of their component masks,
    as bit i is the i-th sorted taxon.  Each pick is checked as its bit
    index, and the three cords go into the neighbour masks as they are
    added, so the cover is born with its cover graph."""
    taxa = tree._index.taxa
    index = {x: i for i, x in enumerate(taxa)}
    components = tree._index.components
    nbr = [0] * len(taxa)
    cords = set()
    for v in sorted(components, key=lambda v: [m & -m for m in components[v]]):
        masks = components[v]
        picks = chooser(taxa, v, masks)
        ids = []
        if len(picks) == 3:
            for p, m in zip(picks, masks):
                i = index.get(p)
                if i is None or not m >> i & 1:
                    break
                ids.append(i)
        if len(ids) != 3:
            raise CoverError(
                f"chooser returned an invalid selection {_quote_each(picks)}"
            )
        a, b, c = ids
        x, y, z = taxa[a], taxa[b], taxa[c]
        cords.add((x, y) if a < b else (y, x))
        cords.add((x, z) if a < c else (z, x))
        cords.add((y, z) if b < c else (z, y))
        nbr[a] |= 1 << b | 1 << c
        nbr[b] |= 1 << a | 1 << c
        nbr[c] |= 1 << a | 1 << b
    return TripletCover._with_masks(tree.taxa, frozenset(cords), taxa, tuple(nbr))
