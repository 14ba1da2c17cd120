"""Reconstruction of a binary tree with edge lengths from exact distances
given only on the cords of a triplet cover.

The engine is cherry reduction on one mutable table of cord distances,
keyed by the cover's sorted-taxon indices: the pendant length at x is half
the minimum of d(x,z) + d(x,z') - d(z,z') over fully covered triples through
x; a cord x,y is a cherry exactly when d(x,y) equals the two pendant
lengths' sum.  Both are read from heaps, of fixed triple values per taxon and
of candidate cords, not by rescanning rows, and after a peel only the taxa
whose heap top may have moved are read again.  Names are built only for the
cherry log, the leaf labels and error texts.
Peeling cherries down to three taxa and replaying the log backwards
rebuilds the tree.  Everything is exact: the table holds each distance
times one integer scale, and every halving divides an even integer.  A
mandatory final pass recomputes every input cord's distance, so
inconsistent inputs are rejected rather than silently fitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Mapping

from .covers import Cord, TripletCover, _bits, cord
from .errors import CoverError, NotRealizableError
from .tree import PhyloTree, _brief, _quote, exact_rational


def _refuse_unknown(x: str, y: str):
    """Raise the :class:`CoverError` of a distance for x,y, which uses a
    taxon outside the taxon set."""
    raise CoverError(f"distance for {_brief(x)},{_brief(y)} uses an unknown taxon")


def _add_distance(values: dict, key: Cord, x: str, y: str, raw) -> None:
    """Enter ``raw``, read by :func:`exact_rational`, as the distance on the
    cord ``key`` of x and y, given in this order; a repeated cord or a
    value that is not a positive rational raises :class:`CoverError`."""
    if key in values:
        raise CoverError(f"duplicate distance for {_brief(x)},{_brief(y)}")
    value = exact_rational(raw, CoverError)
    if value.numerator <= 0:
        raise CoverError(
            f"distance for {_brief(x)},{_brief(y)} must be positive, "
            f"got {_brief(str(raw))}"
        )
    values[key] = value


@dataclass(frozen=True)
class PartialDistances:
    """Positive exact distances keyed by canonical cords."""

    taxa: frozenset[str]
    values: Mapping[Cord, Fraction]

    @classmethod
    def make(cls, taxa, items) -> "PartialDistances":
        """Distances from a mapping or an iterable of ((x, y), value) pairs;
        a cord given twice, in either order, raises :class:`CoverError`."""
        taxon_set = frozenset(taxa)
        values: dict[Cord, Fraction] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for item in pairs:
            try:  # a string key is not a pair of one-letter taxa
                pair, raw = item
                x, y = (None, None) if isinstance(pair, str) else pair
            except (TypeError, ValueError):
                x = y = None
            if not (isinstance(x, str) and isinstance(y, str)):
                raise CoverError(f"bad distance entry {_quote(item)}")
            if x not in taxon_set or y not in taxon_set:
                _refuse_unknown(x, y)
            _add_distance(values, cord(x, y), x, y, raw)
        return cls(taxon_set, values)

    @classmethod
    def from_tree(cls, tree: PhyloTree, cover: TripletCover) -> "PartialDistances":
        """Forward-compute the tree's distances on exactly the cover's cords."""
        if tree.taxa != cover.taxa:
            raise CoverError("tree and cover taxa differ")
        scale, values = tree.scaled_distances(sorted(cover.cords))
        return cls(cover.taxa, {c: Fraction(v, scale) for c, v in values.items()})

    def __getitem__(self, key: Cord) -> Fraction:
        return self.values[key]

    def matches_cover(self, cover: TripletCover) -> bool:
        return self.taxa == cover.taxa and set(self.values) == set(cover.cords)


@dataclass(frozen=True)
class ReconstructionResult:
    """The rebuilt tree plus the cherry log: (kept-or-removed pair, pendant
    lengths), outermost cherry first."""

    tree: PhyloTree
    cherry_log: tuple[tuple[Cord, Fraction, Fraction], ...]


class _Table:
    """The working instance on integers, on the cover's bit indices: taxon i
    is ``taxa[i]``, the i-th sorted taxon, so comparing indices compares
    names.  ``rows[x][y]`` is d(x,y) times ``scale``, each cord under both
    its taxa; a peeled taxon's row is None.  ``pendants[x]`` is lambda(x) times
    ``scale``, or None before x is read and after it is peeled; ``log``
    lists the cherries peeled as (x, y, lambda(x) * scale, lambda(y) *
    scale).  Names and Fractions are built from these only for outputs and
    error texts.

    A cord's value never changes while it exists: a rewrite onto an existing
    cord keeps its value, and cords go only when a taxon is peeled.  So a
    fully covered triple's three values d(a,b) + d(a,c) - d(b,c), one at each
    taxon, are fixed from its last cord's creation until one of its taxa is
    peeled.  ``triples[x]`` is a heap of (value at x, z, z') over x's
    triples, each pushed once, with peeled ones dropped lazily; its top is
    twice lambda(x).  ``cherries`` is a heap of candidate cords, pushed when
    created or when an end's pendant changes, and checked again when read.
    ``reread`` holds the taxa whose heap top may have changed since their
    pendant was last read: those given a new top by a push, and those whose
    top held a peeled taxon.
    """

    def __init__(self, cover: TripletCover, dist: PartialDistances):
        self.taxa = taxa = cover._taxa
        nbr = cover._nbr
        cords = [(i, j) for i, m in enumerate(nbr) for j in _bits(m >> i + 1 << i + 1)]
        lookup = dist.values
        values = [lookup[taxa[i], taxa[j]] for i, j in cords]
        # Twice the lcm of the denominators makes every entry even, and the
        # entries stay even: a cherry's rewrite adds lambda(y) - lambda(x),
        # which the cherry criterion makes d(x,y) - 2 lambda(x).  So each
        # pendant's sum of three entries halves exactly.
        self.scale = scale = 2 * lcm(*(q.denominator for q in values))
        self.rows: list[dict[int, int] | None] = [{} for _ in taxa]
        for (i, j), q in zip(cords, values):
            self.rows[i][j] = self.rows[j][i] = q.numerator * (scale // q.denominator)
        self.left = len(taxa)
        self.pendants: list[int | None] = [None] * len(taxa)
        self.log: list[tuple[int, int, int, int]] = []
        self.triples: list[list[tuple[int, int, int]]] = [[] for _ in taxa]
        self.cherries: list[tuple[int, int]] = []
        self.reread = set(range(len(taxa)))
        for a, b in cords:
            for c in _bits((nbr[a] & nbr[b]) >> b + 1 << b + 1):
                self.add_triple(a, b, c)

    def value(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale)

    def add_triple(self, a: int, b: int, c: int) -> None:
        """Push the newly covered triple a,b,c onto its three taxa's heaps,
        marking each taxon whose heap it tops for a re-read."""
        rows, triples, reread = self.rows, self.triples, self.reread
        ab, ac, bc = rows[a][b], rows[a][c], rows[b][c]
        for x, entry in ((a, (ab + ac - bc, b, c)), (b, (ab + bc - ac, a, c)),
                         (c, (ac + bc - ab, a, b))):
            heap = triples[x]
            heappush(heap, entry)
            if heap[0] is entry:
                reread.add(x)


def _pendant(x: int, table: _Table) -> int:
    """Set and return ``table.pendants[x]``: half the least d(x,z) + d(x,z')
    - d(z,z') over the fully covered triples through x, the top of x's heap
    once triples with a peeled taxon are dropped.  A changed value pushes
    the cords of x that now meet the cherry criterion."""
    rows, heap = table.rows, table.triples[x]
    while heap and (rows[heap[0][1]] is None or rows[heap[0][2]] is None):
        heappop(heap)
    if not heap:
        raise NotRealizableError(
            "pendant",
            f"no fully covered triple contains {table.taxa[x]}; "
            "the cord set is not a triplet cover's distance support",
        )
    best = heap[0][0]
    if best <= 0:
        length = Fraction(best, 2 * table.scale)
        raise NotRealizableError(
            "pendant", f"pendant length at {table.taxa[x]} is {length} <= 0"
        )
    pendants, lx = table.pendants, best // 2
    if pendants[x] != lx:
        pendants[x] = lx
        for z, d in rows[x].items():
            lz = pendants[z]
            if lz is not None and d == lx + lz:
                heappush(table.cherries, (x, z) if x < z else (z, x))
    return lx


def _cherry(table: _Table) -> tuple[int, int]:
    """Least cord x,y with d(x,y) = lambda(x) + lambda(y): the least
    candidate that still is one."""
    rows, pendants, heap = table.rows, table.pendants, table.cherries
    while heap:
        x, y = heap[0]
        row = rows[x]
        d = row.get(y) if row is not None else None
        if d is not None and d == pendants[x] + pendants[y]:
            return x, y
        heappop(heap)
    raise NotRealizableError(
        "cherry",
        "no cord satisfies d(x,y) = lambda(x) + lambda(y); pendant estimates "
        + ", ".join(
            f"{table.taxa[x]}={table.value(p)}"
            for x, p in enumerate(pendants) if p is not None
        ),
    )


def _reduce(table: _Table, x: int, y: int) -> None:
    """Peel the cherry x,y into the log and drop x: each cord xz becomes yz
    with d(y,z) = d(x,z) + lambda(y) - lambda(x), in ascending z order.
    Each new cord is a cherry candidate and completes the triples y,z,w
    with w a partner of both.  A partner of x whose heap top held x is
    marked for a re-read; no other heap loses its top."""
    rows, triples, reread = table.rows, table.triples, table.reread
    lx, ly = table.pendants[x], table.pendants[y]
    table.pendants[x] = None
    table.log.append((x, y, lx, ly))
    row, rows[x] = rows[x], None
    table.left -= 1
    row_y = rows[y]
    for z in sorted(row):
        del rows[z][x]
        heap = triples[z]
        if heap and (heap[0][1] == x or heap[0][2] == x):
            reread.add(z)
        # An existing yz agrees: xy, xz, yz cover a triple, and lx + ly = d(x,y).
        if z == y or z in row_y:
            continue
        value = row[z] + ly - lx
        if value <= 0:
            taxa = table.taxa
            raise NotRealizableError(
                "reduce",
                f"rewritten distance for {cord(taxa[y], taxa[z])} is "
                f"{table.value(value)} <= 0",
            )
        row_y[z] = rows[z][y] = value
        for w in row_y.keys() & rows[z].keys():
            table.add_triple(y, z, w)
        heappush(table.cherries, (y, z) if y < z else (z, y))


def pendant_length(x: str, cover: TripletCover, dist: PartialDistances) -> Fraction:
    """Half the minimum of d(x,z) + d(x,z') - d(z,z') over triples through x
    whose three cords are all present; equals the pendant edge length at x
    whenever the distances come from a tree covered by the cord set."""
    if x not in cover.taxa:
        raise CoverError(f"unknown taxon {_quote(x)}")
    table = _Table(cover, dist)
    return table.value(_pendant(table.taxa.index(x), table))


def find_cherry(cover: TripletCover, dist: PartialDistances) -> Cord:
    """Least cord x,y with d(x,y) exactly lambda(x) + lambda(y)."""
    table = _Table(cover, dist)
    for x in range(len(table.taxa)):
        _pendant(x, table)
    x, y = _cherry(table)
    return table.taxa[x], table.taxa[y]


def reduce_instance(
    cover: TripletCover, dist: PartialDistances, cherry: Cord
) -> tuple[TripletCover, PartialDistances]:
    """Remove the first cherry taxon x: drop cord xy, rewrite each xz to yz
    with d(y,z) = d(x,z) + lambda(y) - lambda(x).  A rewrite colliding with an
    existing yz keeps the existing value, which the cherry criterion forces
    to agree."""
    first, second = cherry
    if cherry not in cover.cords:
        raise NotRealizableError("reduce", f"cherry {cherry} is not a cord")
    table = _Table(cover, dist)
    taxa = table.taxa
    x, y = taxa.index(first), taxa.index(second)
    lx, ly = _pendant(x, table), _pendant(y, table)
    if table.rows[x][y] != lx + ly:
        raise NotRealizableError(
            "reduce", f"{cherry} fails the cherry criterion: "
            f"d={dist[cherry]}, pendants {table.value(lx)}+{table.value(ly)}"
        )
    _reduce(table, x, y)
    values = {
        (taxa[u], taxa[v]): table.value(q) for u, row in enumerate(table.rows)
        if row is not None for v, q in row.items() if u < v
    }
    rest = cover.taxa - {first}
    return TripletCover(rest, frozenset(values)), PartialDistances(rest, values)


def reconstruct(cover: TripletCover, dist: PartialDistances) -> ReconstructionResult:
    """Rebuild the unique tree realizing the distances on the cover's cords.

    Raises :class:`NotRealizableError` when no tree with strictly positive
    lengths fits: a failed cherry search, a non-positive derived length, or a
    mismatch in the final verification pass.
    """
    if not dist.matches_cover(cover):
        raise CoverError("distances must be defined exactly on the cover's cords")

    table = _Table(cover, dist)
    rows, taxa, reread = table.rows, table.taxa, table.reread
    while table.left > 3:
        # The first round reads every taxon; later ones only the taxa whose
        # heap top may have changed, in ascending order, so the first error
        # is the one a full re-read would meet.
        for z in sorted(reread):
            _pendant(z, table)
        reread.clear()
        _reduce(table, *_cherry(table))

    a, b, c = (x for x, row in enumerate(rows) if row is not None)
    for u, v in ((a, b), (a, c), (b, c)):
        if v not in rows[u]:
            raise NotRealizableError(
                "base", f"three-taxon stage is missing cord {taxa[u], taxa[v]}"
            )
    for x, u, v in ((a, b, c), (b, a, c), (c, a, b)):
        value = rows[x][u] + rows[x][v] - rows[u][v]
        if value <= 0:
            raise NotRealizableError(
                "base",
                f"three-point formula gives {Fraction(value, 2 * table.scale)} "
                f"<= 0 at {taxa[x]}",
            )
        table.pendants[x] = value // 2

    tree = _replay(table, (a, b, c))
    _verify(tree, dist)
    log = tuple(
        ((taxa[x], taxa[y]), table.value(lx), table.value(ly))
        for x, y, lx, ly in table.log
    )
    return ReconstructionResult(tree, log)


def _replay(table: _Table, base: tuple[int, int, int]) -> PhyloTree:
    """The tree: the base taxa hang from one centre, then the cherry log is
    replayed backwards.

    Each leaf hangs from one vertex by its pendant edge; edges between
    interior vertices never change once placed.  Ids: the base taxa are 0-2,
    the centre 3, then each replayed cherry adds its vertex and x's leaf.
    """
    taxa, value = table.taxa, table.value
    leaf_of = {x: i for i, x in enumerate(base)}
    hang = {x: (3, table.pendants[x]) for x in base}
    edges: list[tuple[int, int, Fraction]] = []
    for x, y, lx, ly in reversed(table.log):
        nbr, length = hang[y]
        interior = value(length - ly)
        if interior <= 0:
            raise NotRealizableError(
                "replay",
                f"attaching {taxa[x]} beside {taxa[y]} leaves interior length "
                f"{interior} <= 0",
            )
        mid = 2 * len(leaf_of) - 2
        edges.append((nbr, mid, interior))
        hang[y], hang[x] = (mid, ly), (mid, lx)
        leaf_of[x] = mid + 1
    for x, (v, q) in hang.items():
        leaf = leaf_of[x]
        edges.append((v, leaf, value(q)) if v < leaf else (leaf, v, value(q)))
    return PhyloTree(sorted(edges), {vid: taxa[x] for x, vid in leaf_of.items()})


def _verify(tree: PhyloTree, dist: PartialDistances) -> None:
    """Check every input cord's distance on the rebuilt tree, least cord
    first."""
    scale, got = tree.scaled_distances(dist.values)
    for c0, value in sorted(dist.values.items()):
        if got[c0] * value.denominator != value.numerator * scale:
            raise NotRealizableError(
                "verify",
                f"reconstructed tree gives d{c0} = {Fraction(got[c0], scale)}, "
                f"input says {value}",
            )
