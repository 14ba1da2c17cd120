"""Reconstruction of a binary tree with edge lengths from exact distances
given only on the cords of a triplet cover.

The engine is cherry reduction on one mutable table of cord distances: the
pendant length at x is half the minimum of d(x,z) + d(x,z') - d(z,z') over
fully covered triples through x; a cord x,y is a cherry exactly when d(x,y)
equals the two pendant lengths' sum.  Peeling cherries down to three taxa
and replaying the log backwards rebuilds the tree.  Everything is exact
rational arithmetic; a mandatory final pass recomputes every input cord's
distance, so inconsistent inputs are rejected rather than silently fitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .covers import Cord, TripletCover, cord
from .errors import CoverError, NotRealizableError
from .tree import PhyloTree, exact_rational


@dataclass(frozen=True)
class PartialDistances:
    """Positive exact distances keyed by canonical cords."""

    taxa: frozenset[str]
    values: Mapping[Cord, Fraction]

    @classmethod
    def make(cls, taxa, items) -> "PartialDistances":
        taxon_set = frozenset(taxa)
        values: dict[Cord, Fraction] = {}
        for (x, y), raw in dict(items).items():
            if x not in taxon_set or y not in taxon_set:
                raise CoverError(f"distance for {x},{y} uses an unknown taxon")
            value = exact_rational(raw, CoverError)
            if value <= 0:
                raise CoverError(f"distance for {x},{y} must be positive, got {raw}")
            values[cord(x, y)] = value
        return cls(taxon_set, values)

    @classmethod
    def from_tree(cls, tree: PhyloTree, cover: TripletCover) -> "PartialDistances":
        """Forward-compute the tree's distances on exactly the cover's cords."""
        if tree.taxa != cover.taxa:
            raise CoverError("tree and cover taxa differ")
        return cls(cover.taxa, {c: tree.distance(*c) for c in sorted(cover.cords)})

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


_Table = dict[str, dict[str, Fraction]]


def _table(cover: TripletCover, dist: PartialDistances) -> _Table:
    """The working instance: taxon -> partner -> distance, each cord twice."""
    table: _Table = {x: {} for x in sorted(cover.taxa)}
    for x, y in sorted(cover.cords):
        table[x][y] = table[y][x] = dist[x, y]
    return table


def _pendant(x: str, table: _Table) -> Fraction:
    """Half the least d(x,z) + d(x,z') - d(z,z') over the fully covered
    triples through x."""
    row = table[x]
    best: Fraction | None = None
    for z, z2 in combinations(sorted(row), 2):
        d_zz = table[z].get(z2)
        if d_zz is None:
            continue
        value = (row[z] + row[z2] - d_zz) / 2
        if best is None or value < best:
            best = value
    if best is None:
        raise NotRealizableError(
            "pendant",
            f"no fully covered triple contains {x}; "
            "the cord set is not a triplet cover's distance support",
        )
    if best <= 0:
        raise NotRealizableError("pendant", f"pendant length at {x} is {best} <= 0")
    return best


def _cherry(table: _Table, pendants: Mapping[str, Fraction]) -> Cord:
    """Least cord x,y with d(x,y) = lambda(x) + lambda(y)."""
    for x in sorted(table):
        for y in sorted(table[x]):
            if x < y and table[x][y] == pendants[x] + pendants[y]:
                return (x, y)
    raise NotRealizableError(
        "cherry",
        "no cord satisfies d(x,y) = lambda(x) + lambda(y); pendant estimates "
        + ", ".join(f"{x}={pendants[x]}" for x in sorted(pendants)),
    )


def _reduce(table: _Table, x: str, y: str, lx: Fraction, ly: Fraction) -> None:
    """Drop x from the cherry x,y: each cord xz becomes yz with
    d(y,z) = d(x,z) + lambda(y) - lambda(x), in sorted z order."""
    row = table.pop(x)
    for z in sorted(row):
        del table[z][x]
        # An existing yz agrees: xy, xz, yz cover a triple, and lx + ly = d(x,y).
        if z == y or z in table[y]:
            continue
        value = row[z] + ly - lx
        if value <= 0:
            raise NotRealizableError(
                "reduce", f"rewritten distance for {cord(y, z)} is {value} <= 0"
            )
        table[y][z] = table[z][y] = value


def pendant_length(x: str, cover: TripletCover, dist: PartialDistances) -> Fraction:
    """Half the minimum of d(x,z) + d(x,z') - d(z,z') over triples through x
    whose three cords are all present; equals the pendant edge length at x
    whenever the distances come from a tree covered by the cord set."""
    if x not in cover.taxa:
        raise CoverError(f"unknown taxon {x!r}")
    return _pendant(x, _table(cover, dist))


def find_cherry(cover: TripletCover, dist: PartialDistances) -> Cord:
    """Least cord x,y with d(x,y) exactly lambda(x) + lambda(y)."""
    table = _table(cover, dist)
    return _cherry(table, {x: _pendant(x, table) for x in table})


def reduce_instance(
    cover: TripletCover, dist: PartialDistances, cherry: Cord
) -> tuple[TripletCover, PartialDistances]:
    """Remove the first cherry taxon x: drop cord xy, rewrite each xz to yz
    with d(y,z) = d(x,z) + lambda(y) - lambda(x).  A rewrite colliding with an
    existing yz keeps the existing value, which the cherry criterion forces
    to agree."""
    x, y = cherry
    if cherry not in cover.cords:
        raise NotRealizableError("reduce", f"cherry {cherry} is not a cord")
    table = _table(cover, dist)
    lx, ly = _pendant(x, table), _pendant(y, table)
    if dist[cherry] != lx + ly:
        raise NotRealizableError(
            "reduce", f"{cherry} fails the cherry criterion: "
            f"d={dist[cherry]}, pendants {lx}+{ly}"
        )
    _reduce(table, x, y, lx, ly)
    values = {(u, v): q for u in table for v, q in table[u].items() if u < v}
    taxa = cover.taxa - {x}
    return TripletCover(taxa, frozenset(values)), PartialDistances(taxa, values)


def reconstruct(cover: TripletCover, dist: PartialDistances) -> ReconstructionResult:
    """Rebuild the unique tree realizing the distances on the cover's cords.

    Raises :class:`NotRealizableError` when no tree with strictly positive
    lengths fits: a failed cherry search, a non-positive derived length, or a
    mismatch in the final verification pass.
    """
    if not dist.matches_cover(cover):
        raise CoverError("distances must be defined exactly on the cover's cords")

    table = _table(cover, dist)
    pendants: dict[str, Fraction] = {}
    changed = set(table)
    log: list[tuple[Cord, Fraction, Fraction]] = []
    while len(table) > 3:
        for z in sorted(changed):
            pendants[z] = _pendant(z, table)
        x, y = _cherry(table, pendants)
        lx, ly = pendants.pop(x), pendants[y]
        log.append(((x, y), lx, ly))
        # Only the triples through y, x's old partners and y's partners change.
        changed = set(table[x])
        _reduce(table, x, y, lx, ly)
        changed |= set(table[y])

    a, b, c = sorted(table)
    for u, v in ((a, b), (a, c), (b, c)):
        if v not in table[u]:
            raise NotRealizableError(
                "base", f"three-taxon stage is missing cord {u, v}"
            )
    d_ab, d_ac, d_bc = table[a][b], table[a][c], table[b][c]
    base = {
        a: (d_ab + d_ac - d_bc) / 2,
        b: (d_ab + d_bc - d_ac) / 2,
        c: (d_ac + d_bc - d_ab) / 2,
    }
    for taxon, value in base.items():
        if value <= 0:
            raise NotRealizableError(
                "base", f"three-point formula gives {value} <= 0 at {taxon}"
            )

    # Each leaf hangs from one vertex by its pendant edge; edges between
    # interior vertices never change once placed.  Ids: a, b, c are 0-2, the
    # centre 3, then each replayed cherry adds its vertex and x's leaf.
    leaf_of = {a: 0, b: 1, c: 2}
    hang = {taxon: (3, value) for taxon, value in base.items()}
    edges: list[tuple[int, int, Fraction]] = []
    for (x, y), lx, ly in reversed(log):
        nbr, length = hang[y]
        interior = length - ly
        if interior <= 0:
            raise NotRealizableError(
                "replay",
                f"attaching {x} beside {y} leaves interior length {interior} <= 0",
            )
        mid = 2 * len(leaf_of) - 2
        edges.append((nbr, mid, interior))
        hang[y], hang[x] = (mid, ly), (mid, lx)
        leaf_of[x] = mid + 1
    edges += [(*sorted((v, leaf_of[t])), q) for t, (v, q) in hang.items()]
    tree = PhyloTree(sorted(edges), {vid: taxon for taxon, vid in leaf_of.items()})

    for c0, value in sorted(dist.values.items()):
        got = tree.distance(*c0)
        if got != value:
            raise NotRealizableError(
                "verify",
                f"reconstructed tree gives d{c0} = {got}, input says {value}",
            )
    return ReconstructionResult(tree, tuple(log))
