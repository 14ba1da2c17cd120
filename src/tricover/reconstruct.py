"""Reconstruction of a binary tree with edge lengths from exact distances
given only on the cords of a triplet cover.

The engine is cherry reduction: the pendant length at x is half the minimum
of d(x,z) + d(x,z') - d(z,z') over fully covered triples through x; a cord
x,y is a cherry exactly when d(x,y) equals the two pendant lengths' sum.
Peeling cherries down to three taxa and replaying the log backwards rebuilds
the tree.  Everything is exact rational arithmetic; a mandatory final pass
recomputes every input cord's distance, so inconsistent inputs are rejected
rather than silently fitted.
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
        matrix = tree.distance_matrix()
        return cls(cover.taxa, {c: matrix[c] for c in cover.cords})

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


def pendant_length(x: str, cover: TripletCover, dist: PartialDistances) -> Fraction:
    """Half the minimum of d(x,z) + d(x,z') - d(z,z') over triples through x
    whose three cords are all present; equals the pendant edge length at x
    whenever the distances come from a tree covered by the cord set."""
    if x not in cover.taxa:
        raise CoverError(f"unknown taxon {x!r}")
    partners = sorted(z for z in cover.taxa if z != x and cord(x, z) in cover.cords)
    best: Fraction | None = None
    for z, z2 in combinations(partners, 2):
        if cord(z, z2) not in cover.cords:
            continue
        value = (dist[cord(x, z)] + dist[cord(x, z2)] - dist[cord(z, z2)]) / 2
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


def find_cherry(cover: TripletCover, dist: PartialDistances) -> Cord:
    """Least cord x,y with d(x,y) exactly lambda(x) + lambda(y)."""
    pendants = {x: pendant_length(x, cover, dist) for x in sorted(cover.taxa)}
    for c in sorted(cover.cords):
        x, y = c
        if dist[c] == pendants[x] + pendants[y]:
            return c
    raise NotRealizableError(
        "cherry",
        "no cord satisfies d(x,y) = lambda(x) + lambda(y); pendant estimates "
        + ", ".join(f"{x}={q}" for x, q in pendants.items()),
    )


def reduce_instance(
    cover: TripletCover, dist: PartialDistances, cherry: Cord
) -> tuple[TripletCover, PartialDistances]:
    """Remove the first cherry taxon x: drop cord xy, rewrite each xz to yz
    with d(y,z) = d(x,z) + lambda(y) - lambda(x).  A rewrite colliding with an
    existing yz keeps the existing value but must agree with it exactly."""
    x, y = cherry
    if cherry not in cover.cords:
        raise NotRealizableError("reduce", f"cherry {cherry} is not a cord")
    lx = pendant_length(x, cover, dist)
    ly = pendant_length(y, cover, dist)
    if dist[cherry] != lx + ly:
        raise NotRealizableError(
            "reduce", f"{cherry} fails the cherry criterion: "
            f"d={dist[cherry]}, pendants {lx}+{ly}"
        )
    new_cords: set[Cord] = set()
    new_values: dict[Cord, Fraction] = {}
    rewrites: list[tuple[Cord, Cord]] = []
    for c in cover.cords:
        if c == cherry:
            continue
        if x in c:
            z = c[0] if c[1] == x else c[1]
            rewrites.append((c, cord(y, z)))
        else:
            new_cords.add(c)
            new_values[c] = dist[c]
    for old, new in rewrites:
        value = dist[old] + ly - lx
        if new in new_values:
            if new_values[new] != value:
                raise NotRealizableError(
                    "reduce",
                    f"rewriting {old} to {new} gives {value}, but {new} "
                    f"already has {new_values[new]}",
                )
        else:
            if value <= 0:
                raise NotRealizableError(
                    "reduce", f"rewritten distance for {new} is {value} <= 0"
                )
            new_cords.add(new)
            new_values[new] = value
    reduced_cover = TripletCover(cover.taxa - {x}, frozenset(new_cords))
    reduced_dist = PartialDistances(cover.taxa - {x}, new_values)
    return reduced_cover, reduced_dist


def reconstruct(cover: TripletCover, dist: PartialDistances) -> ReconstructionResult:
    """Rebuild the unique tree realizing the distances on the cover's cords.

    Raises :class:`NotRealizableError` when no tree with strictly positive
    lengths fits: a failed cherry search, a non-positive derived length, or a
    mismatch in the final verification pass.
    """
    if not dist.matches_cover(cover):
        raise CoverError("distances must be defined exactly on the cover's cords")

    log: list[tuple[Cord, Fraction, Fraction]] = []
    work_cover, work_dist = cover, dist
    while len(work_cover.taxa) > 3:
        cherry = find_cherry(work_cover, work_dist)
        lx = pendant_length(cherry[0], work_cover, work_dist)
        ly = pendant_length(cherry[1], work_cover, work_dist)
        log.append((cherry, lx, ly))
        work_cover, work_dist = reduce_instance(work_cover, work_dist, cherry)

    a, b, c = sorted(work_cover.taxa)
    for pair in (cord(a, b), cord(a, c), cord(b, c)):
        if pair not in work_cover.cords:
            raise NotRealizableError(
                "base", f"three-taxon stage is missing cord {pair}"
            )
    d_ab, d_ac, d_bc = (
        work_dist[cord(a, b)],
        work_dist[cord(a, c)],
        work_dist[cord(b, c)],
    )
    pendants = {
        a: (d_ab + d_ac - d_bc) / 2,
        b: (d_ab + d_bc - d_ac) / 2,
        c: (d_ac + d_bc - d_ab) / 2,
    }
    for taxon, value in pendants.items():
        if value <= 0:
            raise NotRealizableError(
                "base", f"three-point formula gives {value} <= 0 at {taxon}"
            )

    # Mutable rebuild state: adjacency with rational lengths, leaf ids.
    adjacency: dict[int, dict[int, Fraction]] = {0: {}, 1: {}, 2: {}, 3: {}}
    leaf_of = {a: 0, b: 1, c: 2}
    center = 3
    for taxon, vid in leaf_of.items():
        adjacency[vid][center] = pendants[taxon]
        adjacency[center][vid] = pendants[taxon]
    next_id = 4

    for (x, y), lx, ly in reversed(log):
        leaf_y = leaf_of[y]
        ((nbr, length),) = adjacency[leaf_y].items()
        interior = length - ly
        if interior <= 0:
            raise NotRealizableError(
                "replay",
                f"attaching {x} beside {y} leaves interior length {interior} <= 0",
            )
        mid = next_id
        leaf_x = next_id + 1
        next_id += 2
        del adjacency[leaf_y][nbr]
        del adjacency[nbr][leaf_y]
        adjacency[mid] = {nbr: interior, leaf_y: ly, leaf_x: lx}
        adjacency[nbr][mid] = interior
        adjacency[leaf_y][mid] = ly
        adjacency[leaf_x] = {mid: lx}
        leaf_of[x] = leaf_x

    edges = [
        (u, v, q)
        for u, nbrs in adjacency.items()
        for v, q in nbrs.items()
        if u < v
    ]
    tree = PhyloTree(sorted(edges), {vid: taxon for taxon, vid in leaf_of.items()})

    matrix = tree.distance_matrix()
    for c0, value in dist.values.items():
        if matrix[c0] != value:
            raise NotRealizableError(
                "verify",
                f"reconstructed tree gives d{c0} = {matrix[c0]}, input says {value}",
            )
    return ReconstructionResult(tree, tuple(log))
