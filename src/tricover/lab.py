"""Generators, exhaustive enumerators and brute-force oracles.

Everything here is seeded and reproducible: the same seed yields the same
instance, byte for byte.  The enumerators and the linear-algebra oracle are
deliberately independent of the main algorithms so they can serve as
cross-checks at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator

from .covers import (
    Chooser,
    SupportMap,
    TripletCover,
    canonical_cover,
    cord,
    is_triplet_cover,
    minimalize,
    required_cords,
    seeded_chooser,
    support_map,
    unsupported_vertex,
)
from .errors import CapacityError
from .reconstruct import PartialDistances
from .shelling import _shellable, is_ample
from .tree import PhyloTree

ENUMERATION_CAP = 8
ORACLE_TAXA_CAP = 7

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def default_taxa(n: int) -> list[str]:
    """Deterministic taxon names: a..z, then t27, t28, ..."""
    if n < 3:
        raise ValueError(f"need at least 3 taxa, got {n}")
    return [_LETTERS[i] if i < 26 else f"t{i + 1}" for i in range(n)]


def random_rational(rng: random.Random) -> Fraction:
    """A random exact length in [1/4, 4] with small numerator/denominator."""
    while True:
        num = rng.randrange(1, 17)
        den = rng.randrange(1, 5)
        value = Fraction(num, den)
        if Fraction(1, 4) <= value <= 4:
            return value


def random_binary_tree(n: int, seed: int) -> PhyloTree:
    """Uniformly random topology on n taxa (sequential leaf attachment to a
    uniformly chosen edge), with seeded rational lengths in [1/4, 4]."""
    taxa = default_taxa(n)
    rng = random.Random(seed)
    # Leaves take ids 0..n-1, interior vertices n, n+1, ...
    edges: set[tuple[int, int]] = {(0, n), (1, n), (2, n)}
    next_interior = n + 1
    for k in range(3, n):
        ordered = sorted(edges)
        u, v = ordered[rng.randrange(len(ordered))]
        edges.remove((u, v))
        mid = next_interior
        next_interior += 1
        edges |= {(min(u, mid), max(u, mid)), (min(v, mid), max(v, mid)), (k, mid)}
    weighted = [(u, v, random_rational(rng)) for u, v in sorted(edges)]
    return PhyloTree(weighted, {i: taxa[i] for i in range(n)})


def enumerate_binary_trees(taxa) -> Iterator[PhyloTree]:
    """All (2n-5)!! binary topologies on the taxon set, unit lengths,
    generated by inserting taxa in sorted order into every edge."""
    names = sorted(taxa)
    n = len(names)
    if n < 3:
        raise ValueError("need at least 3 taxa")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"topology enumeration capped at {ENUMERATION_CAP} taxa")

    def grow(k: int) -> Iterator[frozenset[tuple[int, int]]]:
        if k == 3:
            yield frozenset({(0, n), (1, n), (2, n)})
            return
        mid = n + k - 3
        for smaller in grow(k - 1):
            for u, v in sorted(smaller):
                yield (smaller - {(u, v)}) | {
                    (min(u, mid), max(u, mid)),
                    (min(v, mid), max(v, mid)),
                    (k - 1, mid),
                }

    labels = {i: names[i] for i in range(n)}
    for edge_set in grow(n):
        yield PhyloTree([(u, v, 1) for u, v in sorted(edge_set)], labels)


@dataclass(frozen=True)
class Realization:
    """One tree compatible with a distance instance.

    ``free_dim`` 0 means the edge lengths were pinned uniquely (and the tree
    carries them); a positive value records a consistent but underdetermined
    system, reported with unit lengths and counted as non-unique.
    """

    tree: PhyloTree
    free_dim: int


def _solve_exact(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[str, list[Fraction] | None, list[list[Fraction]]]:
    """Gaussian elimination over the rationals.

    Returns ("inconsistent", None, []), ("unique", solution, []) or
    ("under", particular_solution, nullspace_basis).
    """
    if not rows:
        return "under", None, []
    n_vars = len(rows[0])
    matrix = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for col in range(n_vars):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        factor = matrix[r][col]
        matrix[r] = [x / factor for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col] != 0:
                scale = matrix[i][col]
                matrix[i] = [x - scale * y for x, y in zip(matrix[i], matrix[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(matrix):
            break
    for i in range(r, len(matrix)):
        if matrix[i][n_vars] != 0:
            return "inconsistent", None, []
    solution = [Fraction(0)] * n_vars
    for i, col in enumerate(pivot_cols):
        solution[col] = matrix[i][n_vars]
    if len(pivot_cols) == n_vars:
        return "unique", solution, []
    free_cols = [c for c in range(n_vars) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * n_vars
        vec[f] = Fraction(1)
        for i, col in enumerate(pivot_cols):
            vec[col] = -matrix[i][f]
        basis.append(vec)
    return "under", solution, basis


def _positive_solution_exists(
    particular: list[Fraction], basis: list[list[Fraction]]
) -> bool:
    """Whether particular + span(basis) meets the open positive orthant.

    Fourier-Motzkin elimination over the basis coefficients; all inequalities
    are strict and all arithmetic exact, so the answer is exact too.
    """
    d = len(basis)
    # Inequality: coeffs . t + const > 0, one per coordinate.
    system = [
        ([basis[j][i] for j in range(d)], particular[i])
        for i in range(len(particular))
    ]
    for var in range(d):
        lows, highs, rest = [], [], []
        for coeffs, const in system:
            a = coeffs[var]
            reduced = coeffs[:var] + [Fraction(0)] * 1 + coeffs[var + 1 :]
            if a > 0:
                lows.append(([c / a for c in reduced], const / a))
            elif a < 0:
                highs.append(([c / -a for c in reduced], const / -a))
            else:
                rest.append((coeffs, const))
        new_system = rest
        for lo_coeffs, lo_const in lows:
            for hi_coeffs, hi_const in highs:
                new_system.append(
                    (
                        [lc + hc for lc, hc in zip(lo_coeffs, hi_coeffs)],
                        lo_const + hi_const,
                    )
                )
        system = new_system
    return all(const > 0 for _, const in system)


def uniqueness_oracle(
    cover: TripletCover, dist: PartialDistances, max_taxa: int = ORACLE_TAXA_CAP
) -> list[Realization]:
    """Sweep every topology on the taxon set and solve the exact linear
    system (one equation per cord, unknowns the 2n-3 edge lengths); keep
    topologies whose system is consistent with strictly positive lengths.

    For distances induced by a tree on a triplet cover of that tree, exactly
    one realization survives.  Underdetermined-but-consistent topologies are
    kept only when their solution space meets the open positive orthant
    (exact Fourier-Motzkin test); they carry unit lengths and a positive
    ``free_dim``.
    """
    if len(cover.taxa) > max_taxa:
        raise CapacityError(f"uniqueness oracle capped at {max_taxa} taxa")
    if not dist.matches_cover(cover):
        raise ValueError("distances must be defined exactly on the cover's cords")
    cords = sorted(cover.cords)
    survivors: list[Realization] = []
    for topology in enumerate_binary_trees(sorted(cover.taxa)):
        edge_list = [(u, v) for u, v, _ in topology.edges()]
        index = {e: i for i, e in enumerate(edge_list)}
        rows = []
        rhs = []
        for x, y in cords:
            row = [Fraction(0)] * len(edge_list)
            for e in topology.path_edges(x, y):
                row[index[e]] = Fraction(1)
            rows.append(row)
            rhs.append(dist[(x, y)])
        status, solution, basis = _solve_exact(rows, rhs)
        if status == "inconsistent":
            continue
        if status == "under":
            if solution is None or _positive_solution_exists(solution, basis):
                dim = len(edge_list) if solution is None else len(basis)
                survivors.append(Realization(topology, dim))
            continue
        if all(q > 0 for q in solution):
            tree = PhyloTree(
                [(u, v, solution[index[(u, v)]]) for u, v in edge_list],
                {topology.leaf(t): t for t in topology.taxa},
            )
            survivors.append(Realization(tree, 0))
    return survivors


@dataclass(frozen=True)
class InstanceRecord:
    """A generated (tree, cover) pair with recomputed classification flags."""

    tree: PhyloTree
    cover: TripletCover
    flags: dict
    provenance: dict


def _cover_support(tree: PhyloTree, cover: TripletCover) -> SupportMap | None:
    """The support map when the cords form a triplet cover, else None."""
    support = support_map(tree, cover)
    return support if unsupported_vertex(tree, support) is None else None


def _sparse(cover: TripletCover, support: SupportMap) -> bool:
    """Whether a triplet cover's support map has |X| - 2 triples."""
    return sum(len(triples) for triples in support.values()) == len(cover.taxa) - 2


def basic_flags(tree: PhyloTree, cover: TripletCover) -> dict:
    """Cheap classification flags for fixture records, read from one
    support map."""
    support = _cover_support(tree, cover)
    flags = {
        "is_cover": support is not None,
        "cord_count": len(cover),
        "mu": cover.min_multiplicity(),
    }
    if support is not None:
        flags["is_minimal"] = required_cords(support) == cover.cords
        flags["is_minimum"] = len(cover) == 2 * len(cover.taxa) - 3
        flags["is_sparse"] = _sparse(cover, support)
        flags["is_shellable"] = _shellable(tree, cover)[0]
    return flags


def balanced_chooser(seed: int) -> Chooser:
    """Chooser that favours the least-used leaf in each component, pushing
    every taxon's multiplicity up; useful when hunting high-mu covers."""
    rng = random.Random(seed)
    usage: dict[str, int] = {}

    def choose(tree, v, comps):
        picks = []
        for comp in comps:
            best = min(sorted(comp), key=lambda t: (usage.get(t, 0), rng.random()))
            picks.append(best)
        for t in picks:
            usage[t] = usage.get(t, 0) + 1
        return tuple(picks)

    return choose


def _assignment_cover(tree: PhyloTree, picks: dict[int, tuple[str, str, str]]) -> TripletCover:
    cords = set()
    for a, b, c in picks.values():
        cords |= {cord(a, b), cord(a, c), cord(b, c)}
    return TripletCover(tree.taxa, frozenset(cords))


def exhaustive_instances(n: int) -> Iterator[tuple[PhyloTree, TripletCover, dict]]:
    """Every (topology, per-vertex leaf assignment) cover for small n."""
    for t_index, tree in enumerate(enumerate_binary_trees(default_taxa(n))):
        interior = sorted(tree.interior_vertices(), key=tree.component_triple)
        comps = {v: tree.components_without(v) for v in interior}
        choice_lists = [
            [
                (a, b, c)
                for a in sorted(comps[v][0])
                for b in sorted(comps[v][1])
                for c in sorted(comps[v][2])
            ]
            for v in interior
        ]
        for a_index, assignment in enumerate(product(*choice_lists)):
            picks = dict(zip(interior, assignment))
            cover = _assignment_cover(tree, picks)
            yield tree, cover, {
                "generator": "exhaustive",
                "n": n,
                "topology": t_index,
                "assignment": a_index,
            }


def random_instances(
    n: int, seed: int
) -> Iterator[tuple[PhyloTree, TripletCover, dict]]:
    """Seeded stream of random covers, alternating three construction modes:
    uniform chooser, usage-balanced chooser, and a minimalized union of two
    chooser covers (the latter can shed sparseness)."""
    base = random.Random(seed * 1_000_003 + n)
    index = 0
    while True:
        tree_seed = base.getrandbits(48)
        cover_seed = base.getrandbits(48)
        tree = random_binary_tree(n, tree_seed)
        mode = index % 3
        if mode == 0:
            cover = canonical_cover(tree, seeded_chooser(cover_seed))
        elif mode == 1:
            cover = canonical_cover(tree, balanced_chooser(cover_seed))
        else:
            first = canonical_cover(tree, seeded_chooser(cover_seed))
            second = canonical_cover(tree, balanced_chooser(cover_seed + 1))
            union = first.add_cords(second.cords)
            cover = minimalize(tree, union)
        yield tree, cover, {
            "generator": "random",
            "n": n,
            "seed": seed,
            "index": index,
            "mode": ("uniform", "balanced", "union-minimalized")[mode],
        }
        index += 1


def search_fixture(
    predicate: Callable[[PhyloTree, TripletCover], bool],
    ns,
    budget: int,
    seed: int = 0,
) -> InstanceRecord | None:
    """First instance satisfying the predicate: exhaustive sweep for n <= 6,
    seeded random streams beyond, within a global instance budget.  Returns
    None when the budget runs out (recorded by the caller, not fatal)."""
    spent = 0
    for n in ns:
        source = exhaustive_instances(n) if n <= 6 else random_instances(n, seed)
        for tree, cover, provenance in source:
            if spent >= budget:
                return None
            spent += 1
            if predicate(tree, cover):
                record = InstanceRecord(
                    tree, cover, basic_flags(tree, cover), dict(provenance)
                )
                return record
    return None


def predicate_minimal_not_sparse(tree: PhyloTree, cover: TripletCover) -> bool:
    support = _cover_support(tree, cover)
    return (
        support is not None
        and not _sparse(cover, support)
        and required_cords(support) == cover.cords
    )


def predicate_sparse_minimal_mu4(tree: PhyloTree, cover: TripletCover) -> bool:
    if cover.min_multiplicity() != 4:
        return False
    support = _cover_support(tree, cover)
    return (
        support is not None
        and _sparse(cover, support)
        and required_cords(support) == cover.cords
    )


def predicate_sparse_not_shellable(tree: PhyloTree, cover: TripletCover) -> bool:
    support = _cover_support(tree, cover)
    return (
        support is not None
        and _sparse(cover, support)
        and not _shellable(tree, cover)[0]
    )


def predicate_minimum(tree: PhyloTree, cover: TripletCover) -> bool:
    return len(cover) == 2 * len(cover.taxa) - 3 and is_triplet_cover(tree, cover)


def predicate_sparse_shellable_not_ample(
    tree: PhyloTree, cover: TripletCover
) -> bool:
    """Shellable although no section has an ample patchwork: the sufficiency
    test is not necessary."""
    support = _cover_support(tree, cover)
    if support is None or not _sparse(cover, support):
        return False
    if is_ample(frozenset().union(*support.values()))[0]:
        return False
    return _shellable(tree, cover)[0]


FIXTURE_PREDICATES = {
    "minimal-not-sparse": predicate_minimal_not_sparse,
    "sparse-minimal-mu4": predicate_sparse_minimal_mu4,
    "sparse-not-shellable": predicate_sparse_not_shellable,
    "sparse-shellable-not-ample": predicate_sparse_shellable_not_ample,
    "minimum": predicate_minimum,
}
