"""Generators, exhaustive enumerators and brute-force oracles.

Everything here is seeded and reproducible: the same seed yields the same
instance, byte for byte.  The enumerators and the linear-algebra oracle are
deliberately independent of the main algorithms so they can serve as
cross-checks at desk scale.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator

from .covers import (
    Chooser,
    TripletCover,
    _add_triple,
    _below,
    _bits,
    _canonical_order,
    _is_minimal,
    _support_masks,
    _triple_name,
    canonical_cover,
    minimalize,
    section_count,
    seeded_chooser,
)
from .errors import CapacityError
from .reconstruct import PartialDistances
from .report import InstanceRecord, basic_flags
from .shelling import _ample_merge, _shelling_cords
from .tree import PhyloTree

ENUMERATION_CAP = 8
ORACLE_TAXA_CAP = 7

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def default_taxa(n: int) -> list[str]:
    """Deterministic taxon names: a..z, then t27, t28, ..."""
    if n < 3:
        raise ValueError(f"need at least 3 taxa, got {n}")
    return [_LETTERS[i] if i < 26 else f"t{i + 1}" for i in range(n)]


# The 40 draws (numerator - 1, denominator - 1) that random_rational
# accepts, each with its length built once; a Fraction is immutable, so
# trees share them.
_LENGTHS = {
    (num - 1, den - 1): Fraction(num, den)
    for num in range(1, 17)
    for den in range(1, 5)
    if den <= 4 * num and num <= 4 * den
}


def random_rational(rng: random.Random) -> Fraction:
    """A random exact length in [1/4, 4] with small numerator/denominator:
    a numerator in 1..16 and a denominator in 1..4 are drawn until their
    ratio lies in that range.

    Each is drawn from ``getrandbits`` by ``randrange``'s own rule (see
    :func:`~tricover.covers._below`): the same words in the same order as
    ``randrange(1, 17)`` and ``randrange(1, 5)``, so the lengths are those
    they gave, without their per-call argument checks and without depending
    on how a Python version implements them."""
    getrandbits = rng.getrandbits
    while True:
        length = _LENGTHS.get((_below(getrandbits, 16), _below(getrandbits, 4)))
        if length is not None:
            return length


def random_binary_tree(n: int, seed: int) -> PhyloTree:
    """Uniformly random topology on n taxa (sequential leaf attachment to a
    uniformly chosen edge), with seeded rational lengths in [1/4, 4].

    The edges stay in one sorted list, from which the drawn index is popped;
    the new interior vertex has the largest id so far, so its three edges
    are (u, mid), (v, mid) and (k, mid), each inserted in order.  The index
    is drawn by ``randrange``'s rule (:func:`~tricover.covers._below`)."""
    taxa = default_taxa(n)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    # Leaves take ids 0..n-1, interior vertices n, n+1, ...
    edges = [(0, n), (1, n), (2, n)]
    for k in range(3, n):
        mid = n + k - 2
        u, v = edges.pop(_below(getrandbits, len(edges)))
        insort(edges, (u, mid))
        insort(edges, (v, mid))
        insort(edges, (k, mid))
    weighted = [(u, v, random_rational(rng)) for u, v in edges]
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


def balanced_chooser(seed: int) -> Chooser:
    """Chooser that favours the least-used leaf in each component, pushing
    every taxon's multiplicity up; useful when hunting high-mu covers."""
    draw = random.Random(seed).random
    usage: dict[int, int] = {}  # by taxon bit: one chooser serves one tree

    def choose(taxa, v, masks):
        # Each component's least (usage, draw) key, the first of equal keys
        # as with min; every candidate takes one draw, in ascending bit order.
        picks = []
        for m in masks:
            key = None
            while m:
                low = m & -m
                m ^= low
                candidate = (usage.get(low, 0), draw())
                if key is None or candidate < key:
                    best, key = low, candidate
            picks.append(best)
        for low in picks:
            usage[low] = usage.get(low, 0) + 1
        return tuple(taxa[low.bit_length() - 1] for low in picks)

    return choose


def exhaustive_instances(n: int) -> Iterator[tuple[PhyloTree, TripletCover, dict]]:
    """Every (topology, per-vertex leaf assignment) cover for small n: the
    vertices in :meth:`PhyloTree.component_triple` order, each component's
    leaves in sorted order.  The choices are bit indices read from the tree
    index's component masks (bit i is the i-th sorted taxon), and each cover
    is born with its neighbour masks."""
    for t_index, tree in enumerate(enumerate_binary_trees(default_taxa(n))):
        taxa = tree._index.taxa
        components = tree._index.components
        choice_lists = [
            product(*map(_bits, components[v])) for v in _canonical_order(components)
        ]
        for a_index, assignment in enumerate(product(*choice_lists)):
            cords: set[tuple[str, str]] = set()
            nbr = [0] * n
            for ids in assignment:
                _add_triple(taxa, cords, nbr, *ids)
            cover = TripletCover._with_masks(
                tree.taxa, frozenset(cords), taxa, tuple(nbr)
            )
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
            # Both covers are checked and carry their masks, so the union
            # ORs them instead of re-validating every cord.
            union = TripletCover._with_masks(
                first.taxa,
                first.cords | second.cords,
                first._taxa,
                tuple(a | b for a, b in zip(first._nbr, second._nbr)),
            )
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


# The fixture predicates read the mask support (:func:`_support_masks`):
# its section count is 0 for a non-cover, 1 for a sparse cover and more for
# any other cover, and a cover is minimal when it has as many required
# cords as cords.
def predicate_minimal_not_sparse(tree: PhyloTree, cover: TripletCover) -> bool:
    support = _support_masks(tree, cover)
    return section_count(support) > 1 and _is_minimal(support, cover)


def predicate_sparse_minimal_mu4(tree: PhyloTree, cover: TripletCover) -> bool:
    if cover.min_multiplicity() != 4:
        return False
    support = _support_masks(tree, cover)
    return section_count(support) == 1 and _is_minimal(support, cover)


def predicate_sparse_not_shellable(tree: PhyloTree, cover: TripletCover) -> bool:
    return (
        section_count(_support_masks(tree, cover)) == 1
        and not _shelling_cords(tree, cover)[0]
    )


def predicate_minimum(tree: PhyloTree, cover: TripletCover) -> bool:
    return (
        len(cover) == 2 * len(cover.taxa) - 3
        and section_count(_support_masks(tree, cover)) > 0
    )


def predicate_sparse_shellable_not_ample(
    tree: PhyloTree, cover: TripletCover
) -> bool:
    """Shellable although no section has an ample patchwork: the sufficiency
    test is not necessary."""
    support = _support_masks(tree, cover)
    if section_count(support) != 1:
        return False
    # The one section, named for the ample search.
    taxa = cover._taxa
    section = frozenset(_triple_name(taxa, found[0]) for found in support.values())
    if _ample_merge(section, len(section)) is not None:
        return False
    return _shelling_cords(tree, cover)[0]


FIXTURE_PREDICATES = {
    "minimal-not-sparse": predicate_minimal_not_sparse,
    "sparse-minimal-mu4": predicate_sparse_minimal_mu4,
    "sparse-not-shellable": predicate_sparse_not_shellable,
    "sparse-shellable-not-ample": predicate_sparse_shellable_not_ample,
    "minimum": predicate_minimum,
}
