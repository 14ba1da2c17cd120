"""The brute-force uniqueness oracle: the paper's first result checked at
desk scale.

For distances induced by a tree on a triplet cover of that tree, the oracle
sweeps every topology on the taxon set and solves the exact linear system of
each (one equation per cord, unknowns the 2n-3 edge lengths), by Gaussian
elimination over the rationals; an underdetermined system survives only if
Fourier-Motzkin elimination finds a strictly positive solution.  Exactly one
realization must survive.  No library code calls it, so it lives with the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tricover import CapacityError, PartialDistances, PhyloTree, TripletCover
from tricover.lab import enumerate_binary_trees

ORACLE_TAXA_CAP = 7


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
