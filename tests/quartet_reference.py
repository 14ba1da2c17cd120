"""The four-point rule on exact leaf distances, the closure tests' metric
reference for quartet topologies."""

from __future__ import annotations

from fractions import Fraction

from tricover import TreeError, make_quartet
from tricover.tree import Quartet


def quartet_from_distances(
    dist: dict[tuple[str, str], Fraction], a: str, b: str, x: str, y: str
) -> Quartet:
    """Quartet topology from exact leaf distances via the four-point rule.

    The pairing with the strictly smallest distance sum is the displayed
    quartet; for a binary tree with positive lengths it agrees with
    :meth:`PhyloTree.quartet_topology`.
    """

    def d(p: str, q: str) -> Fraction:
        return dist[(p, q) if p < q else (q, p)]

    sums = [
        (d(a, b) + d(x, y), ((a, b), (x, y))),
        (d(a, x) + d(b, y), ((a, x), (b, y))),
        (d(a, y) + d(b, x), ((a, y), (b, x))),
    ]
    sums.sort(key=lambda item: item[0])
    if sums[0][0] == sums[1][0]:
        raise TreeError(f"degenerate quartet {a},{b},{x},{y}")
    return make_quartet(*sums[0][1])

