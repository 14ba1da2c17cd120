"""The exhaustive 2-tree decomposition enumerator, a desk-scale oracle.

It checks ``decomposition_from_section``, ``is_two_tree`` and the counting
identity on small cover graphs: every decomposition of the graph into
edge-disjoint 2-trees, found by trying every triangle subset as a block.
No library code calls it, so it lives with the tests.
"""

from __future__ import annotations

from tricover import CapacityError, TripletCover, cord_set, is_two_tree, triangles
from tricover.covers import Cord, Triple

DECOMPOSITION_TRIANGLE_CAP = 12


def all_two_tree_decompositions(
    cover: TripletCover, cap: int = DECOMPOSITION_TRIANGLE_CAP
) -> list[frozenset[frozenset[Triple]]]:
    """Exhaustively enumerate 2-tree decompositions, each reported as the set
    of its blocks' triangle sets.  Desk-scale oracle, capped by triangle count.

    Every block of a decomposition is a 2-tree, hence the union of its own
    triangles, which are pairwise connected through shared pairs; so valid
    blocks are exactly the consistent triangle subsets, and decompositions
    are exact covers of the edge set by disjoint valid blocks.
    """
    tris = sorted(triangles(cover))
    if len(tris) > cap:
        raise CapacityError(
            f"decomposition search capped at {cap} triangles, got {len(tris)}"
        )
    if not all(cover._nbr):  # an isolated vertex lies in no block
        return []
    if not cover.cords <= cord_set(tris):
        return []

    k = len(tris)
    valid_blocks: list[tuple[int, frozenset[Triple], frozenset[Cord]]] = []
    for mask in range(1, 1 << k):
        subset = [tris[i] for i in range(k) if mask >> i & 1]
        if not _pair_connected(subset):
            continue
        block_edges = cord_set(subset)
        block_vertices = set().union(*(set(t) for t in subset))
        if len(block_edges) != 2 * len(block_vertices) - 3:
            continue
        block = TripletCover(frozenset(block_vertices), block_edges)
        if not is_two_tree(block)[0] or triangles(block) != frozenset(subset):
            continue
        valid_blocks.append((mask, frozenset(subset), block_edges))

    by_edge: dict[Cord, list[int]] = {e: [] for e in cover.cords}
    for i, (_, _, block_edges) in enumerate(valid_blocks):
        for e in block_edges:
            by_edge[e].append(i)

    results: list[frozenset[frozenset[Triple]]] = []

    def search(covered: frozenset[Cord], used_mask: int, chosen: list[int]):
        if covered == cover.cords:
            results.append(
                frozenset(valid_blocks[i][1] for i in chosen)
            )
            return
        target = min(cover.cords - covered)
        for i in by_edge[target]:
            mask, _, block_edges = valid_blocks[i]
            if mask & used_mask or block_edges & covered:
                continue
            search(covered | block_edges, used_mask | mask, chosen + [i])

    search(frozenset(), 0, [])
    return results


def _pair_connected(triples: list[Triple]) -> bool:
    """Whether the triples form one component under the share-two relation."""
    if not triples:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(len(triples)):
            if j not in seen and len(set(triples[i]) & set(triples[j])) == 2:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(triples)
