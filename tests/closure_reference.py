"""The closure kernel as it stood before the open-taxon mask and the
one-pass hop matrix, kept verbatim as the reference for the kernel's step
logs and as the tests' one source of random closure orders.

Under ``rng`` it keys each cord on the heap by a random draw made when the
cord becomes addable and takes a random valid witness.  The closure is
order-independent, so every such order must reach the kernel's closed set.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from random import Random
from typing import Iterator

from tricover import PhyloTree, ShellingStep, TreeError, TripletCover, make_quartet
from tricover.covers import Cord, _bits


def reference_forced_steps(
    tree: PhyloTree, cover: TripletCover, rng: Random | None = None
) -> Iterator[ShellingStep]:
    """The closure's forced additions in order, for a verified triplet cover.

    A worklist closure: the heap ``ready`` holds every missing cord that has
    a valid witness now, keyed by the cord, or by a random draw first when
    ``rng`` is given; a witness stays valid as cords are added, so a cord
    never leaves the heap but by being added.  The least is added with its
    least valid witness (a random one with ``rng``).  A new cord uv only
    creates witnesses whose five cords include uv, so only the missing cords
    through u or v and the pairs inside N(u) & N(v) are tested again, N
    being the neighbour sets of the cover graph.
    """
    taxa = cover._taxa
    nbr = list(cover._nbr)  # grows as cords are added; the cover's stays put
    hops = [[0] * len(taxa) for _ in taxa]
    for i, j in combinations(range(len(taxa)), 2):
        hops[i][j] = hops[j][i] = tree.hops(taxa[i], taxa[j])

    def pairing(a: int, b: int, p: int, q: int) -> int:
        """The displayed quartet by the four-point rule on path lengths in
        edges: 0 for ab|pq, 1 for ap|bq, 2 for aq|bp.  On a binary tree the
        displayed pairing has the strictly least sum for any positive
        lengths, unit ones included, so these decide the same quartets as
        the rational distances."""
        ab = hops[a][b] + hops[p][q]
        ap = hops[a][p] + hops[b][q]
        aq = hops[a][q] + hops[b][p]
        if ap < ab and ap < aq:
            return 1
        if aq < ab and aq < ap:
            return 2
        if ab < ap and ab < aq:
            return 0
        raise TreeError(
            f"degenerate quartet {taxa[a]},{taxa[b]},{taxa[p]},{taxa[q]}"
        )

    def witnesses(a: int, b: int) -> Iterator[tuple[int, int]]:
        """Valid witnesses of the missing cord ab, in lexicographic order of
        the unordered pair, each ordered to pair with (a, b)."""
        common = nbr[a] & nbr[b]
        for p in _bits(common):
            for q in _bits(common & nbr[p] & ~((2 << p) - 1)):
                side = pairing(a, b, p, q)
                if side == 1:
                    yield p, q
                elif side == 2:
                    yield q, p

    ready: list[tuple[float, int, int]] = []
    known = list(nbr)  # bit b of known[a]: the cord ab is present or queued

    def push(a: int, b: int) -> None:
        known[a] |= 1 << b
        known[b] |= 1 << a
        heappush(ready, (0 if rng is None else rng.random(), min(a, b), max(a, b)))

    for a, b in combinations(range(len(taxa)), 2):
        if not nbr[a] >> b & 1 and next(witnesses(a, b), None):
            push(a, b)
    while ready:
        _, a, b = heappop(ready)
        if rng is None:
            p, q = next(witnesses(a, b))
        else:
            p, q = rng.choice(list(witnesses(a, b)))
        yield ShellingStep(
            (taxa[a], taxa[b]),
            (taxa[p], taxa[q]),
            make_quartet((taxa[a], taxa[p]), (taxa[b], taxa[q])),
        )
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        both = nbr[a] & nbr[b]
        for u, v in ((a, b), (b, a)):
            # Unqueued missing cords uc whose new witnesses are pairs {v, w}.
            for c in _bits(nbr[v] & ~known[u] & ~(1 << u)):
                if any(pairing(u, c, v, w) for w in _bits(both & nbr[c])):
                    push(u, c)
        # Unqueued missing cords cd whose new witness is the pair {a, b}.
        for c in _bits(both):
            for d in _bits(both & ~known[c] & ~((2 << c) - 1)):
                if pairing(c, d, a, b):
                    push(c, d)


def random_order_closure(
    tree: PhyloTree, cover: TripletCover, seed: int
) -> tuple[frozenset[Cord], tuple[ShellingStep, ...]]:
    """The closed cord set and step log of the reference kernel in the
    random order drawn by ``Random(seed)``, for a verified triplet cover."""
    steps = tuple(reference_forced_steps(tree, cover, Random(seed)))
    return cover.cords | {step.cord for step in steps}, steps
