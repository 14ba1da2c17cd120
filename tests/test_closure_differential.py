"""The worklist cord closure, checked step by step against the rescan closure.

``reference_closure`` is the closure taken literally: at every step, scan
the missing cords in lexicographic order and, for each, the witness pairs
in lexicographic order, deciding each quartet from the exact rational
distances; the first valid (cord, witness) is added.  The worklist closure
must produce the same ``ShellingStep`` log (cord, witness and quartet) and
the same closed set.

``reference_forced_steps`` is the worklist kernel as it stood before the
open-taxon mask and the one-pass hop matrix, kept verbatim apart from its
name.  The kernel must give the same step log as it, deterministic and
under ``rng=random.Random(s)``, and take the same number of draws.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import combinations, islice
from random import Random
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    NotTripletCoverError,
    PhyloTree,
    ShellingStep,
    TreeError,
    TripletCover,
    all_cords,
    canonical_cover,
    cord,
    cord_closure,
    is_triplet_cover,
    make_quartet,
    minimalize,
    quartet_from_distances,
    seeded_chooser,
    verify_shelling,
)
from tricover.covers import _bits
from tricover.lab import random_binary_tree, random_instances


def _reference_step(dist, have, taxa, missing):
    for a, b in missing:
        others = [t for t in taxa if t not in (a, b)]
        for p, q in combinations(others, 2):
            needed = (cord(a, p), cord(a, q), cord(b, p), cord(b, q), cord(p, q))
            if any(c not in have for c in needed):
                continue
            topo = quartet_from_distances(dist, a, b, p, q)
            if topo == make_quartet((a, p), (b, q)):
                return ShellingStep(cord(a, b), (p, q), topo)
            if topo == make_quartet((a, q), (b, p)):
                return ShellingStep(cord(a, b), (q, p), topo)
    return None


def reference_closure(tree, cover):
    if not is_triplet_cover(tree, cover):
        raise NotTripletCoverError("reference: not a triplet cover")
    taxa = sorted(cover.taxa)
    dist = tree.distance_matrix()
    have = set(cover.cords)
    universe = all_cords(taxa)
    steps = []
    while True:
        step = _reference_step(dist, have, taxa, sorted(universe - have))
        if step is None:
            break
        have.add(step.cord)
        steps.append(step)
    return frozenset(have), tuple(steps)


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



def assert_same_log(tree, cover):
    closed, steps = cord_closure(tree, cover)
    assert (closed, steps) == reference_closure(tree, cover)
    return steps


def test_agrees_on_acceptance_pool():
    # The acceptance suite's pool: 50 covers per n in 4..9.
    checked = 0
    for n in range(4, 10):
        for tree, cover, _ in islice(random_instances(n, 1000 + n), 50):
            assert_same_log(tree, cover)
            checked += 1
    assert checked == 300


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 40])
def test_agrees_on_chooser_and_minimalized_covers(n):
    tree = random_binary_tree(n, 700 + n)
    cover = canonical_cover(tree, seeded_chooser(n))
    assert_same_log(tree, cover)
    steps = assert_same_log(tree, minimalize(tree, cover))
    assert steps


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    tree_seed=st.integers(min_value=0, max_value=10**6),
    chooser_seed=st.integers(min_value=0, max_value=10**6),
    extra=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
    minimal=st.booleans(),
)
def test_agrees_on_hypothesis_covers(n, tree_seed, chooser_seed, extra, minimal):
    tree = random_binary_tree(n, tree_seed)
    cover = canonical_cover(tree, seeded_chooser(chooser_seed))
    pairs = sorted(all_cords(tree.taxa))
    cover = cover.add_cords(pairs[k % len(pairs)] for k in extra)
    if minimal:
        cover = minimalize(tree, cover)
    assert_same_log(tree, cover)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_random_orders_reach_the_same_set(n):
    tree = random_binary_tree(n, 900 + n)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(n)))
    baseline, _ = reference_closure(tree, cover)
    orders = set()
    for seed in range(5):
        closed, steps = cord_closure(tree, cover, rng=random.Random(seed))
        assert closed == baseline
        if closed == all_cords(tree.taxa):
            verify_shelling(tree, cover, steps)
        orders.add(steps)
    assert len(orders) > 1


def assert_same_kernel_logs(tree, cover):
    """The kernel and the reference give equal logs, deterministic and for
    five seeded orders, and draw equally often."""
    _, steps = cord_closure(tree, cover)
    assert steps == tuple(reference_forced_steps(tree, cover))
    for seed in range(5):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        _, steps = cord_closure(tree, cover, rng=rng)
        assert steps == tuple(reference_forced_steps(tree, cover, ref_rng))
        assert rng.getstate() == ref_rng.getstate()
    return steps


def test_kernel_agrees_with_reference_on_acceptance_pool():
    checked = added = 0
    for n in range(4, 10):
        for tree, cover, _ in islice(random_instances(n, 1000 + n), 50):
            added += len(assert_same_kernel_logs(tree, cover))
            checked += 1
    assert checked == 300 and added > 1000


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 40])
def test_kernel_agrees_with_reference_on_chooser_and_minimalized_covers(n):
    tree = random_binary_tree(n, 700 + n)
    cover = canonical_cover(tree, seeded_chooser(n))
    assert_same_kernel_logs(tree, cover)
    assert assert_same_kernel_logs(tree, minimalize(tree, cover))


@pytest.mark.parametrize("n", [8, 16, 24])
def test_kernel_agrees_with_reference_in_random_orders(n):
    tree = random_binary_tree(n, 900 + n)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(n)))
    assert assert_same_kernel_logs(tree, cover)


def test_kernel_agrees_with_reference_on_ladder_cover():
    # The bench ladder's minimal cover at n = 80.
    tree = random_binary_tree(80, 1)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(1)))
    assert len(assert_same_kernel_logs(tree, cover)) > 2000
