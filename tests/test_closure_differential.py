"""The worklist cord closure, checked step by step against the rescan closure.

``reference_closure`` is the closure taken literally: at every step, scan
the missing cords in lexicographic order and, for each, the witness pairs
in lexicographic order, deciding each quartet from the exact rational
distances; the first valid (cord, witness) is added.  The worklist closure
must produce the same ``ShellingStep`` log (cord, witness and quartet) and
the same closed set.
"""

import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    NotTripletCoverError,
    ShellingStep,
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
