"""The worklist cord closure, checked step by step against the rescan closure.

``reference_closure`` is the closure taken literally: at every step, scan
the missing cords in lexicographic order and, for each, the witness pairs
in lexicographic order, deciding each quartet from the exact rational
distances; the first valid (cord, witness) is added.  The worklist closure
must produce the same ``ShellingStep`` log (cord, witness and quartet) and
the same closed set.

``reference_forced_steps`` (in ``closure_reference``) is the worklist
kernel as it stood before the open-taxon mask and the one-pass hop matrix.
The kernel must give the same step log as it, and the closed set of every
random order it draws.
"""

from __future__ import annotations

import hashlib
from itertools import combinations, islice

import pytest
from closure_reference import random_order_closure, reference_forced_steps
from hypothesis import given, settings
from quartet_reference import quartet_from_distances
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
    seeded_chooser,
    verify_shelling,
)
from tricover import jsonio, shelling
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
    baseline, _ = cord_closure(tree, cover)
    assert baseline == reference_closure(tree, cover)[0]
    orders = set()
    for seed in range(5):
        closed, steps = random_order_closure(tree, cover, seed)
        assert closed == baseline
        if closed == all_cords(tree.taxa):
            verify_shelling(tree, cover, steps)
        orders.add(steps)
    assert len(orders) > 1


def assert_same_kernel_logs(tree, cover):
    """The kernel and the reference give equal step logs."""
    _, steps = cord_closure(tree, cover)
    assert steps == tuple(reference_forced_steps(tree, cover))
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
    # The pool whose random orders test_random_orders_reach_the_same_set
    # draws from the reference.
    tree = random_binary_tree(n, 900 + n)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(n)))
    assert assert_same_kernel_logs(tree, cover)


def test_kernel_agrees_with_reference_on_ladder_cover():
    # The bench ladder's minimal cover at n = 80.
    tree = random_binary_tree(80, 1)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(1)))
    assert len(assert_same_kernel_logs(tree, cover)) > 2000


# SHA-256 of the canonical JSON step log of cord_closure on the bench
# ladder's minimal cover, as recorded when the kernel first yielded index
# quadruples; every later kernel must reproduce it.
LADDER_LOG_SHA256 = {
    80: (2951, "c418075e91e6763baff8d39c50e76f380b7ec3e4595f37c2cbbb33eff3634e54"),
    160: (12277, "d39c0318b6ab9cb897c6c16f20d97e212e3b7df40bf9f849c1805e4803d4b9c2"),
}


@pytest.mark.parametrize("n", sorted(LADDER_LOG_SHA256))
def test_ladder_step_logs_match_recorded_hashes(n):
    tree = random_binary_tree(n, 1)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(1)))
    _, steps = cord_closure(tree, cover)
    log = jsonio.dumps_canonical(jsonio.shelling_to_json(steps)).encode()
    assert (len(steps), hashlib.sha256(log).hexdigest()) == LADDER_LOG_SHA256[n]


@pytest.fixture
def witness_searches(monkeypatch):
    """Counts the least-witness searches of the closure."""
    counts = {"searches": 0}
    real = shelling._least_witness

    def counted(*args):
        counts["searches"] += 1
        return real(*args)

    monkeypatch.setattr(shelling, "_least_witness", counted)
    return counts


def test_witness_searched_once_per_missing_pair_and_step(witness_searches):
    # The cords-only path searches each initially missing pair once, to seed
    # the heap; the step path searches each added cord once more.  The cord
    # sets with their least cord removed stall short of every pair.
    covers = [(tree, cover) for n in (5, 8, 12) for tree, cover, _ in
              islice(random_instances(n, 40 + n), 10)]
    tree = random_binary_tree(40, 1)
    covers.append((tree, minimalize(tree, canonical_cover(tree, seeded_chooser(1)))))
    covers += [(tree, cover.without(min(cover.cords))) for tree, cover in covers]
    stalled = 0
    for tree, cover in covers:
        n = len(cover.taxa)
        missing = n * (n - 1) // 2 - len(cover)
        witness_searches["searches"] = 0
        shellable, cords = shelling._shelling_cords(tree, cover)
        assert witness_searches["searches"] == missing
        witness_searches["searches"] = 0
        steps = list(shelling._forced_steps(tree, cover))
        assert witness_searches["searches"] == missing + len(steps)
        if shellable:
            assert cords == [step.cord for step in steps]
        stalled += not shellable
    assert len(covers) == 62 and stalled > 0
