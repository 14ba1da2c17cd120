"""Minimality from one support map, checked against the cord-by-cord oracle.

``is_minimal`` and ``minimalize`` read everything from a single support map:
a cord is required when it lies in every supporting triple of some vertex.
The reference implementations below are the definition taken literally:
remove one cord, rerun the full cover test, repeat.  Verdicts and resulting
cord sets must agree exactly.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    NotTripletCoverError,
    PhyloTree,
    all_cords,
    canonical_cover,
    is_minimal,
    is_triplet_cover,
    minimalize,
    seeded_chooser,
)
from tricover import cli, covers, lab, report, shelling
from tricover.lab import random_binary_tree, random_instances


def reference_is_minimal(tree, cover):
    if not is_triplet_cover(tree, cover):
        raise NotTripletCoverError("reference: not a triplet cover")
    return not any(
        is_triplet_cover(tree, cover.without(c)) for c in sorted(cover.cords)
    )


def reference_minimalize(tree, cover):
    if not is_triplet_cover(tree, cover):
        raise NotTripletCoverError("reference: not a triplet cover")
    current = cover
    for c in sorted(cover.cords):
        candidate = current.without(c)
        if is_triplet_cover(tree, candidate):
            current = candidate
    return current


def assert_agree(tree, cover):
    assert is_minimal(tree, cover) == reference_is_minimal(tree, cover)
    assert minimalize(tree, cover).cords == reference_minimalize(tree, cover).cords


def test_agrees_on_acceptance_pool():
    # The acceptance suite's pool (50 covers per n in 4..9), each as given
    # and grown by a second chooser cover so that most are not minimal.
    checked = 0
    for n in range(4, 10):
        for i, (tree, cover, _) in enumerate(
            islice(random_instances(n, 1000 + n), 50)
        ):
            assert_agree(tree, cover)
            grown = cover.add_cords(canonical_cover(tree, seeded_chooser(i)).cords)
            assert_agree(tree, grown)
            checked += 1
    assert checked == 300


@pytest.mark.parametrize("n", [12, 24, 40, 64])
def test_agrees_on_seeded_chooser_covers(n):
    for seed in range(2):
        tree = random_binary_tree(n, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        assert_agree(tree, cover)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=10),
    tree_seed=st.integers(min_value=0, max_value=10**6),
    chooser_seed=st.integers(min_value=0, max_value=10**6),
    extra=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
)
def test_agrees_on_hypothesis_covers(n, tree_seed, chooser_seed, extra):
    tree = random_binary_tree(n, tree_seed)
    cover = canonical_cover(tree, seeded_chooser(chooser_seed))
    pairs = sorted(all_cords(tree.taxa))
    grown = cover.add_cords(pairs[k % len(pairs)] for k in extra)
    assert_agree(tree, grown)


def test_non_cover_rejected_by_both(fig_tree, fig_cover):
    broken = fig_cover.without(("c", "e"))
    for fn in (is_minimal, minimalize, reference_is_minimal, reference_minimalize):
        with pytest.raises(NotTripletCoverError):
            fn(fig_tree, broken)


@pytest.fixture(scope="module")
def non_minimal():
    """A chooser cover that is not minimal, found before any counting."""
    for seed in range(20):
        tree = random_binary_tree(12, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        if not reference_is_minimal(tree, cover):
            return tree, cover
    raise AssertionError("no non-minimal chooser cover in 20 seeds")


@pytest.fixture
def call_counts(non_minimal, monkeypatch):
    """Counts support-map builds, the per-vertex component scans made while
    building them and cover tests, in every module that binds those names."""
    counts = {"support_map": 0, "full_scans": 0, "is_triplet_cover": 0}
    real_map = covers.support_map
    real_masks = PhyloTree._component_masks
    real_cover = covers.is_triplet_cover
    building = []

    def support_map(tree, cover):
        counts["support_map"] += 1
        building.append(tree)
        try:
            return real_map(tree, cover)
        finally:
            building.pop()

    def scan(tree, v):
        if building:
            counts["full_scans"] += 1
        return real_masks(tree, v)

    def cover_test(tree, cover):
        counts["is_triplet_cover"] += 1
        return real_cover(tree, cover)

    monkeypatch.setattr(PhyloTree, "_component_masks", scan)
    for module in (covers, report, shelling, cli, lab):
        for name, fake in (("support_map", support_map), ("is_triplet_cover", cover_test)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fake)
    return counts


def test_classify_builds_one_support_map(non_minimal, call_counts):
    tree, cover = non_minimal
    result = report.classify(tree, cover)
    assert result["is_minimal"] is False
    assert call_counts["support_map"] == 1
    assert call_counts["full_scans"] == len(tree.interior_vertices())
    assert call_counts["is_triplet_cover"] == 0


@pytest.mark.parametrize("entry", [is_minimal, minimalize, lab.basic_flags])
def test_minimality_builds_one_support_map(non_minimal, call_counts, entry):
    tree, cover = non_minimal
    entry(tree, cover)
    assert call_counts["support_map"] == 1
    assert call_counts["full_scans"] == len(tree.interior_vertices())
    assert call_counts["is_triplet_cover"] == 0
