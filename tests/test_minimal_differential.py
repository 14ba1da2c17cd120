"""Minimality from one support map, checked against the cord-by-cord oracle.

``is_minimal`` and ``minimalize`` read everything from a single support map:
a cord is required when it lies in every supporting triple of some vertex.
The reference implementations below are the definition taken literally:
remove one cord, rerun the full cover test, repeat.  Verdicts and resulting
cord sets must agree exactly.  That reference is too slow above n = 64, so
the large covers are checked against ``reference_trial_minimalize``, the
earlier pass that rebuilt every vertex's live support at each cord's trial.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    NotTripletCoverError,
    TripletCover,
    all_cords,
    canonical_cover,
    cord_set,
    is_minimal,
    is_triplet_cover,
    minimalize,
    seeded_chooser,
    supported_triples,
)
from tricover import cli, covers, lab, report, shelling
from tricover.covers import cover_support
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


def reference_trial_minimalize(tree, cover):
    live = cover_support(tree, cover, "minimalize")
    kept = set(cover.cords)
    for a, b in sorted(cover.cords):
        trial = {
            v: [t for t in triples if a not in t or b not in t]
            for v, triples in live.items()
        }
        if all(trial.values()):
            live = trial
            kept.remove((a, b))
    return TripletCover(cover.taxa, frozenset(kept))


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


@pytest.mark.parametrize("n", [80, 96, 160, 320])
def test_live_counts_agree_with_trial_pass(n):
    # Chooser covers, and the same covers grown by a second chooser cover so
    # that many more cords are tried and many more triples die.
    for seed in range(2):
        tree = random_binary_tree(n, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        second = canonical_cover(tree, seeded_chooser(seed + 100))
        grown = cover.add_cords(second.cords)
        for candidate in (cover, grown):
            result = minimalize(tree, candidate)
            assert result.cords == reference_trial_minimalize(tree, candidate).cords
            assert is_minimal(tree, result)


def union_cover(tree, seed):
    """The union of a seeded and a balanced chooser cover, as the fixture
    search's union mode builds it before minimalizing."""
    first = canonical_cover(tree, seeded_chooser(seed))
    second = canonical_cover(tree, lab.balanced_chooser(seed + 1))
    return TripletCover(tree.taxa, first.cords | second.cords)


@pytest.mark.parametrize("n", [64, 96])
def test_union_covers_agree_with_trial_pass(n):
    # The round trip's sizes, on the fixture search's union covers.
    for seed in range(3):
        tree = random_binary_tree(n, 10 * n + seed)
        cover = union_cover(tree, seed)
        result = minimalize(tree, cover)
        assert result.cords == reference_trial_minimalize(tree, cover).cords
        assert is_minimal(tree, result)


def loose_cords(tree, cover):
    """The cords that lie in no supported triple."""
    return cover.cords - cord_set(supported_triples(tree, cover))


@pytest.mark.parametrize("n", [8, 12, 24, 64])
def test_cords_in_no_supported_triple_are_dropped(n):
    # Chooser covers grown by missing pairs that stay in no supported
    # triple (about 60 pairs tried per cover); at n = 5 no pair does.
    dropped = 0
    for seed in range(4):
        tree = random_binary_tree(n, seed)
        grown = canonical_cover(tree, seeded_chooser(seed))
        missing = sorted(all_cords(tree.taxa) - grown.cords)
        for pair in missing[seed :: max(1, len(missing) // 60)]:
            trial = grown.add_cords([pair])
            if pair in loose_cords(tree, trial):
                grown = trial
        loose = loose_cords(tree, grown)
        dropped += len(loose)
        result = minimalize(tree, grown)
        assert not result.cords & loose
        assert result.cords == reference_trial_minimalize(tree, grown).cords
        if n <= 12:
            assert result.cords == reference_minimalize(tree, grown).cords
    assert dropped >= 4


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
    """Counts support searches (``_support_masks`` runs), the per-vertex
    component reads made during them and cover tests, in every module that
    binds those names.  The reads are counted on the fixture tree's index."""
    counts = {"support_search": 0, "component_reads": 0, "is_triplet_cover": 0}
    real_search = covers._support_masks
    real_cover = covers.is_triplet_cover
    searching = []

    class CountedReads(dict):
        def __getitem__(self, v):
            if searching:
                counts["component_reads"] += 1
            return super().__getitem__(v)

    def support_search(tree, cover):
        counts["support_search"] += 1
        searching.append(tree)
        try:
            return real_search(tree, cover)
        finally:
            searching.pop()

    def cover_test(tree, cover):
        counts["is_triplet_cover"] += 1
        return real_cover(tree, cover)

    tree, _ = non_minimal
    index = tree._index
    monkeypatch.setattr(
        tree, "_index", index._replace(components=CountedReads(index.components))
    )
    for module in (covers, report, shelling, cli, lab):
        for name, fake in (
            ("_support_masks", support_search),
            ("is_triplet_cover", cover_test),
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fake)
    return counts


def test_classify_builds_one_support_map(non_minimal, call_counts):
    tree, cover = non_minimal
    result = report.classify(tree, cover)
    assert result["is_minimal"] is False
    assert call_counts["support_search"] == 1
    assert call_counts["component_reads"] == len(tree.interior_vertices())
    assert call_counts["is_triplet_cover"] == 0


@pytest.mark.parametrize("entry", [is_minimal, minimalize, lab.basic_flags])
def test_minimality_builds_one_support_map(non_minimal, call_counts, entry):
    tree, cover = non_minimal
    entry(tree, cover)
    assert call_counts["support_search"] == 1
    assert call_counts["component_reads"] == len(tree.interior_vertices())
    assert call_counts["is_triplet_cover"] == 0
