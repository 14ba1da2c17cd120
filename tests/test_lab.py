"""Generators, enumerators and the uniqueness oracle (a test helper)."""

from fractions import Fraction
from itertools import islice

import pytest
from splits_reference import splits
from uniqueness_reference import uniqueness_oracle

from tricover import (
    CapacityError,
    PartialDistances,
    TripletCover,
    all_cords,
    canonical_cover,
    is_minimal,
    is_sparse,
    is_triplet_cover,
    parse_newick,
    seeded_chooser,
    write_newick,
)
from tricover.lab import (
    FIXTURE_PREDICATES,
    basic_flags,
    default_taxa,
    enumerate_binary_trees,
    predicate_minimum,
    random_binary_tree,
    random_instances,
    random_rational,
    search_fixture,
)


def double_factorial_topologies(n):
    out = 1
    for k in range(2 * n - 5, 1, -2):
        out *= k
    return out


def test_default_taxa():
    assert default_taxa(3) == ["a", "b", "c"]
    assert default_taxa(27)[-2:] == ["z", "t27"]
    with pytest.raises(ValueError):
        default_taxa(2)


def test_random_rational_range():
    import random

    rng = random.Random(7)
    for _ in range(200):
        q = random_rational(rng)
        assert Fraction(1, 4) <= q <= 4


def reference_random_rational(rng):
    """The earlier draw: one Fraction per try, bounded by rational compares."""
    while True:
        num = rng.randrange(1, 17)
        den = rng.randrange(1, 5)
        value = Fraction(num, den)
        if Fraction(1, 4) <= value <= 4:
            return value


def test_random_rational_stream_matches_reference():
    # Same draws, same values, so every seeded tree keeps its lengths.
    import random

    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert random_rational(ours) == reference_random_rational(theirs)
        assert ours.getstate() == theirs.getstate()


def test_random_tree_reproducible():
    t1 = random_binary_tree(8, 123)
    t2 = random_binary_tree(8, 123)
    assert write_newick(t1) == write_newick(t2)
    t3 = random_binary_tree(8, 124)
    assert write_newick(t3) != write_newick(t1)


def test_random_tree_three_taxa():
    t = random_binary_tree(3, 0)
    assert sorted(t.taxa) == ["a", "b", "c"]


def test_random_tree_topology_diversity():
    # n=8 has 10395 topologies; a modest seed sweep must already hit many.
    seen = set()
    for seed in range(300):
        tree = random_binary_tree(8, seed)
        seen.add(splits(tree))
    assert len(seen) >= 100


def test_enumeration_counts():
    for n in range(3, 8):
        count = sum(1 for _ in enumerate_binary_trees(default_taxa(n)))
        assert count == double_factorial_topologies(n)


def test_enumeration_no_duplicates():
    seen = set()
    for tree in enumerate_binary_trees("abcdef"):
        key = splits(tree)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 105


def test_enumeration_quartets():
    trees = list(enumerate_binary_trees("abcd"))
    assert len(trees) == 3
    topologies = {t.quartet_topology("a", "b", "c", "d") for t in trees}
    assert topologies == {
        (("a", "b"), ("c", "d")),
        (("a", "c"), ("b", "d")),
        (("a", "d"), ("b", "c")),
    }


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        next(enumerate_binary_trees(default_taxa(9)))


def test_uniqueness_oracle_reference(fig_tree, fig_cover, fig_dist):
    survivors = uniqueness_oracle(fig_cover, fig_dist)
    assert len(survivors) == 1
    assert survivors[0].free_dim == 0
    assert survivors[0].tree.isomorphic(fig_tree, compare_lengths=True)


def test_uniqueness_oracle_three_taxa():
    cover = TripletCover.make("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    dist = PartialDistances.make("abc", {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 3})
    survivors = uniqueness_oracle(cover, dist)
    assert len(survivors) == 1 and survivors[0].free_dim == 0


def test_uniqueness_oracle_dropped_cord(fig_tree, fig_cover, fig_dist):
    # Removing a cord may leave several candidate trees; the generator must
    # remain among them.
    reduced = TripletCover(fig_cover.taxa, fig_cover.cords - {("c", "e")})
    values = {c: v for c, v in fig_dist.values.items() if c != ("c", "e")}
    survivors = uniqueness_oracle(reduced, PartialDistances(reduced.taxa, values))
    assert survivors
    assert any(r.tree.isomorphic(fig_tree) for r in survivors)


def test_uniqueness_oracle_capacity(fig_cover, fig_dist):
    tree = random_binary_tree(8, 0)
    cover = canonical_cover(tree)
    dist = PartialDistances.from_tree(tree, cover)
    with pytest.raises(CapacityError):
        uniqueness_oracle(cover, dist)


def test_uniqueness_oracle_rejects_unrealizable(fig_cover, fig_dist):
    values = dict(fig_dist.values)
    values[("a", "b")] = Fraction(10)
    assert uniqueness_oracle(fig_cover, PartialDistances(fig_cover.taxa, values)) == []


def test_random_instances_deterministic():
    first = list(islice(random_instances(6, 5), 4))
    second = list(islice(random_instances(6, 5), 4))
    for (t1, c1, p1), (t2, c2, p2) in zip(first, second):
        assert write_newick(t1) == write_newick(t2)
        assert c1.cords == c2.cords
        assert p1 == p2
        assert is_triplet_cover(t1, c1)


def test_search_fixture_minimum_trivial():
    record = search_fixture(predicate_minimum, [5], budget=200, seed=0)
    assert record is not None
    n = len(record.cover.taxa)
    assert len(record.cover) == 2 * n - 3
    assert record.flags["is_minimum"]
    assert record.flags["is_sparse"]


def test_search_fixture_budget_exhaustion():
    never = lambda tree, cover: False
    assert search_fixture(never, [5], budget=50, seed=0) is None


def test_fixture_predicates_registered():
    assert set(FIXTURE_PREDICATES) == {
        "minimal-not-sparse",
        "sparse-minimal-mu4",
        "sparse-not-shellable",
        "sparse-shellable-not-ample",
        "minimum",
    }


def test_basic_flags_recompute(fig_tree, fig_cover):
    flags = basic_flags(fig_tree, fig_cover)
    assert flags["is_cover"] and flags["is_minimum"] and flags["is_sparse"]
    assert flags["mu"] == 2
    broken = fig_cover.without(("c", "e"))
    assert not basic_flags(fig_tree, broken)["is_cover"]
