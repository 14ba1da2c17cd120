"""Cherry-reduction reconstruction: pendant lengths, cherries, round-trips.

Expected pendant values are frozen from the independent path-sum oracle (the
forward distances of the fixture tree), not from the formula under test.
"""

from fractions import Fraction

import pytest

from conftest import cherries
from tricover import (
    CoverError,
    NotRealizableError,
    PartialDistances,
    TripletCover,
    canonical_cover,
    find_cherry,
    parse_newick,
    pendant_length,
    reconstruct,
    reduce_instance,
    seeded_chooser,
)
from tricover.lab import random_binary_tree


def test_pendant_lengths_reference(fig_tree, fig_cover, fig_dist):
    # Oracle: pendant edges of the fixture tree all have length 1.
    for taxon in sorted(fig_cover.taxa):
        leaf = fig_tree.leaf(taxon)
        (nbr,) = fig_tree.neighbors(leaf)
        assert fig_tree.edge_length(leaf, nbr) == 1
        assert pendant_length(taxon, fig_cover, fig_dist) == 1


def test_pendant_three_leaf():
    star = parse_newick("(a:1,b:1/2,c:2);")
    cover = TripletCover.make("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    dist = PartialDistances.from_tree(star, cover)
    assert pendant_length("a", cover, dist) == 1
    assert pendant_length("b", cover, dist) == Fraction(1, 2)
    assert pendant_length("c", cover, dist) == 2


def test_pendant_needs_covered_triple(fig_dist):
    sparse_cords = TripletCover.make("abcde", [("a", "b"), ("c", "d")])
    dist = PartialDistances.make(
        "abcde", {("a", "b"): 2, ("c", "d"): 3}
    )
    with pytest.raises(NotRealizableError, match="pendant"):
        pendant_length("a", sparse_cords, dist)


def test_find_cherry_reference(fig_cover, fig_dist):
    # Both ab and de qualify; the lexicographic tie-break picks ab.
    assert find_cherry(fig_cover, fig_dist) == ("a", "b")


def test_find_cherry_quartet_cover():
    tree = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
    cover = canonical_cover(tree, "least")
    dist = PartialDistances.from_tree(tree, cover)
    assert find_cherry(cover, dist) == ("a", "b")


def test_minimum_cover_perturbation_stays_realizable(fig_tree, fig_cover, fig_dist):
    # A minimum cover pins exactly 2n-3 values, so nudging one of them just
    # moves to a different tree; the decision procedure must accept it.
    values = dict(fig_dist.values)
    values[("a", "b")] = Fraction(5, 2)
    result = reconstruct(fig_cover, PartialDistances(fig_dist.taxa, values))
    assert result.tree.distance("a", "b") == Fraction(5, 2)
    assert not result.tree.isomorphic(fig_tree, compare_lengths=True)


def test_corruption_rejected_no_cherry():
    # Full cover on a quartet with d(a,b) = 5: every pendant estimate drops
    # below the cherry sums, so no cord passes the criterion.
    from tricover import all_cords

    cover = TripletCover.make("abcd", all_cords("abcd"))
    dist = PartialDistances.make(
        "abcd",
        {("a", "b"): 5, ("a", "c"): 3, ("a", "d"): 3,
         ("b", "c"): 3, ("b", "d"): 3, ("c", "d"): 2},
    )
    with pytest.raises(NotRealizableError) as err:
        reconstruct(cover, dist)
    assert err.value.stage == "cherry"


def test_corruption_rejected_negative_pendant(fig_cover, fig_dist):
    # d(a,b) = 10 violates the triangle inequality through c, surfacing as a
    # non-positive pendant estimate.
    values = dict(fig_dist.values)
    values[("a", "b")] = Fraction(10)
    with pytest.raises(NotRealizableError) as err:
        reconstruct(fig_cover, PartialDistances(fig_dist.taxa, values))
    assert err.value.stage == "pendant"


def test_reduce_instance_reference(fig_cover, fig_dist):
    reduced_cover, reduced_dist = reduce_instance(fig_cover, fig_dist, ("a", "b"))
    assert reduced_cover.taxa == frozenset("bcde")
    # ac rewrites to bc with 3 + 1 - 1 = 3, colliding consistently.
    assert reduced_dist[("b", "c")] == 3
    assert ("a", "b") not in reduced_cover.cords
    assert reduced_cover.cords == frozenset(
        [("b", "c"), ("b", "e"), ("c", "d"), ("c", "e"), ("d", "e")]
    )


def test_reduce_instance_symmetric_cherry():
    tree = parse_newick("((a:1,b:1):1,c:1,(d:1,e:1):1);")
    cover = canonical_cover(tree, "least")
    dist = PartialDistances.from_tree(tree, cover)
    x, y = find_cherry(cover, dist)
    _, reduced = reduce_instance(cover, dist, (x, y))
    # lambda(a) == lambda(b) == 1, so rewritten values equal the originals.
    for c, value in reduced.values.items():
        if y in c:
            z = c[0] if c[1] == y else c[1]
            original = dist.values.get(tuple(sorted((x, z))))
            if original is not None:
                assert value == original


def test_reduce_instance_inconsistent_collision():
    # Hand-built: (a,b) passes the cherry test but rewriting ad to bd gives
    # 6 + 1 - 1 = 6 against an existing bd of 13/2.
    cover = TripletCover.make(
        "abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]
    )
    dist = PartialDistances.make(
        "abcd",
        {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 3,
         ("a", "d"): 6, ("b", "d"): Fraction(13, 2)},
    )
    with pytest.raises(NotRealizableError) as err:
        reduce_instance(cover, dist, ("a", "b"))
    assert err.value.stage == "reduce"


def test_reconstruct_reference(fig_tree, fig_cover, fig_dist):
    result = reconstruct(fig_cover, fig_dist)
    assert result.tree.isomorphic(fig_tree, compare_lengths=True)
    assert [entry[0] for entry in result.cherry_log] == [("a", "b"), ("b", "c")]


def test_reconstruct_three_taxa():
    cover = TripletCover.make("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    dist = PartialDistances.make("abc", {("a", "b"): 2, ("a", "c"): 3, ("b", "c"): 3})
    result = reconstruct(cover, dist)
    tree = result.tree
    center = tree.interior_vertices()[0]
    assert tree.edge_length(tree.leaf("a"), center) == 1
    assert tree.edge_length(tree.leaf("b"), center) == 1
    assert tree.edge_length(tree.leaf("c"), center) == 2


def test_reconstruct_requires_matching_support(fig_cover, fig_dist):
    smaller = PartialDistances(
        fig_dist.taxa,
        {c: v for c, v in fig_dist.values.items() if c != ("a", "b")},
    )
    with pytest.raises(CoverError):
        reconstruct(fig_cover, smaller)


def test_reconstruct_detects_unrealizable_perturbation(fig_cover, fig_dist):
    values = dict(fig_dist.values)
    values[("c", "e")] = Fraction(10)
    with pytest.raises(NotRealizableError):
        reconstruct(fig_cover, PartialDistances(fig_dist.taxa, values))


def test_cherry_candidates_are_true_cherries():
    for seed in range(15):
        tree = random_binary_tree(4 + seed % 6, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        dist = PartialDistances.from_tree(tree, cover)
        pendants = {x: pendant_length(x, cover, dist) for x in sorted(cover.taxa)}
        true_cherries = cherries(tree)
        passing = {
            c
            for c in cover.cords
            if dist[c] == pendants[c[0]] + pendants[c[1]]
        }
        assert passing
        assert passing <= true_cherries
        # Pendant estimates equal the real pendant edge lengths.
        for taxon, value in pendants.items():
            leaf = tree.leaf(taxon)
            (nbr,) = tree.neighbors(leaf)
            assert value == tree.edge_length(leaf, nbr)


def test_roundtrip_random_instances():
    for seed in range(40):
        n = 4 + seed % 7
        tree = random_binary_tree(n, seed)
        chooser = seeded_chooser(seed) if seed % 2 else "least"
        cover = canonical_cover(tree, chooser)
        dist = PartialDistances.from_tree(tree, cover)
        result = reconstruct(cover, dist)
        assert result.tree.isomorphic(tree, compare_lengths=True)


def test_reduction_preserves_realizability():
    tree = random_binary_tree(7, 11)
    cover = canonical_cover(tree, "least")
    dist = PartialDistances.from_tree(tree, cover)
    cherry = find_cherry(cover, dist)
    reduced_cover, reduced_dist = reduce_instance(cover, dist, cherry)
    smaller = tree.restrict(tree.taxa - {cherry[0]})
    matrix = smaller.distance_matrix()
    for c, value in reduced_dist.values.items():
        assert matrix[c] == value


def test_distances_exact_and_never_float():
    dist = PartialDistances.make("abc", {("a", "b"): "0.1", ("b", "c"): 3})
    assert dist[("a", "b")] == Fraction(1, 10)
    with pytest.raises(CoverError, match="floats are not accepted"):
        PartialDistances.make("abc", {("a", "b"): 0.1})
    with pytest.raises(CoverError, match="bad rational"):
        PartialDistances.make("abc", {("a", "b"): "1/0"})
