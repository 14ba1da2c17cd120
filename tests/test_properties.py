"""Cross-module property tests tying the section, patchwork and shelling
layers together on generated instances."""

from itertools import combinations

import pytest

from tricover import (
    TreeError,
    all_cords,
    canonical_cover,
    cord_set,
    is_hall_type,
    is_shellable,
    is_triplet_cover,
    iter_sections,
    minimalize,
    patchwork_membership,
    restriction_cover,
    seeded_chooser,
    support_map,
    supported_triples,
)
from tricover.covers import TripletCover
from tricover.lab import random_binary_tree


def test_sections_are_hall_type_and_cover():
    # Every section is Hall-type and its cord set is itself a triplet cover.
    for seed in range(10):
        tree = random_binary_tree(5 + seed % 4, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        for section in iter_sections(support_map(tree, cover)):
            assert is_hall_type(tree.taxa, section)
            section_cover = TripletCover(tree.taxa, cord_set(section))
            assert is_triplet_cover(tree, section_cover)


def test_section_cover_shellability_transfers():
    # Prop-6(i)-style: if the cord set of a section is shellable, the full
    # cover is shellable (it is a superset).
    hits = 0
    for seed in range(8):
        tree = random_binary_tree(6, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        section = next(iter_sections(support_map(tree, cover)))
        section_cover = TripletCover(tree.taxa, cord_set(section))
        if is_shellable(tree, section_cover)[0]:
            assert is_shellable(tree, cover)[0]
            hits += 1
    assert hits > 3


def test_disjoint_tight_families_overlap_in_at_most_two():
    for seed in range(8):
        tree = random_binary_tree(6, seed)
        cover = minimalize(tree, canonical_cover(tree, seeded_chooser(seed)))
        section = sorted(next(iter_sections(support_map(tree, cover))))
        members = [
            frozenset(sub)
            for r in range(1, len(section))
            for sub in combinations(section, r)
            if patchwork_membership(section, sub)
        ]
        for one in members:
            for other in members:
                if one & other:
                    continue
                union_one = set().union(*(set(t) for t in one))
                union_other = set().union(*(set(t) for t in other))
                overlap = len(union_one & union_other)
                assert overlap <= 2
                if patchwork_membership(section, one | other):
                    assert overlap == 2


def test_restriction_cover_rejects_tiny_sets(fig_tree, fig_cover):
    with pytest.raises(TreeError):
        restriction_cover(fig_tree, fig_cover, {"a", "b"})


def test_every_cover_has_at_least_2n_minus_3_cords():
    for seed in range(20):
        tree = random_binary_tree(4 + seed % 6, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        n = len(cover.taxa)
        assert len(cover) >= 2 * n - 3
        assert len(minimalize(tree, cover)) >= 2 * n - 3


def test_reduction_yields_cover_of_smaller_tree():
    from tricover import PartialDistances, find_cherry, reduce_instance

    for seed in range(8):
        tree = random_binary_tree(6, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        dist = PartialDistances.from_tree(tree, cover)
        cherry = find_cherry(cover, dist)
        reduced_cover, _ = reduce_instance(cover, dist, cherry)
        smaller = tree.restrict(tree.taxa - {cherry[0]})
        assert is_triplet_cover(smaller, reduced_cover)


def test_minimal_cover_triples_cover_cords():
    # Prop 3(a): for minimal covers the supported triples' cord set is the
    # whole cover; for non-minimal ones it may fall strictly inside.
    for seed in range(8):
        tree = random_binary_tree(7, seed)
        cover = minimalize(tree, canonical_cover(tree, seeded_chooser(seed)))
        assert cord_set(supported_triples(tree, cover)) == cover.cords
    tree = random_binary_tree(7, 3)
    cover = canonical_cover(tree, "least")
    grown = cover.add_cords(sorted(all_cords(tree.taxa) - cover.cords)[:1])
    assert cord_set(supported_triples(tree, grown)) <= grown.cords
