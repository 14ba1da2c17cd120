"""Supports, sections, multiplicities and the cover predicates.

Expected values for the reference instance were derived by hand from the
definitions (component-per-vertex enumeration); the Hall-type cases were
checked by explicit subset enumeration before freezing.
"""

from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    CapacityError,
    CoverError,
    NotTripletCoverError,
    TripletCover,
    all_cords,
    canonical_cover,
    cord_set,
    is_hall_type,
    is_minimal,
    is_shellable,
    is_sparse,
    is_triplet_cover,
    iter_sections,
    minimalize,
    parse_newick,
    section_count,
    seeded_chooser,
    support_map,
    supported_triples,
)
from tricover import lab, report
from tricover.covers import cover_support, required_cords, unsupported_vertex
from tricover.lab import random_binary_tree


def support_by_name(tree, cover):
    return {
        tree.component_triple(v): set(triples)
        for v, triples in support_map(tree, cover).items()
    }


def test_support_map_reference(fig_tree, fig_cover):
    named = support_by_name(fig_tree, fig_cover)
    assert named == {
        ("a", "b", "c"): {("a", "b", "c")},
        ("a", "c", "d"): {("b", "c", "e")},
        ("a", "d", "e"): {("c", "d", "e")},
    }


def test_support_map_empty_cover(fig_tree):
    empty = TripletCover.make("abcde", [])
    assert all(not s for s in support_map(fig_tree, empty).values())


def test_support_map_full_cover(fig_tree):
    full = TripletCover.make("abcde", all_cords("abcde"))
    named = support_by_name(fig_tree, full)
    assert named[("a", "b", "c")] == {
        ("a", "b", "c"),
        ("a", "b", "d"),
        ("a", "b", "e"),
    }


def test_support_taxon_mismatch(fig_tree):
    with pytest.raises(CoverError):
        support_map(fig_tree, TripletCover.make("abcdx", [("a", "b")]))


def test_supports_disjoint_on_random_instances():
    for seed in range(8):
        tree = random_binary_tree(4 + seed, seed)
        cover = TripletCover(tree.taxa, all_cords(tree.taxa))
        support = support_map(tree, cover)
        seen = set()
        for triples in support.values():
            assert not (seen & triples)
            seen |= triples


def test_is_triplet_cover(fig_tree, fig_cover):
    assert is_triplet_cover(fig_tree, fig_cover)
    broken = fig_cover.without(("c", "e"))
    assert not is_triplet_cover(fig_tree, broken)
    assert unsupported_vertex(fig_tree, support_map(fig_tree, broken)) == (
        "a", "c", "d"
    )
    assert unsupported_vertex(fig_tree, support_map(fig_tree, fig_cover)) is None
    with pytest.raises(NotTripletCoverError, match=r"\('a', 'c', 'd'\)"):
        cover_support(fig_tree, broken, "test")


def test_three_leaf_cover():
    star = parse_newick("(a:1,b:2,c:3);")
    cover = TripletCover.make("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    assert is_triplet_cover(star, cover)
    assert is_minimal(star, cover)
    assert is_sparse(star, cover)


def test_triple_set_reference(fig_tree, fig_cover):
    triples = supported_triples(fig_tree, fig_cover)
    assert triples == frozenset(
        {("a", "b", "c"), ("b", "c", "e"), ("c", "d", "e")}
    )
    assert len(triples) == len(fig_cover.taxa) - 2  # sparse


def test_triple_set_union_and_size_bound():
    for seed in range(10):
        tree = random_binary_tree(5 + seed % 4, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        triples = supported_triples(tree, cover)
        assert set().union(*(set(t) for t in triples)) == set(tree.taxa)
        assert len(triples) >= len(tree.taxa) - 2


def test_multiplicity(fig_cover):
    assert fig_cover.multiplicity("a") == 2
    assert fig_cover.multiplicity("c") == 4
    assert fig_cover.min_multiplicity() == 2
    assert TripletCover.make("abcde", []).min_multiplicity() == 0
    with pytest.raises(CoverError):
        fig_cover.multiplicity("zz")


def test_is_minimal(fig_tree, fig_cover):
    assert is_minimal(fig_tree, fig_cover)
    assert not is_minimal(fig_tree, fig_cover.add_cords([("a", "d")]))
    with pytest.raises(NotTripletCoverError):
        is_minimal(fig_tree, fig_cover.without(("c", "e")))


def test_minimalize_trace(fig_tree, fig_cover):
    # Lexicographic pass over {ab,ac,ad,ae,bc,be,cd,ce,de}: ab is forced,
    # ac drops (abe supports the cherry vertex once ae exists), ad drops,
    # everything else is forced.  Derived by tracing the policy by hand.
    grown = fig_cover.add_cords([("a", "d"), ("a", "e")])
    result = minimalize(fig_tree, grown)
    assert result.cords == frozenset(
        [("a", "b"), ("a", "e"), ("b", "c"), ("b", "e"),
         ("c", "d"), ("c", "e"), ("d", "e")]
    )
    assert is_minimal(fig_tree, result)
    assert result.cords <= grown.cords


def test_minimalize_fixed_point(fig_tree, fig_cover):
    assert minimalize(fig_tree, fig_cover).cords == fig_cover.cords


def test_minimalize_full_cover_size_bounds(fig_tree):
    full = TripletCover(fig_tree.taxa, all_cords(fig_tree.taxa))
    result = minimalize(fig_tree, full)
    n = len(fig_tree.taxa)
    assert 2 * n - 3 <= len(result) <= 3 * n - 6
    assert is_minimal(fig_tree, result)


def test_required_cords_reference(fig_tree, fig_cover):
    # Every cord of the sparse reference cover lies in the single triple of
    # some support.  Adding ad gives the middle vertex a second triple, acd,
    # next to bce; they share no cord, so ad and be become optional.
    assert required_cords(support_map(fig_tree, fig_cover)) == fig_cover.cords
    grown = fig_cover.add_cords([("a", "d")])
    required = required_cords(support_map(fig_tree, grown))
    assert required == fig_cover.cords - {("b", "e")}
    assert required == {
        c for c in grown.cords if not is_triplet_cover(fig_tree, grown.without(c))
    }


def test_is_sparse(fig_tree, fig_cover):
    assert is_sparse(fig_tree, fig_cover)
    full = TripletCover(fig_tree.taxa, all_cords(fig_tree.taxa))
    assert not is_sparse(fig_tree, full)


def test_hall_type_cases():
    assert is_hall_type(
        "abcde", [("a", "b", "c"), ("b", "c", "e"), ("c", "d", "e")]
    )
    assert is_hall_type(
        "abcde", [("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")]
    )
    # Fails union-covers-X.
    assert not is_hall_type("abcde", [("a", "b", "c"), ("a", "b", "d")])
    # Single triple over its own taxa.
    assert is_hall_type("abc", [("a", "b", "c")])
    # Genuine deficiency: four triples inside four taxa.
    assert not is_hall_type(
        "abcd",
        [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")],
    )


def test_hall_type_brute_force_agreement():
    # Independent oracle: literal enumeration over all nonempty subfamilies.
    def oracle(taxa, triples):
        triples = list(triples)
        if set().union(*(set(t) for t in triples)) != set(taxa):
            return False
        for r in range(1, len(triples) + 1):
            for sub in combinations(triples, r):
                union = set().union(*(set(t) for t in sub))
                if len(union) < len(sub) + 2:
                    return False
        return True

    for seed in range(10):
        tree = random_binary_tree(6, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        triples = supported_triples(tree, cover)
        assert is_hall_type(tree.taxa, triples) == oracle(tree.taxa, triples)


def test_hall_type_capacity():
    triples = [tuple(sorted((f"t{i}", f"t{i+1}", f"t{i+2}"))) for i in range(23)]
    taxa = sorted({x for t in triples for x in t})
    with pytest.raises(CapacityError):
        is_hall_type(taxa, triples)


def test_sections_reference(fig_tree, fig_cover):
    support = support_map(fig_tree, fig_cover)
    assert section_count(support) == 1
    sections = list(islice(iter_sections(support), 10))
    assert sections == [
        frozenset({("a", "b", "c"), ("b", "c", "e"), ("c", "d", "e")})
    ]


def test_sections_full_cover(fig_tree):
    full = TripletCover(fig_tree.taxa, all_cords(fig_tree.taxa))
    support = support_map(fig_tree, full)
    total = section_count(support)
    assert total == 3 * 4 * 3  # component products of the reference shape
    assert len(list(iter_sections(support))) == total
    assert len(list(islice(iter_sections(support), 5))) == 5


def test_sections_require_cover(fig_tree, fig_cover):
    support = support_map(fig_tree, fig_cover.without(("c", "e")))
    with pytest.raises(NotTripletCoverError):
        list(iter_sections(support))


def test_sections_lazy_and_deterministic(fig_tree):
    full = TripletCover(fig_tree.taxa, all_cords(fig_tree.taxa))
    support = support_map(fig_tree, full)
    first = next(iter_sections(support))
    assert first == next(iter_sections(support))
    assert [first] == list(islice(iter_sections(support), 1))


def test_cord_set():
    assert cord_set([("a", "b", "c"), ("b", "c", "e"), ("c", "d", "e")]) == frozenset(
        [("a", "b"), ("a", "c"), ("b", "c"), ("b", "e"),
         ("c", "e"), ("c", "d"), ("d", "e")]
    )
    assert cord_set([]) == frozenset()
    assert cord_set([("a", "b", "c")]) == frozenset(
        [("a", "b"), ("a", "c"), ("b", "c")]
    )


def test_canonical_cover_least(fig_tree):
    cover = canonical_cover(fig_tree, "least")
    assert cover.cords == frozenset(
        [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"),
         ("c", "d"), ("a", "e"), ("d", "e")]
    )
    assert is_triplet_cover(fig_tree, cover)


def test_canonical_cover_three_leaf():
    star = parse_newick("(a:1,b:2,c:3);")
    assert canonical_cover(star).cords == frozenset(
        [("a", "b"), ("a", "c"), ("b", "c")]
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 9))
def test_canonical_cover_always_covers(seed, n):
    tree = random_binary_tree(n, seed)
    assert is_triplet_cover(tree, canonical_cover(tree, seeded_chooser(seed)))
    assert is_triplet_cover(tree, canonical_cover(tree, "least"))


def test_seeded_chooser_deterministic(fig_tree):
    c1 = canonical_cover(fig_tree, seeded_chooser(99))
    c2 = canonical_cover(fig_tree, seeded_chooser(99))
    assert c1.cords == c2.cords


def test_foreign_taxon_cord_is_one_cover_error():
    # TripletCover.make refuses such cords; every entry point that reads the
    # cords raises the same error for a cover built without it.
    tree = random_binary_tree(6, 1)
    cover = canonical_cover(tree)
    bad = TripletCover(cover.taxa, cover.cords | {("b", "zy"), ("a", "zz")})
    entries = [
        is_triplet_cover, support_map, minimalize, is_minimal, is_sparse,
        is_shellable, lab.basic_flags, report.classify,
    ]
    for entry in entries:
        with pytest.raises(CoverError, match=r"^cord a,zz uses a taxon outside"):
            entry(tree, bad)
    with pytest.raises(CoverError, match=r"^cord a,zz uses a taxon outside"):
        bad.min_multiplicity()
    with pytest.raises(CoverError, match=r"^cord a,zz uses a taxon outside"):
        TripletCover.make(cover.taxa, [("a", "zz")])


def test_cover_validation():
    with pytest.raises(CoverError):
        TripletCover.make("ab", [("a", "b")])  # too few taxa
    with pytest.raises(CoverError):
        TripletCover.make("abc", [("a", "x")])  # unknown taxon
    with pytest.raises(CoverError):
        TripletCover.make("abc", [("a", "a")])  # degenerate cord


def test_minimal_cover_cords_inside_triples(fig_tree, fig_cover):
    # Every cord of a minimal cover lies inside a supported triple.
    triples = supported_triples(fig_tree, fig_cover)
    assert fig_cover.cords <= cord_set(triples)
    assert cord_set(triples) == fig_cover.cords
