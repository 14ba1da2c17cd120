"""Cord closure, shelling witnesses, patchworks and ample hierarchies."""

import random
from itertools import combinations

import pytest
from closure_reference import random_order_closure
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    CapacityError,
    NotTripletCoverError,
    SectionError,
    ShellingStep,
    TripletCover,
    WitnessError,
    all_cords,
    canonical_cover,
    cord_closure,
    cord_set,
    is_ample,
    is_shellable,
    is_triplet_cover,
    make_quartet,
    minimalize,
    parse_newick,
    patchwork_membership,
    restriction_cover,
    seeded_chooser,
    shellable_via_patchwork,
    support_map,
    supported_triples,
    verify_shelling,
)
from tricover.lab import random_binary_tree

FIG_SECTION = frozenset({("a", "b", "c"), ("b", "c", "e"), ("c", "d", "e")})


def test_closure_reference(fig_tree, fig_cover):
    closed, steps = cord_closure(fig_tree, fig_cover)
    assert closed == all_cords(fig_cover.taxa)
    assert {s.cord for s in steps} == {("a", "d"), ("a", "e"), ("b", "d")}
    verify_shelling(fig_tree, fig_cover, steps)


def test_closure_full_cover_is_fixed_point(fig_tree):
    full = TripletCover(fig_tree.taxa, all_cords(fig_tree.taxa))
    closed, steps = cord_closure(fig_tree, full)
    assert closed == full.cords
    assert steps == ()


def test_closure_requires_cover(fig_tree, fig_cover):
    with pytest.raises(NotTripletCoverError):
        cord_closure(fig_tree, fig_cover.without(("c", "e")))
    # Each gate keeps its prefix and names the least unsupported vertex.
    bad = fig_cover.without(("c", "e"))
    vertex = r"; interior vertex \('a', 'c', 'd'\) is unsupported$"
    for entry, prefix in (
        (cord_closure, "cord closure"),
        (is_shellable, "is_shellable"),
        (lambda tree, cover: verify_shelling(tree, cover, ()), "verification"),
    ):
        text = f"^{prefix} requires a triplet cover{vertex}"
        with pytest.raises(NotTripletCoverError, match=text):
            entry(fig_tree, bad)


def test_is_shellable_reference(fig_tree, fig_cover):
    ok, steps = is_shellable(fig_tree, fig_cover)
    assert ok
    verify_shelling(fig_tree, fig_cover, steps)


def test_three_taxon_cover_shellable():
    star = parse_newick("(a:1,b:2,c:3);")
    cover = TripletCover.make("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    ok, steps = is_shellable(star, cover)
    assert ok and steps == ()
    verify_shelling(star, cover, steps)


def test_paper_step_order_verifies(fig_tree, fig_cover):
    # The published shelling ae, bd, ad for the reference cover.
    steps = (
        ShellingStep(("a", "e"), ("b", "c"), make_quartet(("a", "b"), ("c", "e"))),
        ShellingStep(("b", "d"), ("c", "e"), make_quartet(("b", "c"), ("d", "e"))),
        ShellingStep(("a", "d"), ("b", "c"), make_quartet(("a", "b"), ("c", "d"))),
    )
    verify_shelling(fig_tree, fig_cover, steps)


def test_verifier_rejects_bad_witnesses(fig_tree, fig_cover):
    good = (
        ShellingStep(("a", "e"), ("b", "c"), make_quartet(("a", "b"), ("c", "e"))),
        ShellingStep(("b", "d"), ("c", "e"), make_quartet(("b", "c"), ("d", "e"))),
        ShellingStep(("a", "d"), ("b", "c"), make_quartet(("a", "b"), ("c", "d"))),
    )
    # Incomplete.
    with pytest.raises(WitnessError, match="incomplete"):
        verify_shelling(fig_tree, fig_cover, good[:2])
    # Cord not yet supported: ad first needs bd or the ce route.
    with pytest.raises(WitnessError, match="not yet available"):
        verify_shelling(fig_tree, fig_cover, (good[2], good[0], good[1]))
    # Witness pair on the wrong side of the quartet.
    bad_pairing = (
        ShellingStep(("a", "e"), ("c", "b"), make_quartet(("a", "c"), ("b", "e"))),
    ) + good[1:]
    with pytest.raises(WitnessError, match="does not pair"):
        verify_shelling(fig_tree, fig_cover, bad_pairing)
    # Recorded quartet disagreeing with the tree.
    tampered = (
        ShellingStep(("a", "e"), ("b", "c"), make_quartet(("a", "c"), ("b", "e"))),
    ) + good[1:]
    with pytest.raises(WitnessError):
        verify_shelling(fig_tree, fig_cover, tampered)
    # Already-present cord.
    with pytest.raises(WitnessError, match="already available"):
        verify_shelling(
            fig_tree,
            fig_cover,
            (
                ShellingStep(
                    ("a", "b"), ("c", "d"), make_quartet(("a", "c"), ("b", "d"))
                ),
            ),
        )


@pytest.mark.parametrize("left", [1, 9, 10, 11, 12, "all"])
def test_incomplete_witness_names_at_most_ten_pairs(left):
    # A witness cut short leaves pairs missing.  Up to ten are listed as
    # they always were; a longer list names the first ten and the count.
    tree = random_binary_tree(12, 3)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(3)))
    shellable, steps = is_shellable(tree, cover)
    assert shellable and len(steps) > 12
    kept = () if left == "all" else steps[: len(steps) - left]
    missing = sorted({step.cord for step in steps[len(kept):]})
    with pytest.raises(WitnessError) as info:
        verify_shelling(tree, cover, kept)
    if len(missing) <= 10:
        assert str(info.value) == f"witness incomplete: {missing!r} never added"
    else:
        assert str(info.value) == (
            f"witness incomplete: {missing[:10]!r}"[:-1]
            + f", ...] never added ({len(missing)} pairs missing in all)"
        )


def test_closure_confluence_randomized(fig_tree, fig_cover):
    baseline, _ = cord_closure(fig_tree, fig_cover)
    for seed in range(10):
        closed, steps = random_order_closure(fig_tree, fig_cover, seed)
        assert closed == baseline
        verify_shelling(fig_tree, fig_cover, steps)


def test_superset_monotonicity():
    # A shellable subcover makes every supercover shellable.
    for seed in range(6):
        tree = random_binary_tree(6, seed)
        small = minimalize(tree, canonical_cover(tree, seeded_chooser(seed)))
        ok_small, _ = is_shellable(tree, small)
        if not ok_small:
            continue
        extras = sorted(all_cords(tree.taxa) - small.cords)[:2]
        big = small.add_cords(extras)
        assert is_shellable(tree, big)[0]


def test_removed_taxon_shellability_lifts():
    # If the cover restricted away from x still covers the smaller tree and
    # is shellable there, the original is shellable.
    hits = 0
    for seed in range(12):
        tree = random_binary_tree(6, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        for x in sorted(tree.taxa):
            reduced = TripletCover(
                cover.taxa - {x}, frozenset(c for c in cover.cords if x not in c)
            )
            smaller = tree.restrict(tree.taxa - {x})
            if not is_triplet_cover(smaller, reduced):
                continue
            if not is_shellable(smaller, reduced)[0]:
                continue
            assert is_shellable(tree, cover)[0]
            hits += 1
    assert hits > 3


def test_patchwork_membership_reference():
    assert patchwork_membership(FIG_SECTION, {("a", "b", "c"), ("b", "c", "e")})
    assert not patchwork_membership(FIG_SECTION, {("a", "b", "c"), ("c", "d", "e")})
    assert patchwork_membership(FIG_SECTION, {("a", "b", "c")})
    with pytest.raises(ValueError):
        patchwork_membership(FIG_SECTION, set())
    with pytest.raises(ValueError):
        patchwork_membership(FIG_SECTION, {("a", "b", "x")})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_patchwork_union_closure(seed):
    # Intersecting tight families have tight unions.
    rng = random.Random(seed)
    tree = random_binary_tree(4 + seed % 5, seed)
    cover = canonical_cover(tree, seeded_chooser(seed))
    section = next(iter(sorted_sections(tree, cover)))
    members = [
        sub
        for r in range(1, len(section) + 1)
        for sub in map(frozenset, combinations(sorted(section), r))
        if patchwork_membership(section, sub)
    ]
    rng.shuffle(members)
    for one in members[:8]:
        for other in members[:8]:
            if one & other:
                assert patchwork_membership(section, one | other)


def sorted_sections(tree, cover):
    from tricover import iter_sections

    return iter_sections(support_map(tree, cover))


def test_is_ample_reference():
    ok, hierarchy = is_ample(FIG_SECTION)
    assert ok
    assert frozenset({("a", "b", "c")}) in hierarchy
    assert FIG_SECTION in hierarchy
    assert len(hierarchy) == 2 * len(FIG_SECTION) - 1
    # Hierarchy property: pairwise nested or disjoint, all tight.
    for one in hierarchy:
        assert patchwork_membership(FIG_SECTION, one)
        for other in hierarchy:
            assert (one & other) in (frozenset(), one, other)


def test_is_ample_singleton():
    ok, hierarchy = is_ample(frozenset({("a", "b", "c")}))
    assert ok and hierarchy == (frozenset({("a", "b", "c")}),)


def test_is_ample_rejects_non_section_shape():
    with pytest.raises(SectionError):
        is_ample(frozenset({("a", "b", "c"), ("d", "e", "f")}))
    with pytest.raises(SectionError):
        is_ample(frozenset())


@pytest.mark.parametrize(
    "family, shown",
    [
        ({("a", "b")}, "('a', 'b')"),
        ({("a", "b", "c"), ("c", "d")}, "('c', 'd')"),
        (["abc"], "'abc'"),
        ([("a", "b", "c"), ("a", "b", "c", "d")], "('a', 'b', 'c', 'd')"),
        ([("a", "b", "c"), ("b", "a", "b")], "('b', 'a', 'b')"),
        ([("a", "b", "c"), ("a", 1, "c")], "('a', 1, 'c')"),
        ([("a", "b", "c"), (["a"], "b", "c")], "(['a'], 'b', 'c')"),
    ],
)
def test_is_ample_rejects_members_that_are_not_triples(family, shown):
    # The string "abc" must not read as the triple a, b, c.
    with pytest.raises(SectionError) as err:
        is_ample(family)
    assert str(err.value) == (
        f"family member {shown} is not a triple of three distinct taxon names"
    )


def test_is_ample_capacity():
    triples = frozenset(
        tuple(sorted((f"x{i}", f"x{i+1}", f"x{i+2}"))) for i in range(17)
    )
    with pytest.raises(CapacityError):
        is_ample(triples, cap=16)


def test_shellable_via_patchwork_reference(fig_tree, fig_cover):
    verdict, section = shellable_via_patchwork(fig_tree, fig_cover)
    assert verdict is True
    assert section == FIG_SECTION


def test_patchwork_implies_shellable():
    for seed in range(10):
        tree = random_binary_tree(5 + seed % 4, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        verdict, _ = shellable_via_patchwork(tree, cover)
        if verdict is True:
            assert is_shellable(tree, cover)[0]


def test_patchwork_indeterminate_when_capped(fig_tree):
    full = TripletCover(fig_tree.taxa, all_cords(fig_tree.taxa))
    # 36 sections; inspect only one and force a miss to be reported as None.
    verdict, _ = shellable_via_patchwork(fig_tree, full, limit_sections=1)
    assert verdict in (True, None)  # the first section may already be ample
    # With enough budget the verdict must be definite.
    verdict_full, _ = shellable_via_patchwork(fig_tree, full, limit_sections=100)
    assert verdict_full in (True, False)


def test_restriction_cover_reference(fig_tree, fig_cover):
    member = frozenset({("a", "b", "c"), ("b", "c", "e")})
    sub, reduced = restriction_cover(
        fig_tree, fig_cover, {"a", "b", "c", "e"}, member=member, section=FIG_SECTION
    )
    assert sorted(sub.taxa) == ["a", "b", "c", "e"]
    assert reduced.cords == frozenset(
        [("a", "b"), ("a", "c"), ("b", "c"), ("b", "e"), ("c", "e")]
    )
    assert is_triplet_cover(sub, reduced)


def test_restriction_cover_whole_and_singleton(fig_tree, fig_cover):
    sub, reduced = restriction_cover(fig_tree, fig_cover, fig_cover.taxa)
    assert sub.isomorphic(fig_tree, compare_lengths=True)
    assert reduced.cords == fig_cover.cords
    sub3, red3 = restriction_cover(
        fig_tree,
        fig_cover,
        {"a", "b", "c"},
        member=frozenset({("a", "b", "c")}),
        section=FIG_SECTION,
    )
    assert sorted(sub3.taxa) == ["a", "b", "c"]
    assert red3.cords == frozenset([("a", "b"), ("a", "c"), ("b", "c")])


def test_restriction_cover_validates_member(fig_tree, fig_cover):
    with pytest.raises(ValueError):
        restriction_cover(
            fig_tree,
            fig_cover,
            {"a", "b", "c", "d", "e"},
            member=frozenset({("a", "b", "c"), ("c", "d", "e")}),
            section=FIG_SECTION,
        )


def test_cross_restriction_quartets():
    # Lemma-6(ii)-style check: when two tight families split the taxa with a
    # two-taxon overlap, cross quartets never pair the two overlap taxa
    # against an a,b cross pair.
    hits = 0
    for seed in range(20):
        tree = random_binary_tree(6, seed)
        cover = minimalize(tree, canonical_cover(tree, seeded_chooser(seed)))
        section = next(iter(sorted_sections(tree, cover)))
        ok, hierarchy = is_ample(section)
        if not ok:
            continue
        root_children = [h for h in hierarchy if h != section]
        for first in root_children:
            second = section - first
            if not second or not patchwork_membership(section, second):
                continue
            union_a = set().union(*(set(t) for t in first))
            union_b = set().union(*(set(t) for t in second))
            if union_a | union_b != set(tree.taxa):
                continue
            overlap = union_a & union_b
            if len(overlap) != 2:
                continue
            x, y = sorted(overlap)
            for a in sorted(union_a - overlap):
                for b in sorted(union_b - overlap):
                    topo = tree.quartet_topology(a, b, x, y)
                    assert topo != make_quartet((a, b), (x, y))
                    hits += 1
    assert hits > 10
