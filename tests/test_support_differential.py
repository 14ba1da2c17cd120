"""The neighbour-mask support search, checked against the string search.

``support_map`` walks the leaf bits of the smallest component of the tree
minus each vertex, then the other two through per-taxon neighbour masks, and
``is_triplet_cover`` reads that map.  The references below are the earlier implementation: sorted taxon
components, one ``cord`` lookup per pair, and a cover test that stops at the
first supporting triple of each vertex.  Support maps and verdicts must agree
exactly, on covers and on cord sets that are not covers.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    TripletCover,
    all_cords,
    canonical_cover,
    cord,
    is_triplet_cover,
    make_triple,
    minimalize,
    parse_newick,
    seeded_chooser,
    support_map,
)
from tricover.lab import random_binary_tree, random_instances


def reference_supporting_triples(tree, cords, v, first_only=False):
    comp_a, comp_b, comp_c = tree.components_without(v)
    found = []
    for a in sorted(comp_a):
        for b in sorted(comp_b):
            if cord(a, b) not in cords:
                continue
            for c in sorted(comp_c):
                if cord(a, c) in cords and cord(b, c) in cords:
                    found.append(make_triple(a, b, c))
                    if first_only:
                        return found
    return found


def reference_support_map(tree, cover):
    return {
        v: frozenset(reference_supporting_triples(tree, cover.cords, v))
        for v in tree.interior_vertices()
    }


def reference_is_triplet_cover(tree, cover):
    return all(
        reference_supporting_triples(tree, cover.cords, v, first_only=True)
        for v in tree.interior_vertices()
    )


def assert_agree(tree, cover):
    """Compares both answers; returns the cover verdict."""
    assert support_map(tree, cover) == reference_support_map(tree, cover)
    verdict = reference_is_triplet_cover(tree, cover)
    assert is_triplet_cover(tree, cover) is verdict
    return verdict


def test_agrees_on_acceptance_pool():
    # The acceptance suite's pool (50 covers per n in 4..9), each as given,
    # grown by a second chooser cover, and with its least cord removed.
    verdicts = []
    for n in range(4, 10):
        for i, (tree, cover, _) in enumerate(
            islice(random_instances(n, 1000 + n), 50)
        ):
            verdicts.append(assert_agree(tree, cover))
            grown = cover.add_cords(canonical_cover(tree, seeded_chooser(i)).cords)
            verdicts.append(assert_agree(tree, grown))
            verdicts.append(assert_agree(tree, cover.without(min(cover.cords))))
    assert len(verdicts) == 900
    assert 0 < verdicts.count(False) < 300


def assert_agree_on_chooser_covers(tree, seed):
    """The seed's chooser cover, it minimalized, and it grown by another."""
    cover = canonical_cover(tree, seeded_chooser(seed))
    grown = cover.add_cords(canonical_cover(tree, seeded_chooser(seed + 7)).cords)
    for candidate in (cover, minimalize(tree, cover), grown):
        assert assert_agree(tree, candidate)


@pytest.mark.parametrize("n", list(range(4, 25)) + [32, 40, 48, 64, 96, 160])
def test_agrees_on_chooser_minimalized_and_grown_covers(n):
    for seed in range(2):
        assert_agree_on_chooser_covers(random_binary_tree(n, seed), seed)


def caterpillar(names):
    text = f"{names[0]}:1"
    for name in names[1:-1]:
        text = f"({text},{name}:1):1"
    return f"({text},{names[-1]}:1);"


def balanced(names):
    def side(part):
        if len(part) == 1:
            return f"{part[0]}:1"
        half = len(part) // 2
        return f"({side(part[:half])},{side(part[half:])}):1"

    half = len(names) // 2
    return f"({side(names[:half])},{side(names[half:])});"


@pytest.mark.parametrize("shape", [caterpillar, balanced])
@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("labels", ["in order", "shuffled"])
def test_agrees_on_caterpillar_and_balanced_trees(shape, n, labels):
    # The search walks each vertex's smallest component, the one above on a
    # tie.  The tree's index hangs from the least taxon's leaf, and shuffled
    # names move that leaf.  Along a caterpillar the smallest component is
    # a pendant leaf: the first or the second one below when the names are
    # shuffled, the leaf above at the least taxon's neighbour.  In a
    # balanced tree it is a cherry's leaf, or the equal part above on the
    # path from the least taxon.
    names = [f"t{i:02d}" for i in range(n)]
    if labels == "shuffled":
        random.Random(n).shuffle(names)
    tree = parse_newick(shape(names))
    assert sorted(tree.taxa) == sorted(names)
    for seed in range(2):
        assert_agree_on_chooser_covers(tree, seed)


@pytest.mark.parametrize("n", [4, 6, 9, 12, 16, 24])
def test_agrees_on_random_cord_sets(n):
    # Random cord sets of every density; sparse ones are rarely covers.
    rng = random.Random(n)
    verdicts = []
    for trial in range(30):
        tree = random_binary_tree(n, 100 * n + trial)
        pairs = sorted(all_cords(tree.taxa))
        density = (trial + 1) / 31
        cords = [p for p in pairs if rng.random() < density]
        verdicts.append(assert_agree(tree, TripletCover(tree.taxa, frozenset(cords))))
    assert verdicts.count(False) >= 10


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    tree_seed=st.integers(min_value=0, max_value=10**6),
    chooser_seed=st.integers(min_value=0, max_value=10**6),
    extra=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
    dropped=st.lists(st.integers(min_value=0, max_value=10**6), max_size=3),
)
def test_agrees_on_hypothesis_covers(n, tree_seed, chooser_seed, extra, dropped):
    tree = random_binary_tree(n, tree_seed)
    cover = canonical_cover(tree, seeded_chooser(chooser_seed))
    pairs = sorted(all_cords(tree.taxa))
    grown = cover.add_cords(pairs[k % len(pairs)] for k in extra)
    assert assert_agree(tree, grown)
    cords = sorted(grown.cords)
    thinned = TripletCover(
        tree.taxa, frozenset(grown.cords) - {cords[k % len(cords)] for k in dropped}
    )
    assert_agree(tree, thinned)
