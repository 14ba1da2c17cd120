"""The instance generator against the bodies it replaced.

The references are the earlier generator, kept here: ``random_binary_tree``
re-sorted its whole edge set for every taxon, ``random_rational`` built a
new ``Fraction`` per draw, ``balanced_chooser`` kept its usage by taxon
name, ``canonical_cover`` ordered the vertices by ``component_triple`` and
collected the cords through ``cord_set``, and ``support_map`` sorted each
triple's names with ``make_triple``.  The references draw with
``randrange``, as the generator did before it read ``getrandbits`` by
``randrange``'s rule.  The new code must give the same trees, covers and
support maps, byte for byte, from the same random draws, and leave each
generator in the same state.

The generated covers are born with their sorted taxa and neighbour masks;
each must hold exactly what a cover built from its names would build.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from tricover import (
    PhyloTree,
    TripletCover,
    canonical_cover,
    cord_set,
    least_label_chooser,
    make_triple,
    minimalize,
    seeded_chooser,
    support_map,
)
from tricover.covers import _bits, _check_same_taxa, _neighbour_masks
from tricover.jsonio import cover_to_json, dumps_canonical
from tricover.lab import (
    balanced_chooser,
    default_taxa,
    exhaustive_instances,
    random_binary_tree,
    random_instances,
    random_rational,
)
from tricover.newick import write_newick


def ref_random_rational(rng):
    while True:
        num = rng.randrange(1, 17)
        den = rng.randrange(1, 5)
        if den <= 4 * num and num <= 4 * den:
            return Fraction(num, den)


def ref_random_binary_tree(n, seed):
    taxa = default_taxa(n)
    rng = random.Random(seed)
    edges = {(0, n), (1, n), (2, n)}
    next_interior = n + 1
    for k in range(3, n):
        ordered = sorted(edges)
        u, v = ordered[rng.randrange(len(ordered))]
        edges.remove((u, v))
        mid = next_interior
        next_interior += 1
        edges |= {(min(u, mid), max(u, mid)), (min(v, mid), max(v, mid)), (k, mid)}
    weighted = [(u, v, ref_random_rational(rng)) for u, v in sorted(edges)]
    return PhyloTree(weighted, {i: taxa[i] for i in range(n)})


def ref_seeded_chooser(seed):
    rng = random.Random(seed)

    def choose(taxa, v, masks):
        comps = [[taxa[i] for i in _bits(m)] for m in masks]
        return tuple(comp[rng.randrange(len(comp))] for comp in comps)

    return choose


def ref_balanced_chooser(seed):
    rng = random.Random(seed)
    usage = {}

    def choose(taxa, v, masks):
        picks = []
        for m in masks:
            comp = (taxa[i] for i in _bits(m))
            best = min(comp, key=lambda t: (usage.get(t, 0), rng.random()))
            picks.append(best)
        for t in picks:
            usage[t] = usage.get(t, 0) + 1
        return tuple(picks)

    return choose


def ref_canonical_cover(tree, chooser):
    taxa = tree._index.taxa
    triples = []
    for v in sorted(tree.interior_vertices(), key=tree.component_triple):
        triples.append(chooser(taxa, v, tree._component_masks(v)))
    return TripletCover(tree.taxa, cord_set(triples))


def ref_support_map(tree, cover):
    _check_same_taxa(tree, cover)
    taxa, nbr = cover._taxa, cover._nbr
    result = {}
    for v in tree.interior_vertices():
        comp_a, comp_b, comp_c = sorted(tree._component_masks(v), key=int.bit_count)
        result[v] = frozenset(
            make_triple(taxa[a], taxa[b], taxa[c])
            for a in _bits(comp_a)
            for b in _bits(nbr[a] & comp_b)
            for c in _bits(nbr[a] & nbr[b] & comp_c)
        )
    return result


def ref_random_instances(n, seed):
    base = random.Random(seed * 1_000_003 + n)
    index = 0
    while True:
        tree_seed = base.getrandbits(48)
        cover_seed = base.getrandbits(48)
        tree = ref_random_binary_tree(n, tree_seed)
        mode = index % 3
        if mode == 0:
            cover = ref_canonical_cover(tree, ref_seeded_chooser(cover_seed))
        elif mode == 1:
            cover = ref_canonical_cover(tree, ref_balanced_chooser(cover_seed))
        else:
            first = ref_canonical_cover(tree, ref_seeded_chooser(cover_seed))
            second = ref_canonical_cover(tree, ref_balanced_chooser(cover_seed + 1))
            cover = minimalize(tree, first.add_cords(second.cords))
        yield tree, cover, {
            "generator": "random",
            "n": n,
            "seed": seed,
            "index": index,
            "mode": ("uniform", "balanced", "union-minimalized")[mode],
        }
        index += 1


CHOOSERS = {
    "least": (lambda seed: least_label_chooser, lambda seed: least_label_chooser),
    "seeded": (seeded_chooser, ref_seeded_chooser),
    "balanced": (balanced_chooser, ref_balanced_chooser),
}


def cover_text(cover):
    return dumps_canonical(cover_to_json(cover))


def assert_born(cover):
    """The cover already holds its ``_taxa`` and ``_nbr``, equal to the ones
    its names give."""
    taxa = tuple(sorted(cover.taxa))
    assert vars(cover)["_taxa"] == taxa
    assert vars(cover)["_nbr"] == tuple(_neighbour_masks(taxa, cover.cords))


def assert_same_tree(got, want):
    assert got.edges() == want.edges()
    assert write_newick(got) == write_newick(want)


def assert_same_support(tree, cover):
    got, want = support_map(tree, cover), ref_support_map(tree, cover)
    assert list(got.items()) == list(want.items())


def assert_same_covers(tree, seed, kinds=tuple(CHOOSERS)):
    for kind in kinds:
        make, make_ref = CHOOSERS[kind]
        got = canonical_cover(tree, make(seed))
        want = ref_canonical_cover(tree, make_ref(seed))
        assert cover_text(got) == cover_text(want), (kind, tree.n_taxa, seed)
        assert_born(got)
        assert_born(minimalize(tree, got))
        assert_same_support(tree, got)


def renamed(tree, rng):
    """The tree with random names of mixed length, so that sorted order
    differs from the original one."""
    names = rng.sample([f"{c}{k}" for c in "qxb" for k in range(400)], tree.n_taxa)
    return PhyloTree(
        tree.edges(), {leaf: names[i] for i, leaf in enumerate(tree.leaves())}
    )


def test_lengths_match_with_the_same_draws():
    for seed in range(20):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = [random_rational(rng) for _ in range(300)]
        want = [ref_random_rational(ref_rng) for _ in range(300)]
        assert got == want
        assert all(type(q) is Fraction for q in got)
        assert rng.getstate() == ref_rng.getstate()


@pytest.fixture
def made(monkeypatch):
    """Every ``random.Random`` made while the test runs, in order, so that a
    test can read the state of the generator a call made for itself."""
    made = []

    class Recorded(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    return made


@pytest.mark.parametrize("n", [*range(3, 25), 64, 320])
def test_topology_and_chooser_draws_match_randrange(n, made):
    for seed in range(5):
        tree = random_binary_tree(n, seed)
        ref_tree = ref_random_binary_tree(n, seed)
        assert_same_tree(tree, ref_tree)
        assert made[-2].getstate() == made[-1].getstate()
        got = canonical_cover(tree, seeded_chooser(seed))
        want = ref_canonical_cover(tree, ref_seeded_chooser(seed))
        assert cover_text(got) == cover_text(want)
        assert made[-2].getstate() == made[-1].getstate()


@pytest.mark.parametrize("n", range(3, 25))
def test_random_instances_match(n):
    for seed in range(5):
        pairs = zip(random_instances(n, seed), ref_random_instances(n, seed))
        for (tree, cover, info), (ref_tree, ref_cover, ref_info) in islice(pairs, 30):
            assert info == ref_info
            assert_same_tree(tree, ref_tree)
            assert cover_text(cover) == cover_text(ref_cover), info
            assert_born(cover)
            assert_same_support(tree, cover)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exhaustive_instances_match(n):
    seen = set()
    for tree, cover, info in exhaustive_instances(n):
        assert_same_support(tree, cover)
        if info["topology"] not in seen:
            seen.add(info["topology"])
            assert_same_covers(tree, info["topology"])
    assert len(seen) == {4: 3, 5: 15, 6: 105}[n]


@pytest.mark.parametrize("n", [320, 1000])
def test_trees_match_at_the_ladder_sizes(n):
    tree = random_binary_tree(n, 1)
    assert_same_tree(tree, ref_random_binary_tree(n, 1))
    # The balanced reference decodes every component in full, about n^2 names.
    assert_same_covers(tree, 1, ("least", "seeded") if n > 320 else tuple(CHOOSERS))


@pytest.mark.parametrize("n", [*range(3, 25), 64])
def test_renamed_trees_match(n):
    rng = random.Random(n)
    for seed in range(4):
        tree = renamed(random_binary_tree(n, 7 * n + seed), rng)
        assert_same_covers(tree, seed)
        first = canonical_cover(tree, seeded_chooser(seed))
        second = canonical_cover(tree, balanced_chooser(seed + 1))
        union = minimalize(tree, first.add_cords(second.cords))
        assert_born(union)
        assert_same_support(tree, union)


@pytest.mark.parametrize("n", range(3, 25))
def test_pool_covers_are_born_with_their_masks(n):
    # Every chooser cover of the pool's trees, each minimalized, and each
    # pool cover minimalized again, hold the masks their names give.
    for seed in range(5):
        for tree, cover, info in islice(random_instances(n, seed), 30):
            assert_born(minimalize(tree, cover))
            for make, _ in CHOOSERS.values():
                chosen = canonical_cover(tree, make(info["index"]))
                assert_born(chosen)
                assert_born(minimalize(tree, chosen))
