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

The generated covers are born as their sorted taxa and neighbour masks,
without names: each must hold exactly the masks its reference names build,
and name its cords only when they are read, as those names.  The generated
trees are born from their adjacency without the constructor's checks, and
each must equal the tree the constructor builds from its edges.
"""

import random
from fractions import Fraction
from itertools import islice, product

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
from tricover.errors import TreeError
from tricover.jsonio import cover_to_json, dumps_canonical
from tricover.lab import (
    FIXTURE_PREDICATES,
    balanced_chooser,
    default_taxa,
    enumerate_binary_trees,
    exhaustive_instances,
    random_binary_tree,
    random_instances,
    random_rational,
    search_fixture,
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


def kept(names, cover):
    """The cords among ``names`` whose bits ``cover``'s masks still hold: the
    reference names of a cover that minimalize made from named ones."""
    index = {x: i for i, x in enumerate(cover._taxa)}
    return frozenset(c for c in names if cover._nbr[index[c[0]]] >> index[c[1]] & 1)


def ref_minimalize(tree, cover):
    """``minimalize`` of a named cover, named from ``cover``'s cords."""
    return TripletCover(cover.taxa, kept(cover.cords, minimalize(tree, cover)))


def ref_exhaustive_instances(n):
    for t_index, tree in enumerate(enumerate_binary_trees(default_taxa(n))):
        taxa = tree._index.taxa
        choice_lists = [
            product(*([taxa[i] for i in _bits(m)] for m in tree._component_masks(v)))
            for v in sorted(tree.interior_vertices(), key=tree.component_triple)
        ]
        for a_index, triples in enumerate(product(*choice_lists)):
            yield tree, TripletCover(tree.taxa, cord_set(triples)), {
                "generator": "exhaustive",
                "n": n,
                "topology": t_index,
                "assignment": a_index,
            }


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
            cover = ref_minimalize(tree, first.add_cords(second.cords))
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


def assert_born(cover, names):
    """The cover holds its ``_taxa`` and ``_nbr``, equal to the ones its
    reference ``names`` give, and no ``cords`` until they are read.  Its
    length, read while it is unnamed, its equality and hash, and its names
    once read agree with the cover those names make."""
    assert "cords" not in vars(cover)
    want = TripletCover.make(cover.taxa, names)
    taxa = tuple(sorted(cover.taxa))
    assert vars(cover)["_taxa"] == taxa
    assert vars(cover)["_nbr"] == tuple(_neighbour_masks(taxa, want.cords))
    assert len(cover) == len(want)
    assert "cords" not in vars(cover)
    assert cover == want and hash(cover) == hash(want)
    assert vars(cover)["cords"] == want.cords


def assert_born_minimal(tree, cover, names):
    """``minimalize`` of ``cover``, whose reference names are ``names``, is
    born unnamed and names the cords it keeps."""
    minimal = minimalize(tree, cover)
    assert_born(minimal, kept(names, minimal))


def assert_born_tree(tree, labels):
    """The generated tree equals the one the checking constructor builds
    from its edges and ``labels``."""
    want = PhyloTree(tree.edges(), labels)
    assert tree._adj == want._adj
    assert tree._leaf_label == want._leaf_label
    assert tree._taxa == want._taxa
    assert tree._index == want._index


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
        assert_born_minimal(tree, got, want.cords)
        assert_born(got, want.cords)
        assert cover_text(got) == cover_text(want), (kind, tree.n_taxa, seed)
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
            assert_born(cover, ref_cover.cords)
            assert cover_text(cover) == cover_text(ref_cover), info
            assert_same_support(tree, cover)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exhaustive_instances_match(n):
    seen = set()
    pairs = zip(exhaustive_instances(n), ref_exhaustive_instances(n), strict=True)
    for (tree, cover, info), (_, ref_cover, ref_info) in pairs:
        assert info == ref_info
        assert_born(cover, ref_cover.cords)
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
        named = first.add_cords(second.cords)
        assert_born_minimal(tree, named, named.cords)
        assert_same_support(tree, minimalize(tree, named))


@pytest.mark.parametrize("n", range(3, 25))
def test_pool_covers_are_born_with_their_masks(n):
    # Every chooser cover of the pool's trees, each minimalized, and each
    # pool cover minimalized again, hold the masks their reference names
    # give and name their cords only when read.
    for seed in range(5):
        pairs = zip(random_instances(n, seed), ref_random_instances(n, seed))
        for (tree, cover, info), (_, ref_cover, _) in islice(pairs, 30):
            assert_born_minimal(tree, cover, ref_cover.cords)
            for make, make_ref in CHOOSERS.values():
                chosen = canonical_cover(tree, make(info["index"]))
                names = ref_canonical_cover(tree, make_ref(info["index"])).cords
                assert_born_minimal(tree, chosen, names)
                assert_born(chosen, names)


def test_a_missed_search_names_no_cover():
    # Every fixture predicate runs on every instance and none is taken, so
    # the search generates its whole budget, exhaustive and random; naming
    # a cover's cords is left to whoever reads them, and here nobody does.
    seen = []

    def every_target_then_miss(tree, cover):
        for predicate in FIXTURE_PREDICATES.values():
            predicate(tree, cover)
        seen.append(cover)
        return False

    # All 540 exhaustive covers at n = 5, then the random stream at n = 7,
    # which never runs out, and a second search on the stream at n = 12.
    for ns, budget in (([5, 7], 900), ([12], 300)):
        seen.clear()
        assert search_fixture(every_target_then_miss, ns, budget, 3) is None
        assert len(seen) == budget
        assert {len(cover.taxa) for cover in seen} == set(ns)
        assert not [cover for cover in seen if "cords" in vars(cover)]


@pytest.mark.parametrize("n", [*range(3, 25), 64, 320, 1000])
def test_born_trees_equal_constructed_ones(n, made):
    labels = dict(enumerate(default_taxa(n)))
    for seed in range(5 if n < 320 else 2):
        tree = random_binary_tree(n, seed)
        assert_born_tree(tree, labels)
        ref_random_binary_tree(n, seed)
        assert made[-2].getstate() == made[-1].getstate()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_enumerated_trees_equal_constructed_ones(n):
    names = default_taxa(n)
    trees = list(enumerate_binary_trees(reversed(names)))
    assert len(trees) == {4: 3, 5: 15, 6: 105}[n]
    for tree in trees:
        assert_born_tree(tree, dict(enumerate(names)))
        assert set(tree.edges()) == {(u, v, 1) for u, v, _ in tree.edges()}


def test_born_refuses_a_disconnected_graph():
    # Three 3-leaf stars and a K4 of degree-3 vertices: 15 edges on 16
    # vertices, leaves of degree 1 and the rest of degree 3, so the
    # constructor's count and degree checks pass and only the walk, from
    # the first star, finds the graph disconnected.
    edges = [(3 * k + i, 9 + k, 1) for k in range(3) for i in range(3)]
    edges += [(u, v, 1) for u in range(12, 16) for v in range(u + 1, 16)]
    labels = {v: default_taxa(9)[v] for v in range(9)}
    with pytest.raises(TreeError) as constructed:
        PhyloTree(edges, labels)
    adj = {}
    for u, v, q in edges:
        adj.setdefault(u, {})[v] = Fraction(q)
        adj.setdefault(v, {})[u] = Fraction(q)
    with pytest.raises(TreeError) as born:
        PhyloTree._born(adj, labels)
    assert str(born.value) == str(constructed.value) == "graph is not connected"
