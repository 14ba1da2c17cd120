"""Mask choosers against the taxon-set choosers they replace.

The references are the earlier chooser protocol, kept here: at every
interior vertex ``canonical_cover`` built the three components' taxon sets
with ``PhyloTree.components_without`` and a chooser picked from those sets,
``sorted(comp)[k]`` for the seeded chooser, ``min(comp)`` for the least
label and the least-used taxon for the balanced one.  The mask choosers must
give the same covers, byte for byte, and a bad chooser the same error.
"""

import random

import pytest

from tricover import (
    CoverError,
    PhyloTree,
    TripletCover,
    canonical_cover,
    cord_set,
    least_label_chooser,
    seeded_chooser,
)
from tricover.jsonio import cover_to_json, dumps_canonical
from tricover.lab import balanced_chooser, random_binary_tree
from tricover.tree import _quote_each


def ref_canonical_cover(tree, chooser):
    triples = []
    for v in sorted(tree.interior_vertices(), key=tree.component_triple):
        comps = tree.components_without(v)
        picks = chooser(tree, v, comps)
        if len(picks) != 3 or any(p not in c for p, c in zip(picks, comps)):
            raise CoverError(
                f"chooser returned an invalid selection {_quote_each(picks)}"
            )
        triples.append(picks)
    return TripletCover(tree.taxa, cord_set(triples))


def ref_least_label_chooser(tree, v, comps):
    return tuple(min(comp) for comp in comps)


def ref_seeded_chooser(seed):
    rng = random.Random(seed)

    def choose(tree, v, comps):
        return tuple(sorted(comp)[rng.randrange(len(comp))] for comp in comps)

    return choose


def ref_balanced_chooser(seed):
    rng = random.Random(seed)
    usage = {}

    def choose(tree, v, comps):
        picks = []
        for comp in comps:
            best = min(sorted(comp), key=lambda t: (usage.get(t, 0), rng.random()))
            picks.append(best)
        for t in picks:
            usage[t] = usage.get(t, 0) + 1
        return tuple(picks)

    return choose


CHOOSERS = {
    "least": (lambda seed: least_label_chooser, lambda seed: ref_least_label_chooser),
    "seeded": (seeded_chooser, ref_seeded_chooser),
    "balanced": (balanced_chooser, ref_balanced_chooser),
}


def cover_text(cover):
    return dumps_canonical(cover_to_json(cover))


def renamed(tree, rng):
    """The tree with random names of mixed length, so that sorted order
    differs from the original one."""
    names = rng.sample([f"{c}{k}" for c in "qxb" for k in range(400)], tree.n_taxa)
    return PhyloTree(
        tree.edges(), {leaf: names[i] for i, leaf in enumerate(tree.leaves())}
    )


def assert_same_covers(tree, seed):
    for kind, (make, make_ref) in CHOOSERS.items():
        got = canonical_cover(tree, make(seed))
        want = ref_canonical_cover(tree, make_ref(seed))
        assert cover_text(got) == cover_text(want), (kind, tree.n_taxa, seed)


@pytest.mark.parametrize("n", [*range(3, 25), 32, 48, 64])
def test_mask_choosers_match_set_choosers(n):
    rng = random.Random(n)
    for seed in range(12):
        tree = random_binary_tree(n, 1000 * n + seed)
        assert_same_covers(tree, seed)
        if seed % 3 == 0:
            assert_same_covers(renamed(tree, rng), seed)


def test_mask_choosers_match_at_the_ladder_size():
    # The benchmark ladder's n = 1000 input; the balanced reference is
    # quadratic in n per vertex, so only the two others run here.
    tree = random_binary_tree(1000, 1)
    for seed in (1, 2):
        got = canonical_cover(tree, seeded_chooser(seed))
        assert cover_text(got) == cover_text(
            ref_canonical_cover(tree, ref_seeded_chooser(seed))
        )
    assert cover_text(canonical_cover(tree)) == cover_text(
        ref_canonical_cover(tree, ref_least_label_chooser)
    )


def spoiled(choose, spoil, at):
    """``choose`` with its picks at the ``at``-th call passed through
    ``spoil``."""
    calls = [0]

    def bad(*args):
        picks = choose(*args)
        calls[0] += 1
        return spoil(picks) if calls[0] == at else picks

    return bad


SPOILS = {
    "two picks": lambda p: p[:2],
    "four picks": lambda p: (*p, p[0]),
    "foreign taxon": lambda p: (p[0], p[1], "zz"),
    "non-string": lambda p: (None, p[1], p[2]),
    "wrong component": lambda p: (p[1], p[0], p[2]),
    "list of picks": lambda p: [p[2], p[1], p[0]],
}


@pytest.mark.parametrize("spoil", SPOILS)
def test_bad_chooser_gives_the_same_error(spoil):
    for n, at in ((3, 1), (9, 1), (9, 4), (30, 28)):
        tree = random_binary_tree(n, n)
        for kind, (make, make_ref) in CHOOSERS.items():
            bad = spoiled(make(n), SPOILS[spoil], at)
            ref_bad = spoiled(make_ref(n), SPOILS[spoil], at)
            with pytest.raises(CoverError) as got:
                canonical_cover(tree, bad)
            with pytest.raises(CoverError) as want:
                ref_canonical_cover(tree, ref_bad)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("chooser returned an invalid selection")
