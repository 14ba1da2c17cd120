"""``PhyloTree.isomorphic`` on edge leaf masks, checked against split tuples.

``isomorphic`` compares the two trees' maps from the leaf mask below each
edge to its length.  The reference below is the earlier implementation: the
split sets, or the split-to-length maps, each split a pair of sorted taxon
tuples.  Both must give the same verdict, with and without lengths, and the
same error when the taxon sets differ.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from splits_reference import split_lengths, splits

from tricover import PhyloTree, TreeError, parse_newick, write_newick
from tricover.lab import enumerate_binary_trees, random_binary_tree


def reference_isomorphic(t1, t2, compare_lengths=False):
    if t1.taxa != t2.taxa:
        raise TreeError(f"taxon sets differ: {sorted(t1.taxa)} vs {sorted(t2.taxa)}")
    if compare_lengths:
        return split_lengths(t1) == split_lengths(t2)
    return splits(t1) == splits(t2)


def verdicts(t1, t2):
    """Both verdicts, without and with lengths, after checking that the two
    implementations agree on each."""
    out = []
    for compare_lengths in (False, True):
        verdict = reference_isomorphic(t1, t2, compare_lengths)
        assert t1.isomorphic(t2, compare_lengths) is verdict
        assert t2.isomorphic(t1, compare_lengths) is verdict
        out.append(verdict)
    return tuple(out)


def leaf_labels(tree):
    return {v: tree.label(v) for v in tree.leaves()}


def with_length(tree, k, length):
    """A copy of ``tree`` whose k-th edge has the given length."""
    edges = [(u, v, length if i == k else q) for i, (u, v, q) in enumerate(tree.edges())]
    return PhyloTree(edges, leaf_labels(tree))


def with_swapped(tree, x, y):
    """A copy of ``tree`` with taxa x and y trading leaves."""
    swap = {x: y, y: x}
    labels = {v: swap.get(name, name) for v, name in leaf_labels(tree).items()}
    return PhyloTree(tree.edges(), labels)


SIZES = [4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64]


@pytest.mark.parametrize("n", SIZES)
def test_agrees_on_random_pairs_with_the_same_taxa(n):
    seen = set()
    for seed in range(12):
        seen.add(verdicts(random_binary_tree(n, seed), random_binary_tree(n, seed + 1)))
    assert (False, False) in seen


@pytest.mark.parametrize("n", SIZES)
def test_agrees_with_the_newick_reparse(n):
    for seed in range(3):
        tree = random_binary_tree(n, seed)
        assert verdicts(tree, parse_newick(write_newick(tree))) == (True, True)


@pytest.mark.parametrize("n", SIZES)
def test_agrees_with_one_edge_length_changed(n):
    rng = random.Random(n)
    for seed in range(3):
        tree = random_binary_tree(n, seed)
        k = rng.randrange(tree.n_edges())
        q = tree.edges()[k][2]
        assert verdicts(tree, with_length(tree, k, q + Fraction(1, 7))) == (True, False)
        assert verdicts(tree, with_length(tree, k, q)) == (True, True)


@pytest.mark.parametrize("n", SIZES)
def test_agrees_with_two_taxa_swapped(n):
    rng = random.Random(n)
    seen = set()
    for seed in range(6):
        tree = random_binary_tree(n, seed)
        # A random pair, and a cherry's two taxa, whose swap keeps the
        # topology and trades the two pendant lengths.
        x, y = rng.sample(sorted(tree.taxa), 2)
        seen.add(verdicts(tree, with_swapped(tree, x, y)))
        v = next(v for v in tree.interior_vertices()
                 if sum(map(tree.is_leaf, tree.neighbors(v))) >= 2)
        x, y = [w for w in tree.neighbors(v) if tree.is_leaf(w)][:2]
        same = tree.edge_length(v, x) == tree.edge_length(v, y)
        swapped = with_swapped(tree, tree.label(x), tree.label(y))
        assert verdicts(tree, swapped) == (True, same)
    assert (False, False) in seen


@pytest.mark.parametrize("n", [4, 5, 6])
def test_agrees_on_every_pair_of_topologies(n):
    trees = list(enumerate_binary_trees([f"t{i}" for i in range(n)]))
    same = sum(verdicts(t1, t2)[0] for t1, t2 in product(trees, trees))
    assert same == len(trees)


def test_taxon_mismatch_raises_the_same_error():
    tree = random_binary_tree(8, 0)
    renamed = parse_newick(write_newick(random_binary_tree(8, 1)).replace("h:", "x:"))
    for compare_lengths in (False, True):
        with pytest.raises(TreeError) as expected:
            reference_isomorphic(tree, renamed, compare_lengths)
        with pytest.raises(TreeError) as got:
            tree.isomorphic(renamed, compare_lengths)
        assert str(got.value) == str(expected.value)
