"""The tree constructor, checked against its earlier form.

``PhyloTree`` finds the leaves and the first vertex of bad degree in one
scan, checks the labels with one search over their join, reads a
``Fraction`` length as it is and builds the index's leaf and component
masks in one reverse pass.  ``tree_reference.reference_tree`` is the
constructor before that.  Valid trees must get the same adjacency, labels,
taxa and index; malformed edge lists the same error type and text.
"""

from fractions import Fraction

import pytest
from tree_reference import reference_tree

from tricover import PhyloTree, TreeError, parse_newick, write_newick
from tricover.lab import enumerate_binary_trees, random_binary_tree

# A quartet tree: cherries (a, b) at vertex 4 and (c, d) at vertex 5.
EDGES = [(0, 4, 1), (1, 4, 2), (2, 5, 3), (3, 5, 4), (4, 5, 5)]
LABELS = {0: "a", 1: "b", 2: "c", 3: "d"}


def outcome(edges, labels):
    """The tree's facts, or the type and text of what the build raised."""
    try:
        tree = PhyloTree(edges, labels)
    except Exception as exc:  # the reference raises more than TreeError
        return type(exc), str(exc)
    return tree._adj, tree._leaf_label, tree.taxa, tree._index


def reference_outcome(edges, labels):
    try:
        return reference_tree(edges, labels)
    except Exception as exc:
        return type(exc), str(exc)


def replaced(k, edge):
    return EDGES[:k] + [edge] + EDGES[k + 1 :]


MALFORMED = {
    "self-loop": (replaced(4, (4, 4, 1)), LABELS),
    "zero length": (replaced(0, (0, 4, 0)), LABELS),
    "negative length": (replaced(1, (1, 4, "-1/2")), LABELS),
    "negative Fraction length": (replaced(1, (1, 4, Fraction(-1, 2))), LABELS),
    "float length": (replaced(2, (2, 5, 1.5)), LABELS),
    "boolean length": (replaced(2, (2, 5, True)), LABELS),
    "unreadable length": (replaced(3, (3, 5, "1e3")), LABELS),
    "non-number length": (replaced(3, (3, 5, None)), LABELS),
    "duplicate edge": (EDGES + [(0, 4, 1)], LABELS),
    "duplicate edge, reversed": (EDGES + [(4, 0, 1)], LABELS),
    "self-loop after a bad length": (replaced(0, (0, 4, 0)) + [(6, 6, 1)], LABELS),
    "too few edges": (EDGES[:-1], LABELS),
    "too many edges": (EDGES + [(0, 5, 1)], LABELS),
    "interior vertex labelled": (EDGES, {**LABELS, 4: "e"}),
    "leaf unlabelled": (EDGES, {0: "a", 1: "b", 2: "c"}),
    "degree 2": (
        [(0, 4, 1), (4, 5, 1), (1, 5, 1), (2, 5, 1)], {0: "a", 1: "b", 2: "c"}
    ),
    "degree 4": ([(0, 4, 1), (1, 4, 1), (2, 4, 1), (3, 4, 1)], LABELS),
    "degree 2 then 4": (
        [(0, 6, 1), (6, 5, 1), (5, 1, 1), (5, 2, 1), (5, 3, 1)],
        {0: "a", 1: "b", 2: "c", 3: "d"},
    ),
    "degree 4 then 2": (
        [(5, 1, 1), (5, 2, 1), (5, 3, 1), (5, 6, 1), (6, 0, 1)],
        {0: "a", 1: "b", 2: "c", 3: "d"},
    ),
    "mislabelled and degree 4": (
        [(0, 4, 1), (1, 4, 1), (2, 4, 1), (3, 4, 1)], {0: "a"}
    ),
    "empty": ([], {}),
    "empty with labels": ([], {0: "a"}),
    "non-str label": (EDGES, {**LABELS, 2: 7}),
    "bytes label": (EDGES, {**LABELS, 2: b"c"}),
    "list label": (EDGES, {**LABELS, 2: ["c"]}),
    "None label": (EDGES, {**LABELS, 0: None}),
    "empty label": (EDGES, {**LABELS, 1: ""}),
    "label with a space": (EDGES, {**LABELS, 1: "b b"}),
    "label with a tab": (EDGES, {**LABELS, 1: "b\tb"}),
    "label with punctuation": (EDGES, {**LABELS, 3: "d:1"}),
    "several bad labels": (EDGES, {0: "a;", 1: "", 2: 3, 3: "(d"}),
    "bad label and a duplicate": (EDGES, {0: "a", 1: "a", 2: "c", 3: "d,"}),
    "long bad label": (EDGES, {**LABELS, 3: "(" * 100}),
    "duplicate labels": (EDGES, {0: "a", 1: "b", 2: "a", 3: "b"}),
    "one duplicate label": (EDGES, {0: "a", 1: "b", 2: "c", 3: "a"}),
    "two taxa": ([(0, 1, 1)], {0: "a", 1: "b"}),
    "two taxa, one label": ([(0, 1, 1)], {0: "a"}),
    # The cycle lies in a component the walk from the least taxon never
    # enters, so the edge count is a tree's.
    "disconnected, cycle away from the root": (
        [(0, 6, 1), (6, 1, 1), (6, 2, 1), (7, 8, 1), (8, 9, 1), (9, 7, 1),
         (7, 3, 1), (8, 4, 1), (9, 5, 1)],
        {0: "a", 1: "b", 2: "c", 3: "d", 4: "e", 5: "f"},
    ),
    "disconnected, two trees": (
        [(0, 6, 1), (6, 1, 1), (6, 2, 1), (7, 3, 1), (7, 4, 1), (7, 5, 1), (2, 8, 1)],
        {0: "a", 1: "b", 3: "d", 4: "e", 5: "f", 8: "g"},
    ),
    "short edge": ([(0, 4)] + EDGES[1:], LABELS),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_edge_lists_raise_as_before(case):
    edges, labels = MALFORMED[case]
    got = outcome(edges, labels)
    assert got == reference_outcome(edges, labels)
    assert isinstance(got[0], type) and len(got) == 2


def test_cycle_in_the_root_component_is_reported_as_disconnected():
    # Vertex 2 reaches 4 and 5 before vertex 3 is walked, so 3 has no child
    # in the walk.  The earlier walk read 3's missing mask and raised
    # KeyError; the walk now stops at the connectivity check first.
    edges = [
        (0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1), (3, 4, 1),
        (3, 5, 1), (4, 6, 1), (5, 7, 1), (10, 11, 1), (12, 13, 1),
    ]
    labels = {0: "a", 6: "b", 7: "c", 10: "d", 11: "e", 12: "f", 13: "g"}
    assert outcome(edges, labels) == (TreeError, "graph is not connected")
    assert reference_outcome(edges, labels)[0] is KeyError


def assert_same_tree(edges, labels):
    got = outcome(edges, labels)
    assert got == reference_outcome(edges, labels)
    assert not isinstance(got[0], type)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 24, 96])
def test_random_trees_index_as_before(n):
    for seed in range(6):
        tree = random_binary_tree(n, seed)
        labels = {v: tree.label(v) for v in tree.leaves()}
        assert_same_tree(tree.edges(), labels)
        # Lengths as strings go through exact_rational.
        assert_same_tree([(u, v, str(q)) for u, v, q in tree.edges()], labels)
        text = write_newick(tree)
        again = parse_newick(text)
        assert again._index == reference_tree(
            [(u, v, q) for u, v, q in again.edges()],
            {v: again.label(v) for v in again.leaves()},
        )[3]


def test_every_six_taxon_topology_indexes_as_before():
    for tree in enumerate_binary_trees("abcdef"):
        assert_same_tree(tree.edges(), {v: tree.label(v) for v in tree.leaves()})
