"""Tree primitives: splits, distances, restriction, quartets.

The split-equality notion of isomorphism is cross-checked against networkx
graph isomorphism with leaf labels, and the four-point condition is checked
on randomly generated trees via hypothesis-drawn seeds.
"""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricover
from conftest import cherries
from quartet_reference import quartet_from_distances
from splits_reference import splits
from tricover import (
    CoverError,
    PartialDistances,
    PhyloTree,
    TreeError,
    canonical_cover,
    parse_newick,
    report,
    seeded_chooser,
    support_map,
    write_newick,
)
from tricover.jsonio import tree_to_json
from tricover.lab import enumerate_binary_trees, random_binary_tree
from tricover.reconstruct import pendant_length
from tricover.tree import (
    exact_rational,
    is_valid_label,
    make_quartet,
)


def to_networkx(tree):
    g = nx.Graph()
    for v in tree.vertices():
        g.add_node(v, label=tree.label(v) if tree.is_leaf(v) else "")
    for u, v, _ in tree.edges():
        g.add_edge(u, v)
    return g


def nx_isomorphic(t1, t2):
    return nx.is_isomorphic(
        to_networkx(t1),
        to_networkx(t2),
        node_match=lambda a, b: a["label"] == b["label"],
    )


def test_splits_reference(fig_tree):
    found = splits(fig_tree)
    assert len(found) == 7
    nontrivial = {s for s in found if min(len(s[0]), len(s[1])) > 1}
    assert nontrivial == {
        (("a", "b"), ("c", "d", "e")),
        (("a", "b", "c"), ("d", "e")),
    }


def test_three_leaf_star_splits():
    star = parse_newick("(a:1,b:2,c:3);")
    assert len(splits(star)) == 3
    assert all(min(len(s[0]), len(s[1])) == 1 for s in splits(star))


def _compatible(s1, s2):
    blocks1 = [set(b) for b in s1]
    blocks2 = [set(b) for b in s2]
    return any(not (x & y) for x in blocks1 for y in blocks2)


@pytest.mark.parametrize("seed", range(8))
def test_splits_pairwise_compatible(seed):
    tree = random_binary_tree(5 + seed % 5, seed)
    for s1, s2 in combinations(sorted(splits(tree)), 2):
        assert _compatible(s1, s2)


def test_counts_on_random_trees():
    for seed in range(10):
        n = 3 + seed
        tree = random_binary_tree(n, seed)
        assert tree.n_edges() == 2 * n - 3
        assert len(tree.interior_vertices()) == n - 2


def test_splits_determine_tree_against_networkx():
    trees = list(enumerate_binary_trees("abcde"))
    assert len(trees) == 15
    for t1, t2 in combinations(trees, 2):
        assert t1.isomorphic(t2) == nx_isomorphic(t1, t2)
    for t in trees:
        assert t.isomorphic(t) and nx_isomorphic(t, t)


def test_splits_determine_tree_six_taxa_sampled():
    trees = list(enumerate_binary_trees("abcdef"))
    assert len(trees) == 105
    sample = trees[::7]
    for t1, t2 in combinations(sample, 2):
        assert t1.isomorphic(t2) == nx_isomorphic(t1, t2)


def test_isomorphic_with_lengths(fig_tree):
    other = parse_newick("((a:1,b:1):1,c:1,(d:1,e:1):1);")
    assert fig_tree.isomorphic(other, compare_lengths=True)
    perturbed = parse_newick("((a:1,b:1):1,c:1,(d:1,e:2):1);")
    assert fig_tree.isomorphic(perturbed)
    assert not fig_tree.isomorphic(perturbed, compare_lengths=True)


def test_isomorphic_rejects_taxon_mismatch(fig_tree):
    with pytest.raises(TreeError):
        fig_tree.isomorphic(parse_newick("(a:1,b:1,x:1);"))


def test_isomorphic_caterpillar_differs(fig_tree):
    caterpillar = parse_newick("((a:1,c:1):1,b:1,(d:1,e:1):1);")
    assert not fig_tree.isomorphic(caterpillar)


def test_distance_reference(fig_tree):
    assert fig_tree.distance("a", "b") == 2
    assert fig_tree.distance("b", "e") == 4
    assert fig_tree.distance("c", "c") == 0
    with pytest.raises(TreeError):
        fig_tree.distance("a", "zz")


def test_distance_matrix_matches_pairwise(fig_tree):
    matrix = fig_tree.distance_matrix()
    for x, y in combinations(sorted(fig_tree.taxa), 2):
        assert matrix[(x, y)] == fig_tree.distance(x, y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 9))
def test_four_point_condition(seed, n):
    tree = random_binary_tree(n, seed)
    d = tree.distance_matrix()

    def dist(x, y):
        return d[(x, y)] if x < y else d[(y, x)]

    for w, x, y, z in combinations(sorted(tree.taxa), 4):
        sums = sorted(
            [
                dist(w, x) + dist(y, z),
                dist(w, y) + dist(x, z),
                dist(w, z) + dist(x, y),
            ]
        )
        assert sums[1] == sums[2]


def test_restrict_reference(fig_tree):
    sub = fig_tree.restrict({"a", "b", "c"})
    assert sorted(sub.taxa) == ["a", "b", "c"]
    assert sub.distance("a", "b") == 2
    assert sub.distance("a", "c") == 3
    center = sub.interior_vertices()[0]
    lengths = sorted(
        sub.edge_length(center, sub.leaf(t)) for t in ("a", "b", "c")
    )
    assert lengths == [1, 1, 2]


def test_restrict_star_distances(fig_tree):
    sub = fig_tree.restrict({"a", "d", "e"})
    center = sub.interior_vertices()[0]
    assert sub.edge_length(center, sub.leaf("a")) == 3
    assert sub.edge_length(center, sub.leaf("d")) == 1
    assert sub.edge_length(center, sub.leaf("e")) == 1


def test_restrict_whole_is_identity(fig_tree):
    assert fig_tree.restrict(fig_tree.taxa).isomorphic(fig_tree, compare_lengths=True)


def test_restrict_preserves_distances_randomly():
    for seed in range(6):
        tree = random_binary_tree(8, seed)
        taxa = sorted(tree.taxa)[: 4 + seed % 3]
        sub = tree.restrict(taxa)
        for x, y in combinations(taxa, 2):
            assert sub.distance(x, y) == tree.distance(x, y)


def test_restrict_nesting():
    tree = random_binary_tree(9, 17)
    outer = sorted(tree.taxa)[:6]
    inner = outer[:4]
    direct = tree.restrict(inner)
    nested = tree.restrict(outer).restrict(inner)
    assert direct.isomorphic(nested, compare_lengths=True)


def test_restrict_too_small(fig_tree):
    with pytest.raises(TreeError):
        fig_tree.restrict({"a", "b"})


def reference_remove_leaf(tree, taxon):
    """Drop one leaf and suppress its neighbour, edge by edge."""
    leaf = tree.leaf(taxon)
    (mid,) = tree.neighbors(leaf)
    a, b = (w for w in tree.neighbors(mid) if w != leaf)
    edges = [(u, v, q) for u, v, q in tree.edges() if {u, v}.isdisjoint({leaf, mid})]
    edges.append((a, b, tree.edge_length(mid, a) + tree.edge_length(mid, b)))
    labels = {v: tree.label(v) for v in tree.leaves() if v != leaf}
    return PhyloTree(sorted(edges), labels)


def test_remove_leaf_reference(fig_tree):
    smaller = fig_tree.restrict(fig_tree.taxa - {"a"})
    assert sorted(smaller.taxa) == ["b", "c", "d", "e"]
    assert smaller.distance("b", "c") == 3
    pendant = smaller.edge_length(
        smaller.leaf("b"), smaller.neighbors(smaller.leaf("b"))[0]
    )
    assert pendant == 2


def test_remove_leaf_equals_restrict():
    # Restricting to all taxa but one is leaf removal, vertex ids included.
    for n in range(4, 30):
        tree = random_binary_tree(n, n)
        for x in sorted(tree.taxa):
            assert tree_to_json(tree.restrict(tree.taxa - {x})) == tree_to_json(
                reference_remove_leaf(tree, x)
            )


def test_remove_leaf_three_taxa_errors():
    tree = parse_newick("(a:1,b:1,c:1);")
    with pytest.raises(TreeError):
        tree.restrict(tree.taxa - {"a"})


def test_quartet_topology_reference(fig_tree):
    assert fig_tree.quartet_topology("a", "b", "d", "e") == (("a", "b"), ("d", "e"))
    assert fig_tree.quartet_topology("a", "b", "c", "d") == (("a", "b"), ("c", "d"))
    assert fig_tree.quartet_topology("a", "c", "d", "e") == (("a", "c"), ("d", "e"))
    with pytest.raises(TreeError):
        fig_tree.quartet_topology("a", "a", "b", "c")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_quartet_structural_equals_metric(seed):
    tree = random_binary_tree(7, seed)
    d = tree.distance_matrix()
    for quad in combinations(sorted(tree.taxa), 4):
        a, b, x, y = quad
        assert tree.quartet_topology(a, b, x, y) == quartet_from_distances(
            d, a, b, x, y
        )


def test_quartet_matches_restriction(fig_tree):
    topo = fig_tree.quartet_topology("a", "b", "d", "e")
    sub = fig_tree.restrict({"a", "b", "d", "e"})
    (p1, p2) = topo
    assert cherries(sub) == frozenset({p1, p2})


def test_make_quartet_rejects_overlap():
    with pytest.raises(ValueError):
        make_quartet(("a", "b"), ("b", "c"))


def test_cherries(fig_tree):
    assert cherries(fig_tree) == frozenset({("a", "b"), ("d", "e")})
    star = parse_newick("(a:1,b:2,c:3);")
    assert cherries(star) == frozenset({("a", "b"), ("a", "c"), ("b", "c")})
    quartet = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
    assert cherries(quartet) == frozenset({("a", "b"), ("c", "d")})
    for seed in range(5):
        assert len(cherries(random_binary_tree(6, seed))) >= 2


def test_edge_lengths_exact_and_never_float():
    star = PhyloTree([(0, 1, "0.1"), (0, 2, Fraction(7, 2)), (0, 3, 2)],
                     {1: "a", 2: "b", 3: "c"})
    assert star.edge_length(0, 1) == Fraction(1, 10)
    with pytest.raises(TreeError, match="floats are not accepted"):
        PhyloTree([(0, 1, 0.1), (0, 2, 1), (0, 3, 1)], {1: "a", 2: "b", 3: "c"})
    with pytest.raises(TreeError, match="bad rational"):
        PhyloTree([(0, 1, "x"), (0, 2, 1), (0, 3, 1)], {1: "a", 2: "b", 3: "c"})


def test_boolean_edge_length_rejected():
    with pytest.raises(TreeError, match="booleans are not numbers"):
        PhyloTree([(0, 1, True), (0, 2, 1), (0, 3, 1)], {1: "a", 2: "b", 3: "c"})


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1e400000"])
def test_exponent_literals_rejected(text):
    # Fraction reads these, and the cost grows with the exponent.
    with pytest.raises(TreeError, match=r"^bad rational .*exponents are not accepted"):
        exact_rational(text)
    with pytest.raises(CoverError, match="exponents are not accepted"):
        exact_rational(text, CoverError)


@pytest.mark.parametrize("text", ["1_0", " 3 ", "\t7/2\n", "3 / 4", "\u0663", "x"])
def test_literals_outside_the_grammar_rejected(text):
    # Fraction reads all but "x": underscores, whitespace, non-ASCII digits.
    message = r"^bad rational .*: write an integer, p/q or a decimal$"
    with pytest.raises(TreeError, match=message):
        PhyloTree([(0, 1, text), (0, 2, 1), (0, 3, 1)], {1: "a", 2: "b", 3: "c"})
    with pytest.raises(CoverError, match=message):
        PartialDistances.make("abc", {("a", "b"): text})


@pytest.mark.parametrize(
    "text, value",
    [("7", 7), ("-2", -2), ("+3/4", Fraction(3, 4)), ("0.25", Fraction(1, 4)),
     (".5", Fraction(1, 2)), ("5.", 5)],
)
def test_integers_fractions_and_decimals_read(text, value):
    assert exact_rational(text) == value


@pytest.mark.parametrize(
    "raw", ["1" * 5000 + "x", "1" * 5000, "2/" + "0" * 5000, ["1"] * 5000]
)
def test_long_bad_literal_gives_a_short_error(raw):
    with pytest.raises(TreeError) as info:
        exact_rational(raw)
    text = str(info.value)
    assert text.startswith("bad rational ") and len(text) < 300
    assert f"... ({len(raw if isinstance(raw, str) else repr(raw))} characters)" in text



def star(length="1", label="c"):
    edges = [(0, 1, "1"), (0, 2, "1"), (0, 3, length)]
    return PhyloTree(edges, {1: "a", 2: "b", 3: label})


# case: (call on the figure's tree, cover and distances and a name, a short
# and a long bad name, start of the message)
NAME_ERRORS = {
    "edge length": (lambda fig, x: star(length=x), "-1", "-" + "1" * 1000,
                    "non-positive edge length"),
    "label": (lambda fig, x: star(label=x), "z;", "x" * 5000 + ";", "bad taxon label"),
    "leaf": (lambda fig, x: fig[0].leaf(x), "z", "x" * 5000, "unknown taxon"),
    "multiplicity": (lambda fig, x: fig[1].multiplicity(x), "z", "x" * 5000,
                     "unknown taxon"),
    "pendant": (lambda fig, x: pendant_length(x, fig[1], fig[2]), "z", "x" * 5000,
                "unknown taxon"),
}


@pytest.mark.parametrize("case", sorted(NAME_ERRORS))
def test_long_bad_name_gives_a_short_error(case, fig_tree, fig_cover, fig_dist):
    # A short name reads as its repr; a long one was once quoted whole.
    call, short, long, start = NAME_ERRORS[case]
    fig = (fig_tree, fig_cover, fig_dist)
    with pytest.raises((TreeError, CoverError)) as info:
        call(fig, short)
    assert str(info.value) == f"{start} {short!r}"
    with pytest.raises((TreeError, CoverError)) as info:
        call(fig, long)
    text = str(info.value)
    assert text.startswith(f"{start} {long[:40]!r}... ({len(long)} characters)")
    assert len(text) < 120

def test_disconnected_graph_with_a_cycle_is_refused():
    # Nine edges on ten vertices, every degree 1 or 3: only the walk from
    # the least taxon's leaf shows that the K4 sits apart from the leaves.
    k4 = [(u, v, 1) for u, v in combinations(range(4), 2)]
    loose = [(4, 5, 1), (6, 7, 1), (8, 9, 1)]
    with pytest.raises(TreeError, match="^graph is not connected$"):
        PhyloTree(k4 + loose, dict(zip(range(4, 10), "abcdef")))


def test_queries_leave_the_tree_unchanged():
    # The constructor builds every index; nothing is filled in later.
    tree = random_binary_tree(12, 3)
    cover = canonical_cover(tree, seeded_chooser(3))
    before = dict(vars(tree))
    snapshot = copy.deepcopy(before)
    support_map(tree, cover)
    report.classify(tree, cover)
    tree.distance_matrix()
    write_newick(tree)
    assert vars(tree) == snapshot
    assert all(vars(tree)[name] is value for name, value in before.items())


def test_degenerate_quartet_raises_under_optimize():
    # Invariants are typed errors, not asserts, so ``python -O`` keeps them;
    # the closure tests' metric reference lives beside this file.
    code = (
        "from itertools import combinations\n"
        "from tricover import TreeError\n"
        "from quartet_reference import quartet_from_distances\n"
        "dist = {pair: 1 for pair in combinations('abxy', 2)}\n"
        "try:\n"
        "    print(quartet_from_distances(dist, 'a', 'b', 'x', 'y'))\n"
        "except TreeError as exc:\n"
        "    print('TreeError:', exc)\n"
    )
    src = str(Path(tricover.__file__).resolve().parents[1])
    env = dict(os.environ)
    here = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, here, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "TreeError: degenerate quartet a,b,x,y\n"


def test_label_check_matches_the_per_character_rule_on_every_code_point():
    # is_valid_label searches one regex; the rule it stands for reads each
    # character: no str.isspace() character and no Newick punctuation.
    chars = map(chr, range(sys.maxunicode + 1))
    differ = [
        ch for ch in chars
        if is_valid_label("a" + ch) == (ch.isspace() or ch in "(),:;")
    ]
    assert differ == []
