"""The neighbour-mask cover graph, checked against the string graph.

A ``TripletCover`` holds one neighbour mask per taxon, and ``triangles``,
``is_two_connected`` and ``is_two_tree`` walk those masks.  The references
below are the earlier implementation over string adjacency sets.  Answers,
2-tree witness orders included, must agree exactly on graphs of every
density, connected or not, with and without cut vertices, and on the cover
graphs of triplet covers.  networkx decides 2-connectivity as a third,
independent opinion.
"""

import random
from itertools import combinations, islice

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    TripletCover,
    canonical_cover,
    is_two_connected,
    is_two_tree,
    make_triple,
    minimalize,
    seeded_chooser,
    triangles,
)
from tricover.lab import default_taxa, random_binary_tree, random_instances


def adjacency_of(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_triangles(vertices, edges):
    adj = adjacency_of(vertices, edges)
    out = set()
    for u, v in sorted(edges):
        for w in adj[u] & adj[v]:
            if w > v:
                out.add(make_triple(u, v, w))
    return frozenset(out)


def reference_connected(adj, among):
    if not among:
        return True
    start = next(iter(among))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in among and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == among


def reference_is_two_connected(vertices, edges):
    adj = adjacency_of(vertices, edges)
    everything = set(vertices)
    if not reference_connected(adj, everything):
        return False
    return all(reference_connected(adj, everything - {v}) for v in sorted(everything))


def reference_is_two_tree(vertices, edges):
    n = len(vertices)
    if len(edges) != 2 * n - 3:
        return False, None
    adj = adjacency_of(vertices, edges)
    eliminated = []
    while len(adj) > 3:
        victim = None
        for v in sorted(adj):
            if len(adj[v]) == 2:
                a, b = adj[v]
                if b in adj[a]:
                    victim = v
                    break
        if victim is None:
            return False, None
        for w in adj[victim]:
            adj[w].discard(victim)
        del adj[victim]
        eliminated.append(victim)
    last = sorted(adj)
    if any(len(adj[v]) != 2 for v in last):
        return False, None
    return True, last + list(reversed(eliminated))


def networkx_two_connected(vertices, edges):
    graph = nx.Graph(sorted(edges))
    graph.add_nodes_from(vertices)
    return nx.is_connected(graph) and not list(nx.articulation_points(graph))


def assert_agree(vertices, edges):
    """Compares every answer; returns the 2-connectivity verdict."""
    edges = frozenset(edges)
    graph = TripletCover(frozenset(vertices), edges)
    assert triangles(graph) == reference_triangles(vertices, edges)
    adj = adjacency_of(vertices, edges)
    assert all(graph.multiplicity(v) == len(adj[v]) for v in vertices)
    two_connected = reference_is_two_connected(vertices, edges)
    assert is_two_connected(graph) is two_connected
    assert networkx_two_connected(vertices, edges) is two_connected
    assert is_two_tree(graph) == reference_is_two_tree(vertices, edges)
    return two_connected


def random_graph(rng, n, density):
    vertices = default_taxa(n)
    return vertices, [e for e in combinations(vertices, 2) if rng.random() < density]


def test_agrees_on_random_graphs_of_every_density():
    rng = random.Random(7)
    disconnected = cut_vertex = two_connected = 0
    for n in range(3, 13):
        for trial in range(40):
            vertices, edges = random_graph(rng, n, (trial + 1) / 41)
            ok = assert_agree(vertices, edges)
            two_connected += ok
            if not ok:
                graph = nx.Graph(edges)
                graph.add_nodes_from(vertices)
                if nx.is_connected(graph):
                    cut_vertex += 1
                else:
                    disconnected += 1
    assert disconnected >= 50 and cut_vertex >= 20 and two_connected >= 50


def test_agrees_on_near_two_trees():
    # 2-trees are rare among random graphs: grow one vertex at a time on an
    # edge, then move or drop one edge, so both verdicts are well exercised.
    rng = random.Random(11)
    positives = negatives = 0
    for n in range(3, 13):
        for trial in range(30):
            vertices = default_taxa(n)
            order = rng.sample(vertices, n)
            edges = {tuple(sorted(p)) for p in combinations(order[:3], 2)}
            for v in order[3:]:
                u, w = rng.choice(sorted(edges))
                edges |= {tuple(sorted((u, v))), tuple(sorted((w, v)))}
            if trial % 3 == 1:
                edges.remove(rng.choice(sorted(edges)))
            elif trial % 3 == 2:
                absent = sorted(set(combinations(vertices, 2)) - edges)
                if absent:
                    edges.remove(rng.choice(sorted(edges)))
                    edges.add(rng.choice(absent))
            assert_agree(vertices, edges)
            ok, _ = is_two_tree(TripletCover(frozenset(vertices), frozenset(edges)))
            positives += ok
            negatives += not ok
    assert positives >= 100 and negatives >= 50


def test_agrees_on_every_seven_edge_graph_on_five_vertices():
    vertices = list("abcde")
    graphs = list(combinations(combinations(vertices, 2), 7))
    assert len(graphs) == 120
    for edges in graphs:
        assert_agree(vertices, edges)


def test_agrees_on_acceptance_pool_covers():
    # The acceptance suite's pool (50 covers per n in 4..9), as given and
    # minimalized: every cover graph is 2-connected by theorem, and the
    # minimum ones are 2-trees.
    two_trees = 0
    for n in range(4, 10):
        for tree, cover, _ in islice(random_instances(n, 1000 + n), 50):
            for candidate in (cover, minimalize(tree, cover)):
                assert assert_agree(sorted(candidate.taxa), candidate.cords)
                two_trees += is_two_tree(candidate)[0]
    assert two_trees > 100


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=10),
    bits=st.lists(st.booleans(), min_size=45, max_size=45),
)
def test_agrees_on_hypothesis_graphs(n, bits):
    vertices = default_taxa(n)
    pairs = list(combinations(vertices, 2))
    assert_agree(vertices, [p for p, keep in zip(pairs, bits) if keep])


def test_agrees_on_chooser_covers():
    for n in (12, 16, 24):
        for seed in range(3):
            tree = random_binary_tree(n, seed)
            cover = canonical_cover(tree, seeded_chooser(seed))
            for candidate in (cover, minimalize(tree, cover)):
                assert assert_agree(sorted(candidate.taxa), candidate.cords)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_two_connectivity_agrees_on_every_labelled_graph(n):
    vertices = default_taxa(n)
    pairs = list(combinations(vertices, 2))
    verdicts = 0
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        graph = TripletCover(frozenset(vertices), edges)
        verdict = is_two_connected(graph)
        assert verdict is reference_is_two_connected(vertices, edges)
        verdicts += verdict
    assert 0 < verdicts < 1 << len(pairs)


def glued(cut):
    """Two triplet covers' graphs, on taxa that share only ``cut``: the
    union is connected, and ``cut`` is its one cut vertex."""
    tree = random_binary_tree(7, 5)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(5)))
    left = dict(zip(default_taxa(7), ["m0", "m1", "m2", "m3", "m4", "m5", cut]))
    right = dict(zip(default_taxa(7), [cut, "x1", "x2", "x3", "x4", "x5", "x6"]))
    edges = {tuple(sorted(names[x] for x in c))
             for names in (left, right) for c in cover.cords}
    return sorted({*left.values(), *right.values()}), edges


@pytest.mark.parametrize("cut", ["a", "n"])
def test_two_connectivity_finds_the_cut_vertex_of_glued_covers(cut):
    # "a" is the least taxon, where the search starts, so only the root rule
    # finds it; "n" lies inside the search, where the lowpoints find it.
    vertices, edges = glued(cut)
    assert (vertices[0] == cut) is (cut == "a")
    assert is_two_connected(TripletCover(frozenset(vertices), frozenset(edges))) is False
    assert reference_is_two_connected(vertices, edges) is False
    for side in (set(vertices[:7]) | {cut}, set(vertices) - set(vertices[:7]) | {cut}):
        half = frozenset(e for e in edges if set(e) <= side)
        assert is_two_connected(TripletCover(frozenset(side), half))


@pytest.mark.parametrize("n", [160, 320, 1000])
def test_two_connectivity_agrees_with_networkx_on_ladder_covers(n):
    tree = random_binary_tree(n, 1)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(1)))
    assert is_two_connected(cover) is networkx_two_connected(cover.taxa, cover.cords)
    assert is_two_connected(cover)
    # Without the least cord of its least taxon, the least taxon may become a
    # cut vertex or be left hanging; networkx decides either way.
    thinner = cover.without(min(cover.cords))
    assert is_two_connected(thinner) is networkx_two_connected(
        thinner.taxa, thinner.cords
    )
