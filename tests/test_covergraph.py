"""Cover graph structure: triangles, 2-connectivity, 2-tree machinery.

networkx biconnectivity and a backtracking 2-tree recognizer serve as
independent oracles for the hand-rolled implementations.
"""

from itertools import combinations

import networkx as nx
import pytest
from decomposition_reference import all_two_tree_decompositions

from tricover import (
    CapacityError,
    SectionError,
    TripletCover,
    TwoTreeBlock,
    TwoTreeDecomposition,
    all_cords,
    build_cover_graph,
    canonical_cover,
    cord_set,
    decomposition_from_section,
    is_strict,
    is_two_connected,
    is_two_tree,
    seeded_chooser,
    support_map,
    supported_triples,
    triangles,
    verify_counting,
)
from tricover.covers import iter_sections
from tricover.lab import random_binary_tree, random_instances

FIG_SECTION = frozenset({("a", "b", "c"), ("b", "c", "e"), ("c", "d", "e")})


def graph_of(cords, vertices="abcde"):
    return TripletCover(
        frozenset(vertices), frozenset(tuple(sorted(c)) for c in cords)
    )


def test_build_cover_graph(fig_cover):
    g = build_cover_graph(fig_cover)
    assert g is fig_cover
    assert len(g.taxa) == 5
    assert len(g.cords) == 7
    empty = TripletCover.make("abcde", [])
    assert len(empty.cords) == 0
    k3 = TripletCover.make("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    assert triangles(k3) == frozenset({("a", "b", "c")})


def test_triangles_reference(fig_tree, fig_cover):
    g = fig_cover
    assert triangles(g) == FIG_SECTION
    assert triangles(g) == supported_triples(fig_tree, fig_cover)


def test_triangles_edgeless_and_k4():
    assert triangles(graph_of([])) == frozenset()
    k4 = graph_of(combinations("abcd", 2), vertices="abcd")
    assert len(triangles(k4)) == 4


def test_triangle_bijection_on_random_instances(fig_tree):
    for seed in range(15):
        tree = random_binary_tree(5 + seed % 5, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        assert triangles(cover) == supported_triples(tree, cover)


def test_two_connected_reference(fig_cover):
    assert is_two_connected(fig_cover)
    path = graph_of([("a", "b"), ("b", "c")], vertices="abc")
    assert not is_two_connected(path)
    with pytest.raises(ValueError):
        is_two_connected(graph_of([], vertices="ab"))


def test_two_connected_matches_networkx():
    for seed in range(12):
        tree = random_binary_tree(5 + seed % 4, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        g = cover
        nx_graph = nx.Graph(sorted(g.cords))
        nx_graph.add_nodes_from(g.taxa)
        expected = nx.is_connected(nx_graph) and not list(
            nx.articulation_points(nx_graph)
        )
        assert is_two_connected(g) == expected
        assert is_two_connected(g)  # theorem-backed for triplet covers


def brute_force_two_tree(vertices, edges):
    """Backtracking over every elimination order (independent oracle)."""
    if len(vertices) == 3:
        return len(edges) == 3
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    candidates = [
        v for v in vertices if len(adj[v]) == 2 and tuple(adj[v])[1] in adj[tuple(adj[v])[0]]
    ]
    for v in candidates:
        rest_vertices = [w for w in vertices if w != v]
        rest_edges = [e for e in edges if v not in e]
        if brute_force_two_tree(rest_vertices, rest_edges):
            return True
    return False


def test_is_two_tree_reference(fig_cover):
    g = fig_cover
    ok, order = is_two_tree(g)
    assert ok
    # The witness order must rebuild the graph triangle by triangle.
    assert set(order) == set(g.taxa)
    for i in range(2, len(order)):
        prior = set(order[:i])
        nbrs = {w for e in g.cords if order[i] in e for w in e} & prior
        assert len(nbrs) == 2
        u, v = sorted(nbrs)
        assert (u, v) in g.cords


def test_is_two_tree_negative_cases():
    k4 = graph_of(combinations("abcd", 2), vertices="abcd")
    assert is_two_tree(k4) == (False, None)
    triangle = graph_of([("a", "b"), ("a", "c"), ("b", "c")], vertices="abc")
    assert is_two_tree(triangle)[0]
    cycle4 = graph_of([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")], "abcd")
    assert not is_two_tree(cycle4)[0]


def test_is_two_tree_matches_brute_force():
    # All graphs on 5 vertices with 2*5-3 = 7 edges.
    vertices = list("abcde")
    pool = list(combinations(vertices, 2))
    checked = positives = 0
    for edges in combinations(pool, 7):
        g = TripletCover(frozenset(vertices), frozenset(edges))
        got, _ = is_two_tree(g)
        want = brute_force_two_tree(vertices, list(edges))
        assert got == want
        checked += 1
        positives += got
    assert checked == 120 and positives > 0


def test_decomposition_reference():
    d = decomposition_from_section(FIG_SECTION)
    assert d.m == 1
    block = d.blocks[0]
    assert block.vertices == frozenset("abcde")
    assert len(block.edges) == 7
    assert block.triangles == FIG_SECTION
    assert verify_counting(d)  # 7 == 2*5 - 4 + 1


def test_decomposition_disjoint_triples():
    section = frozenset({("a", "b", "c"), ("d", "e", "f")})
    d = decomposition_from_section(section)
    assert d.m == 2
    assert {b.vertices for b in d.blocks} == {frozenset("abc"), frozenset("def")}


def test_decomposition_rejects_non_section():
    # abc, abd, acd pairwise share pairs but the third one re-enters.
    bad = frozenset({("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")})
    with pytest.raises(SectionError):
        decomposition_from_section(bad)
    with pytest.raises(SectionError):
        decomposition_from_section(frozenset())


NOT_TRIPLES = [
    ({("a", "b")}, "('a', 'b')"),
    ({("a", "b", "c"), ("c", "d")}, "('c', 'd')"),
    (["abc"], "'abc'"),
    ([("a", "b", "c"), ("a", "b", "c", "d")], "('a', 'b', 'c', 'd')"),
    ([("a", "b", "c"), ("b", "a", "b")], "('b', 'a', 'b')"),
    ([("a", "b", "c"), ("a", 1, "c")], "('a', 1, 'c')"),
    ([("a", "b", "c"), (["a"], "b", "c")], "(['a'], 'b', 'c')"),
]


@pytest.mark.parametrize("family, shown", NOT_TRIPLES)
def test_decomposition_rejects_members_that_are_not_triples(family, shown):
    # A lone pair would pass the name-level 2-tree check (one edge on two
    # taxa is 2|V| - 3) and make a two-taxon "block".
    with pytest.raises(SectionError) as err:
        decomposition_from_section(family)
    assert str(err.value) == (
        f"family member {shown} is not a triple of three distinct taxon names"
    )


def test_decomposition_block_count_identity(fig_tree, fig_cover):
    # |T| = 2|X| - 4 + m on the reference instance: 7 = 10 - 4 + 1.
    d = decomposition_from_section(FIG_SECTION)
    assert len(fig_cover) == 2 * len(fig_cover.taxa) - 4 + d.m


def test_is_strict_reference(fig_cover):
    g = fig_cover
    d = decomposition_from_section(FIG_SECTION)
    assert is_strict(g, d)


def test_is_strict_detects_split_triangle():
    # Graph: triangle abc plus pendant structure covered by a block that
    # does not contain the triangle's edges together.
    g = graph_of(
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("b", "d")], "abcd"
    )
    blocks = (
        TwoTreeBlock(
            frozenset("abc"),
            frozenset([("a", "b"), ("a", "c"), ("b", "c")]),
            (("a", "b", "c"),),
        ),
        TwoTreeBlock(
            frozenset("bcd"),
            frozenset([("c", "d"), ("b", "d")]),
            (("b", "c", "d"),),
        ),
    )
    # Second "block" is not a 2-tree; build decomposition manually to probe
    # is_strict's triangle check: triangle bcd is split across blocks.
    d = TwoTreeDecomposition(blocks)
    assert not is_strict(g, d)


def test_is_strict_requires_subgraph(fig_cover):
    g = fig_cover
    alien = TwoTreeDecomposition(
        (
            TwoTreeBlock(
                frozenset("axy"),
                frozenset([("a", "x"), ("a", "y"), ("x", "y")]),
                (("a", "x", "y"),),
            ),
        )
    )
    with pytest.raises(ValueError):
        is_strict(g, alien)


def test_verify_counting_cases():
    # Single triangle: 3 = 2*3 - 4 + 1.
    single = decomposition_from_section(frozenset({("a", "b", "c")}))
    assert verify_counting(single)
    # Bowtie: two triangles sharing only one vertex.  The identity needs
    # blocks chained through shared pairs (the section-induced shape);
    # here 6 != 2*5 - 4 + 2, so the checker must say no.
    bowtie = decomposition_from_section(
        frozenset({("a", "b", "c"), ("c", "d", "e")})
    )
    assert bowtie.m == 2 and not verify_counting(bowtie)
    # Two blocks sharing two vertices: K4 minus cd, plus triangle cde:
    # 8 edges, 5 vertices, m = 2: 8 = 2*5 - 4 + 2.
    k4_minus = TwoTreeBlock(
        frozenset("abcd"),
        frozenset([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
        (("a", "b", "c"), ("a", "b", "d")),
    )
    tri = TwoTreeBlock(
        frozenset("cde"),
        frozenset([("c", "d"), ("c", "e"), ("d", "e")]),
        (("c", "d", "e"),),
    )
    two_block = TwoTreeDecomposition((k4_minus, tri))
    assert verify_counting(two_block)
    # A broken pairing misses the identity.
    broken = TwoTreeDecomposition((k4_minus,))
    assert verify_counting(broken)  # single 2-tree: 5 = 2*4 - 4 + 1
    assert not verify_counting(
        TwoTreeDecomposition(
            (
                TwoTreeBlock(
                    frozenset("abc"),
                    frozenset([("a", "b"), ("a", "c")]),
                    (("a", "b", "c"),),
                ),
            )
        )
    )


def test_edge_partition_enforced():
    overlapping = (
        TwoTreeBlock(
            frozenset("abc"),
            frozenset([("a", "b"), ("a", "c"), ("b", "c")]),
            (("a", "b", "c"),),
        ),
        TwoTreeBlock(
            frozenset("abd"),
            frozenset([("a", "b"), ("a", "d"), ("b", "d")]),
            (("a", "b", "d"),),
        ),
    )
    with pytest.raises(ValueError):
        TwoTreeDecomposition(overlapping)


def test_exhaustive_decompositions_reference(fig_cover):
    g = fig_cover
    decs = all_two_tree_decompositions(g)
    assert decs == [frozenset({FIG_SECTION})]


def test_exhaustive_decompositions_cap():
    k4 = graph_of(combinations("abcd", 2), vertices="abcd")
    with pytest.raises(CapacityError):
        all_two_tree_decompositions(k4, cap=2)
    # K4 itself: every vertex has degree 3, no 2-tree decomposition exists
    # (any block is a 2-tree; exhaustive search confirms none partition it).
    assert all_two_tree_decompositions(k4) == []


def test_exhaustive_matches_greedy_on_sections():
    from tricover import is_minimal, minimalize

    hits = 0
    for seed in range(10):
        tree = random_binary_tree(6, seed)
        cover = minimalize(tree, canonical_cover(tree, seeded_chooser(seed)))
        if not is_minimal(tree, cover):
            continue
        support = support_map(tree, cover)
        g = cover
        if len(triangles(g)) > 12:
            continue
        decs = all_two_tree_decompositions(g)
        for section in iter_sections(support):
            d = decomposition_from_section(section)
            partition = frozenset(b.triangles for b in d.blocks)
            # For minimal covers the greedy result is among the exhaustive
            # ones and is the only one with this triangle partition.
            assert partition in decs
            same_section = [
                dec for dec in decs if frozenset().union(*dec) == section
            ]
            assert same_section == [partition]
            hits += 1
    assert hits > 5


def test_nonminimal_section_decomposes_its_own_cord_set():
    # Flagged use: on a non-minimal cover's section the blocks partition the
    # section's cord set, which may be a proper subset of the cover.
    tree = random_binary_tree(6, 2)
    cover = canonical_cover(tree, seeded_chooser(2)).add_cords(
        [c for c in sorted(all_cords(tree.taxa))[:2]]
    )
    support = support_map(tree, cover)
    for section in iter_sections(support):
        d = decomposition_from_section(section)
        assert d.edge_union == cord_set(section)


def test_strict_decomposition_three_way_equivalence():
    # Over all decompositions (exhaustive oracle): a strict one exists iff
    # the cover is minimal and sparse, and then it is unique.
    from tricover import is_minimal, is_sparse
    from tricover.covers import cord_set as cords_of

    def is_strict_partition(graph, blocks):
        all_tris = triangles(graph)
        block_edges = [cords_of(b) for b in blocks]
        return all(
            any(cords_of([t]) <= edges for edges in block_edges)
            for t in all_tris
        )

    strict_seen = nonstrict_seen = 0
    for seed in range(25):
        tree = random_binary_tree(6, seed)
        cover = canonical_cover(tree, seeded_chooser(seed))
        g = cover
        if len(triangles(g)) > 12:
            continue
        decs = all_two_tree_decompositions(g)
        strict = [d for d in decs if is_strict_partition(g, d)]
        expected = is_minimal(tree, cover) and is_sparse(tree, cover)
        assert bool(strict) == expected
        if strict:
            assert len(strict) == 1
            strict_seen += 1
        else:
            nonstrict_seen += 1
    assert strict_seen > 5 and nonstrict_seen > 2


def test_unique_decomposition_implies_sparse():
    # One direction survives exhaustive scrutiny: a minimal cover whose
    # graph has a single 2-tree decomposition is sparse.  (Non-sparse
    # minimal covers first appear at 7 taxa; that instance has several.)
    from itertools import islice

    from tricover import is_minimal, is_sparse, minimalize

    checked = 0
    for seed in range(40):
        tree = random_binary_tree(6, seed)
        cover = minimalize(tree, canonical_cover(tree, seeded_chooser(seed)))
        if not is_minimal(tree, cover):
            continue
        g = cover
        if len(triangles(g)) > 12:
            continue
        if len(all_two_tree_decompositions(g)) == 1:
            assert is_sparse(tree, cover)
            checked += 1
    assert checked > 5

    tree, cover, prov = next(islice(random_instances(7, 0), 149, 150))
    assert prov["index"] == 149
    assert is_minimal(tree, cover) and not is_sparse(tree, cover)
    decs = all_two_tree_decompositions(cover)
    assert len(decs) > 1


def test_fan_two_tree_decomposes_twice():
    # A minimum (hence minimal and sparse) cover whose graph is a fan
    # 2-tree: pendant triangles bcd, ade, cef each absorb one edge of the
    # central triangle cde, so the edge set also partitions into three
    # single-triangle blocks.  Uniqueness of unrestricted decompositions
    # therefore fails even for minimum covers; only the strict one is
    # unique (see the three-way equivalence test).
    from tricover import is_minimal, is_sparse, parse_newick

    tree = parse_newick("(a:1,((b:1,c:4/3):4,d:9/4):8/3,(e:3,f:4):15/4);")
    cover = TripletCover.make(
        "abcdef",
        [("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("c", "d"),
         ("c", "e"), ("c", "f"), ("d", "e"), ("e", "f")],
    )
    assert len(cover) == 2 * 6 - 3
    assert is_minimal(tree, cover) and is_sparse(tree, cover)
    g = cover
    assert is_two_tree(g)[0]
    decs = all_two_tree_decompositions(g)
    assert len(decs) == 2
    whole = frozenset({triangles(g)})
    split = frozenset(
        {
            frozenset({("a", "d", "e")}),
            frozenset({("b", "c", "d")}),
            frozenset({("c", "e", "f")}),
        }
    )
    assert set(decs) == {whole, split}


def test_decomposition_not_from_section_phenomenon():
    # Regression for the constructed example: a minimal cover whose graph
    # admits a 2-tree decomposition that no section induces.
    stream = random_instances(6, 3)
    for _ in range(6):
        tree, cover, prov = next(stream)
    assert prov["index"] == 5
    g = cover
    decs = all_two_tree_decompositions(g)
    section_partitions = set()
    for section in iter_sections(support_map(tree, cover)):
        d = decomposition_from_section(section)
        section_partitions.add(frozenset(b.triangles for b in d.blocks))
    extra = [d for d in decs if d not in section_partitions]
    assert extra, "expected a decomposition that no section induces"
