"""The rooted tree index against the per-query walks it replaced.

The references below are the earlier implementations, kept as they were:
a BFS for the vertex path, a DFS per component and per split, one BFS per
leaf for path lengths in edges and for the distance matrix, the recursive
Newick writer and parser, and the prune-and-contract restriction.  Every
tree fact read from the index must agree with them exactly: components,
component triples, splits and their lengths, vertex paths, distances, path
edges, quartets, the hop matrix, the distance matrix,
restrictions, the Newick text, and the parser's vertex ids, edge order and
error texts.
"""

import random
import re
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    NewickError,
    PhyloTree,
    TreeError,
    newick,
    parse_newick,
    write_newick,
)
from tricover.lab import default_taxa, enumerate_binary_trees, random_binary_tree
from tricover.newick import format_length
from tricover.tree import _quote, make_quartet

from components_reference import components_without
from splits_reference import split_lengths

# -- the reference walks ------------------------------------------------------


def ref_path(tree, u, v):
    if u == v:
        return [u]
    parent = {u: None}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        if w == v:
            break
        for x in tree.neighbors(w):
            if x not in parent:
                parent[x] = w
                queue.append(x)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _side(tree, start, cut):
    """Taxa reachable from ``start`` without passing through ``cut``."""
    seen = {cut, start}
    stack = [start]
    taxa = set()
    while stack:
        w = stack.pop()
        if tree.is_leaf(w):
            taxa.add(tree.label(w))
        for x in tree.neighbors(w):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return taxa


def ref_components(tree, v):
    comps = [frozenset(_side(tree, start, v)) for start in tree.neighbors(v)]
    return tuple(sorted(comps, key=min))


def ref_split(tree, u, v):
    side = _side(tree, u, v)
    block_a = tuple(sorted(side))
    block_b = tuple(sorted(tree.taxa - side))
    if min(block_b) < min(block_a):
        block_a, block_b = block_b, block_a
    return (block_a, block_b)


def ref_hops(tree, taxa):
    leaf_index = {tree.leaf(x): i for i, x in enumerate(taxa)}
    rows = []
    for x in taxa:
        row = [0] * len(taxa)
        seen = {tree.leaf(x)}
        frontier = [tree.leaf(x)]
        depth = 0
        while frontier:
            depth += 1
            ahead = []
            for w in frontier:
                for u in tree.neighbors(w):
                    if u not in seen:
                        seen.add(u)
                        ahead.append(u)
                        if u in leaf_index:
                            row[leaf_index[u]] = depth
            frontier = ahead
        rows.append(row)
    return rows


def ref_distance_matrix(tree):
    matrix = {}
    for x in sorted(tree.taxa):
        start = tree.leaf(x)
        acc = {start: Fraction(0)}
        queue = deque([start])
        while queue:
            w = queue.popleft()
            for nbr in tree.neighbors(w):
                if nbr not in acc:
                    acc[nbr] = acc[w] + tree.edge_length(w, nbr)
                    queue.append(nbr)
        for y in sorted(tree.taxa):
            if x < y:
                matrix[(x, y)] = acc[tree.leaf(y)]
    return matrix


def ref_write_newick(tree):
    least = min(tree.taxa)
    (root,) = (w for w in tree.neighbors(tree.leaf(least)))

    def render(v, parent):
        length = format_length(tree.edge_length(parent, v))
        if tree.is_leaf(v):
            label = tree.label(v)
            return label, f"{label}:{length}"
        parts = sorted(render(w, v) for w in tree.neighbors(v) if w != parent)
        body = ",".join(text for _, text in parts)
        return parts[0][0], f"({body}):{length}"

    parts = sorted(render(w, root) for w in tree.neighbors(root))
    return "(" + ",".join(text for _, text in parts) + ");"


def ref_restrict(tree, taxa):
    keep_taxa = frozenset(taxa)
    adj = {
        v: {w: tree.edge_length(v, w) for w in tree.neighbors(v)}
        for v in tree.vertices()
    }
    keep_leaves = {tree.leaf(t) for t in keep_taxa}
    fringe = [
        v for v, nbrs in adj.items() if len(nbrs) == 1 and v not in keep_leaves
    ]
    while fringe:
        v = fringe.pop()
        (nbr,) = adj[v]
        del adj[v]
        del adj[nbr][v]
        if len(adj[nbr]) == 1 and nbr not in keep_leaves:
            fringe.append(nbr)
    nodes = {v for v, nbrs in adj.items() if len(nbrs) != 2}
    new_edges = []
    visited = set()
    for v in sorted(nodes):
        for nbr in sorted(adj[v]):
            if (v, nbr) in visited:
                continue
            length = adj[v][nbr]
            prev, cur = v, nbr
            while cur not in nodes:
                (nxt,) = (w for w in adj[cur] if w != prev)
                length += adj[cur][nxt]
                prev, cur = cur, nxt
            visited.add((v, nbr))
            visited.add((cur, prev))
            lo, hi = (v, cur) if v < cur else (cur, v)
            new_edges.append((lo, hi, length))
    labels = {tree.leaf(t): t for t in keep_taxa}
    return PhyloTree(sorted(set(new_edges)), labels)


_LABEL_RE = re.compile(r"[^\s(),:;]+")
_LENGTH_RE = re.compile(r"[0-9]+/[0-9]+|[0-9]+(\.[0-9]+)?")


class _CharParser:
    """The character-level helpers of the earlier Newick parser."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, message):
        raise NewickError(message, self.pos)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def parse_length(self):
        match = _LENGTH_RE.match(self.text, self.pos)
        if not match:
            self.fail("expected a branch length")
        token = match.group(0)
        try:
            value = Fraction(token)
        except ZeroDivisionError:
            self.fail(f"zero denominator in length literal {_quote(token)}")
        except ValueError as exc:  # more digits than int() reads
            self.fail(f"unreadable branch length: {exc}")
        if value <= 0:
            self.fail(f"non-positive branch length {_quote(token)}")
        self.pos = match.end()
        return value


class _RecursiveParser(_CharParser):
    def parse_subtree(self, at_root):
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            children = [self.parse_subtree(False)]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                children.append(self.parse_subtree(False))
                self.skip_ws()
            if len(children) < 2:
                self.fail("an internal node needs at least two children")
            self.expect(")")
            self.skip_ws()
            length = None
            if self.peek() == ":":
                self.pos += 1
                self.skip_ws()
                length = self.parse_length()
            if at_root:
                if length is not None:
                    self.fail("the root may not carry a branch length")
            elif length is None:
                self.fail("missing branch length on an interior edge")
            return ("node", children, length)
        match = _LABEL_RE.match(self.text, self.pos)
        if not match:
            self.fail("expected a leaf label or '('")
        label = match.group(0)
        self.pos = match.end()
        self.skip_ws()
        if self.peek() != ":":
            self.fail(f"missing branch length after leaf {label!r}")
        self.pos += 1
        self.skip_ws()
        length = self.parse_length()
        return ("leaf", label, length)


def ref_parse_parts(text):
    """The recursive parser's edge list and leaf labels, in the order it
    handed them to PhyloTree."""
    parser = _RecursiveParser(text)
    parser.skip_ws()
    root = parser.parse_subtree(True)
    parser.skip_ws()
    parser.expect(";")
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail("trailing characters after ';'")
    if root[0] == "leaf":
        raise NewickError("a tree must have an internal root group", 0)
    edges, labels, counter = [], {}, [0]

    def build(node, parent, parent_length):
        vid = counter[0]
        counter[0] += 1
        kind, payload, _ = node
        if kind == "leaf":
            labels[vid] = payload
        else:
            for child in payload:
                build(child, vid, child[2])
        if parent is not None:
            edges.append((parent, vid, parent_length))
        return vid

    _, children, _ = root
    if len(children) == 2:
        left = build(children[0], None, None)
        right = build(children[1], None, None)
        edges.append((left, right, children[0][2] + children[1][2]))
    else:
        root_id = counter[0]
        counter[0] += 1
        for child in children:
            build(child, root_id, child[2])
    return edges, labels


def parse_parts(text, monkeypatch):
    """parse_newick's edge list and leaf labels as handed to PhyloTree."""
    with monkeypatch.context() as m:
        m.setattr(newick, "PhyloTree", lambda edges, labels: (list(edges), labels))
        return parse_newick(text)


# -- trees --------------------------------------------------------------------


def caterpillar(names, seed=0):
    """A caterpillar with the given taxa along its spine, in order."""
    n = len(names)
    rng = random.Random(seed)
    spine = [n + k for k in range(n - 2)]
    edges = [(0, spine[0]), (1, spine[0]), (n - 1, spine[-1])]
    edges += [(spine[k - 1], spine[k]) for k in range(1, n - 2)]
    edges += [(k + 1, spine[k]) for k in range(1, n - 2)]
    return PhyloTree(
        [(u, v, Fraction(rng.randrange(1, 9), rng.randrange(1, 4))) for u, v in edges],
        dict(enumerate(names)),
    )


def check_index(tree, rng, samples=30, newick_reference=True):
    taxa = sorted(tree.taxa)
    for v in tree.interior_vertices():
        comps = ref_components(tree, v)
        assert components_without(tree, v) == comps
        assert tree.component_triple(v) == tuple(sorted(min(c) for c in comps))
    splits = {ref_split(tree, u, v): q for u, v, q in tree.edges()}
    assert split_lengths(tree) == splits
    hops = ref_hops(tree, taxa)
    assert [[tree.hops(x, y) for y in taxa] for x in taxa] == hops
    assert tree.hop_matrix() == hops
    assert tree.distance_matrix() == ref_distance_matrix(tree)
    vertices = tree.vertices()
    for _ in range(samples):
        u, v = rng.choice(vertices), rng.choice(vertices)
        assert tree._path(u, v) == ref_path(tree, u, v)
        x, y = rng.sample(taxa, 2)
        path = ref_path(tree, tree.leaf(x), tree.leaf(y))
        steps = list(zip(path, path[1:]))
        assert tree.distance(x, y) == sum(tree.edge_length(a, b) for a, b in steps)
        assert tree.path_edges(x, y) == [(min(a, b), max(a, b)) for a, b in steps]
        if len(taxa) >= 4:
            a, b, x, y = rng.sample(taxa, 4)
            shown = [
                make_quartet(p, q)
                for p, q in (((a, b), (x, y)), ((a, x), (b, y)), ((a, y), (b, x)))
                if not set(ref_path(tree, tree.leaf(p[0]), tree.leaf(p[1])))
                & set(ref_path(tree, tree.leaf(q[0]), tree.leaf(q[1])))
            ]
            assert [tree.quartet_topology(a, b, x, y)] == shown
    keep = rng.sample(taxa, rng.randint(3, len(taxa)))
    kept, expected = tree.restrict(keep), ref_restrict(tree, keep)
    assert kept.edges() == expected.edges()
    assert {v: kept.label(v) for v in kept.leaves()} == {
        v: expected.label(v) for v in expected.leaves()
    }
    if newick_reference:
        assert write_newick(tree) == ref_write_newick(tree)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_index_agrees_on_every_topology(n):
    rng = random.Random(n)
    for tree in enumerate_binary_trees(default_taxa(n)):
        check_index(tree, rng, samples=5)


@pytest.mark.parametrize("n", [3, 8, 16, 33, 64, 128, 200])
def test_index_agrees_on_random_trees(n):
    rng = random.Random(n)
    for seed in range(3):
        check_index(random_binary_tree(n, seed), rng)


@pytest.mark.parametrize("n", [3, 4, 5, 9, 40, 160])
def test_index_agrees_on_caterpillars(n):
    rng = random.Random(n)
    names = [f"t{i:03d}" for i in range(n)]
    check_index(caterpillar(names), rng)
    # The least taxon inside the spine, not at its end.
    rng.shuffle(names)
    check_index(caterpillar(names, seed=1), rng)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
def test_index_agrees_on_hypothesis_trees(n, seed):
    check_index(random_binary_tree(n, seed), random.Random(seed))


# -- the parser ---------------------------------------------------------------


def _variants(tree):
    """Canonical text plus non-canonical spellings of the same tree."""
    text = write_newick(tree)
    yield text
    yield text.replace(",", " , ").replace(":", " : ")
    # A degree-2 root: split the root's last edge.
    body = text[1:-2]
    depth, cut = 0, None
    for i, ch in enumerate(body):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            cut = i
    yield f"(({body[:cut]}):1/2,{body[cut + 1:]});"


def test_parser_ids_and_edge_order_agree(monkeypatch):
    trees = [
        random_binary_tree(n, seed) for n in (3, 4, 7, 12, 40) for seed in range(4)
    ]
    trees += list(enumerate_binary_trees(default_taxa(6)))
    trees.append(caterpillar([f"t{i:03d}" for i in range(60)]))
    for tree in trees:
        for text in _variants(tree):
            assert parse_parts(text, monkeypatch) == ref_parse_parts(text)


MALFORMED = [
    "", ";", "a:1;", "(a:1);", "(a:1,b:1);", "((a:1,b:1):1,c:1);x",
    "((a:1,b:1:1,c:1);", "(a:1,b:1", "(a:1,(b:1):1,c:1);", "(a:1,b:-1,c:1);",
    "(a:1,b:0,c:1);", "(a:1,b:1/0,c:1);", "(a b:1,c:1,d:1);", "(a:1,b:1,c:1):5;",
    "((a:1,b:1),c:1,d:1);", "(a:1,b:1,c:1)", "(a:1,,b:1);", "(a,b:1,c:1);",
    "(a:1,b:1,c:1,d:1);", "(a:1,a:1,c:1);", "((a:1,b:1):1,(c:1,d:1,e:1):1,f:1);",
    "  ( a:1 , b:2 ,c:3 ) ;  ", "(a:1,b:1,c:1);;", "((a:1,b:1)x:1,c:1,d:1);",
    "(a:1,b:1,(c:1,d:1):1/2);", "(a:1,b:1,(c:1,d:1):.5);", "(((a:1,b:1):1)",
]


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except (NewickError, TreeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def _parse_either(text):
    edges, labels = ref_parse_parts(text)
    return PhyloTree(edges, labels).edges()


@pytest.mark.parametrize("text", MALFORMED)
def test_parser_errors_agree(text):
    ours = outcome(lambda t: parse_newick(t).edges(), text)
    assert ours == outcome(_parse_either, text)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    edits=st.lists(
        st.tuples(
            st.integers(0, 10**6), st.sampled_from(["", *"(),:;ab 1/.x"]), st.booleans()
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_parser_agrees_on_mutated_text(seed, edits):
    text = write_newick(random_binary_tree(3 + seed % 6, seed))
    for where, ch, insert in edits:
        i = where % (len(text) + 1)
        text = text[:i] + ch + text[i + (not insert):]
    ours = outcome(lambda t: parse_newick(t).edges(), text)
    assert ours == outcome(_parse_either, text)


SWEEP_TREES = {
    "star": "(a:1,b:1,c:1);",
    "figure": "((a:1,b:1):1,c:1,(d:1,e:1):1);",
    "random-8": write_newick(random_binary_tree(8, 3)),
}
SWEEP_CHARS = "(),:;a1/. \t٣"


def single_edits(text):
    """Every one-character deletion, and every insertion and substitution
    of each sweep character, at every position of ``text``."""
    for i in range(len(text) + 1):
        if i < len(text):
            yield text[:i] + text[i + 1:]
        for ch in SWEEP_CHARS:
            yield text[:i] + ch + text[i:]
            if i < len(text):
                yield text[:i] + ch + text[i + 1:]


@pytest.mark.parametrize("name", sorted(SWEEP_TREES))
def test_parser_agrees_on_every_single_edit(name):
    kinds = set()
    for text in single_edits(SWEEP_TREES[name]):
        ours = outcome(lambda t: parse_newick(t).edges(), text)
        assert ours == outcome(_parse_either, text), text
        kinds.add(ours[0] if ours[0] == "ok" else ours[1].split(" ")[0])
    assert {"ok", "expected", "missing", "trailing"} <= kinds
