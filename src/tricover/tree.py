"""Unrooted binary phylogenetic trees with exact rational edge lengths.

A tree value is immutable after construction; every operation returns a new
value or a plain answer, so trees can be shared freely across tasks.  Vertex
ids are opaque integers that are stable within one tree value; code that needs
a reproducible name for an interior vertex should use
:meth:`PhyloTree.component_triple`, which names it by the least taxon of each
of the three components obtained by deleting the vertex.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple

from .errors import TreeError

# A resolved quartet topology: two disjoint leaf pairs, each sorted, lesser first.
Quartet = tuple[tuple[str, str], tuple[str, str]]

# What no label holds: whitespace (``\s`` is ``str.isspace``) or Newick
# punctuation.
_NOT_IN_LABELS = re.compile(r"[\s(),:;]")


def _labels_valid(labels) -> bool:
    """Whether every label is valid, by one :data:`_NOT_IN_LABELS` search
    over the labels joined: the join refuses a non-``str`` label, and an
    empty one is falsy."""
    try:
        joined = "".join(labels)
    except TypeError:
        return False
    return all(labels) and not _NOT_IN_LABELS.search(joined)


def is_valid_label(label: str) -> bool:
    """Labels are nonempty and avoid whitespace and Newick punctuation."""
    return (
        isinstance(label, str) and bool(label) and not _NOT_IN_LABELS.search(label)
    )


# What exact_rational reads from a string: an integer, p/q or a decimal, in
# ASCII digits with an optional sign; no whitespace, underscores or exponents.
# The groups are the sign, the integer part, the denominator and the decimals;
# the lookahead asks for a digit before or just after the point.
_RATIONAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?")

# Error texts quote at most this many characters of a bad literal.
_QUOTE_MAX = 40


def _quote(value) -> str:
    """The repr of a bad literal, or for a long one its first characters and
    its length, so that an error stays one short line."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTE_MAX:
        return repr(value)
    return f"{text[:_QUOTE_MAX]!r}... ({len(text)} characters)"


def _brief(value) -> str:
    """A name or literal for an error text: as ``str`` gives it, or for a
    long one quoted through :func:`_quote`."""
    text = str(value)
    return text if len(text) <= _QUOTE_MAX else _quote(text)


def _quote_each(value) -> str:
    """The repr of a name, or of a tuple or list of them nested to any depth,
    with each name quoted through :func:`_quote`: short names read exactly
    as in the repr."""
    if isinstance(value, (tuple, list)):
        inner = ", ".join(map(_quote_each, value))
        if isinstance(value, list):
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return _quote(value)


def _quote_first(items: list, limit: int) -> str:
    """:func:`_quote_each` of a list, or for one of more than ``limit`` items
    of its first ``limit`` followed by ``, ...]``."""
    if len(items) <= limit:
        return _quote_each(items)
    return _quote_each(items[:limit])[:-1] + ", ...]"


def exact_rational(value, error: type[Exception] = TreeError) -> Fraction:
    """Exact rational from an int, a Fraction or a string ("7/2", "0.25");
    floats are refused, since the float 0.1 is not 1/10, and so are booleans,
    which JSON keeps apart from numbers, exponents ("1e9"), whose value can
    outgrow any budget, and strings with whitespace or digit underscores.
    Raises ``error``.  A Fraction is returned as it is: it is immutable."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise error(f"floats are not accepted, write {value!r} as a string")
    if isinstance(value, bool):
        raise error(f"booleans are not numbers, got {value!r}")
    try:
        if not isinstance(value, str):
            return Fraction(value)
        match = _RATIONAL.fullmatch(value)
        if match:
            sign, num, den, dec = match.groups()
            return _literal_value(num, den, dec, sign == "-")
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise error(f"bad rational {_quote(value)}: {exc}") from None
    if "e" in value.lower():
        raise error(f"bad rational {_quote(value)}: exponents are not accepted")
    raise error(f"bad rational {_quote(value)}: write an integer, p/q or a decimal")


def _literal_value(
    num: str, den: str | None, dec: str | None, negative: bool = False
) -> Fraction:
    """The value of a rational literal from its ASCII digit groups: the
    integer part (possibly empty before a point), the denominator after a
    slash, or the digits after a point.  It is the value ``Fraction(literal)``
    gives, with the same ``ValueError`` (more digits in one group than
    ``int()`` reads) and ``ZeroDivisionError`` texts, but built from two ints
    without ``Fraction``'s general string grammar."""
    numerator = int(num or "0")
    denominator = 1
    if den:
        denominator = int(den)
    elif dec:
        denominator = 10 ** len(dec)
        numerator = numerator * denominator + int(dec)
    return Fraction(-numerator if negative else numerator, denominator)


def make_quartet(pair_one: tuple[str, str], pair_two: tuple[str, str]) -> Quartet:
    """Canonical form of a quartet topology given its two leaf pairs."""
    a = tuple(sorted(pair_one))
    b = tuple(sorted(pair_two))
    if set(a) & set(b):
        raise ValueError(f"quartet pairs overlap: {a} {b}")
    return (a, b) if a <= b else (b, a)


class _RootedIndex(NamedTuple):
    """One walk's facts about a tree rooted at its least taxon's leaf.

    Bit i of a leaf mask stands for ``taxa[i]``, so the lowest set bit of a
    vertex's mask is its least descendant taxon.
    """

    taxa: tuple[str, ...]  # sorted
    order: list[int]  # walk order, every vertex after its parent
    parent: dict[int, int]  # the root is its own parent
    depth: dict[int, int]  # edges from the root
    mask: dict[int, int]  # the leaves at or below each vertex
    full: int  # every taxon's bit
    # The leaf masks of the three components of the tree minus each interior
    # vertex, ordered by least taxon: the one above, which holds taxa[0],
    # then the two below.
    components: dict[int, tuple[int, int, int]]

    @classmethod
    def walk(cls, adj: dict[int, dict[int, Fraction]], label_leaf: dict[str, int]):
        """Index a tree from the least taxon's leaf: one walk down, then one
        reverse pass that ORs each vertex's mask into its parent's and,
        when a parent's second child arrives, records its components.  A
        graph with as many edges as a tree is one exactly when the walk
        reaches every vertex; otherwise :class:`TreeError` is raised."""
        taxa = tuple(sorted(label_leaf))
        root = label_leaf[taxa[0]]
        order, parent, depth = [root], {root: root}, {root: 0}
        for v in order:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    order.append(w)
        if len(order) != len(adj):
            raise TreeError("graph is not connected")
        full = (1 << len(taxa)) - 1
        mask = {label_leaf[x]: 1 << i for i, x in enumerate(taxa)}
        components = {}
        # order[1] is the root leaf's neighbour: every later vertex has an
        # interior parent, which has two children.
        for v in reversed(order[2:]):
            p, m = parent[v], mask[v]
            first = mask.get(p)
            if first is None:
                mask[p] = m
            else:
                both = mask[p] = first | m
                if m & -m < first & -first:
                    first, m = m, first
                components[p] = (full ^ both, first, m)
        mask[root] = full
        return cls(taxa, order, parent, depth, mask, full, components)


class PhyloTree:
    """A binary phylogenetic tree: leaves bijectively labelled, interior degree 3.

    Parameters
    ----------
    edges : iterable of (u, v, length)
        Undirected edges with strictly positive rational lengths.  Lengths may
        be ints, strings ("3", "7/2", "0.25") or Fractions.
    leaf_labels : mapping vertex id -> taxon label
        Must cover exactly the degree-1 vertices.
    """

    def __init__(self, edges: Iterable[tuple], leaf_labels: dict[int, str]):
        adj: dict[int, dict[int, Fraction]] = {}
        for u, v, length in edges:
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            q = length if type(length) is Fraction else exact_rational(length)
            if q.numerator <= 0:
                raise TreeError(f"non-positive edge length {_quote(length)}")
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            if v in adj[u]:
                raise TreeError(f"duplicate edge {u}-{v}")
            adj[u][v] = q
            adj[v][u] = q
        if not adj:
            raise TreeError("empty tree")

        n_vertices = len(adj)
        n_edges = sum(len(nbrs) for nbrs in adj.values()) // 2
        if n_edges != n_vertices - 1:
            raise TreeError(f"{n_edges} edges on {n_vertices} vertices is not a tree")
        # One scan: the leaves, and the first other vertex not of degree 3.
        leaves = set()
        bad_degree = None
        for v, nbrs in adj.items():
            if len(nbrs) == 1:
                leaves.add(v)
            elif len(nbrs) != 3 and bad_degree is None:
                bad_degree = v
        if leaf_labels.keys() != leaves:
            raise TreeError(
                f"leaf labels must cover exactly the degree-1 vertices "
                f"(labelled {sorted(leaf_labels)}, leaves {sorted(leaves)})"
            )
        if bad_degree is not None:
            degree = len(adj[bad_degree])
            raise TreeError(f"interior vertex {bad_degree} has degree {degree}, want 3")
        labels = leaf_labels.values()
        if not _labels_valid(labels):
            for label in labels:
                if not is_valid_label(label):
                    raise TreeError(f"bad taxon label {_quote(label)}")
        taxa = frozenset(labels)
        if len(taxa) != len(leaf_labels):
            dupes = sorted(
                lab
                for lab in taxa
                if sum(1 for x in labels if x == lab) > 1
            )
            raise TreeError(f"duplicate taxon label(s) {dupes}")
        if len(leaves) < 3:
            raise TreeError(f"need at least 3 taxa, got {len(leaves)}")
        self._adopt(adj, dict(leaf_labels), taxa)

    @classmethod
    def _born(
        cls, adj: dict[int, dict[int, Fraction]], leaf_labels: dict[int, str]
    ) -> "PhyloTree":
        """The tree of an adjacency that a generator built valid by
        construction, as the constructor would store it: positive
        ``Fraction`` lengths under both ends, at least 3 distinct valid
        labels on exactly the degree-1 vertices, the rest of degree 3.  Only
        the index walk runs, which still refuses a disconnected graph; the
        constructor's edge, degree, length and label checks are skipped."""
        tree = cls.__new__(cls)
        tree._adopt(adj, leaf_labels, frozenset(leaf_labels.values()))
        return tree

    def _adopt(
        self,
        adj: dict[int, dict[int, Fraction]],
        leaf_labels: dict[int, str],
        taxa: frozenset[str],
    ) -> None:
        """Set the tree's state from a valid adjacency, its leaf labels and
        their set, the first two owned by the tree from now on, and index it."""
        self._adj = adj
        self._leaf_label = leaf_labels
        self._label_leaf = {lab: v for v, lab in leaf_labels.items()}
        self._taxa = taxa
        self._index = _RootedIndex.walk(adj, self._label_leaf)

    # -- basic accessors -------------------------------------------------

    @property
    def taxa(self) -> frozenset[str]:
        return self._taxa

    @property
    def n_taxa(self) -> int:
        return len(self._taxa)

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def leaves(self) -> list[int]:
        return sorted(self._leaf_label)

    def interior_vertices(self) -> list[int]:
        return sorted(v for v in self._adj if v not in self._leaf_label)

    def edges(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for u, nbrs in self._adj.items():
            for v, q in nbrs.items():
                if u < v:
                    out.append((u, v, q))
        return sorted(out)

    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def edge_length(self, u: int, v: int) -> Fraction:
        return self._adj[u][v]

    def is_leaf(self, v: int) -> bool:
        return v in self._leaf_label

    def leaf(self, taxon: str) -> int:
        try:
            return self._label_leaf[taxon]
        except KeyError:
            raise TreeError(f"unknown taxon {_quote(taxon)}") from None

    def label(self, v: int) -> str:
        return self._leaf_label[v]

    # -- paths and distances ---------------------------------------------

    def _path(self, u: int, v: int) -> list[int]:
        """Vertex sequence of the unique u..v path."""
        index = self._index
        head, tail = [u], [v]
        while head[-1] != tail[-1]:
            end = head if index.depth[head[-1]] >= index.depth[tail[-1]] else tail
            end.append(index.parent[end[-1]])
        return head + tail[-2::-1]

    def _meet(self, u: int, v: int) -> int:
        """The vertex where the u..v path turns: u's least ancestor (u
        itself included) that has v below it."""
        parent, mask = self._index.parent, self._index.mask
        top, below = u, mask[v]
        while mask[top] & below != below:
            top = parent[top]
        return top

    def hops(self, x: str, y: str) -> int:
        """Number of edges on the path between taxa x and y."""
        depth = self._index.depth
        u, v = self.leaf(x), self.leaf(y)
        return depth[u] + depth[v] - 2 * depth[self._meet(u, v)]

    def hop_matrix(self) -> list[list[int]]:
        """:meth:`hops` between every two taxa, rows and columns in sorted
        taxon order, from one pass over the index: taxa split between an
        interior vertex's two lower components meet at that vertex, and
        the least taxon's leaf is the root, so its row is the leaf depths."""
        index = self._index
        depth = [index.depth[self._label_leaf[x]] for x in index.taxa]
        hops = [[d] + [0] * (len(depth) - 1) for d in depth]
        hops[0] = depth[:]
        for v, (_, low, high) in index.components.items():
            top = 2 * index.depth[v]
            below = [j for j in range(high.bit_length()) if high >> j & 1]
            while low:
                i = (low & -low).bit_length() - 1
                low &= low - 1
                row, base = hops[i], depth[i] - top
                for j in below:
                    row[j] = hops[j][i] = base + depth[j]
        return hops

    def scaled_distances(
        self, pairs: Iterable[tuple[str, str]]
    ) -> tuple[int, dict[tuple[str, str], int]]:
        """The distances between the given taxon pairs as integers times one
        scale, the lcm of the edge lengths' denominators: (scale, {pair:
        distance * scale}).  One pass over the tree gives every vertex's
        scaled distance from the root; each pair then reads three of them."""
        order, parent, adj = self._index.order, self._index.parent, self._adj
        scale = lcm(*(adj[v][parent[v]].denominator for v in order[1:]))
        root = {order[0]: 0}
        for v in order[1:]:
            q = adj[v][parent[v]]
            root[v] = root[parent[v]] + q.numerator * (scale // q.denominator)
        out = {}
        for pair in pairs:
            u, v = map(self.leaf, pair)
            out[pair] = root[u] + root[v] - 2 * root[self._meet(u, v)]
        return scale, out

    def distance(self, x: str, y: str) -> Fraction:
        """Sum of edge lengths on the path between taxa x and y; 0 iff x == y."""
        u, v = self.leaf(x), self.leaf(y)
        path = self._path(u, v)
        return sum(
            (self._adj[a][b] for a, b in zip(path, path[1:])), start=Fraction(0)
        )

    def path_edges(self, x: str, y: str) -> list[tuple[int, int]]:
        """Edges (as sorted id pairs) on the path between taxa x and y."""
        path = self._path(self.leaf(x), self.leaf(y))
        return [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]

    def distance_matrix(self) -> dict[tuple[str, str], Fraction]:
        """All leaf-to-leaf distances, keyed by sorted taxon pairs.

        No library code calls it; it stays because perfbench's traced round
        trip, which the test suite runs, times it."""
        matrix: dict[tuple[str, str], Fraction] = {}
        for x in sorted(self._taxa):
            # One BFS per leaf; accumulate path lengths.
            start = self.leaf(x)
            acc: dict[int, Fraction] = {start: Fraction(0)}
            queue = deque([start])
            while queue:
                w = queue.popleft()
                for nbr, q in self._adj[w].items():
                    if nbr not in acc:
                        acc[nbr] = acc[w] + q
                        queue.append(nbr)
            for y in sorted(self._taxa):
                if x < y:
                    matrix[(x, y)] = acc[self.leaf(y)]
        return matrix

    # -- components ------------------------------------------------------

    def _component_masks(self, v: int) -> tuple[int, int, int]:
        """Leaf masks of the components of the tree minus interior vertex v,
        ordered by least taxon."""
        if self.is_leaf(v):
            raise TreeError(f"vertex {v} is a leaf, not interior")
        return self._index.components[v]

    def component_triple(self, v: int) -> tuple[str, str, str]:
        """Canonical name for interior vertex v: least taxon per component."""
        taxa = self._index.taxa
        a, b, c = (taxa[(m & -m).bit_length() - 1] for m in self._component_masks(v))
        return a, b, c

    def isomorphic(self, other: "PhyloTree", compare_lengths: bool = False) -> bool:
        """Label-preserving isomorphism, i.e. equal split sets.

        With ``compare_lengths``, the edge lengths behind matching splits must
        agree exactly as well.  Both trees' indexes give bit i to the i-th
        sorted taxon and hang from the least taxon's leaf, so once the taxa
        match, the leaf mask below an edge names its split: the trees are
        compared as maps from those masks to edge lengths.
        """
        if self.taxa != other.taxa:
            raise TreeError(
                f"taxon sets differ: {sorted(self.taxa)} vs {sorted(other.taxa)}"
            )
        mine, theirs = self._edge_masks(), other._edge_masks()
        if compare_lengths:
            return mine == theirs
        return mine.keys() == theirs.keys()

    def _edge_masks(self) -> dict[int, Fraction]:
        """The leaf mask below each edge (the side without the least taxon),
        mapped to the edge's length."""
        index = self._index
        return {index.mask[v]: self._adj[v][index.parent[v]] for v in index.order[1:]}

    # -- derived trees -----------------------------------------------------

    def restrict(self, taxa: Iterable[str]) -> "PhyloTree":
        """Subtree spanned by the given taxa, degree-2 vertices suppressed.

        Suppressed paths contribute the sum of their edge lengths.  Kept
        vertices retain their ids.
        """
        keep_taxa = frozenset(taxa)
        if not keep_taxa <= self._taxa:
            raise TreeError(f"unknown taxa {sorted(keep_taxa - self._taxa)}")
        if len(keep_taxa) < 3:
            raise TreeError(f"restriction needs at least 3 taxa, got {len(keep_taxa)}")

        # The Steiner tree of the kept leaves: the edges with a kept taxon
        # on each side.
        index = self._index
        keep = sum(1 << i for i, x in enumerate(index.taxa) if x in keep_taxa)
        adj: dict[int, dict[int, Fraction]] = {}
        for v in index.order[1:]:
            below = index.mask[v] & keep
            if below and below != keep:
                u, q = index.parent[v], self._adj[v][index.parent[v]]
                adj.setdefault(u, {})[v] = q
                adj.setdefault(v, {})[u] = q

        # Contract degree-2 chains between branching/leaf vertices.
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
        labels = {self._label_leaf[t]: t for t in keep_taxa}
        return PhyloTree(sorted(set(new_edges)), labels)

    # -- quartets ----------------------------------------------------------

    def quartet_topology(self, a: str, b: str, x: str, y: str) -> Quartet:
        """The resolved quartet displayed on four distinct taxa.

        The pairing ab|xy holds exactly when the a..b path and the x..y path
        are vertex-disjoint; on a binary tree exactly one pairing qualifies.
        """
        if len({a, b, x, y}) != 4:
            raise TreeError(f"quartet needs four distinct taxa: {a},{b},{x},{y}")
        ids = {t: self.leaf(t) for t in (a, b, x, y)}
        pairings = [((a, b), (x, y)), ((a, x), (b, y)), ((a, y), (b, x))]
        resolved = []
        for p, q in pairings:
            path_p = set(self._path(ids[p[0]], ids[p[1]]))
            path_q = set(self._path(ids[q[0]], ids[q[1]]))
            if not path_p & path_q:
                resolved.append(make_quartet(p, q))
        if len(resolved) != 1:
            raise TreeError(f"quartet on {a},{b},{x},{y} not resolved")
        return resolved[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhyloTree(n={self.n_taxa}, taxa={sorted(self._taxa)})"
