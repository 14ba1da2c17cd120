"""Newick reading and writing for unrooted binary trees.

Grammar (rooted syntax, branch lengths mandatory except on the outermost
group)::

    tree    := subtree ";"
    subtree := leaf | "(" subtree ("," subtree)+ ")" [":" length]
    leaf    := label ":" length

Lengths are decimal literals ("2", "0.25") or rational literals ("7/2"); both
are read exactly.  The outermost group is the root: with three children it
becomes an interior vertex of the unrooted tree, with two children the two
root edges are merged into one (lengths summed).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count

from .errors import NewickError
from .tree import PhyloTree, _quote

_LABEL_RE = re.compile(r"[^\s(),:;]+")
_LENGTH_RE = re.compile(r"[0-9]+/[0-9]+|[0-9]+(\.[0-9]+)?")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise NewickError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def parse_length(self) -> Fraction:
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

    def parse_leaf(self) -> tuple[str, Fraction]:
        match = _LABEL_RE.match(self.text, self.pos)
        if not match:
            self.fail("expected a leaf label or '('")
        label = match.group(0)
        self.pos = match.end()
        self.skip_ws()
        if self.peek() != ":":
            self.fail(f"missing branch length after leaf {_quote(label)}")
        self.pos += 1
        self.skip_ws()
        return label, self.parse_length()

    def parse_tree(self):
        """Parse the outermost subtree with an explicit stack of open groups.

        Vertices are numbered in preorder, the root group 0, and each edge
        is listed once its child's subtree is complete.  Returns the edges
        and the leaf labels.
        """
        edges: list[tuple[int, int, Fraction]] = []
        labels: dict[int, str] = {}
        groups: list[tuple[int, list[int]]] = []  # open groups, innermost last
        ids = count()
        while True:
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                groups.append((next(ids), []))
                continue
            child = next(ids)
            labels[child], length = self.parse_leaf()
            if not groups:
                return edges, labels
            # Close every group that ends after this subtree.
            while True:
                parent, children = groups[-1]
                children.append(child)
                edges.append((parent, child, length))
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                if len(children) < 2:
                    self.fail("an internal node needs at least two children")
                self.expect(")")
                self.skip_ws()
                length = None
                if self.peek() == ":":
                    self.pos += 1
                    self.skip_ws()
                    length = self.parse_length()
                groups.pop()
                if not groups:
                    if length is not None:
                        self.fail("the root may not carry a branch length")
                    return edges, labels
                if length is None:
                    self.fail("missing branch length on an interior edge")
                child = parent


def parse_newick(text: str) -> PhyloTree:
    """Parse rooted-syntax Newick into the implied unrooted binary tree.

    Raises :class:`NewickError` with a position for syntax problems and
    :class:`TreeError` for structural ones (non-binary vertex, duplicate
    taxon, too few taxa).
    """
    parser = _Parser(text)
    edges, labels = parser.parse_tree()
    parser.skip_ws()
    parser.expect(";")
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail("trailing characters after ';'")
    if not edges:
        raise NewickError("a tree must have an internal root group", 0)
    root_edges = [(v, q) for u, v, q in edges if u == 0]
    if len(root_edges) == 2:
        # Degree-2 root: drop it and merge its two edges.
        (left, q_left), (right, q_right) = root_edges
        edges = [(u - 1, v - 1, q) for u, v, q in edges if u != 0]
        edges.append((left - 1, right - 1, q_left + q_right))
        labels = {v - 1: label for v, label in labels.items()}
    return PhyloTree(edges, labels)


def format_length(value: Fraction) -> str:
    """Exact textual form: "3" for integers, "7/2" otherwise."""
    return str(value)


def write_newick(tree: PhyloTree) -> str:
    """Canonical Newick: rooted at the interior vertex adjacent to the least
    taxon, children ordered by their least descendant taxon."""
    index = tree._index
    least, root = index.order[:2]
    text: dict[int, str] = {}

    def group(ws) -> str:
        ordered = sorted(ws, key=lambda w: index.mask[w] & -index.mask[w])
        return ",".join(text.pop(w) for w in ordered)

    # The index is rooted at the least taxon's leaf, whose neighbour is the
    # Newick root; each vertex is rendered after the vertices below it.
    for v in (*reversed(index.order[2:]), least):
        up = root if v == least else index.parent[v]
        length = format_length(tree.edge_length(up, v))
        if tree.is_leaf(v):
            text[v] = f"{tree.label(v)}:{length}"
        else:
            text[v] = f"({group(w for w in tree.neighbors(v) if w != up)}):{length}"
    return f"({group(tree.neighbors(root))});"
