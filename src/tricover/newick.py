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
from .tree import PhyloTree, _literal_value, _quote

# The tokens of a text are its punctuation marks and the words between them
# and whitespace: labels, and length literals with whatever follows them.
_TOKEN_RE = re.compile(r"[(),:;]|[^\s(),:;]+")
# A length literal: its integer part, then its denominator or its decimals.
_LENGTH_RE = re.compile(r"([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")
_NOT_LABELS = frozenset(("", ")", ",", ":", ";"))


class _Tokens:
    """A text split into tokens once, with an empty last token for its end,
    and the value of each length literal read so far."""

    def __init__(self, text: str):
        self.text = text
        self.words = _TOKEN_RE.findall(text)
        self.words.append("")
        self.lengths: dict[str, Fraction] = {}

    def start(self, k: int) -> int:
        """Where token k begins: only whitespace lies between tokens."""
        text, pos = self.text, 0
        for word in self.words[:k]:
            pos = text.index(word, pos) + len(word)
        return text.index(self.words[k], pos) if self.words[k] else len(text)

    def fail(self, message: str, k: int):
        raise NewickError(message, self.start(k))

    def length(self, k: int) -> Fraction:
        """The branch length at token k.  A word with more after its literal
        ("1.5e3") is split in two, and parsing goes on from the rest as from
        any other token."""
        words = self.words
        match = _LENGTH_RE.match(words[k])
        if not match:
            self.fail("expected a branch length", k)
        literal = match.group(0)
        if literal != words[k]:
            words[k : k + 1] = [literal, words[k][len(literal) :]]
        value = self.lengths.get(literal)
        if value is None:
            try:
                value = _literal_value(*match.groups())
            except ZeroDivisionError:
                self.fail(f"zero denominator in length literal {_quote(literal)}", k)
            except ValueError as exc:  # more digits than int() reads
                self.fail(f"unreadable branch length: {exc}", k)
            if value <= 0:
                self.fail(f"non-positive branch length {_quote(literal)}", k)
            self.lengths[literal] = value
        return value


def _parse_tree(tokens: _Tokens) -> tuple[list[tuple[int, int, Fraction]], dict[int, str], int]:
    """Parse the outermost subtree with an explicit stack of open groups.

    Vertices are numbered in preorder, the root group 0, and each edge is
    listed once its child's subtree is complete.  Returns the edges, the
    leaf labels and the index of the token after the subtree.  An error is
    raised where the first token that cannot continue the tree begins, but
    a length on the root is refused where the length ends.
    """
    words, lengths = tokens.words, tokens.lengths
    edges: list[tuple[int, int, Fraction]] = []
    labels: dict[int, str] = {}
    groups: list[tuple[int, list[int]]] = []  # open groups, innermost last
    ids = count()
    k = 0
    while True:
        word = words[k]
        k += 1
        if word == "(":
            groups.append((next(ids), []))
            continue
        child = next(ids)
        if word in _NOT_LABELS:
            tokens.fail("expected a leaf label or '('", k - 1)
        labels[child] = word
        if words[k] != ":":
            tokens.fail(f"missing branch length after leaf {_quote(word)}", k)
        length = lengths.get(words[k + 1]) or tokens.length(k + 1)
        k += 2
        if not groups:
            return edges, labels, k
        # Close every group that ends after this subtree.
        while True:
            parent, children = groups[-1]
            children.append(child)
            edges.append((parent, child, length))
            word = words[k]
            if word == ",":
                k += 1
                break
            if len(children) < 2:
                tokens.fail("an internal node needs at least two children", k)
            if word != ")":
                tokens.fail(f"expected ')', found {word[:1]!r}", k)
            k += 1
            length = None
            if words[k] == ":":
                length = lengths.get(words[k + 1]) or tokens.length(k + 1)
                k += 2
            groups.pop()
            if not groups:
                if length is not None:
                    raise NewickError(
                        "the root may not carry a branch length",
                        tokens.start(k - 1) + len(words[k - 1]),
                    )
                return edges, labels, k
            if length is None:
                tokens.fail("missing branch length on an interior edge", k)
            child = parent


def parse_newick(text: str) -> PhyloTree:
    """Parse rooted-syntax Newick into the implied unrooted binary tree.

    Raises :class:`NewickError` with a position for syntax problems and
    :class:`TreeError` for structural ones (non-binary vertex, duplicate
    taxon, too few taxa).
    """
    tokens = _Tokens(text)
    edges, labels, k = _parse_tree(tokens)
    if tokens.words[k] != ";":
        tokens.fail(f"expected ';', found {tokens.words[k][:1]!r}", k)
    if tokens.words[k + 1]:
        tokens.fail("trailing characters after ';'", k + 1)
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


def write_newick(tree: PhyloTree) -> str:
    """Canonical Newick: rooted at the interior vertex adjacent to the least
    taxon, children ordered by their least descendant taxon.

    The text is built from the tree's index, which hangs from the least
    taxon's leaf: each vertex after the vertices below it.  A vertex's
    first finished child waits with its leaf mask's lowest bit, which
    orders it against the second."""
    index, adj, labels = tree._index, tree._adj, tree._leaf_label
    parent, mask = index.parent, index.mask
    least, root = index.order[:2]
    inner: dict[int, str] = {}  # an interior vertex -> its children's text
    waiting: dict[int, tuple[int, str]] = {}  # -> its first child's low bit, text
    for v in reversed(index.order[2:]):
        up = parent[v]
        label = labels.get(v)
        body = label if label is not None else f"({inner.pop(v)})"
        text = f"{body}:{str(adj[v][up])}"
        m = mask[v]
        low = m & -m
        other = waiting.pop(up, None)
        if other is None:
            waiting[up] = low, text
        elif other[0] < low:
            inner[up] = f"{other[1]},{text}"
        else:
            inner[up] = f"{text},{other[1]}"
    return f"({labels[least]}:{str(adj[least][root])},{inner[root]});"
