"""Splits of a tree as pairs of sorted taxon tuples, read from the tree
index; the tests that compare trees by their splits read them here.

A split is the bipartition of the taxon set induced by cutting one edge,
stored canonically: both blocks sorted, the block holding the least taxon
first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterator

Split = tuple[tuple[str, ...], tuple[str, ...]]


def taxa_of(tree, mask: int) -> Iterator[str]:
    """The taxa whose bits are set in ``mask``, in sorted order."""
    return compress(tree._index.taxa, map("1".__eq__, bin(mask)[:1:-1]))


def split_lengths(tree) -> dict[Split, Fraction]:
    """Map each split to the length of the edge inducing it."""
    index = tree._index
    out = {}
    # Each edge joins a vertex to its parent; the vertex's side holds the
    # leaves of its mask, the other side the least taxon.
    for v in index.order[1:]:
        above, below = index.full ^ index.mask[v], index.mask[v]
        split = (tuple(taxa_of(tree, above)), tuple(taxa_of(tree, below)))
        out[split] = tree.edge_length(v, index.parent[v])
    return out


def splits(tree) -> frozenset[Split]:
    """One split per edge (2n-3 of them, including the n trivial ones)."""
    return frozenset(split_lengths(tree))
