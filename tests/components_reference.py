"""Taxon sets of the components of a tree minus an interior vertex, named
from the tree index's component masks; the references that compare whole
components read them here."""

from __future__ import annotations


def components_without(tree, v: int) -> tuple[frozenset[str], ...]:
    """Taxon sets of the components of the tree minus interior vertex v.

    Ordered by least contained taxon; always three components.
    """
    return tuple(frozenset(tree._taxa_of(m)) for m in tree._component_masks(v))
