"""The tree constructor in its earlier form, kept as a reference.

``PhyloTree.__init__`` now finds the leaves and the first vertex of bad
degree in one scan of the adjacency, checks the labels with one search over
their join, skips ``exact_rational`` for a ``Fraction`` length, and its
index walk builds the leaf masks and the component masks in one reverse
pass.  ``reference_tree`` below is the constructor before that: a scan per
check, a label test per label, and a walk that ORs the masks up first and
reads the components in a second pass.  It returns the adjacency, the leaf
labels, the taxa and the index, or raises what that constructor raised.
"""

from fractions import Fraction

from tricover.errors import TreeError
from tricover.tree import _quote, _RootedIndex, exact_rational, is_valid_label


def reference_walk(adj: dict, label_leaf: dict) -> _RootedIndex:
    taxa = tuple(sorted(label_leaf))
    root = label_leaf[taxa[0]]
    order, parent, depth = [root], {root: root}, {root: 0}
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    mask = {label_leaf[x]: 1 << i for i, x in enumerate(taxa)}
    for v in reversed(order[1:]):
        mask[parent[v]] = mask.get(parent[v], 0) | mask[v]
    full = mask[root]
    components = {}
    for v in order[1:]:
        if len(adj[v]) > 1:
            a, b = (mask[w] for w in adj[v] if w != parent[v])
            if b & -b < a & -a:
                a, b = b, a
            components[v] = (full ^ mask[v], a, b)
    return _RootedIndex(taxa, order, parent, depth, mask, full, components)


def reference_tree(edges, leaf_labels):
    adj: dict[int, dict[int, Fraction]] = {}
    for u, v, length in edges:
        if u == v:
            raise TreeError(f"self-loop at vertex {u}")
        q = exact_rational(length)
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
    leaves = {v for v, nbrs in adj.items() if len(nbrs) == 1}
    if set(leaf_labels) != leaves:
        raise TreeError(
            f"leaf labels must cover exactly the degree-1 vertices "
            f"(labelled {sorted(leaf_labels)}, leaves {sorted(leaves)})"
        )
    for v, nbrs in adj.items():
        if v not in leaves and len(nbrs) != 3:
            raise TreeError(f"interior vertex {v} has degree {len(nbrs)}, want 3")
    for label in leaf_labels.values():
        if not is_valid_label(label):
            raise TreeError(f"bad taxon label {_quote(label)}")
    if len(set(leaf_labels.values())) != len(leaf_labels):
        dupes = sorted(
            lab
            for lab in set(leaf_labels.values())
            if sum(1 for x in leaf_labels.values() if x == lab) > 1
        )
        raise TreeError(f"duplicate taxon label(s) {dupes}")
    if len(leaves) < 3:
        raise TreeError(f"need at least 3 taxa, got {len(leaves)}")

    label_leaf = {lab: v for v, lab in leaf_labels.items()}
    index = reference_walk(adj, label_leaf)
    if len(index.order) != n_vertices:
        raise TreeError("graph is not connected")
    return adj, dict(leaf_labels), frozenset(leaf_labels.values()), index
