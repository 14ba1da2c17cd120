"""Shared fixtures: the 5-taxon reference instance used throughout.

Tree shape: cherry (a,b) at vertex u, leaf c at the middle vertex v, cherry
(d,e) at w, all edges of length 1.  Reference cover {ab,ac,bc,be,ce,cd,de}
with supports u -> {abc}, v -> {bce}, w -> {cde}.
"""

from itertools import combinations

import pytest

from tricover import PartialDistances, TripletCover, parse_newick

FIG_NEWICK = "((a:1,b:1):1,c:1,(d:1,e:1):1);"
FIG_CORDS = [
    ("a", "b"),
    ("a", "c"),
    ("b", "c"),
    ("b", "e"),
    ("c", "e"),
    ("c", "d"),
    ("d", "e"),
]
FIG_DISTANCES = {
    ("a", "b"): 2,
    ("a", "c"): 3,
    ("b", "c"): 3,
    ("b", "e"): 4,
    ("c", "e"): 3,
    ("c", "d"): 3,
    ("d", "e"): 2,
}


@pytest.fixture
def fig_tree():
    return parse_newick(FIG_NEWICK)


@pytest.fixture
def fig_cover():
    return TripletCover.make("abcde", FIG_CORDS)


@pytest.fixture
def fig_dist(fig_cover):
    return PartialDistances.make("abcde", FIG_DISTANCES)


def cherries(tree):
    """All pairs of leaves adjacent to a common vertex: the oracle for the
    cherries that reconstruction finds."""
    out = set()
    for v in tree.interior_vertices():
        leaves = sorted(tree.label(w) for w in tree.neighbors(v) if tree.is_leaf(w))
        out.update(combinations(leaves, 2))
    return frozenset(out)


def _caterpillar_newick(n):
    names = [f"t{i:04d}" for i in range(n)]
    lengths = ["1", "7/2", "2", "1/3"]
    spine = [f"({name}:{lengths[i % 4]}," for i, name in enumerate(names[2:-2])]
    inner = f"({names[-2]}:1,{names[-1]}:5/2)"
    closing = "".join(f":{lengths[i % 4]})" for i in reversed(range(len(spine))))
    return f"({names[0]}:1,{names[1]}:2,{''.join(spine)}{inner}{closing}:3);"


@pytest.fixture
def caterpillar_newick():
    """Builds the canonical Newick text of an n-taxon caterpillar whose least
    taxon sits at one end, so its groups nest n - 3 deep."""
    return _caterpillar_newick
