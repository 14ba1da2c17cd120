"""Generators, the exhaustive topology enumerator and the fixture search.

Everything here is seeded and reproducible: the same seed yields the same
instance, byte for byte.  The topology enumerator is deliberately
independent of the main algorithms so it can serve as a cross-check at desk
scale.
"""

from __future__ import annotations

import random
from bisect import insort
from fractions import Fraction
from itertools import product, repeat
from typing import Callable, Iterator

from .covers import (
    Chooser,
    TripletCover,
    _add_triple,
    _below,
    _bits,
    _canonical_order,
    _is_minimal,
    _support_masks,
    canonical_cover,
    minimalize,
    section_count,
    seeded_chooser,
)
from .errors import CapacityError
from .report import InstanceRecord, basic_flags
from .shelling import _ample_merge, _shelling_cords
from .tree import PhyloTree

ENUMERATION_CAP = 8

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def default_taxa(n: int) -> list[str]:
    """Deterministic taxon names: a..z, then t27, t28, ..."""
    if n < 3:
        raise ValueError(f"need at least 3 taxa, got {n}")
    return [_LETTERS[i] if i < 26 else f"t{i + 1}" for i in range(n)]


# The draws of random_rational, at (numerator - 1) * 4 + (denominator - 1):
# the length when the ratio lies in [1/4, 4], else None.  The 40 lengths are
# built once; a Fraction is immutable, so trees share them.
_LENGTHS = [
    Fraction(num, den) if den <= 4 * num and num <= 4 * den else None
    for num in range(1, 17)
    for den in range(1, 5)
]


def _draw_lengths(getrandbits: Callable[[int], int], count: int) -> list[Fraction]:
    """``count`` lengths by :func:`random_rational`'s rule, in one loop.

    Each numerator and denominator is drawn by ``randrange``'s rule (see
    :func:`~tricover.covers._below`), inlined: 5 bits until they are below
    16, then 3 bits until they are below 4.  These are the words
    ``randrange(1, 17)`` and ``randrange(1, 5)`` read, in the same order."""
    lengths = []
    for _ in range(count):
        length = None
        while length is None:
            num = getrandbits(5)
            while num > 15:
                num = getrandbits(5)
            den = getrandbits(3)
            while den > 3:
                den = getrandbits(3)
            length = _LENGTHS[num << 2 | den]
        lengths.append(length)
    return lengths


def random_rational(rng: random.Random) -> Fraction:
    """A random exact length in [1/4, 4] with small numerator/denominator:
    a numerator in 1..16 and a denominator in 1..4 are drawn until their
    ratio lies in that range.

    The draws are :func:`_draw_lengths`' for one length: the same words in
    the same order as ``randrange(1, 17)`` and ``randrange(1, 5)``, so the
    lengths are those they gave, without their per-call argument checks
    and without depending on how a Python version implements them."""
    return _draw_lengths(rng.getrandbits, 1)[0]


def _born_tree(edges, lengths, leaf_labels: dict[int, str]) -> PhyloTree:
    """The tree of the sorted edge pairs ``edges`` with ``lengths``, built as
    the constructor would build it but without its checks
    (:meth:`PhyloTree._born`): the generators make valid trees."""
    adj: dict[int, dict[int, Fraction]] = {}
    for (u, v), q in zip(edges, lengths):
        adj.setdefault(u, {})[v] = q
        adj.setdefault(v, {})[u] = q
    return PhyloTree._born(adj, leaf_labels)


def random_binary_tree(n: int, seed: int) -> PhyloTree:
    """Uniformly random topology on n taxa (sequential leaf attachment to a
    uniformly chosen edge), with seeded rational lengths in [1/4, 4].

    The edges stay in one sorted list, from which the drawn index is popped;
    the new interior vertex has the largest id so far, so its three edges
    are (u, mid), (v, mid) and (k, mid), each inserted in order.  The index
    is drawn by ``randrange``'s rule (:func:`~tricover.covers._below`), and
    then the lengths in edge order (:func:`_draw_lengths`)."""
    taxa = default_taxa(n)
    getrandbits = random.Random(seed).getrandbits
    # Leaves take ids 0..n-1, interior vertices n, n+1, ...
    edges = [(0, n), (1, n), (2, n)]
    for k in range(3, n):
        mid = n + k - 2
        u, v = edges.pop(_below(getrandbits, len(edges)))
        insort(edges, (u, mid))
        insort(edges, (v, mid))
        insort(edges, (k, mid))
    lengths = _draw_lengths(getrandbits, len(edges))
    return _born_tree(edges, lengths, dict(enumerate(taxa)))


def enumerate_binary_trees(taxa) -> Iterator[PhyloTree]:
    """All (2n-5)!! binary topologies on the taxon set, unit lengths,
    generated by inserting taxa in sorted order into every edge."""
    names = sorted(taxa)
    n = len(names)
    if n < 3:
        raise ValueError("need at least 3 taxa")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"topology enumeration capped at {ENUMERATION_CAP} taxa")

    def grow(k: int) -> Iterator[frozenset[tuple[int, int]]]:
        if k == 3:
            yield frozenset({(0, n), (1, n), (2, n)})
            return
        mid = n + k - 3
        for smaller in grow(k - 1):
            for u, v in sorted(smaller):
                yield (smaller - {(u, v)}) | {
                    (min(u, mid), max(u, mid)),
                    (min(v, mid), max(v, mid)),
                    (k - 1, mid),
                }

    unit = repeat(Fraction(1))
    for edge_set in grow(n):
        yield _born_tree(sorted(edge_set), unit, dict(enumerate(names)))


def balanced_chooser(seed: int) -> Chooser:
    """Chooser that favours the least-used leaf in each component, pushing
    every taxon's multiplicity up; useful when hunting high-mu covers."""
    draw = random.Random(seed).random
    usage: dict[int, int] = {}  # by taxon bit: one chooser serves one tree

    def choose(taxa, v, masks):
        # Each component's least (usage, draw) key, the first of equal keys
        # as with min; every candidate takes one draw, in ascending bit order.
        picks = []
        for m in masks:
            key = None
            while m:
                low = m & -m
                m ^= low
                candidate = (usage.get(low, 0), draw())
                if key is None or candidate < key:
                    best, key = low, candidate
            picks.append(best)
        for low in picks:
            usage[low] = usage.get(low, 0) + 1
        return tuple(taxa[low.bit_length() - 1] for low in picks)

    return choose


def exhaustive_instances(n: int) -> Iterator[tuple[PhyloTree, TripletCover, dict]]:
    """Every (topology, per-vertex leaf assignment) cover for small n: the
    vertices in :meth:`PhyloTree.component_triple` order, each component's
    leaves in sorted order.  The choices are bit indices read from the tree
    index's component masks (bit i is the i-th sorted taxon), and each cover
    is born with its neighbour masks."""
    for t_index, tree in enumerate(enumerate_binary_trees(default_taxa(n))):
        taxa = tree._index.taxa
        components = tree._index.components
        choice_lists = [
            product(*map(_bits, components[v])) for v in _canonical_order(components)
        ]
        for a_index, assignment in enumerate(product(*choice_lists)):
            nbr = [0] * n
            for ids in assignment:
                _add_triple(nbr, *ids)
            cover = TripletCover._with_masks(tree.taxa, taxa, tuple(nbr))
            yield tree, cover, {
                "generator": "exhaustive",
                "n": n,
                "topology": t_index,
                "assignment": a_index,
            }


def random_instances(
    n: int, seed: int
) -> Iterator[tuple[PhyloTree, TripletCover, dict]]:
    """Seeded stream of random covers, alternating three construction modes:
    uniform chooser, usage-balanced chooser, and a minimalized union of two
    chooser covers (the latter can shed sparseness)."""
    base = random.Random(seed * 1_000_003 + n)
    index = 0
    while True:
        tree_seed = base.getrandbits(48)
        cover_seed = base.getrandbits(48)
        tree = random_binary_tree(n, tree_seed)
        mode = index % 3
        if mode == 0:
            cover = canonical_cover(tree, seeded_chooser(cover_seed))
        elif mode == 1:
            cover = canonical_cover(tree, balanced_chooser(cover_seed))
        else:
            first = canonical_cover(tree, seeded_chooser(cover_seed))
            second = canonical_cover(tree, balanced_chooser(cover_seed + 1))
            # Both covers are checked and born as masks, so the union ORs
            # them instead of naming and re-validating every cord.
            union = TripletCover._with_masks(
                first.taxa,
                first._taxa,
                tuple(a | b for a, b in zip(first._nbr, second._nbr)),
            )
            cover = minimalize(tree, union)
        yield tree, cover, {
            "generator": "random",
            "n": n,
            "seed": seed,
            "index": index,
            "mode": ("uniform", "balanced", "union-minimalized")[mode],
        }
        index += 1


def search_fixture(
    predicate: Callable[[PhyloTree, TripletCover], bool],
    ns,
    budget: int,
    seed: int = 0,
) -> InstanceRecord | None:
    """First instance satisfying the predicate: exhaustive sweep for n <= 6,
    seeded random streams beyond, within a global instance budget.  Returns
    None when the budget runs out (recorded by the caller, not fatal)."""
    spent = 0
    for n in ns:
        source = exhaustive_instances(n) if n <= 6 else random_instances(n, seed)
        for tree, cover, provenance in source:
            if spent >= budget:
                return None
            spent += 1
            if predicate(tree, cover):
                record = InstanceRecord(
                    tree, cover, basic_flags(tree, cover), dict(provenance)
                )
                return record
    return None


# The fixture predicates read the mask support (:func:`_support_masks`):
# its section count is 0 for a non-cover, 1 for a sparse cover and more for
# any other cover, and a cover is minimal when it has as many required
# cords as cords.
def predicate_minimal_not_sparse(tree: PhyloTree, cover: TripletCover) -> bool:
    support = _support_masks(tree, cover)
    return section_count(support) > 1 and _is_minimal(support, cover)


def predicate_sparse_minimal_mu4(tree: PhyloTree, cover: TripletCover) -> bool:
    if cover.min_multiplicity() != 4:
        return False
    support = _support_masks(tree, cover)
    return section_count(support) == 1 and _is_minimal(support, cover)


def predicate_sparse_not_shellable(tree: PhyloTree, cover: TripletCover) -> bool:
    return (
        section_count(_support_masks(tree, cover)) == 1
        and not _shelling_cords(tree, cover)[0]
    )


def predicate_minimum(tree: PhyloTree, cover: TripletCover) -> bool:
    return (
        len(cover) == 2 * len(cover.taxa) - 3
        and section_count(_support_masks(tree, cover)) > 0
    )


def predicate_sparse_shellable_not_ample(
    tree: PhyloTree, cover: TripletCover
) -> bool:
    """Shellable although no section has an ample patchwork: the sufficiency
    test is not necessary."""
    support = _support_masks(tree, cover)
    if section_count(support) != 1:
        return False
    section = [found[0] for found in support.values()]
    if _ample_merge(section, len(section)) is not None:
        return False
    return _shelling_cords(tree, cover)[0]


FIXTURE_PREDICATES = {
    "minimal-not-sparse": predicate_minimal_not_sparse,
    "sparse-minimal-mu4": predicate_sparse_minimal_mu4,
    "sparse-not-shellable": predicate_sparse_not_shellable,
    "sparse-shellable-not-ample": predicate_sparse_shellable_not_ample,
    "minimum": predicate_minimum,
}
