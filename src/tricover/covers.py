"""Triplet covers of a binary phylogenetic tree and their classification.

A cord is an unordered pair of taxa; a cord set is a triplet cover when every
interior vertex v has a supporting triple: one leaf from each component of the
tree minus v, all three pairs being cords.  This module computes supports,
the supported-triple set and its sections, and the minimal / sparse /
Hall-type predicates, all exactly and at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator

from .errors import CapacityError, CoverError, NotTripletCoverError
from .tree import PhyloTree, is_valid_label

Cord = tuple[str, str]
Triple = tuple[str, str, str]

# vertex id -> set of supporting triples
SupportMap = dict[int, frozenset[Triple]]

HALL_SUBSET_CAP = 22


def cord(x: str, y: str) -> Cord:
    if x == y:
        raise CoverError(f"a cord needs two distinct taxa, got {x!r} twice")
    return (x, y) if x < y else (y, x)


def make_triple(x: str, y: str, z: str) -> Triple:
    if len({x, y, z}) != 3:
        raise CoverError(f"a triple needs three distinct taxa: {x},{y},{z}")
    a, b, c = sorted((x, y, z))
    return (a, b, c)


def cord_set(triples: Iterable[Triple]) -> frozenset[Cord]:
    """All 2-subsets of the given triples."""
    out = set()
    for t in triples:
        for pair in combinations(sorted(t), 2):
            out.add(pair)
    return frozenset(out)


def all_cords(taxa: Iterable[str]) -> frozenset[Cord]:
    return frozenset(combinations(sorted(taxa), 2))


@dataclass(frozen=True)
class TripletCover:
    """A set of cords over a fixed taxon set (not necessarily a cover)."""

    taxa: frozenset[str]
    cords: frozenset[Cord]

    @classmethod
    def make(cls, taxa: Iterable[str], pairs: Iterable[Iterable[str]]) -> "TripletCover":
        taxon_set = frozenset(taxa)
        if len(taxon_set) < 3:
            raise CoverError(f"need at least 3 taxa, got {len(taxon_set)}")
        for t in taxon_set:
            if not is_valid_label(t):
                raise CoverError(f"bad taxon label {t!r}")
        cords = set()
        for pair in pairs:
            x, y = pair
            if x not in taxon_set or y not in taxon_set:
                raise CoverError(f"cord {x},{y} uses a taxon outside the taxon set")
            cords.add(cord(x, y))
        return cls(taxon_set, frozenset(cords))

    def __len__(self) -> int:
        return len(self.cords)

    def multiplicity(self, x: str) -> int:
        """Number of cords containing x."""
        if x not in self.taxa:
            raise CoverError(f"unknown taxon {x!r}")
        return sum(1 for c in self.cords if x in c)

    def min_multiplicity(self) -> int:
        """Minimum multiplicity over all taxa (the report's "mu")."""
        nbr = _neighbour_masks(sorted(self.taxa), self.cords)
        return min(m.bit_count() for m in nbr)

    def add_cords(self, pairs: Iterable[Cord]) -> "TripletCover":
        return TripletCover.make(self.taxa, set(self.cords) | set(pairs))

    def without(self, c: Cord) -> "TripletCover":
        return TripletCover(self.taxa, self.cords - {c})


def _check_same_taxa(tree: PhyloTree, cover: TripletCover):
    if tree.taxa != cover.taxa:
        raise CoverError(
            f"cover taxa {sorted(cover.taxa)} do not match tree taxa "
            f"{sorted(tree.taxa)}"
        )


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbour_masks(taxa: list[str], cords: frozenset[Cord]) -> list[int]:
    """Bit j of entry i is set when taxa[i]-taxa[j] is a cord; ``taxa`` is
    sorted, so the bits follow the tree index's leaf masks."""
    index = {x: i for i, x in enumerate(taxa)}
    nbr = [0] * len(taxa)
    try:
        for x, y in cords:
            i, j = index[x], index[y]
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    except KeyError:
        x, y = min(c for c in cords if c[0] not in index or c[1] not in index)
        raise CoverError(f"cord {x},{y} uses a taxon outside the taxon set") from None
    return nbr


def support_map(tree: PhyloTree, cover: TripletCover) -> SupportMap:
    """The support of every interior vertex: all triples, one leaf per
    component of the tree minus the vertex, whose three pairs are cords."""
    _check_same_taxa(tree, cover)
    taxa = sorted(cover.taxa)
    nbr = _neighbour_masks(taxa, cover.cords)
    result: SupportMap = {}
    for v in tree.interior_vertices():
        comp_a, comp_b, comp_c = tree._component_masks(v)
        result[v] = frozenset(
            make_triple(taxa[a], taxa[b], taxa[c])
            for a in _bits(comp_a)
            for b in _bits(nbr[a] & comp_b)
            for c in _bits(nbr[a] & nbr[b] & comp_c)
        )
    # Supports of distinct vertices are disjoint (each triple's median is
    # the supported vertex); guard the bookkeeping.
    total = sum(len(s) for s in result.values())
    if total != len(frozenset().union(*result.values())):
        raise CoverError("supports of distinct vertices must be disjoint")
    return result


def is_triplet_cover(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff every interior vertex has at least one supporting triple."""
    return unsupported_vertex(tree, support_map(tree, cover)) is None


def unsupported_vertex(tree: PhyloTree, support: SupportMap) -> Triple | None:
    """The least :meth:`PhyloTree.component_triple` of an unsupported
    vertex, or None when every vertex is supported."""
    return min(
        (tree.component_triple(v) for v, triples in support.items() if not triples),
        default=None,
    )


def cover_support(tree: PhyloTree, cover: TripletCover, op: str) -> SupportMap:
    """The support map, for a triplet cover only: otherwise raises
    :class:`NotTripletCoverError` naming the least unsupported vertex."""
    support = support_map(tree, cover)
    name = unsupported_vertex(tree, support)
    if name is not None:
        raise NotTripletCoverError(
            f"{op} requires a triplet cover; interior vertex {name} is unsupported"
        )
    return support


def supported_triples(tree: PhyloTree, cover: TripletCover) -> frozenset[Triple]:
    """Disjoint union of all supports (every triangle of the cover graph)."""
    return frozenset().union(*support_map(tree, cover).values())


def required_cords(support: SupportMap) -> frozenset[Cord]:
    """Cords lying in every triple of some vertex's support: on a triplet
    cover, exactly the cords whose removal leaves a vertex unsupported."""
    out: set[Cord] = set()
    for triples in support.values():
        if triples:
            out |= set.intersection(*(set(combinations(t, 2)) for t in triples))
    return frozenset(out)


def is_minimal(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff removing any single cord destroys the cover property, i.e.
    every cord is required."""
    return required_cords(cover_support(tree, cover, "is_minimal")) == cover.cords


def minimalize(tree: PhyloTree, cover: TripletCover) -> TripletCover:
    """Greedily remove cords in lexicographic order while the result stays a
    triplet cover.  One ordered pass suffices: covering is monotone, so a
    cord that survives its own trial can never become removable later.

    Each vertex keeps its live support (the triples avoiding every dropped
    cord); a cord drops when no live support would become empty.
    """
    live = cover_support(tree, cover, "minimalize")
    kept = set(cover.cords)
    for a, b in sorted(cover.cords):
        trial = {
            v: [t for t in triples if a not in t or b not in t]
            for v, triples in live.items()
        }
        if all(trial.values()):
            live = trial
            kept.remove((a, b))
    return TripletCover(cover.taxa, frozenset(kept))


def is_sparse(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff the supported-triple set has exactly |X|-2 members."""
    support = cover_support(tree, cover, "is_sparse")
    return sum(len(triples) for triples in support.values()) == len(cover.taxa) - 2


def _augment(match: dict[int, int], sets: list[int], i: int) -> bool:
    """Give set ``i`` a representative in ``match`` (taxon bit -> set index)
    along an alternating path, found breadth first; False when there is none,
    which leaves ``match`` as it was."""
    held = {i: 0}  # set index -> the bit it held when the search reached it
    came_from: dict[int, int] = {}  # taxon bit -> set index that reached it
    seen = 0
    queue = [i]
    for j in queue:
        fresh = sets[j] & ~seen
        seen |= fresh
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            came_from[bit] = j
            if bit not in match:
                while bit:
                    owner = came_from[bit]
                    previous = held[owner]
                    match[bit] = owner
                    bit = previous
                return True
            held[match[bit]] = bit
            queue.append(match[bit])
    return False


def is_hall_type(
    taxa: Iterable[str], triples: Iterable[Triple], cap: int = HALL_SUBSET_CAP
) -> bool:
    """Hall-type test: the triples must cover the taxon set and every
    nonempty subfamily C' must satisfy |union C'| >= |C'| + 2.

    By Hall's theorem that holds iff, for every triple t, the family with t
    taken three times has distinct representatives: one matching of the
    family, then two augmenting paths per triple.  Families larger than
    ``cap`` raise :class:`CapacityError`.
    """
    taxon_list = sorted(set(taxa))
    triple_list = sorted(set(triples))
    k = len(triple_list)
    if k > cap:
        raise CapacityError(f"Hall-type check capped at {cap} triples, got {k}")
    index = {t: i for i, t in enumerate(taxon_list)}
    masks = []
    for t in triple_list:
        m = 0
        for x in t:
            if x not in index:
                raise CoverError(f"triple {t} uses a taxon outside the taxon set")
            m |= 1 << index[x]
        masks.append(m)
    full = (1 << len(taxon_list)) - 1
    union_all = 0
    for m in masks:
        union_all |= m
    if union_all != full:
        return False

    match: dict[int, int] = {}
    if not all(_augment(match, masks, i) for i in range(k)):
        return False
    for i in range(k):
        tripled = masks + [masks[i], masks[i]]
        trial = dict(match)
        if not (_augment(trial, tripled, k) and _augment(trial, tripled, k + 1)):
            return False
    return True


def section_count(support: SupportMap) -> int:
    """Number of sections: the product of the support sizes."""
    total = 1
    for triples in support.values():
        total *= len(triples)
    return total


def _sorted_support_items(support: SupportMap) -> list[tuple[int, list[Triple]]]:
    items = [(v, sorted(triples)) for v, triples in support.items()]
    # Supports are disjoint and nonempty, so the least triple is a unique key.
    items.sort(key=lambda item: item[1][0])
    return items


def iter_sections(support: SupportMap) -> Iterator[frozenset[Triple]]:
    """Lazily yield sections (one triple per vertex) in lexicographic order."""
    for v, triples in support.items():
        if not triples:
            raise NotTripletCoverError(
                f"vertex {v} has empty support; sections need a triplet cover"
            )
    items = _sorted_support_items(support)
    for choice in product(*(triples for _, triples in items)):
        yield frozenset(choice)


Chooser = Callable[[PhyloTree, int, tuple[frozenset[str], ...]], tuple[str, str, str]]


def least_label_chooser(
    tree: PhyloTree, v: int, comps: tuple[frozenset[str], ...]
) -> tuple[str, str, str]:
    return tuple(min(comp) for comp in comps)  # type: ignore[return-value]


def seeded_chooser(seed: int) -> Chooser:
    """One uniformly random leaf per component, reproducible from the seed.

    The returned chooser is stateful; :func:`canonical_cover` invokes it in
    the canonical interior-vertex order, which keeps results deterministic.
    """
    rng = random.Random(seed)

    def choose(tree, v, comps):
        return tuple(sorted(comp)[rng.randrange(len(comp))] for comp in comps)

    return choose


def canonical_cover(tree: PhyloTree, chooser: Chooser | str = "least") -> TripletCover:
    """Cover built by picking one leaf per component at every interior vertex
    and taking the three pairs; always a triplet cover by construction."""
    if chooser == "least":
        chooser = least_label_chooser
    elif isinstance(chooser, str):
        raise CoverError(f"unknown chooser policy {chooser!r}")
    cords: set[Cord] = set()
    for v in sorted(tree.interior_vertices(), key=tree.component_triple):
        comps = tree.components_without(v)
        picks = chooser(tree, v, comps)
        if len(picks) != 3 or any(p not in c for p, c in zip(picks, comps)):
            raise CoverError(f"chooser returned an invalid selection {picks}")
        a, b, c = picks
        cords |= {cord(a, b), cord(a, c), cord(b, c)}
    return TripletCover(tree.taxa, frozenset(cords))
