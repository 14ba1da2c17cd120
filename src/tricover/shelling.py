"""Shellability of triplet covers and the ample-patchwork sufficiency test.

A missing pair a,b can be added once some witness pair x,y exists whose
quartet groups x with a and y with b and whose other five pairs are already
available; the distance d(a,b) is then forced.  Saturating this rule is a
closure: a step that is valid once stays valid (the available set only
grows), so the final cord set does not depend on the order in which steps
are taken.  The order-randomised variant exists to let tests confirm that.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from random import Random
from typing import Iterator

from .covers import (
    Cord,
    SupportMap,
    Triple,
    TripletCover,
    _bits,
    _neighbour_masks,
    all_cords,
    cord,
    cover_support,
    is_triplet_cover,
    iter_sections,
    section_count,
)
from .errors import (
    CapacityError,
    NotTripletCoverError,
    SectionError,
    TreeError,
    WitnessError,
)
from .tree import PhyloTree, Quartet, make_quartet

AMPLE_TRIPLE_CAP = 16
SECTION_ENUM_LIMIT = 10_000


@dataclass(frozen=True)
class ShellingStep:
    """One forced addition: ``witness`` is ordered so that the displayed
    quartet pairs witness[0] with cord[0] and witness[1] with cord[1]."""

    cord: Cord
    witness: tuple[str, str]
    quartet: Quartet


def _forced_steps(
    tree: PhyloTree, cover: TripletCover, rng: Random | None = None
) -> Iterator[ShellingStep]:
    """The closure's forced additions in order, for a verified triplet cover.

    A worklist closure: the heap ``ready`` holds every missing cord that has
    a valid witness now, keyed by the cord, or by a random draw first when
    ``rng`` is given; a witness stays valid as cords are added, so a cord
    never leaves the heap but by being added.  The least is added with its
    least valid witness (a random one with ``rng``).  A new cord uv only
    creates witnesses whose five cords include uv, so only the missing cords
    through u or v and the pairs inside N(u) & N(v) are tested again, N
    being the neighbour sets of the cover graph.
    """
    taxa = sorted(cover.taxa)
    nbr = _neighbour_masks(taxa, cover.cords)
    hops = [[0] * len(taxa) for _ in taxa]
    for i, j in combinations(range(len(taxa)), 2):
        hops[i][j] = hops[j][i] = tree.hops(taxa[i], taxa[j])

    def pairing(a: int, b: int, p: int, q: int) -> int:
        """The displayed quartet by the four-point rule on path lengths in
        edges: 0 for ab|pq, 1 for ap|bq, 2 for aq|bp.  On a binary tree the
        displayed pairing has the strictly least sum for any positive
        lengths, unit ones included, so these decide the same quartets as
        the rational distances."""
        ab = hops[a][b] + hops[p][q]
        ap = hops[a][p] + hops[b][q]
        aq = hops[a][q] + hops[b][p]
        if ap < ab and ap < aq:
            return 1
        if aq < ab and aq < ap:
            return 2
        if ab < ap and ab < aq:
            return 0
        raise TreeError(
            f"degenerate quartet {taxa[a]},{taxa[b]},{taxa[p]},{taxa[q]}"
        )

    def witnesses(a: int, b: int) -> Iterator[tuple[int, int]]:
        """Valid witnesses of the missing cord ab, in lexicographic order of
        the unordered pair, each ordered to pair with (a, b)."""
        common = nbr[a] & nbr[b]
        for p in _bits(common):
            for q in _bits(common & nbr[p] & ~((2 << p) - 1)):
                side = pairing(a, b, p, q)
                if side == 1:
                    yield p, q
                elif side == 2:
                    yield q, p

    ready: list[tuple[float, int, int]] = []
    queued: set[tuple[int, int]] = set()

    def push(a: int, b: int) -> None:
        queued.add((a, b))
        heappush(ready, (0 if rng is None else rng.random(), a, b))

    for a, b in combinations(range(len(taxa)), 2):
        if not nbr[a] >> b & 1 and next(witnesses(a, b), None):
            push(a, b)
    while ready:
        _, a, b = heappop(ready)
        if rng is None:
            p, q = next(witnesses(a, b))
        else:
            p, q = rng.choice(list(witnesses(a, b)))
        yield ShellingStep(
            (taxa[a], taxa[b]),
            (taxa[p], taxa[q]),
            make_quartet((taxa[a], taxa[p]), (taxa[b], taxa[q])),
        )
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        both = nbr[a] & nbr[b]
        for u, v in ((a, b), (b, a)):
            # Missing cords uc whose new witnesses are pairs {v, w}.
            for c in _bits(nbr[v] & ~nbr[u] & ~(1 << u)):
                key = (u, c) if u < c else (c, u)
                if key not in queued and any(
                    pairing(u, c, v, w) for w in _bits(both & nbr[c])
                ):
                    push(*key)
        # Missing cords cd whose new witness is the pair {a, b}.
        for c in _bits(both):
            for d in _bits(both & ~nbr[c] & ~((2 << c) - 1)):
                if (c, d) not in queued and pairing(c, d, a, b):
                    push(c, d)


def _closure(
    tree: PhyloTree, cover: TripletCover, rng: Random | None = None
) -> tuple[frozenset[Cord], tuple[ShellingStep, ...]]:
    """:func:`cord_closure` for a cover already known to be a triplet cover."""
    steps = tuple(_forced_steps(tree, cover, rng))
    return cover.cords | {step.cord for step in steps}, steps


def cord_closure(
    tree: PhyloTree, cover: TripletCover, rng: Random | None = None
) -> tuple[frozenset[Cord], tuple[ShellingStep, ...]]:
    """Saturate the forced-addition rule; returns the closed cord set and the
    step log (a shelling prefix, the full shelling when closure completes).

    Each step adds the least missing cord that has a valid witness, with its
    least valid witness pair; passing ``rng`` draws both at random instead,
    which only permutes the log, never changes the final set.
    """
    if not is_triplet_cover(tree, cover):
        raise NotTripletCoverError("cord closure requires a triplet cover")
    return _closure(tree, cover, rng)


def _shellable(
    tree: PhyloTree, cover: TripletCover
) -> tuple[bool, tuple[ShellingStep, ...] | None]:
    """:func:`is_shellable` for a cover already known to be a triplet cover."""
    closed, steps = _closure(tree, cover)
    if closed == all_cords(cover.taxa):
        return True, steps
    return False, None


def is_shellable(
    tree: PhyloTree, cover: TripletCover
) -> tuple[bool, tuple[ShellingStep, ...] | None]:
    """Whether the closure reaches every pair (3-taxon covers qualify
    outright); returns the witness step sequence when it does."""
    if not is_triplet_cover(tree, cover):
        raise NotTripletCoverError("is_shellable requires a triplet cover")
    return _shellable(tree, cover)


def verify_shelling(tree: PhyloTree, cover: TripletCover, steps) -> None:
    """Independently validate a complete shelling witness.

    Checks, per step: cord actually missing, witness disjoint, the other five
    pairs of the quartet available, and the tree's displayed quartet grouping
    witness[0] with cord[0] and witness[1] with cord[1].  The steps must end
    with every pair available.  Raises :class:`WitnessError` otherwise.
    """
    if not is_triplet_cover(tree, cover):
        raise NotTripletCoverError("verification requires a triplet cover")
    available = set(cover.cords)
    universe = all_cords(cover.taxa)
    for i, step in enumerate(steps):
        a, b = step.cord
        x, y = step.witness
        if step.cord not in universe:
            raise WitnessError(f"step {i}: {step.cord} is not a pair over the taxa")
        if step.cord in available:
            raise WitnessError(f"step {i}: cord {step.cord} already available")
        if len({a, b, x, y}) != 4:
            raise WitnessError(f"step {i}: witness {step.witness} overlaps the cord")
        needed = (cord(a, x), cord(a, y), cord(b, x), cord(b, y), cord(x, y))
        missing = [c for c in needed if c not in available]
        if missing:
            raise WitnessError(f"step {i}: required cords {missing} not yet available")
        displayed = tree.quartet_topology(a, b, x, y)
        if displayed != make_quartet((x, a), (y, b)):
            raise WitnessError(
                f"step {i}: tree displays {displayed}, "
                f"which does not pair {x} with {a} and {y} with {b}"
            )
        if step.quartet != displayed:
            raise WitnessError(
                f"step {i}: recorded quartet {step.quartet} differs from {displayed}"
            )
        available.add(step.cord)
    if available != universe:
        raise WitnessError(
            f"witness incomplete: {sorted(universe - available)} never added"
        )


def patchwork_membership(section, subset) -> bool:
    """Tightness test for a nonempty subfamily: |union| == size + 2."""
    family = frozenset(subset)
    if not family:
        raise ValueError("patchwork membership is defined for nonempty subsets")
    if not family <= frozenset(section):
        raise ValueError("subset must lie inside the section")
    union: set[str] = set()
    for t in family:
        union |= set(t)
    return len(union) == len(family) + 2


def is_ample(
    section, cap: int = AMPLE_TRIPLE_CAP
) -> tuple[bool, tuple[frozenset[Triple], ...] | None]:
    """Decide whether the tight subfamilies of a section contain a maximal
    hierarchy, i.e. whether the section splits recursively into two tight
    halves all the way down to singletons.

    Returns the hierarchy (all 2m-1 member sets) as the witness when found.
    """
    triples = sorted(set(section))
    m = len(triples)
    union_all: set[str] = set()
    for t in triples:
        union_all |= set(t)
    if m == 0 or len(union_all) != m + 2:
        raise SectionError(
            f"not section-shaped: {m} triples over {len(union_all)} taxa"
        )
    if m > cap:
        raise CapacityError(f"ample-patchwork search capped at {cap} triples")

    taxon_index = {x: i for i, x in enumerate(sorted(union_all))}
    taxa_mask = []
    for t in triples:
        bits = 0
        for x in t:
            bits |= 1 << taxon_index[x]
        taxa_mask.append(bits)

    union_cache: dict[int, int] = {0: 0}

    def union_of(mask: int) -> int:
        if mask not in union_cache:
            low = mask & -mask
            union_cache[mask] = union_of(mask ^ low) | taxa_mask[low.bit_length() - 1]
        return union_cache[mask]

    def tight(mask: int) -> bool:
        return union_of(mask).bit_count() == mask.bit_count() + 2

    split_choice: dict[int, tuple[int, int] | None] = {}

    def feasible(mask: int) -> bool:
        if mask in split_choice:
            return split_choice[mask] is not None
        if mask.bit_count() == 1:
            split_choice[mask] = (mask, 0)
            return True
        low = mask & -mask
        sub = mask
        while True:
            sub = (sub - 1) & mask
            if sub == 0:
                break
            if not sub & low:
                continue  # fix the least triple in the first half: halves symmetry
            rest = mask ^ sub
            if tight(sub) and tight(rest) and feasible(sub) and feasible(rest):
                # Tight disjoint halves of a tight family overlap in exactly
                # two taxa; guard the arithmetic while we are here.
                overlap = union_of(sub) & union_of(rest)
                if overlap.bit_count() != 2:
                    raise SectionError("tight split must share 2 taxa")
                split_choice[mask] = (sub, rest)
                return True
        split_choice[mask] = None
        return False

    full = (1 << m) - 1
    if not feasible(full):
        return False, None

    hierarchy: list[frozenset[Triple]] = []

    def collect(mask: int):
        hierarchy.append(
            frozenset(triples[i] for i in range(m) if mask >> i & 1)
        )
        sub, rest = split_choice[mask]
        if rest:
            collect(sub)
            collect(rest)

    collect(full)
    return True, tuple(hierarchy)


def shellable_via_patchwork(
    tree: PhyloTree,
    cover: TripletCover,
    limit_sections: int = SECTION_ENUM_LIMIT,
    ample_cap: int = AMPLE_TRIPLE_CAP,
) -> tuple[bool | None, frozenset[Triple] | None]:
    """Sufficiency test: search the sections for one whose tight subfamilies
    are ample.  Returns (True, section) on success, (False, None) after an
    exhaustive miss, and (None, None) when the section count exceeds the
    enumeration limit without a hit (indeterminate, distinct from False).
    """
    support = cover_support(tree, cover, "shellable_via_patchwork")
    return _patchwork_search(support, limit_sections, ample_cap)


def _patchwork_search(
    support: SupportMap, limit_sections: int, ample_cap: int
) -> tuple[bool | None, frozenset[Triple] | None]:
    """:func:`shellable_via_patchwork` over a triplet cover's support map."""
    for i, section in enumerate(iter_sections(support)):
        if i >= limit_sections:
            break
        ample, _ = is_ample(section, cap=ample_cap)
        if ample:
            return True, section
    if section_count(support) <= limit_sections:
        return False, None
    return None, None


def restriction_cover(
    tree: PhyloTree,
    cover: TripletCover,
    taxa,
    member=None,
    section=None,
) -> tuple[PhyloTree, TripletCover]:
    """Restrict tree and cover to a taxon subset that arises as the union of
    a tight subfamily; the result is again a triplet cover of the subtree.

    When ``member`` (and its ``section``) are supplied the tightness premise
    is checked; otherwise the caller attests it, and a failed result still
    raises rather than returning a non-cover.
    """
    subset = frozenset(taxa)
    if member is not None:
        if section is None:
            raise ValueError("member given without its section")
        if not patchwork_membership(section, member):
            raise ValueError("member is not a tight subfamily of the section")
        union: set[str] = set()
        for t in member:
            union |= set(t)
        if frozenset(union) != subset:
            raise ValueError("taxa do not match the union of the member family")
    subtree = tree.restrict(subset)
    cords = frozenset(c for c in cover.cords if c[0] in subset and c[1] in subset)
    restricted = TripletCover(subset, cords)
    if not is_triplet_cover(subtree, restricted):
        raise NotTripletCoverError(
            "restriction is not a triplet cover; the premise did not hold"
        )
    return subtree, restricted
