"""Shellability of triplet covers and the ample-patchwork sufficiency test.

A missing pair a,b can be added once some witness pair x,y exists whose
quartet groups x with a and y with b and whose other five pairs are already
available; the distance d(a,b) is then forced.  Saturating this rule is a
closure: a step that is valid once stays valid (the available set only
grows), so the final cord set does not depend on the order in which steps
are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterator

from .covers import (
    Cord,
    SupportMap,
    Triple,
    TripletCover,
    _bits,
    _cover_masks,
    _triple_masks,
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
from .tree import PhyloTree, Quartet, _brief, _quote_each, _quote_first, make_quartet

AMPLE_TRIPLE_CAP = 16
SECTION_ENUM_LIMIT = 10_000
# A "witness incomplete" text names at most this many missing pairs.
MISSING_PAIRS_SHOWN = 10


@dataclass(frozen=True)
class ShellingStep:
    """One forced addition: ``witness`` is ordered so that the displayed
    quartet pairs witness[0] with cord[0] and witness[1] with cord[1]."""

    cord: Cord
    witness: tuple[str, str]
    quartet: Quartet


def _degenerate(taxa: tuple[str, ...], a: int, b: int, p: int, q: int):
    """Raise the :class:`TreeError` of a quartet whose three pairings tie."""
    raise TreeError(f"degenerate quartet {taxa[a]},{taxa[b]},{taxa[p]},{taxa[q]}")


def _least_witness(
    taxa: tuple[str, ...], hops: list[list[int]], nbr: list[int], a: int, b: int
) -> tuple[int, int] | None:
    """The least valid witness of the missing cord ab over the neighbour
    masks ``nbr``, in lexicographic order of the unordered pair, ordered to
    pair with (a, b): (p, q) when the tree displays ap|bq; None if there is
    none.

    The displayed quartet comes from the four-point rule on ``hops``, path
    lengths in edges: on a binary tree the displayed pairing has the
    strictly least of the three sums for any positive lengths, unit ones
    included, so these decide the same quartets as the rational distances.
    On a tree the two larger sums are equal, so the quartet is not ab|pq
    exactly when the sums of ap|bq and aq|bp differ, and the lesser of them
    is the displayed one; when they are equal and the sum of ab|pq is not
    below them, all three tie."""
    row_a, row_b = hops[a], hops[b]
    ab = row_a[b]
    rest = nbr[a] & nbr[b]
    while rest:
        low = rest & -rest
        rest ^= low  # now the common neighbours above p
        p = low.bit_length() - 1
        row_p, a_p, b_p = hops[p], row_a[p], row_b[p]
        qs = rest & nbr[p]
        while qs:
            bit = qs & -qs
            qs ^= bit
            q = bit.bit_length() - 1
            ap_bq = a_p + row_b[q]
            aq_bp = row_a[q] + b_p
            if ap_bq != aq_bp:
                return (p, q) if ap_bq < aq_bp else (q, p)
            if ab + row_p[q] >= ap_bq:
                _degenerate(taxa, a, b, p, q)
    return None


def _forced_cords(
    taxa: tuple[str, ...], hops: list[list[int]], nbr: list[int]
) -> Iterator[tuple[int, int]]:
    """The closure's forced additions in order, for a verified triplet cover,
    as sorted-taxon index pairs (a, b), a < b; ``hops`` is the tree's hop
    matrix and ``nbr`` the cover's neighbour masks, both in sorted taxon
    order.  ``nbr`` grows as cords are added: at each yield it holds every
    cord before (a, b), so :func:`_least_witness` there gives the step's
    witness.

    A worklist closure: the heap ``ready`` holds every missing cord that has
    a valid witness now; a witness stays valid as cords are added, so a cord
    never leaves the heap but by being added.  The least is added first.  A
    new cord uv only creates witnesses whose five cords include uv, so only
    the missing cords through u or v and the pairs inside N(u) & N(v) are
    tested again, N being the neighbour sets of the cover graph.  A taxon
    whose every cord is present or queued leaves the ``open_`` mask and is
    not visited again.  Both update loops test a quartet inline, by the
    rule :func:`_least_witness` states.
    """
    full = (1 << len(taxa)) - 1
    # Bit b of known[a]: b is a, or the cord ab is present or queued.
    known = [m | 1 << a for a, m in enumerate(nbr)]
    open_ = sum(1 << a for a, m in enumerate(known) if m != full)
    ready: list[tuple[int, int]] = []

    def push(a: int, b: int) -> None:
        nonlocal open_
        known[a] |= 1 << b
        known[b] |= 1 << a
        if known[a] == full:
            open_ &= ~(1 << a)
        if known[b] == full:
            open_ &= ~(1 << b)
        heappush(ready, (a, b) if a < b else (b, a))

    for a, b in combinations(range(len(taxa)), 2):
        if not nbr[a] >> b & 1 and _least_witness(taxa, hops, nbr, a, b):
            push(a, b)
    while ready:
        a, b = heappop(ready)
        yield a, b
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        both = nbr[a] & nbr[b]
        for u, v in ((a, b), (b, a)):
            if not open_ >> u & 1:
                continue
            # Unqueued missing cords uc whose new witnesses are pairs {v, w}.
            row_u, row_v = hops[u], hops[v]
            u_v = row_u[v]
            cs = nbr[v] & ~known[u]
            while cs:
                low = cs & -cs
                cs ^= low
                c = low.bit_length() - 1
                ws = both & nbr[c]
                if not ws:
                    continue
                row_c, v_c = hops[c], row_v[c]
                while ws:
                    bit = ws & -ws
                    ws ^= bit
                    w = bit.bit_length() - 1
                    uv_cw = u_v + row_c[w]
                    if uv_cw != row_u[w] + v_c:
                        push(u, c)
                        break
                    if row_u[c] + row_v[w] >= uv_cw:
                        _degenerate(taxa, u, c, v, w)
        # Unqueued missing cords cd whose new witness is the pair {a, b}.
        row_a, row_b, a_b = hops[a], hops[b], hops[a][b]
        cs = both & open_
        while cs:
            low = cs & -cs
            cs ^= low  # now the open taxa of both above c
            c = low.bit_length() - 1
            ds = cs & ~known[c]  # known is symmetric, so a closed d is known
            if not ds:
                continue
            row_c, c_a, c_b = hops[c], row_a[c], row_b[c]
            while ds:
                bit = ds & -ds
                ds ^= bit
                d = bit.bit_length() - 1
                ca_db = c_a + row_b[d]
                cb_da = c_b + row_a[d]
                if ca_db != cb_da:
                    push(c, d)
                elif row_c[d] + a_b >= ca_db:
                    _degenerate(taxa, c, d, a, b)


def _forced_steps(tree: PhyloTree, cover: TripletCover) -> Iterator[ShellingStep]:
    """:func:`_forced_cords` as :class:`ShellingStep` records, each with the
    cord's least valid witness at the time it is added.  Bit i is the i-th
    sorted taxon, so comparing indices orders the quartet's pairs as
    :func:`make_quartet` orders their names."""
    taxa = cover._taxa
    hops = tree.hop_matrix()
    nbr = list(cover._nbr)  # grows as cords are added; the cover's stays put
    for a, b in _forced_cords(taxa, hops, nbr):
        p, q = _least_witness(taxa, hops, nbr, a, b)
        one = (taxa[a], taxa[p]) if a < p else (taxa[p], taxa[a])
        two = (taxa[b], taxa[q]) if b < q else (taxa[q], taxa[b])
        first = min(a, p) < min(b, q)
        yield ShellingStep(
            (taxa[a], taxa[b]), (taxa[p], taxa[q]), (one, two) if first else (two, one)
        )


def _reaches_every_pair(cover: TripletCover, added: int) -> bool:
    """Whether ``added`` forced additions complete ``cover``: its cords are
    distinct sorted pairs (its neighbour masks refuse any other), and so are
    the additions, none of them a cord of the cover."""
    n = len(cover.taxa)
    return len(cover.cords) + added == n * (n - 1) // 2


def _shelling_cords(
    tree: PhyloTree, cover: TripletCover
) -> tuple[bool, list[Cord] | None]:
    """Whether a verified triplet cover is shellable and, when it is, the
    cords the closure adds in order.  It builds no step or quartet, and
    searches a witness only for each initially missing pair, to seed the
    closure's heap."""
    taxa = cover._taxa
    added = list(_forced_cords(taxa, tree.hop_matrix(), list(cover._nbr)))
    if not _reaches_every_pair(cover, len(added)):
        return False, None
    return True, [(taxa[a], taxa[b]) for a, b in added]


def _closure(
    tree: PhyloTree, cover: TripletCover
) -> tuple[frozenset[Cord], tuple[ShellingStep, ...]]:
    """:func:`cord_closure` for a cover already known to be a triplet cover."""
    steps = tuple(_forced_steps(tree, cover))
    return cover.cords | {step.cord for step in steps}, steps


def cord_closure(
    tree: PhyloTree, cover: TripletCover
) -> tuple[frozenset[Cord], tuple[ShellingStep, ...]]:
    """Saturate the forced-addition rule; returns the closed cord set and the
    step log (a shelling prefix, the full shelling when closure completes).

    Each step adds the least missing cord that has a valid witness, with its
    least valid witness pair.
    """
    _cover_masks(tree, cover, "cord closure")
    return _closure(tree, cover)


def _shellable(
    tree: PhyloTree, cover: TripletCover
) -> tuple[bool, tuple[ShellingStep, ...] | None]:
    """:func:`is_shellable` for a cover already known to be a triplet cover."""
    _, steps = _closure(tree, cover)
    if _reaches_every_pair(cover, len(steps)):
        return True, steps
    return False, None


def is_shellable(
    tree: PhyloTree, cover: TripletCover
) -> tuple[bool, tuple[ShellingStep, ...] | None]:
    """Whether the closure reaches every pair (3-taxon covers qualify
    outright); returns the witness step sequence when it does."""
    _cover_masks(tree, cover, "is_shellable")
    return _shellable(tree, cover)


def verify_shelling(tree: PhyloTree, cover: TripletCover, steps) -> None:
    """Independently validate a complete shelling witness.

    Checks, per step: cord actually missing, witness disjoint, the other five
    pairs of the quartet available, and the tree's displayed quartet grouping
    witness[0] with cord[0] and witness[1] with cord[1].  The steps must end
    with every pair available.  Raises :class:`WitnessError` otherwise.
    """
    _cover_masks(tree, cover, "verification")
    available = set(cover.cords)
    universe = all_cords(cover.taxa)
    for i, step in enumerate(steps):
        a, b = step.cord
        x, y = step.witness
        if step.cord not in universe:
            raise WitnessError(
                f"step {i}: {_quote_each(step.cord)} is not a pair over the taxa"
            )
        if step.cord in available:
            raise WitnessError(
                f"step {i}: cord {_quote_each(step.cord)} already available"
            )
        if len({a, b, x, y}) != 4:
            raise WitnessError(
                f"step {i}: witness {_quote_each(step.witness)} overlaps the cord"
            )
        needed = (cord(a, x), cord(a, y), cord(b, x), cord(b, y), cord(x, y))
        missing = [c for c in needed if c not in available]
        if missing:
            raise WitnessError(
                f"step {i}: required cords {_quote_each(missing)} not yet available"
            )
        displayed = tree.quartet_topology(a, b, x, y)
        if displayed != make_quartet((x, a), (y, b)):
            raise WitnessError(
                f"step {i}: tree displays {_quote_each(displayed)}, which does not "
                f"pair {_brief(x)} with {_brief(a)} and {_brief(y)} with {_brief(b)}"
            )
        if step.quartet != displayed:
            raise WitnessError(
                f"step {i}: recorded quartet {_quote_each(step.quartet)} "
                f"differs from {_quote_each(displayed)}"
            )
        available.add(step.cord)
    if available != universe:
        missing = sorted(universe - available)
        shown = _quote_first(missing, MISSING_PAIRS_SHOWN)
        text = f"witness incomplete: {shown} never added"
        if len(missing) > MISSING_PAIRS_SHOWN:
            text += f" ({len(missing)} pairs missing in all)"
        raise WitnessError(text)


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

    Returns the hierarchy (all 2m-1 member sets, in preorder) when found.
    The search merges bottom-up: it starts from the m singletons and, while
    two members share exactly 2 taxa, replaces them by their union.  The family is ample iff one member
    remains, and the merge history is then the hierarchy.  Let
    g(C) = |union C| - |C|, so C is tight when g(C) = 2.
    (1) On an ample family g >= 2 for every nonempty subfamily, by induction
        down the hierarchy: the tight halves A, B of a tight X share
        (|A|+2) + (|B|+2) - (|X|+2) = 2 taxa, so no split needs that checked.
        Two disjoint tight members A, B have g(A|B) = 4 - s, s the number of
        taxa they share, so every merge of the search gives a tight member.
    (2) So no two disjoint tight members of an ample family share 3 or more
        taxa: their union would have g <= 1.
    (3) If an ample family is split into k >= 2 tight members, two of them
        share exactly 2 taxa.  Take a hierarchy of the family and a minimal
        node N that lies in no single member; its halves lie in members
        M_i and M_j with i != j.  g is submodular, so
        g(M_i|N) + g(M_i&N) <= g(M_i) + g(N) = 4; M_i&N holds a half of
        N, so both terms are >= 2 by (1) and M_i|N is tight.  Likewise M_j meets M_i|N, so
        M_i|M_j = M_i|N|M_j is tight: M_i and M_j share exactly 2 taxa.
    So on an ample family every merge order ends in one member, and two
    members that share 3 or more taxa, or k >= 2 members no two of which
    share exactly 2, prove that the family is not ample.
    """
    halves = _ample_merge(section, cap)
    if halves is None:
        return False, None
    members = [frozenset((t,)) for t in sorted(set(section))]
    m = len(members)
    for first, second in halves:
        members.append(members[first] | members[second])
    order: list[frozenset[Triple]] = []
    stack = [len(members) - 1]
    while stack:
        v = stack.pop()
        order.append(members[v])
        if v >= m:
            stack.extend(reversed(halves[v - m]))
    return True, tuple(order)


def _ample_merge(section, cap: int) -> list[tuple[int, int]] | None:
    """The merges of :func:`is_ample`'s search, or None when the section is
    not ample; raises its :class:`SectionError` and :class:`CapacityError`.
    Node i < m is the i-th triple in sorted order and node m + k the union
    of the two nodes of the k-th merge, so the last node is the section.

    A worklist holds the members that may have a partner.  A member looks
    for one among the holders of its shared taxa (those held by two or more
    members).  One with no partner leaves the list; a later merge that gives
    it one finds it from the other side, since the merged member goes back
    on the list.  A merge moves the smaller member's shared taxa into the
    larger member's slot of the per-taxon index.
    """
    triples = sorted(set(section))
    m = len(triples)
    union_all = set().union(*triples)
    if m == 0 or len(union_all) != m + 2:
        raise SectionError(
            f"not section-shaped: {m} triples over {len(union_all)} taxa"
        )
    if m > cap:
        raise CapacityError(f"ample-patchwork search capped at {cap} triples")

    # Slot i starts as triple i; a merge keeps one slot and empties the other.
    mask = _triple_masks(sorted(union_all), triples)
    holders: list[set[int]] = [set() for _ in union_all]
    for i, taxa in enumerate(mask):
        for x in _bits(taxa):
            holders[x].add(i)
    shared = sum(1 << x for x, slots in enumerate(holders) if len(slots) > 1)

    def partner(a: int) -> int | None:
        """A member that shares 2 or more taxa with member ``a``, or None."""
        for x in _bits(mask[a] & shared):
            for b in holders[x]:
                if b != a and (mask[a] & mask[b]).bit_count() > 1:
                    return b
        return None

    node = list(range(m))  # slot -> hierarchy node; node m + k is merge k
    halves: list[tuple[int, int]] = []
    work = list(range(m - 1, -1, -1))
    while work:
        a = work.pop()
        b = partner(a) if mask[a] else None  # an emptied slot was merged away
        if b is None:
            continue
        if (mask[a] & mask[b]).bit_count() > 2:
            return None
        keep, gone = (a, b) if mask[a].bit_count() >= mask[b].bit_count() else (b, a)
        for x in _bits(mask[gone] & shared):
            holders[x].discard(gone)
            if not mask[keep] >> x & 1:
                holders[x].add(keep)
            elif len(holders[x]) == 1:
                shared ^= 1 << x
        mask[keep] |= mask[gone]
        mask[gone] = 0
        halves.append((node[a], node[b]))
        node[keep] = m + len(halves) - 1
        work.append(keep)

    return halves if len(halves) == m - 1 else None


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
        if _ample_merge(section, ample_cap) is not None:
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
