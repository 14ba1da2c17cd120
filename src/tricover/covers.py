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

from .errors import CapacityError, CoverError, NotTripletCoverError, SectionError
from .tree import PhyloTree, _brief, _quote, _quote_each, is_valid_label

Cord = tuple[str, str]
Triple = tuple[str, str, str]

# vertex id -> set of supporting triples
SupportMap = dict[int, frozenset[Triple]]
# vertex id -> supporting triples as taxon masks (bit i: the i-th sorted taxon)
SupportMasks = dict[int, list[int]]

HALL_SUBSET_CAP = 22


def cord(x: str, y: str) -> Cord:
    if x == y:
        raise CoverError(f"a cord needs two distinct taxa, got {_quote(x)} twice")
    return (x, y) if x < y else (y, x)


def make_triple(x: str, y: str, z: str) -> Triple:
    if len({x, y, z}) != 3:
        raise CoverError(
            f"a triple needs three distinct taxa: {_brief(x)},{_brief(y)},{_brief(z)}"
        )
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
    """A set of cords over a fixed taxon set (not necessarily a cover).

    The cover is its own cover graph: the taxa are the vertices and the cords
    the edges.  A cover holds its cords as names, as masks, or both, and
    builds either from the other on the first read.  The masks are ``_taxa``
    (sorted) and ``_nbr`` (bit j of ``_nbr[i]`` joins ``_taxa[i]`` and
    ``_taxa[j]``).  A cover made from names (the constructor, :meth:`make`)
    builds its masks on the first read of either.  A builder that holds the
    cords' bit indices (:func:`canonical_cover`, :func:`minimalize`, the
    lab's generators) makes the cover from its masks through
    :meth:`_with_masks`, and ``cords`` is named on its first read; until
    then ``len`` counts the mask bits.  Equality and hashing read ``taxa``
    and ``cords``, so they name an unnamed cover."""

    taxa: frozenset[str]
    cords: frozenset[Cord]

    @classmethod
    def make(cls, taxa: Iterable[str], pairs: Iterable[Iterable[str]]) -> "TripletCover":
        """A checked cover: the taxa pass :func:`_check_taxa`, and each pair is
        two strings from the taxa, in either order; the first faulty pair is
        named."""
        taxon_set = frozenset(taxa)
        _check_taxa(taxon_set)
        cords = set()
        for pair in pairs:
            try:  # a string is not a pair of one-letter taxa
                x, y = (None, None) if isinstance(pair, str) else pair
            except (TypeError, ValueError):
                x = y = None
            if not (isinstance(x, str) and isinstance(y, str)):
                raise CoverError(f"bad cord entry {_quote(pair)}")
            if x not in taxon_set or y not in taxon_set:
                _refuse_outside(x, y)
            cords.add(cord(x, y))
        return cls(taxon_set, frozenset(cords))

    @classmethod
    def _with_masks(
        cls, taxa: frozenset[str], names: tuple[str, ...], nbr: tuple[int, ...]
    ) -> "TripletCover":
        """The cover over ``taxa`` whose cover graph is ``nbr``, unchecked and
        unnamed: ``names`` must be ``tuple(sorted(taxa))`` and ``nbr``
        symmetric neighbour masks over it with no bit i in ``nbr[i]``.  Its
        ``cords`` are named from ``nbr`` on the first read."""
        cover = cls.__new__(cls)
        object.__setattr__(cover, "taxa", taxa)
        object.__setattr__(cover, "_taxa", names)
        object.__setattr__(cover, "_nbr", nbr)
        return cover

    def __getattr__(self, name: str):
        """Build ``cords`` from the masks, or ``_taxa`` and ``_nbr`` together
        from the names, on the first read; later reads find them as plain
        attributes and never get here."""
        if name == "cords":
            cords = _cord_names(self._taxa, self._nbr)
            object.__setattr__(self, "cords", cords)
            return cords
        if name not in ("_taxa", "_nbr"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        taxa = tuple(sorted(self.taxa))
        object.__setattr__(self, "_taxa", taxa)
        object.__setattr__(self, "_nbr", tuple(_neighbour_masks(taxa, self.cords)))
        return vars(self)[name]

    def __len__(self) -> int:
        cords = self.__dict__.get("cords")
        if cords is None:  # each cord sets one bit in each of its two rows
            return sum(map(int.bit_count, self._nbr)) >> 1
        return len(cords)

    def multiplicity(self, x: str) -> int:
        """Number of cords containing x: its degree in the cover graph."""
        if x not in self.taxa:
            raise CoverError(f"unknown taxon {_quote(x)}")
        return self._nbr[self._taxa.index(x)].bit_count()

    def min_multiplicity(self) -> int:
        """Minimum multiplicity over all taxa (the report's "mu")."""
        return min(m.bit_count() for m in self._nbr)

    def add_cords(self, pairs: Iterable[Cord]) -> "TripletCover":
        return TripletCover.make(self.taxa, set(self.cords) | set(pairs))

    def without(self, c: Cord) -> "TripletCover":
        return TripletCover(self.taxa, self.cords - {c})


def _check_taxa(taxon_set: frozenset[str]) -> None:
    """Refuse a cover's taxon set with fewer than 3 taxa, or with a bad
    label (see :func:`is_valid_label`); of several bad labels the least in
    string order is named, so the text does not depend on set order."""
    if len(taxon_set) < 3:
        raise CoverError(f"need at least 3 taxa, got {len(taxon_set)}")
    bad = [t for t in taxon_set if not is_valid_label(t)]
    if bad:
        raise CoverError(f"bad taxon label {_quote(min(bad))}")


def _refuse_outside(x: str, y: str):
    """Raise the :class:`CoverError` of the cord x,y, which uses a taxon
    outside the taxon set."""
    raise CoverError(f"cord {_brief(x)},{_brief(y)} uses a taxon outside the taxon set")


def _check_same_taxa(tree: PhyloTree, cover: TripletCover):
    if tree.taxa != cover.taxa:
        t = min(tree.taxa ^ cover.taxa)
        side = "cover" if t in cover.taxa else "tree"
        raise CoverError(
            f"cover taxa do not match tree taxa: {_brief(t)} is only in the {side}"
        )


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbour_masks(taxa: tuple[str, ...], cords: frozenset[Cord]) -> list[int]:
    """Bit j of entry i is set when taxa[i]-taxa[j] is a cord; ``taxa`` is
    sorted, so the bits follow the tree index's leaf masks.  Every cord must
    be a sorted pair of distinct taxa from ``taxa``; otherwise the least
    faulty cord is named in a :class:`CoverError`."""
    index = {x: i for i, x in enumerate(taxa)}
    nbr = [0] * len(taxa)
    for x, y in cords:
        i, j = index.get(x, -1), index.get(y, -1)
        if not 0 <= i < j:
            _refuse_cord(cords, index)
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def _cord_names(taxa: tuple[str, ...], nbr: tuple[int, ...]) -> frozenset[Cord]:
    """The cords of the neighbour masks ``nbr`` over the sorted ``taxa``, as
    sorted name pairs: each bit j > i of ``nbr[i]`` is the cord
    taxa[i]-taxa[j].  A row is shifted down past bit i, then past each bit
    it names, so its integer shrinks as it is read."""
    cords = []
    append = cords.append
    for i, x in enumerate(taxa):
        m = nbr[i] >> i + 1
        j = i
        while m:
            step = (m & -m).bit_length()
            j += step
            append((x, taxa[j]))
            m >>= step
    return frozenset(cords)


def _refuse_cord(cords: frozenset[Cord], index: dict[str, int]):
    """Raise the :class:`CoverError` of the least cord that is not a sorted
    pair of distinct taxa from ``index``."""
    x, y = min(c for c in cords if not 0 <= index.get(c[0], -1) < index.get(c[1], -1))
    if x not in index or y not in index:
        _refuse_outside(x, y)
    cord(x, y)  # raises for x == y
    x, y = _brief(x), _brief(y)
    raise CoverError(f"cord {x},{y} is not a sorted pair; write it as {y},{x}")


def _support_masks(tree: PhyloTree, cover: TripletCover) -> SupportMasks:
    """The support search, on bit indices: for every interior vertex, in
    sorted vertex order, its supporting triples as taxon masks with three
    bits set (bit i stands for the i-th sorted taxon).

    At each vertex three bit-count comparisons order the components by
    size.  The search walks the leaves a of the smallest, then b over a's
    cords into the middle one, which meets fewer of them than the largest,
    and c over the cords shared by a and b into the largest; the three
    leaves lie in disjoint components, so they are distinct.  The walk
    costs the sum over the vertices of min(|A|, |B|, |C|), plus the cords
    and triples found, where walking one fixed component costs about n^2.
    That sum is at most n log2(n): the smallest component is no larger than
    the smaller of the two below, and a leaf lies in the smaller one below
    a vertex at most log2(n) times, as the leaves below at least double
    each time.
    """
    _check_same_taxa(tree, cover)
    nbr = cover._nbr
    components = tree._index.components
    result: SupportMasks = {}
    total = 0
    for v in sorted(components):
        small, mid, large = components[v]
        if mid.bit_count() < small.bit_count():
            small, mid = mid, small
        if large.bit_count() < small.bit_count():
            small, large = large, small
        if large.bit_count() < mid.bit_count():
            mid, large = large, mid
        found = []
        while small:
            low_a = small & -small
            small ^= low_a
            near_a = nbr[low_a.bit_length() - 1]
            pairs = near_a & mid
            while pairs:
                low_b = pairs & -pairs
                pairs ^= low_b
                ab = low_a | low_b
                thirds = near_a & nbr[low_b.bit_length() - 1] & large
                while thirds:
                    low_c = thirds & -thirds
                    thirds ^= low_c
                    found.append(ab | low_c)
        result[v] = found
        total += len(found)
    # Supports of distinct vertices are disjoint (each triple's median is
    # the supported vertex); guard the bookkeeping.
    if total != len({t for found in result.values() for t in found}):
        raise CoverError("supports of distinct vertices must be disjoint")
    return result


def _triple_bits(t: int) -> tuple[int, int, int]:
    """The bit indices of the triple mask ``t``, ascending."""
    low = t & -t
    t ^= low
    mid = t & -t
    return low.bit_length() - 1, mid.bit_length() - 1, (t ^ mid).bit_length() - 1


def _triple_name(taxa: tuple[str, ...], t: int) -> Triple:
    """The sorted taxa of the triple mask ``t``: its bits in ascending order,
    as bit i is the i-th sorted taxon."""
    a, b, c = _triple_bits(t)
    return taxa[a], taxa[b], taxa[c]


def support_map(tree: PhyloTree, cover: TripletCover) -> SupportMap:
    """The support of every interior vertex, keyed in sorted vertex order:
    all triples, one leaf per component of the tree minus the vertex, whose
    three pairs are cords.  It names the triples that
    :func:`_support_masks` finds."""
    taxa = cover._taxa
    return {
        v: frozenset([_triple_name(taxa, t) for t in found])
        for v, found in _support_masks(tree, cover).items()
    }


def is_triplet_cover(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff every interior vertex has at least one supporting triple."""
    return all(_support_masks(tree, cover).values())


def unsupported_vertex(
    tree: PhyloTree, support: SupportMap | SupportMasks
) -> Triple | None:
    """The least :meth:`PhyloTree.component_triple` of an unsupported
    vertex, or None when every vertex is supported; ``support`` may be
    named or masked, as only its empty entries are read."""
    return min(
        (tree.component_triple(v) for v, triples in support.items() if not triples),
        default=None,
    )


def _cover_masks(tree: PhyloTree, cover: TripletCover, op: str) -> SupportMasks:
    """The mask support, for a triplet cover only: otherwise raises
    :class:`NotTripletCoverError` naming the least unsupported vertex."""
    support = _support_masks(tree, cover)
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


def _required_pairs(support: SupportMasks) -> set[int]:
    """:func:`required_cords` as pair masks, from the mask support: a
    vertex's required cords are the pairs inside the common bits of its
    triples, three for one triple and at most one for more."""
    out: set[int] = set()
    for found in support.values():
        common = -1  # an empty support leaves -1, which counts one bit
        for t in found:
            common &= t
        if common.bit_count() == 2:
            out.add(common)
        elif common.bit_count() == 3:
            low = common & -common
            mid = common ^ low
            mid &= -mid
            out.update((common ^ low, common ^ mid, low | mid))
    return out


def _is_minimal(support: SupportMasks, cover: TripletCover) -> bool:
    """Whether every cord is required.  Required cords are cords, so it is
    enough that there are as many of them."""
    return len(_required_pairs(support)) == len(cover)


def is_minimal(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff removing any single cord destroys the cover property, i.e.
    every cord is required."""
    return _is_minimal(_cover_masks(tree, cover, "is_minimal"), cover)


def minimalize(tree: PhyloTree, cover: TripletCover) -> TripletCover:
    """Greedily remove cords in lexicographic order while the result stays a
    triplet cover.  One ordered pass suffices: covering is monotone, so a
    cord that survives its own trial can never become removable later.

    A triple is live while none of its cords has been dropped.  Each
    supporting triple gets one bit, a vertex's triples consecutive bits, so
    the live triples are one mask.  From the one mask support come, per
    cord, the mask of the triples holding it and the masks of the vertices
    those triples support, keyed by i * n + j for the cord's bit indices
    i < j (a pair mask would be an n-bit integer to build and hash).  A
    cord drops when every one of those vertices keeps a live triple without
    it; its triples then die.  A vertex the cord does not touch keeps its
    live triple anyway, and a cord in no supported triple always drops.  The
    cords are tried in sorted index order, which is sorted name order since
    bit i is the i-th sorted taxon.  The result is born from its masks, the
    cover's with the dropped cords cleared, and names its cords only when
    they are read.
    """
    support = _cover_masks(tree, cover, "minimalize")
    n = len(cover.taxa)
    holders: dict[int, int] = {}
    spans: dict[int, list[int]] = {}
    bit = 1
    for triples in support.values():
        first = bit
        touched = []
        for t in triples:
            a, b, c = _triple_bits(t)
            for pair in (a * n + b, a * n + c, b * n + c):
                held = holders.get(pair, 0)
                if held < first:  # the pair's first triple at this vertex
                    touched.append(pair)
                holders[pair] = held | bit
            bit <<= 1
        for pair in touched:
            spans.setdefault(pair, []).append(bit - first)
    taxa, nbr = cover._taxa, list(cover._nbr)
    live = bit - 1
    for i in range(n):
        for j in _bits(nbr[i] >> i + 1 << i + 1):
            pair = i * n + j
            rest = live & ~holders.get(pair, 0)
            for span in spans.get(pair, ()):
                if not rest & span:
                    break  # the cord is kept
            else:
                live = rest
                nbr[i] ^= 1 << j
                nbr[j] ^= 1 << i
    return TripletCover._with_masks(cover.taxa, taxa, tuple(nbr))


def is_sparse(tree: PhyloTree, cover: TripletCover) -> bool:
    """True iff the supported-triple set has exactly |X|-2 members."""
    support = _cover_masks(tree, cover, "is_sparse")
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


def _is_triple(member) -> bool:
    """Whether ``member`` is a tuple of three distinct taxon names."""
    if not isinstance(member, tuple) or len(member) != 3:
        return False
    a, b, c = member
    return (
        isinstance(a, str) and isinstance(b, str) and isinstance(c, str)
        and a != b != c != a
    )


def _section_triples(section) -> list[Triple]:
    """The distinct members of a triple family, sorted.  A member that is not
    a tuple of three distinct taxon names raises :class:`SectionError`,
    naming the least such member by its repr, so that the text does not
    depend on a set's iteration order."""
    members = list(section)
    bad = [t for t in members if not _is_triple(t)]
    if bad:
        raise SectionError(
            f"family member {_quote_each(min(bad, key=repr))} is not a triple "
            "of three distinct taxon names"
        )
    return sorted(set(members))


def _triple_masks(taxa: list[str], triples: list[Triple]) -> list[int]:
    """Bit i of a triple's mask stands for ``taxa[i]``; a triple with a taxon
    outside ``taxa`` raises :class:`CoverError`."""
    index = {x: i for i, x in enumerate(taxa)}
    masks = []
    for t in triples:
        m = 0
        for x in t:
            if x not in index:
                raise CoverError(
                    f"triple {_quote_each(t)} uses a taxon outside the taxon set"
                )
            m |= 1 << index[x]
        masks.append(m)
    return masks


def _hall_cap(k: int, cap: int) -> None:
    """Refuse a Hall-type family of ``k`` triples over ``cap``."""
    if k > cap:
        raise CapacityError(f"Hall-type check capped at {cap} triples, got {k}")


def _is_hall_type(masks: list[int], full: int) -> bool:
    """:func:`is_hall_type` on distinct triple masks over the taxa of ``full``:
    the union must be ``full``, and by Hall's theorem every nonempty
    subfamily C' has |union C'| >= |C'| + 2 iff, for every triple t, the
    family with t taken three times has distinct representatives: one
    matching of the family, then two augmenting paths per triple.  The
    verdict does not depend on the order of ``masks``."""
    union_all = 0
    for m in masks:
        union_all |= m
    if union_all != full:
        return False
    k = len(masks)
    match: dict[int, int] = {}
    if not all(_augment(match, masks, i) for i in range(k)):
        return False
    for i in range(k):
        tripled = masks + [masks[i], masks[i]]
        trial = dict(match)
        if not (_augment(trial, tripled, k) and _augment(trial, tripled, k + 1)):
            return False
    return True


def is_hall_type(
    taxa: Iterable[str], triples: Iterable[Triple], cap: int = HALL_SUBSET_CAP
) -> bool:
    """Hall-type test: the triples must cover the taxon set and every
    nonempty subfamily C' must satisfy |union C'| >= |C'| + 2, decided by
    the matching kernel :func:`_is_hall_type` on the triples' masks.
    Families larger than ``cap`` raise :class:`CapacityError`, ahead of a
    triple with a taxon outside ``taxa``.
    """
    taxon_list = sorted(set(taxa))
    triple_list = sorted(set(triples))
    _hall_cap(len(triple_list), cap)
    masks = _triple_masks(taxon_list, triple_list)
    return _is_hall_type(masks, (1 << len(taxon_list)) - 1)


def section_count(support: SupportMap | SupportMasks) -> int:
    """Number of sections: the product of the support sizes; ``support``
    may be named or masked."""
    total = 1
    for triples in support.values():
        total *= len(triples)
    return total


def _ordered_masks(support: SupportMasks) -> list[list[int]]:
    """A triplet cover's mask support in :func:`iter_sections` order: each
    vertex's triples sorted by :func:`_triple_bits`, which is name order as
    bit i is the i-th sorted taxon, and the vertices by their least triple."""
    ordered = [
        found if len(found) == 1 else sorted(found, key=_triple_bits)
        for found in support.values()
    ]
    ordered.sort(key=lambda found: _triple_bits(found[0]))
    return ordered


def iter_sections(support: SupportMap) -> Iterator[frozenset[Triple]]:
    """Lazily yield sections (one triple per vertex) in lexicographic order."""
    for v, triples in support.items():
        if not triples:
            raise NotTripletCoverError(
                f"vertex {v} has empty support; sections need a triplet cover"
            )
    # Supports are disjoint and nonempty, so the vertices sort by their
    # least triple alone.
    ordered = sorted(sorted(triples) for triples in support.values())
    for choice in product(*ordered):
        yield frozenset(choice)


# A chooser gets the tree's sorted taxa, an interior vertex and the leaf
# masks of its three components (bit i stands for taxa[i], ordered by least
# taxon) and returns one taxon from each component.
Chooser = Callable[[tuple[str, ...], int, tuple[int, int, int]], tuple[str, str, str]]


def least_label_chooser(
    taxa: tuple[str, ...], v: int, masks: tuple[int, int, int]
) -> tuple[str, str, str]:
    picks = tuple(taxa[(m & -m).bit_length() - 1] for m in masks)
    return picks  # type: ignore[return-value]


def _nth_bit(mask: int, k: int) -> int:
    """Index of the set bit of ``mask`` with k set bits below it, found by
    halving on bit counts."""
    lo, hi = 0, mask.bit_length()
    # Below lo at most k bits are set, below hi more than k.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() <= k:
            lo = mid
        else:
            hi = mid
    return lo


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw below ``n`` (at least 1) by ``randrange``'s own rule:
    ``n.bit_length()`` bits from ``getrandbits``, drawn again while the
    value is ``n`` or more.  ``randrange(n)`` reads the same words of the
    generator in the same order today, but the ``random`` docs do not
    promise how it draws across Python versions; this rule is fixed, so
    seeded instances stay byte-identical, and it skips ``randrange``'s
    argument checks."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def seeded_chooser(seed: int) -> Chooser:
    """One uniformly random leaf per component, reproducible from the seed:
    the k-th of the component's taxa in sorted order, k drawn uniformly
    below the component's size straight from ``getrandbits`` by
    ``randrange``'s rule (:func:`_below`).  That reads the generator as
    ``randrange`` did, so the covers are the same, and keeps them so
    whatever a Python version does inside ``randrange``.

    The returned chooser is stateful; :func:`canonical_cover` invokes it in
    the canonical interior-vertex order, which keeps results deterministic.
    """
    getrandbits = random.Random(seed).getrandbits

    def choose(taxa, v, masks):
        return tuple(
            taxa[_nth_bit(m, _below(getrandbits, m.bit_count()))] for m in masks
        )

    return choose


def _add_triple(nbr: list[int], a: int, b: int, c: int) -> None:
    """Add the three cords of the triple of distinct bit indices a, b, c to
    the neighbour masks ``nbr``; nothing is named."""
    nbr[a] |= 1 << b | 1 << c
    nbr[b] |= 1 << a | 1 << c
    nbr[c] |= 1 << a | 1 << b


def _canonical_order(components: dict[int, tuple[int, int, int]]) -> list[int]:
    """The interior vertices in :meth:`PhyloTree.component_triple` order,
    from the tree index's component masks: by the lowest bits of the second
    and third components, as bit i is the i-th sorted taxon.  The first
    component always holds taxa[0], so its lowest bit adds nothing."""
    keyed = sorted((b & -b, c & -c, v) for v, (_, b, c) in components.items())
    return [v for _, _, v in keyed]


def canonical_cover(
    tree: PhyloTree, chooser: Chooser = least_label_chooser
) -> TripletCover:
    """Cover built by picking one leaf per component at every interior vertex
    and taking the three pairs; always a triplet cover by construction.

    The chooser sees the vertices in :meth:`PhyloTree.component_triple`
    order, which is the order of the lowest bits of their component masks,
    as bit i is the i-th sorted taxon.  Each pick is checked as its bit
    index, and the three cords go into the neighbour masks, so the cover is
    born as its cover graph and names its cords only when they are read."""
    taxa = tree._index.taxa
    index = {x: i for i, x in enumerate(taxa)}
    components = tree._index.components
    nbr = [0] * len(taxa)
    for v in _canonical_order(components):
        masks = components[v]
        picks = chooser(taxa, v, masks)
        ids = []
        if len(picks) == 3:
            for p, m in zip(picks, masks):
                i = index.get(p)
                if i is None or not m >> i & 1:
                    break
                ids.append(i)
        if len(ids) != 3:
            raise CoverError(
                f"chooser returned an invalid selection {_quote_each(picks)}"
            )
        _add_triple(nbr, *ids)
    return TripletCover._with_masks(tree.taxa, taxa, tuple(nbr))
