"""The merging ``is_ample``, checked against the backtracking search.

``reference_is_ample`` is an earlier implementation, kept verbatim: it
backtracks over every tight bisection of a family, memoises each family's
first feasible split and collects the hierarchy in a second pass.  The
library merges tight members that share exactly 2 taxa instead (its
docstring has the proof).  Verdicts and raised errors must agree exactly.
A merge hierarchy is in general not the reference's, so every hierarchy the
library returns is checked by its properties with ``check_hierarchy``; every
ample family must also be Hall-type, which is step (1) of that proof.
"""

import re
from collections import Counter
from itertools import combinations, islice
from random import Random

import pytest

from tricover import (
    CapacityError,
    SectionError,
    is_ample,
    is_hall_type,
    iter_sections,
    support_map,
)
from tricover.covers import _triple_masks
from tricover.lab import exhaustive_instances, random_instances
from tricover.shelling import AMPLE_TRIPLE_CAP


def reference_is_ample(section, cap=AMPLE_TRIPLE_CAP):
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

    taxa_mask = _triple_masks(sorted(union_all), triples)

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

    hierarchy: list[frozenset] = []

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


def check_hierarchy(family, hierarchy):
    """Fail unless ``hierarchy`` is a maximal hierarchy of tight subfamilies
    of ``family`` in preorder: 2m - 1 members led by the family itself,
    every singleton among them, every member tight, any two nested or
    disjoint, and each member of two or more triples the disjoint union of
    the next two subtrees."""
    family = frozenset(family)
    members = [frozenset(member) for member in hierarchy]
    assert len(members) == 2 * len(family) - 1 and members[0] == family
    assert {frozenset({t}) for t in family} <= set(members)
    for member in members:
        assert member <= family
        assert len(set().union(*member)) == len(member) + 2
        for other in members:
            assert member & other in (frozenset(), member, other)
    position = 0

    def subtree() -> frozenset:
        nonlocal position
        member = members[position]
        position += 1
        if len(member) > 1:
            first, second = subtree(), subtree()
            assert not first & second and first | second == member
        return member

    subtree()
    assert position == len(members)


def assert_agree(family, cap=AMPLE_TRIPLE_CAP):
    """Both searches on ``family``; returns the verdict, or the error type."""
    try:
        expected, _ = reference_is_ample(family, cap)
    except (SectionError, CapacityError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            is_ample(family, cap)
        return type(exc)
    verdict, hierarchy = is_ample(family, cap)
    assert verdict == expected
    if verdict:
        check_hierarchy(family, hierarchy)
        union = set().union(*family)
        assert is_hall_type(union, family)
    else:
        assert hierarchy is None
    return expected


def section_verdicts(instances, per_cover) -> Counter:
    """Both searches on the first ``per_cover`` sections of each cover."""
    verdicts = Counter()
    for tree, cover, _ in instances:
        for section in islice(iter_sections(support_map(tree, cover)), per_cover):
            verdicts[assert_agree(section)] += 1
    return verdicts


def test_agrees_on_exhaustive_sections():
    # Every 5-taxon cover and every 13th 6-taxon cover, at most 20 sections
    # of each.
    verdicts = section_verdicts(exhaustive_instances(5), 20)
    verdicts += section_verdicts(islice(exhaustive_instances(6), 0, None, 13), 20)
    assert verdicts[True] > 5_000 and verdicts[False] > 100


@pytest.mark.parametrize("n", range(7, 15))
def test_agrees_on_random_sections(n):
    verdicts = section_verdicts(islice(random_instances(n, 2000 + n), 60), 5)
    assert verdicts[True] and verdicts[False]


def random_family(rng: Random, m: int) -> frozenset:
    """A section-shaped family of m triples over m + 2 taxa.

    Half the draws are uniform, some of them not Hall-type; the others grow
    the family one new taxon per triple, so every subfamily of those has
    |union| >= size + 2.
    """
    taxa = [f"t{i}" for i in range(m + 2)]
    rng.shuffle(taxa)
    if rng.random() < 0.5:
        return uniform_family(rng, taxa, m)
    family = {tuple(sorted(taxa[:3]))}
    for i in range(3, m + 2):
        x, y = rng.sample(taxa[:i], 2)
        family.add(tuple(sorted((x, y, taxa[i]))))
    return frozenset(family)


def uniform_family(rng: Random, taxa: list[str], m: int) -> frozenset:
    """m triples over ``taxa`` drawn uniformly among those that use every
    taxon; about a fifth of them at 9-11 triples are Hall-type but not
    ample."""
    universe = list(combinations(sorted(taxa), 3))
    while True:
        family = frozenset(rng.sample(universe, m))
        if len(set().union(*family)) == m + 2:
            return family


def test_agrees_on_random_families():
    rng = Random(11)
    verdicts = {True: 0, False: 0}
    not_hall = 0
    for _ in range(20_000):
        family = random_family(rng, rng.randint(1, 8))
        verdicts[assert_agree(family)] += 1
        not_hall += not is_hall_type(set().union(*family), family)
    assert min(verdicts.values()) > 1_000 and not_hall > 1_000


def test_errors_agree():
    rng = Random(12)
    shape_errors = 0
    assert assert_agree(frozenset()) is SectionError
    for _ in range(500):
        m = rng.randint(1, 8)
        family = random_family(rng, m)
        assert assert_agree(family, cap=m - 1) is CapacityError
        assert assert_agree(family, cap=m) in (True, False)
        taxa = [f"t{i}" for i in range(rng.randint(3, m + 4))]
        loose = frozenset(
            rng.sample(list(combinations(taxa, 3)), min(m, len(taxa) - 2))
        )
        shape_errors += assert_agree(loose) is SectionError
    assert shape_errors > 100


def hinged_family(rng: Random, m: int) -> frozenset:
    """A section-shaped family of m triples over m + 2 taxa, grown one triple
    at a time like ``random_family``'s second half, except that a few steps
    bring two new taxa and as many later steps none.  Most draws are
    Hall-type and many of those are not ample."""
    taxa = [f"t{i}" for i in range(m + 2)]
    rng.shuffle(taxa)
    steps = [1] * (m - 1)
    for _ in range(rng.randint(1, max(1, (m - 1) // 3))):
        i, j = sorted(rng.sample(range(m - 1), 2))
        if steps[i] == steps[j] == 1:
            steps[i], steps[j] = 2, 0
    while True:
        family = {tuple(sorted(taxa[:3]))}
        used = 3
        for new in steps:
            old = rng.sample(taxa[:used], 3 - new)
            family.add(tuple(sorted(old + taxa[used:used + new])))
            used += new
        if len(family) == m:
            return frozenset(family)


def test_agrees_on_hall_type_families_with_9_to_14_triples():
    # The reference only on Hall-type families: a family that is not
    # Hall-type is not ample (step (1)), and the reference is slowest there.
    rng = Random(13)
    verdicts = Counter()
    for m, draws in ((9, 1200), (10, 1200), (11, 800), (12, 250), (13, 80),
                     (14, 40)):
        taxa = [f"t{i}" for i in range(m + 2)]
        for i in range(draws):
            family = uniform_family(rng, taxa, m) if i % 2 else hinged_family(rng, m)
            if is_hall_type(set().union(*family), family):
                verdicts[m, assert_agree(family)] += 1
            else:
                verdicts[m, "not Hall-type"] += 1
                assert is_ample(family) == (False, None)
    assert sum(n for (_, v), n in verdicts.items() if v is False) >= 500
    for m in range(9, 15):
        assert verdicts[m, True] and verdicts[m, False]


def relabelled(rng: Random, family: frozenset) -> frozenset:
    """``family`` under a random renaming of its taxa."""
    taxa = sorted(set().union(*family))
    names = dict(zip(taxa, rng.sample(taxa, len(taxa))))
    return frozenset(tuple(sorted(names[x] for x in t)) for t in family)


def test_larger_families_with_the_cap_lifted():
    # No reference can run at 17-60 triples.  Every hierarchy is checked, a
    # family that is not Hall-type must be refused, and a renaming of the
    # taxa, which changes the merge order, must not change the verdict.
    rng = Random(14)
    verdicts = Counter()
    for m in range(17, 61):
        for i in range(12):
            family = (random_family if i % 3 == 0 else hinged_family)(rng, m)
            verdict, hierarchy = is_ample(family, cap=m)
            hall = is_hall_type(set().union(*family), family, cap=m)
            if verdict:
                check_hierarchy(family, hierarchy)
                assert hall
            assert is_ample(relabelled(rng, family), cap=m)[0] == verdict
            assert is_ample(family, cap=m) == (verdict, hierarchy)
            verdicts[verdict, hall] += 1
    assert verdicts[True, True] > 50 and verdicts[False, True] > 50
    assert verdicts[False, False] > 50
