"""The first-tight-split ``is_ample``, checked against the backtracking search.

``reference_is_ample`` is the earlier implementation, kept verbatim: it
backtracks over every tight bisection of a family, memoises each family's
first feasible split and collects the hierarchy in a second pass.  The
library commits to the first tight split instead (its docstring has the
proof).  Verdicts, hierarchies (member order included) and raised errors
must agree exactly; every ample family must also be Hall-type, which is
step (1) of that proof.
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


def assert_agree(family, cap=AMPLE_TRIPLE_CAP):
    """Both searches on ``family``; returns the verdict, or the error type."""
    try:
        expected = reference_is_ample(family, cap)
    except (SectionError, CapacityError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            is_ample(family, cap)
        return type(exc)
    assert is_ample(family, cap) == expected
    if expected[0]:
        union = set().union(*family)
        assert is_hall_type(union, family)
    return expected[0]


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
        universe = list(combinations(sorted(taxa), 3))
        while True:
            family = frozenset(rng.sample(universe, m))
            if len(set().union(*family)) == m + 2:
                return family
    family = {tuple(sorted(taxa[:3]))}
    for i in range(3, m + 2):
        x, y = rng.sample(taxa[:i], 2)
        family.add(tuple(sorted((x, y, taxa[i]))))
    return frozenset(family)


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
