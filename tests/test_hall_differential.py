"""The matching Hall-type test, checked against subset enumeration.

``reference_is_hall_type`` is the definition taken literally, with the
same cap and the same order of checks: every nonempty subfamily C' must
satisfy |union C'| >= |C'| + 2, enumerated with pruning.  Verdicts and
raised errors must agree exactly.
"""

import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    CapacityError,
    CoverError,
    canonical_cover,
    is_hall_type,
    make_triple,
    minimalize,
    seeded_chooser,
    supported_triples,
)
from tricover.covers import HALL_SUBSET_CAP
from tricover.lab import random_binary_tree, random_instances


def reference_is_hall_type(taxa, triples, cap=HALL_SUBSET_CAP):
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
    union_all = 0
    for m in masks:
        union_all |= m
    if union_all != (1 << len(taxon_list)) - 1:
        return False

    def extend(start, union_mask, count):
        for j in range(start, k):
            nu = union_mask | masks[j]
            if nu.bit_count() < count + 3:
                return False
            if not extend(j + 1, nu, count + 1):
                return False
        return True

    return extend(0, 0, 0)


def assert_agree(taxa, triples):
    try:
        expected = reference_is_hall_type(taxa, triples)
    except (CapacityError, CoverError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            is_hall_type(taxa, triples)
        return None
    assert is_hall_type(taxa, triples) == expected
    return expected


def test_agrees_on_acceptance_pool():
    # Triple families of the acceptance pool (50 covers per n in 4..9), plus
    # each family with its least taxon left out of the taxon set.
    verdicts = set()
    for n in range(4, 10):
        for tree, cover, _ in islice(random_instances(n, 1000 + n), 50):
            family = supported_triples(tree, cover)
            verdicts.add(assert_agree(tree.taxa, family))
            assert_agree(sorted(tree.taxa)[1:], family)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_agrees_on_larger_covers(n):
    # Around the cap: minimalized covers have about n - 2 triples.
    for seed in range(4):
        tree = random_binary_tree(n, 500 + seed)
        cover = minimalize(tree, canonical_cover(tree, seeded_chooser(seed)))
        assert_agree(tree.taxa, supported_triples(tree, cover))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    picks=st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=11),) * 3),
        min_size=0,
        max_size=14,
    ),
)
def test_agrees_on_hypothesis_families(n, picks):
    taxa = [f"t{i:02d}" for i in range(n)]
    triples = {
        make_triple(*(taxa[i % n] for i in pick))
        for pick in picks
        if len({i % n for i in pick}) == 3
    }
    assert_agree(taxa, triples)


def test_capacity_and_foreign_taxa_agree():
    chain = [make_triple(f"t{i:02d}", f"t{i+1:02d}", f"t{i+2:02d}") for i in range(23)]
    taxa = sorted({x for t in chain for x in t})
    assert assert_agree(taxa, chain) is None  # over the cap
    assert assert_agree(taxa[:-1], chain[:22]) is True
    assert assert_agree(taxa[:-2], chain[:22]) is None  # a foreign taxon
