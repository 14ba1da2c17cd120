"""Fixture predicates and record flags, checked against their earlier forms.

The fixture predicates read cover and sparseness from a support map's
section count (0 for a non-cover, 1 for a sparse cover), and
``report.basic_flags`` shares its keys with ``report.classify`` through one
helper.  The references below are the earlier implementations: a cover test
through the least unsupported vertex and a sparseness test that counts the
supported triples against |X| - 2.  Verdicts and flag dictionaries must agree
exactly, on covers and on cord sets that are not covers, and the flags must
agree with the full report on every key they share.
"""

from itertools import chain, islice

import pytest

from tricover import (
    canonical_cover,
    is_ample,
    is_triplet_cover,
    report,
    required_cords,
    seeded_chooser,
    support_map,
)
from tricover.covers import unsupported_vertex
from tricover.shelling import is_shellable
from tricover.lab import (
    FIXTURE_PREDICATES,
    basic_flags,
    exhaustive_instances,
    random_instances,
)


def reference_cover_support(tree, cover):
    support = support_map(tree, cover)
    return support if unsupported_vertex(tree, support) is None else None


def reference_sparse(cover, support):
    return sum(len(triples) for triples in support.values()) == len(cover.taxa) - 2


def reference_minimal_not_sparse(tree, cover):
    support = reference_cover_support(tree, cover)
    return (
        support is not None
        and not reference_sparse(cover, support)
        and required_cords(support) == cover.cords
    )


def reference_sparse_minimal_mu4(tree, cover):
    if cover.min_multiplicity() != 4:
        return False
    support = reference_cover_support(tree, cover)
    return (
        support is not None
        and reference_sparse(cover, support)
        and required_cords(support) == cover.cords
    )


def reference_sparse_not_shellable(tree, cover):
    support = reference_cover_support(tree, cover)
    return (
        support is not None
        and reference_sparse(cover, support)
        and not is_shellable(tree, cover)[0]
    )


def reference_minimum(tree, cover):
    return len(cover) == 2 * len(cover.taxa) - 3 and is_triplet_cover(tree, cover)


def reference_sparse_shellable_not_ample(tree, cover):
    support = reference_cover_support(tree, cover)
    if support is None or not reference_sparse(cover, support):
        return False
    if is_ample(frozenset().union(*support.values()))[0]:
        return False
    return is_shellable(tree, cover)[0]


REFERENCE_PREDICATES = {
    "minimal-not-sparse": reference_minimal_not_sparse,
    "sparse-minimal-mu4": reference_sparse_minimal_mu4,
    "sparse-not-shellable": reference_sparse_not_shellable,
    "sparse-shellable-not-ample": reference_sparse_shellable_not_ample,
    "minimum": reference_minimum,
}


def reference_basic_flags(tree, cover):
    support = reference_cover_support(tree, cover)
    flags = {
        "is_cover": support is not None,
        "cord_count": len(cover),
        "mu": cover.min_multiplicity(),
    }
    if support is not None:
        flags["is_minimal"] = required_cords(support) == cover.cords
        flags["is_minimum"] = len(cover) == 2 * len(cover.taxa) - 3
        flags["is_sparse"] = reference_sparse(cover, support)
        flags["is_shellable"] = is_shellable(tree, cover)[0]
    return flags


def acceptance_pool():
    """The acceptance suite's pool (50 covers per n in 4..9), each as given,
    grown by a second chooser cover, and less its least cord."""
    for n in range(4, 10):
        for i, (tree, cover, _) in enumerate(islice(random_instances(n, 1000 + n), 50)):
            yield tree, cover
            yield tree, cover.add_cords(canonical_cover(tree, seeded_chooser(i)).cords)
            yield tree, cover.without(min(cover.cords))


def generated(source):
    return lambda: ((tree, cover) for tree, cover, _ in source())


POOLS = {
    "acceptance": acceptance_pool,
    "exhaustive-5": generated(lambda: exhaustive_instances(5)),
    "exhaustive-6": generated(lambda: exhaustive_instances(6)),
    "random-7-12": generated(
        lambda: chain(*(islice(random_instances(n, 77 + n), 40) for n in range(7, 13)))
    ),
}


@pytest.mark.parametrize("pool", POOLS)
def test_predicates_and_flags_match_references_and_classify(pool):
    hits = dict.fromkeys(FIXTURE_PREDICATES, 0)
    checked = 0
    for tree, cover in POOLS[pool]():
        for name, predicate in FIXTURE_PREDICATES.items():
            verdict = REFERENCE_PREDICATES[name](tree, cover)
            assert predicate(tree, cover) is verdict, name
            hits[name] += verdict
        flags = basic_flags(tree, cover)
        assert flags == reference_basic_flags(tree, cover)
        # Every key the record shares with the full report has its value.
        full = report.classify(tree, cover)
        shared = flags.keys() - {"is_shellable"}
        assert {key: full[key] for key in shared} == {key: flags[key] for key in shared}
        assert flags.get("is_shellable") == full["shellable"]
        checked += 1
    assert checked > 0 and any(hits.values()), hits
