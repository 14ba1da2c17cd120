"""The 2-tree decomposition, the strictness test and the shelling verdict,
checked against their earlier forms.

``decomposition_from_section`` accretes triples through a frontier of pair
masks, ``is_strict`` reads one cord-to-block map, and ``report.classify``,
``report.basic_flags`` and the shelling fixture predicates read the verdict
and the added cords from the index kernel without building steps.  The
references below are the earlier implementations: accretion over taxon sets
with a rescan of the unused triples per pick, a subset test per triangle and
block, and a verdict that builds every step and compares the closed set with
all pairs, here over ``closure_reference.reference_forced_steps``.
Decompositions (blocks and accretion orders), strictness, verdicts, added
cords, step logs and the error types and texts must agree exactly.
"""

from itertools import chain, islice

import pytest
from closure_reference import reference_forced_steps

from tricover import (
    SectionError,
    TripletCover,
    all_cords,
    canonical_cover,
    cord_set,
    decomposition_from_section,
    is_ample,
    is_strict,
    is_triplet_cover,
    iter_sections,
    minimalize,
    report,
    seeded_chooser,
    support_map,
    triangles,
)
from tricover.covergraph import BLOCK_TAXA_SHOWN, TwoTreeBlock, TwoTreeDecomposition
from tricover.lab import (
    FIXTURE_PREDICATES,
    exhaustive_instances,
    random_binary_tree,
    random_instances,
)
from tricover.shelling import _forced_steps, _shelling_cords, is_shellable
from tricover.tree import _quote_each, _quote_first


def reference_decomposition(section):
    remaining = sorted(set(section))
    if not remaining:
        raise SectionError("empty triple family")
    blocks = []
    while remaining:
        seq = [remaining.pop(0)]
        vertices = set(seq[0])
        while True:
            pick = None
            for t in remaining:
                if any(len(set(t) & set(prev)) == 2 for prev in seq):
                    pick = t
                    break
            if pick is None:
                break
            fresh = set(pick) - vertices
            if len(fresh) != 1:
                names = sorted(vertices)
                shown = _quote_first(names, BLOCK_TAXA_SHOWN)
                if len(names) > BLOCK_TAXA_SHOWN:
                    shown += f" ({len(names)} taxa)"
                raise SectionError(
                    f"triple {_quote_each(pick)} re-enters the block on "
                    f"{shown}; the family is not a section"
                )
            remaining.remove(pick)
            seq.append(pick)
            vertices |= set(pick)
        edges = cord_set(seq)
        if len(edges) != 2 * len(vertices) - 3:
            raise SectionError("block is not a 2-tree; the family is not a section")
        blocks.append(TwoTreeBlock(frozenset(vertices), edges, tuple(seq)))
    try:
        return TwoTreeDecomposition(tuple(blocks))
    except ValueError as exc:
        raise SectionError(str(exc)) from None


def reference_is_strict(cover, decomposition):
    for block in decomposition.blocks:
        if not block.edges <= cover.cords:
            raise ValueError("decomposition block is not a subgraph")
    block_edges = [block.edges for block in decomposition.blocks]
    for t in triangles(cover):
        needed = cord_set([t])
        if not any(needed <= edges for edges in block_edges):
            return False
    return True


def reference_shellable(tree, cover):
    steps = tuple(reference_forced_steps(tree, cover))
    closed = cover.cords | {step.cord for step in steps}
    return closed == all_cords(cover.taxa), steps


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and text of what it raised."""
    try:
        return "value", fn(*args)
    except (SectionError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_decomposition(section):
    got = outcome(decomposition_from_section, section)
    assert got == outcome(reference_decomposition, section)
    return got[1] if got[0] == "value" else None


def assert_same_strictness(cover, decomposition):
    fresh = TripletCover(cover.taxa, cover.cords)
    got = outcome(is_strict, fresh, decomposition)
    assert got == outcome(reference_is_strict, cover, decomposition)
    return got[1] if got[0] == "value" else got[0]


def assert_same_shelling(tree, cover):
    """Compare every reader of the closure with the reference on any cord
    set over the tree's taxa; the verdict, and for a triplet cover also the
    report, the record flags and the shelling fixture predicates."""
    shellable, steps = reference_shellable(tree, cover)
    cords = [step.cord for step in steps]
    assert tuple(_forced_steps(tree, cover)) == steps
    assert _shelling_cords(tree, cover) == (shellable, cords if shellable else None)
    support = support_map(tree, cover)
    sparse = sum(len(triples) for triples in support.values()) == len(cover.taxa) - 2
    covered = is_triplet_cover(tree, cover)
    assert FIXTURE_PREDICATES["sparse-not-shellable"](tree, cover) is (
        covered and sparse and not shellable
    )
    if covered and sparse:
        ample = is_ample(frozenset().union(*support.values()), cap=len(cover))[0]
        assert FIXTURE_PREDICATES["sparse-shellable-not-ample"](tree, cover) is (
            shellable and not ample
        )
    if covered:
        assert is_shellable(tree, cover) == (shellable, steps if shellable else None)
        assert report.basic_flags(tree, cover)["is_shellable"] is shellable
    return shellable


def cut_covers(tree, cover):
    """The cover and two cord sets that stall the closure more often than
    not: less its least cord and less every third cord."""
    yield cover
    yield cover.without(min(cover.cords))
    kept = sorted(cover.cords)
    yield TripletCover(cover.taxa, frozenset(kept[i] for i in range(len(kept)) if i % 3))


def exhaustive_pairs(n):
    """The distinct sections and the distinct (cord set, section) pairs of
    every instance of ``exhaustive_instances(n)``."""
    sections, pairs = {}, {}
    for tree, cover, _ in exhaustive_instances(n):
        for section in iter_sections(support_map(tree, cover)):
            sections[section] = None
            pairs[cover.cords, section] = cover
    return list(sections), [(cover, section) for (_, section), cover in pairs.items()]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_agrees_on_every_exhaustive_section(n):
    sections, pairs = exhaustive_pairs(n)
    decompositions = {s: assert_same_decomposition(s) for s in sections}
    assert all(decompositions.values())
    verdicts = {assert_same_strictness(c, decompositions[s]) for c, s in pairs}
    assert len(sections) == {4: 6, 5: 100, 6: 3360}[n]
    assert verdicts == ({True} if n == 4 else {True, False})


@pytest.mark.parametrize("n", [4, 5])
def test_shelling_agrees_on_every_exhaustive_instance(n):
    verdicts = set()
    for tree, cover, _ in exhaustive_instances(n):
        for cords in cut_covers(tree, cover):
            verdicts.add(assert_same_shelling(tree, cords))
        full = report.classify(tree, cover)
        shellable, steps = reference_shellable(tree, cover)
        assert full["shellable"] is shellable
        assert full["shelling_added"] == [list(step.cord) for step in steps]
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_agrees_on_random_instances(seed):
    counts = {"sections": 0, "strict": 0, "shellable": 0, "stalled": 0}
    for n in range(7, 25):
        for tree, cover, _ in islice(random_instances(n, seed), 8):
            for section in islice(iter_sections(support_map(tree, cover)), 4):
                decomposition = assert_same_decomposition(section)
                counts["strict"] += assert_same_strictness(cover, decomposition)
                counts["sections"] += 1
            for cords in cut_covers(tree, cover):
                shellable = assert_same_shelling(tree, cords)
                counts["shellable" if shellable else "stalled"] += 1
            if n <= 12:
                full = report.classify(tree, cover)
                assert full["shelling_added"] == [
                    list(step.cord) for step in reference_shellable(tree, cover)[1]
                ]
    assert min(counts.values()) > 0 and counts["strict"] < counts["sections"], counts


@pytest.mark.parametrize("n", [80, 160, 320])
def test_agrees_on_ladder_minimal_covers(n):
    # The bench ladder's minimal cover.  The reference closure takes
    # several seconds at n = 320, so the verdict is compared at n = 80 and
    # 160 only.
    tree = random_binary_tree(n, 1)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(1)))
    section = next(iter_sections(support_map(tree, cover)))
    decomposition = assert_same_decomposition(section)
    assert decomposition.m > 1
    assert_same_strictness(cover, decomposition)
    if n <= 160:
        assert assert_same_shelling(tree, cover)


NON_SECTIONS = {
    "re-entering triple": [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")],
    "re-entering triple, long block": (
        [(f"t{i:02d}", f"t{i + 1:02d}", f"t{i + 2:02d}") for i in range(12)]
        + [("t00", "t09", "t10")]
    ),
    "re-entering triple, second block": [
        ("a", "b", "c"), ("d", "e", "f"), ("d", "e", "g"), ("d", "f", "g"),
    ],
    "repeated taxon": [("a", "a", "b")],
    "four taxa": [("a", "b", "c", "d")],
    "repeated taxon in a block": [("a", "b", "c"), ("b", "c", "c")],
    "empty": [],
}


@pytest.mark.parametrize("case", NON_SECTIONS)
def test_agrees_on_non_sections(case):
    family = frozenset(NON_SECTIONS[case])
    got = outcome(decomposition_from_section, family)
    assert got[0] is SectionError
    # A member that is not three distinct taxa is named before any
    # accretion; the reference, which accretes whatever it is given, meets
    # such members later and with another text.
    bad = [t for t in family if len(t) != 3 or len(set(t)) != 3]
    if bad:
        assert got == (
            SectionError,
            f"family member {min(bad, key=repr)} is not a triple of three "
            "distinct taxon names",
        )
        assert outcome(reference_decomposition, family)[0] is SectionError
    else:
        assert got == outcome(reference_decomposition, family)


def test_re_entry_text_names_at_most_ten_block_taxa():
    got = outcome(
        decomposition_from_section,
        frozenset(NON_SECTIONS["re-entering triple, long block"]),
    )
    assert got == (
        SectionError,
        "triple ('t00', 't09', 't10') re-enters the block on ['t00', 't01', "
        "'t02', 't03', 't04', 't05', 't06', 't07', 't08', 't09', ...] "
        "(11 taxa); the family is not a section",
    )
    short = outcome(
        decomposition_from_section, frozenset(NON_SECTIONS["re-entering triple"])
    )
    assert short == (
        SectionError,
        "triple ('a', 'c', 'd') re-enters the block on ['a', 'b', 'c', 'd']; "
        "the family is not a section",
    )


def block(*triples):
    return TwoTreeBlock(
        frozenset().union(*triples), cord_set(triples), tuple(sorted(triples))
    )


def graph(taxa, triples, *cords):
    return TripletCover(frozenset(taxa), cord_set(triples) | frozenset(cords))


ABCD = graph("abcd", [("a", "b", "c"), ("b", "c", "d")])
ABCDE = graph("abcde", [("a", "b", "c"), ("c", "d", "e")])


def loose(taxa, *cords):
    return TwoTreeBlock(frozenset(taxa), frozenset(cords), ())


# case: (cover, blocks, is_strict's answer); the blocks need not be 2-trees.
HAND_BUILT = {
    "one block": (ABCD, [block(("a", "b", "c"), ("b", "c", "d"))], True),
    "split triangle": (ABCD, [
        block(("a", "b", "c")), loose("bcd", ("b", "d"), ("c", "d")),
    ], False),
    "one triangle, its last cord elsewhere": (
        graph("abcd", [("a", "b", "c")], ("c", "d")),
        [loose("abcd", ("a", "b"), ("a", "c"), ("c", "d")), loose("bc", ("b", "c"))],
        False,
    ),
    "one triangle, its middle cord elsewhere": (
        graph("abc", [("a", "b", "c")]),
        [loose("abc", ("a", "b"), ("b", "c")), loose("ac", ("a", "c"))],
        False,
    ),
    "triangle cord in no block": (ABCD, [block(("a", "b", "c"))], False),
    "triangle in no block": (ABCDE, [block(("a", "b", "c"))], False),
    "bowtie": (ABCDE, [block(("a", "b", "c")), block(("c", "d", "e"))], True),
    "alien block": (ABCD, [block(("a", "b", "c")), block(("a", "x", "y"))], ValueError),
    "alien block after a split triangle": (ABCD, [
        loose("abc", ("a", "b"), ("a", "c")), block(("b", "c", "x")),
    ], ValueError),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_is_strict_agrees_on_hand_built_decompositions(case):
    cover, blocks, expected = HAND_BUILT[case]
    decomposition = TwoTreeDecomposition(tuple(blocks))
    assert assert_same_strictness(cover, decomposition) == expected


def test_is_strict_agrees_on_every_block_assignment():
    # Every way to give the cords of a small cover graph to at most three
    # blocks: each cord in one block, so the blocks stay edge-disjoint.
    cover = graph("abcde", [("a", "b", "c"), ("b", "c", "d"), ("b", "d", "e")],
                  ("a", "e"))
    cords = sorted(cover.cords)
    verdicts = set()
    for code in range(3 ** len(cords)):
        parts = [set(), set(), set()]
        for c in cords:
            code, which = divmod(code, 3)
            parts[which].add(c)
        blocks = [
            TwoTreeBlock(frozenset(chain(*part)), frozenset(part), ())
            for part in parts if part
        ]
        verdicts.add(assert_same_strictness(cover, TwoTreeDecomposition(tuple(blocks))))
    assert verdicts == {True, False}
