"""``report.classify`` in its earlier form, kept as a reference.

``classify`` now works on the mask support from end to end: it sorts the
masks once into section order, runs the Hall matching, the triangle match,
the 2-tree decomposition and the ample search on their mask kernels, and
names triples only for ``triple_set``.  ``reference_classify`` below is the
body before that, over the named public functions: the named support map,
``is_hall_type`` on the named triples, ``triangles``, the first section of
``iter_sections`` and the sections it yields for the ample search, each
tried by ``is_ample``.  The first section is decomposed by
``test_classify_differential.reference_decomposition``, the accretion over
taxon sets that shares no code with the mask kernel, and its strictness is
``reference_is_strict``, a subset test per triangle.
"""

from __future__ import annotations

from test_classify_differential import reference_decomposition, reference_is_strict

from tricover import (
    CapacityError,
    is_ample,
    is_hall_type,
    is_minimal,
    is_sparse,
    is_two_connected,
    is_two_tree,
    iter_sections,
    section_count,
    support_map,
    triangles,
    verify_counting,
)
from tricover.covers import HALL_SUBSET_CAP, unsupported_vertex
from tricover.shelling import AMPLE_TRIPLE_CAP, SECTION_ENUM_LIMIT, _shelling_cords

UNDECIDED = (
    "is_minimal",
    "is_minimum",
    "is_sparse",
    "hall_type",
    "section_count",
    "triple_set",
    "triangle_match",
    "two_connected",
    "decomposition",
    "shellable",
    "shelling_added",
    "ample_patchwork",
)


def reference_patchwork(support, limit_sections, ample_cap):
    """The ample search over the named sections, in ``iter_sections`` order."""
    for i, section in enumerate(iter_sections(support)):
        if i >= limit_sections:
            break
        if is_ample(section, ample_cap)[0]:
            return True
    if section_count(support) <= limit_sections:
        return False
    return None


def reference_classify(
    tree,
    cover,
    limit_sections=SECTION_ENUM_LIMIT,
    ample_cap=AMPLE_TRIPLE_CAP,
    hall_cap=HALL_SUBSET_CAP,
) -> dict:
    notes: list[str] = []
    support = support_map(tree, cover)
    bad = unsupported_vertex(tree, support)
    report: dict = {
        "taxa": sorted(cover.taxa),
        "cords": [list(c) for c in sorted(cover.cords)],
        "is_cover": bad is None,
        "cord_count": len(cover),
        "mu": cover.min_multiplicity(),
    }
    if bad is None:
        report["is_minimal"] = is_minimal(tree, cover)
        report["is_minimum"] = len(cover) == 2 * len(cover.taxa) - 3
        report["is_sparse"] = is_sparse(tree, cover)
    report["unsupported_vertex"] = None if bad is None else list(bad)
    if bad is not None:
        for key in UNDECIDED:
            report[key] = None
        report["notes"] = notes
        return report

    triple_family = frozenset().union(*support.values())
    report["triple_set"] = [list(t) for t in sorted(triple_family)]

    try:
        report["hall_type"] = is_hall_type(cover.taxa, triple_family, cap=hall_cap)
    except CapacityError as exc:
        report["hall_type"] = None
        notes.append(f"hall_type skipped: {exc}")

    report["section_count"] = section_count(support)

    report["triangle_match"] = triangles(cover) == triple_family
    report["two_connected"] = is_two_connected(cover)

    first_section = next(iter_sections(support))
    decomposition = reference_decomposition(first_section)
    report["decomposition"] = {
        "blocks": decomposition.m,
        "strict": reference_is_strict(cover, decomposition),
        "counting_identity": verify_counting(decomposition),
        "block_sizes": sorted(len(b.vertices) for b in decomposition.blocks),
        "applies_to_minimal_cover": report["is_minimal"],
    }
    if report["is_minimum"]:
        whole, _ = is_two_tree(cover)
        report["decomposition"]["graph_is_two_tree"] = whole

    shellable, added = _shelling_cords(tree, cover)
    report["shellable"] = shellable
    report["shelling_added"] = [list(c) for c in added] if shellable else None

    try:
        verdict = reference_patchwork(support, limit_sections, ample_cap)
        if verdict is None:
            report["ample_patchwork"] = "indeterminate"
            notes.append(
                f"ample search inspected only {limit_sections} of "
                f"{report['section_count']} sections"
            )
        else:
            report["ample_patchwork"] = verdict
    except CapacityError as exc:
        report["ample_patchwork"] = None
        notes.append(f"ample_patchwork skipped: {exc}")

    report["notes"] = notes
    return report
