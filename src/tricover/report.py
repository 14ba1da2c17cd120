"""Aggregated classification of a (tree, cover) pair.

One dictionary drives both the CLI reports and the stored fixture records.
Capacity-limited analyses (Hall-type subsets, ample-patchwork search,
section enumeration) surface their ceilings as null verdicts plus a note
instead of silently degrading.
"""

from __future__ import annotations

from .covergraph import (
    build_cover_graph,
    decomposition_from_section,
    is_strict,
    is_two_connected,
    is_two_tree,
    triangles,
    verify_counting,
)
from .covers import (
    HALL_SUBSET_CAP,
    TripletCover,
    is_hall_type,
    iter_sections,
    required_cords,
    section_count,
    support_map,
    unsupported_vertex,
)
from .errors import CapacityError
from .shelling import (
    AMPLE_TRIPLE_CAP,
    SECTION_ENUM_LIMIT,
    _patchwork_search,
    is_shellable,
)
from .tree import PhyloTree


def classify(
    tree: PhyloTree,
    cover: TripletCover,
    limit_sections: int = SECTION_ENUM_LIMIT,
    ample_cap: int = AMPLE_TRIPLE_CAP,
    hall_cap: int = HALL_SUBSET_CAP,
) -> dict:
    """Full classification report as a JSON-ready dictionary.  Every
    support-derived verdict is read from one support map."""
    notes: list[str] = []
    n = len(cover.taxa)
    report: dict = {
        "taxa": sorted(cover.taxa),
        "cord_count": len(cover),
        "cords": [list(c) for c in sorted(cover.cords)],
        "mu": cover.min_multiplicity(),
    }

    support = support_map(tree, cover)
    bad = unsupported_vertex(tree, support)
    report["is_cover"] = bad is None
    if bad is not None:
        report["unsupported_vertex"] = list(bad)
        for key in (
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
        ):
            report[key] = None
        report["notes"] = notes
        return report

    report["unsupported_vertex"] = None
    triple_family = frozenset().union(*support.values())
    report["triple_set"] = [list(t) for t in sorted(triple_family)]
    report["is_minimal"] = required_cords(support) == cover.cords
    report["is_minimum"] = len(cover) == 2 * n - 3
    report["is_sparse"] = len(triple_family) == n - 2

    try:
        report["hall_type"] = is_hall_type(cover.taxa, triple_family, cap=hall_cap)
    except CapacityError as exc:
        report["hall_type"] = None
        notes.append(f"hall_type skipped: {exc}")

    report["section_count"] = section_count(support)

    graph = build_cover_graph(cover)
    report["triangle_match"] = triangles(graph) == triple_family
    report["two_connected"] = is_two_connected(graph)

    first_section = next(iter_sections(support))
    decomposition = decomposition_from_section(first_section)
    report["decomposition"] = {
        "blocks": decomposition.m,
        "strict": is_strict(graph, decomposition),
        "counting_identity": verify_counting(decomposition),
        "block_sizes": sorted(len(b.vertices) for b in decomposition.blocks),
        "applies_to_minimal_cover": report["is_minimal"],
    }
    if report["is_minimum"]:
        whole, _ = is_two_tree(graph)
        report["decomposition"]["graph_is_two_tree"] = whole

    shellable, steps = is_shellable(tree, cover)
    report["shellable"] = shellable
    report["shelling_added"] = (
        [list(step.cord) for step in steps] if shellable else None
    )

    try:
        verdict, _ = _patchwork_search(support, limit_sections, ample_cap)
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
