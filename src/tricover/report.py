"""Aggregated classification of a (tree, cover) pair.

:func:`classify` gives the CLI report and :func:`basic_flags` the stored
fixture records' flags; the keys they share are built in one place.
Capacity-limited analyses (Hall-type family size, ample-patchwork search,
section enumeration) surface their ceilings as null verdicts plus a note
instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covergraph import (
    decomposition_from_section,
    is_strict,
    is_two_connected,
    is_two_tree,
    triangles,
    verify_counting,
)
from .covers import (
    HALL_SUBSET_CAP,
    SupportMap,
    Triple,
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
    _shelling_cords,
)
from .tree import PhyloTree


@dataclass(frozen=True)
class InstanceRecord:
    """A generated (tree, cover) pair with recomputed classification flags."""

    tree: PhyloTree
    cover: TripletCover
    flags: dict
    provenance: dict


def _cover_flags(
    tree: PhyloTree, cover: TripletCover
) -> tuple[SupportMap, Triple | None, dict]:
    """The support map, the least unsupported vertex and the flags that
    :func:`classify` and :func:`basic_flags` share, all read from that map;
    the support-derived flags are present only for a triplet cover."""
    mu = cover.min_multiplicity()
    support = support_map(tree, cover)
    bad = unsupported_vertex(tree, support)
    flags = {"is_cover": bad is None, "cord_count": len(cover), "mu": mu}
    if bad is None:
        flags["is_minimal"] = required_cords(support) == cover.cords
        flags["is_minimum"] = len(cover) == 2 * len(cover.taxa) - 3
        flags["is_sparse"] = section_count(support) == 1
    return support, bad, flags


def basic_flags(tree: PhyloTree, cover: TripletCover) -> dict:
    """Cheap classification flags for fixture records, read from one
    support map."""
    _, bad, flags = _cover_flags(tree, cover)
    if bad is None:
        flags["is_shellable"] = _shelling_cords(tree, cover)[0]
    return flags


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
    support, bad, flags = _cover_flags(tree, cover)
    report: dict = {
        "taxa": sorted(cover.taxa),
        "cords": [list(c) for c in sorted(cover.cords)],
        **flags,
        "unsupported_vertex": None if bad is None else list(bad),
    }
    if bad is not None:
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
    decomposition = decomposition_from_section(first_section)
    report["decomposition"] = {
        "blocks": decomposition.m,
        "strict": is_strict(cover, decomposition),
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
