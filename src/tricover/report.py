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
    _counting_holds,
    _decompose,
    _is_strict,
    _triangle_masks,
    is_two_connected,
    is_two_tree,
)
from .covers import (
    HALL_SUBSET_CAP,
    SupportMasks,
    Triple,
    TripletCover,
    _hall_cap,
    _is_hall_type,
    _is_minimal,
    _ordered_masks,
    _support_masks,
    _triple_bits,
    _triple_name,
    section_count,
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
) -> tuple[SupportMasks, Triple | None, dict]:
    """The mask support, the least unsupported vertex and the flags that
    :func:`classify` and :func:`basic_flags` share, all read from that
    support; the support-derived flags are present only for a triplet
    cover."""
    mu = cover.min_multiplicity()
    support = _support_masks(tree, cover)
    bad = unsupported_vertex(tree, support)
    flags = {"is_cover": bad is None, "cord_count": len(cover), "mu": mu}
    if bad is None:
        flags["is_minimal"] = _is_minimal(support, cover)
        flags["is_minimum"] = len(cover) == 2 * len(cover.taxa) - 3
        flags["is_sparse"] = section_count(support) == 1
    return support, bad, flags


def basic_flags(tree: PhyloTree, cover: TripletCover) -> dict:
    """Cheap classification flags for fixture records, read from one
    support search."""
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
    support-derived verdict is read from one mask support search, ordered
    once in section order: the Hall matching, the triangle match, the 2-tree
    decomposition and the ample search run their mask kernels on it, and its
    triples are named only for ``triple_set``."""
    notes: list[str] = []
    masks, bad, flags = _cover_flags(tree, cover)
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

    taxa = cover._taxa
    ordered = _ordered_masks(masks)
    family = [t for found in ordered for t in found]
    report["triple_set"] = [
        [taxa[a], taxa[b], taxa[c]] for a, b, c in sorted(map(_triple_bits, family))
    ]

    try:
        _hall_cap(len(family), hall_cap)
        report["hall_type"] = _is_hall_type(family, (1 << len(taxa)) - 1)
    except CapacityError as exc:
        report["hall_type"] = None
        notes.append(f"hall_type skipped: {exc}")

    report["section_count"] = section_count(masks)

    triangles = _triangle_masks(cover._nbr)
    report["triangle_match"] = set(triangles) == set(family)
    report["two_connected"] = is_two_connected(cover)

    section = sorted((found[0] for found in ordered), key=_triple_bits)
    blocks = list(_decompose(section, taxa, lambda i: _triple_name(taxa, section[i])))
    union = 0
    for vertices, _, _ in blocks:
        union |= vertices
    report["decomposition"] = {
        "blocks": len(blocks),
        "strict": _is_strict(triangles, [pairs for _, pairs, _ in blocks]),
        "counting_identity": _counting_holds(
            sum(len(pairs) for _, pairs, _ in blocks), union.bit_count(), len(blocks)
        ),
        "block_sizes": sorted(vertices.bit_count() for vertices, _, _ in blocks),
        "applies_to_minimal_cover": report["is_minimal"],
    }
    if report["is_minimum"]:
        whole, _ = is_two_tree(cover)
        report["decomposition"]["graph_is_two_tree"] = whole

    shellable, added = _shelling_cords(tree, cover)
    report["shellable"] = shellable
    report["shelling_added"] = [list(c) for c in added] if shellable else None

    try:
        verdict, _ = _patchwork_search(ordered, limit_sections, ample_cap)
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
