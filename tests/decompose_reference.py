"""The ``decompose`` command on the named support, kept as the reference for
its mask path.

The command once read the support map of a triplet cover, took its first
section from ``iter_sections`` and called the cover minimal when its
required cords were all of its cords.  It now reads the mask support as
``classify`` does; both must write the same bytes and the same errors.
"""

from __future__ import annotations

from tricover import (
    NotTripletCoverError,
    decomposition_from_section,
    is_strict,
    iter_sections,
    jsonio,
    required_cords,
    verify_counting,
)
from tricover.covers import SupportMap, _cover_masks, support_map


def cover_support(tree, cover, op: str) -> SupportMap:
    """The support map, for a triplet cover only: otherwise raises
    :class:`NotTripletCoverError` naming the least unsupported vertex."""
    _cover_masks(tree, cover, op)
    return support_map(tree, cover)


def reference_decompose(tree, cover) -> tuple[int, str | None, str]:
    """The exit code, the ``--json`` text (None when nothing is written) and
    the stderr text of ``decompose`` on the named path."""
    try:
        support = cover_support(tree, cover, "decompose")
    except NotTripletCoverError as exc:
        return 2, None, f"error: {exc}\n"
    section = next(iter_sections(support))
    decomposition = decomposition_from_section(section)
    payload = jsonio.decomposition_to_json(
        decomposition,
        strict=is_strict(cover, decomposition),
        counting=verify_counting(decomposition),
    )
    payload["section"] = [list(t) for t in sorted(section)]
    payload["applies_to_minimal_cover"] = required_cords(support) == cover.cords
    return 0, jsonio.dumps_canonical(payload), ""
