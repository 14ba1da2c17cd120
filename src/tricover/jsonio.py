"""File formats: covers, distances, tree dumps, witnesses, fixture records.

All numeric values are rational strings ("7/2", "3"), never floats.  JSON is
written with sorted keys, two-space indentation and a trailing newline, so
identical data produces byte-identical files.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from .covers import TripletCover, _check_taxa, _refuse_outside, cord
from .covergraph import TwoTreeDecomposition
from .errors import CoverError
from .newick import parse_newick, write_newick
from .reconstruct import PartialDistances, _add_distance, _refuse_unknown
from .report import InstanceRecord, basic_flags
from .shelling import ShellingStep
from .tree import PhyloTree, _quote, make_quartet


def dumps_canonical(payload) -> str:
    """The text ``json.dumps(payload, indent=2, sort_keys=True)`` writes, and
    a newline, joined from the C string encoder rather than by ``json``'s
    pure-Python encoder, which it falls back to whenever ``indent`` is set.
    It writes strings, ints, booleans, None, lists, tuples and dicts with
    string keys; anything else, floats included, raises ``TypeError``."""
    return _dump(payload, "\n") + "\n"


def _dump(value, newline: str) -> str:
    """``value`` as :func:`dumps_canonical` writes it at the depth where
    ``newline`` is the newline and indentation of its closing bracket."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        # Names and rationals, the most common items, skip the call.
        items = [_json_string(v) if type(v) is str else _dump(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_key(k) + ": " + _dump(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        raise TypeError(f"floats are not written, got {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _json_string(key)


def write_json(payload, path) -> None:
    Path(path).write_text(dumps_canonical(payload), encoding="utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise CoverError("JSON nested too deeply") from None


def _is_names(value, size: int | None = None) -> bool:
    """Whether a JSON value is a list of strings, ``size`` long if given."""
    if not isinstance(value, list) or size not in (None, len(value)):
        return False
    return all(isinstance(x, str) for x in value)


def _taxa_and_entries(payload, kind: str, key: str) -> tuple[list[str], list]:
    """The "taxa" names and the ``key`` list of a cover or distance file."""
    if not isinstance(payload, dict) or not isinstance(payload.get(key), list):
        raise CoverError(f'{kind} files need "taxa" and a "{key}" list')
    if not _is_names(payload.get("taxa")):
        raise CoverError(f'{kind} files need "taxa" as a list of taxon names')
    return payload["taxa"], payload[key]


# -- covers ----------------------------------------------------------------

def cover_to_json(cover: TripletCover) -> dict:
    return {
        "taxa": sorted(cover.taxa),
        "cords": [list(c) for c in sorted(cover.cords)],
    }


def cover_from_json(payload) -> TripletCover:
    """The cover in a cover file, each cord entry checked once.  The first
    faulty entry (not two names, a self-cord or a repeat) is named first,
    then the taxa are checked as :meth:`TripletCover.make` checks them, then
    the first entry that uses a taxon outside them is named."""
    taxa, raw = _taxa_and_entries(payload, "cover", "cords")
    taxon_set = frozenset(taxa)
    if len(taxon_set) != len(taxa):
        raise CoverError("duplicate taxa in cover file")
    cords: set[tuple[str, str]] = set()
    outside = None
    for pair in raw:
        if not _is_names(pair, 2):
            raise CoverError(f"bad cord entry {_quote(pair)}")
        x, y = pair
        key = cord(x, y)
        if key in cords:
            raise CoverError(f"duplicate cord [{_quote(x)}, {_quote(y)}]")
        cords.add(key)
        if outside is None and (x not in taxon_set or y not in taxon_set):
            outside = x, y
    _check_taxa(taxon_set)
    if outside is not None:
        _refuse_outside(*outside)
    return TripletCover(taxon_set, frozenset(cords))


def load_cover(path) -> TripletCover:
    return cover_from_json(read_json(path))


def save_cover(cover: TripletCover, path) -> None:
    write_json(cover_to_json(cover), path)


# -- distances ---------------------------------------------------------------

def distances_to_json(dist: PartialDistances) -> dict:
    return {
        "taxa": sorted(dist.taxa),
        "distances": [
            [x, y, str(q)] for (x, y), q in sorted(dist.values.items())
        ],
    }


def distances_from_json(payload) -> PartialDistances:
    """The distances in a distance file, each entry checked once.  The first
    entry that is not two names and a value, or is a self-cord, is named
    first; then the taxa are checked as :meth:`TripletCover.make` checks
    them; then the first entry with an unknown taxon, a repeated cord or a
    value that is not a positive rational is named."""
    taxa, entries = _taxa_and_entries(payload, "distance", "distances")
    taxon_set = frozenset(taxa)
    if len(taxon_set) != len(taxa):
        raise CoverError("duplicate taxa in distance file")
    values: dict = {}
    refused = None
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
        ):
            raise CoverError(f"bad distance entry {_quote(entry)}")
        x, y, raw = entry
        key = cord(x, y)
        if refused is None:
            try:
                if x not in taxon_set or y not in taxon_set:
                    _refuse_unknown(x, y)
                _add_distance(values, key, x, y, raw)
            except CoverError as exc:
                refused = exc
    _check_taxa(taxon_set)
    if refused is not None:
        raise refused
    return PartialDistances(taxon_set, values)


def load_distances(path) -> PartialDistances:
    return distances_from_json(read_json(path))


def save_distances(dist: PartialDistances, path) -> None:
    write_json(distances_to_json(dist), path)


# -- tree dump (debugging schema; see README) --------------------------------

def tree_to_json(tree: PhyloTree) -> dict:
    return {
        "taxa": sorted(tree.taxa),
        "vertices": tree.vertices(),
        "leaf_labels": {str(v): tree.label(v) for v in tree.leaves()},
        "edges": [
            [u, v, {"num": q.numerator, "den": q.denominator}]
            for u, v, q in tree.edges()
        ],
    }


# -- shelling witnesses --------------------------------------------------------

def shelling_to_json(steps) -> dict:
    return {
        "steps": [
            {
                "cord": list(step.cord),
                "witness": list(step.witness),
                "quartet": [list(step.quartet[0]), list(step.quartet[1])],
            }
            for step in steps
        ]
    }


def shelling_from_json(payload) -> tuple[ShellingStep, ...]:
    """The steps of a shelling witness file.  A step that is not a cord, a
    witness pair and a quartet of two pairs that share no taxon is named."""
    if not isinstance(payload, dict) or not isinstance(payload.get("steps"), list):
        raise CoverError('shelling files need a "steps" list')
    steps = []
    for entry in payload["steps"]:
        if not (
            isinstance(entry, dict)
            and _is_names(entry.get("cord"), 2)
            and _is_names(entry.get("witness"), 2)
            and isinstance(entry.get("quartet"), list)
            and len(entry["quartet"]) == 2
            and all(_is_names(pair, 2) for pair in entry["quartet"])
            and not set(entry["quartet"][0]) & set(entry["quartet"][1])
        ):
            raise CoverError(f"bad shelling step {_quote(entry)}")
        quartet = make_quartet(tuple(entry["quartet"][0]), tuple(entry["quartet"][1]))
        steps.append(
            ShellingStep(
                cord(*entry["cord"]),
                (entry["witness"][0], entry["witness"][1]),
                quartet,
            )
        )
    return tuple(steps)


def load_shelling(path) -> tuple[ShellingStep, ...]:
    return shelling_from_json(read_json(path))


# -- decompositions -------------------------------------------------------------

def decomposition_to_json(
    decomposition: TwoTreeDecomposition, strict: bool, counting: bool
) -> dict:
    return {
        "blocks": [
            {
                "vertices": sorted(block.vertices),
                "edges": [list(e) for e in sorted(block.edges)],
                "triangles": [list(t) for t in sorted(block.triangles)],
                "construction_order": [list(t) for t in block.order],
            }
            for block in decomposition.blocks
        ],
        "m": decomposition.m,
        "strict": strict,
        "counting_identity": counting,
    }


# -- fixture records ----------------------------------------------------------

def instance_record_to_json(record: InstanceRecord) -> dict:
    return {
        "newick": write_newick(record.tree),
        "cover": cover_to_json(record.cover),
        "flags": record.flags,
        "provenance": record.provenance,
    }


def save_instance_record(record: InstanceRecord, path) -> None:
    write_json(instance_record_to_json(record), path)


def load_instance_record(path) -> InstanceRecord:
    """Fixture flags are recomputed on load, never trusted from storage."""
    payload = read_json(path)
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("newick"), str)
        and isinstance(payload.get("cover"), dict)
        and isinstance(payload.get("provenance", {}), dict)
    ):
        raise CoverError(
            'fixture records need a "newick" string, a "cover" object '
            'and an optional "provenance" object'
        )
    tree = parse_newick(payload["newick"])
    cover = cover_from_json(payload["cover"])
    return InstanceRecord(
        tree, cover, basic_flags(tree, cover), payload.get("provenance", {})
    )
