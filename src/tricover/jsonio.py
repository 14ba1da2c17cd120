"""File formats: covers, distances, tree dumps, witnesses, fixture records.

All numeric values are rational strings ("7/2", "3"), never floats.  JSON is
written with sorted keys, two-space indentation and a trailing newline, so
identical data produces byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .covers import TripletCover, cord
from .covergraph import TwoTreeDecomposition
from .errors import CoverError
from .lab import InstanceRecord, basic_flags
from .newick import parse_newick, write_newick
from .reconstruct import PartialDistances
from .shelling import ShellingStep
from .tree import PhyloTree, make_quartet


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def dumps_canonical(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(payload, path) -> None:
    Path(path).write_text(dumps_canonical(payload), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- covers ----------------------------------------------------------------

def cover_to_json(cover: TripletCover) -> dict:
    return {
        "taxa": sorted(cover.taxa),
        "cords": [list(c) for c in sorted(cover.cords)],
    }


def cover_from_json(payload) -> TripletCover:
    if not isinstance(payload, dict) or "taxa" not in payload or "cords" not in payload:
        raise CoverError('cover files need "taxa" and "cords" keys')
    taxa = payload["taxa"]
    if len(set(taxa)) != len(taxa):
        raise CoverError("duplicate taxa in cover file")
    raw = payload["cords"]
    seen = set()
    for pair in raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise CoverError(f"bad cord entry {pair!r}")
        key = cord(pair[0], pair[1])
        if key in seen:
            raise CoverError(f"duplicate cord {pair}")
        seen.add(key)
    return TripletCover.make(taxa, [tuple(pair) for pair in raw])


def load_cover(path) -> TripletCover:
    return cover_from_json(read_json(path))


def save_cover(cover: TripletCover, path) -> None:
    write_json(cover_to_json(cover), path)


# -- distances ---------------------------------------------------------------

def distances_to_json(dist: PartialDistances) -> dict:
    return {
        "taxa": sorted(dist.taxa),
        "distances": [
            [x, y, format_rational(q)] for (x, y), q in sorted(dist.values.items())
        ],
    }


def distances_from_json(payload) -> PartialDistances:
    if (
        not isinstance(payload, dict)
        or "taxa" not in payload
        or "distances" not in payload
    ):
        raise CoverError('distance files need "taxa" and "distances" keys')
    items = {}
    for entry in payload["distances"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise CoverError(f"bad distance entry {entry!r}")
        x, y, value = entry
        key = cord(x, y)
        if key in items:
            raise CoverError(f"duplicate distance for {x},{y}")
        items[key] = value
    return PartialDistances.make(payload["taxa"], items)


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


def save_tree_json(tree: PhyloTree, path) -> None:
    write_json(tree_to_json(tree), path)


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
    if not isinstance(payload, dict) or "steps" not in payload:
        raise CoverError('shelling files need a "steps" key')
    steps = []
    for entry in payload["steps"]:
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


def save_shelling(steps, path) -> None:
    write_json(shelling_to_json(steps), path)


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
    tree = parse_newick(payload["newick"])
    cover = cover_from_json(payload["cover"])
    return InstanceRecord(
        tree, cover, basic_flags(tree, cover), payload.get("provenance", {})
    )
