"""The distance-file loader as it stood before the one-pass loader: a shape
and self-cord pass over the entries, then ``PartialDistances.make`` on them,
each value read by ``Fraction(str)`` behind the literal grammar.  Kept as
the reference that ``tests/test_loader_fuzz.py`` compares
``jsonio.distances_from_json`` with; it accepts the duplicate taxa, bad
labels and taxon counts below 3 that the loader now refuses.
"""

from __future__ import annotations

import re
from fractions import Fraction

from tricover.covers import cord
from tricover.errors import CoverError
from tricover.tree import _brief, _quote

_RATIONAL = re.compile(r"[+-]?([0-9]+(/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def exact_rational(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise CoverError(f"floats are not accepted, write {value!r} as a string")
    if isinstance(value, bool):
        raise CoverError(f"booleans are not numbers, got {value!r}")
    if isinstance(value, str):
        if "e" in value.lower():
            raise CoverError(
                f"bad rational {_quote(value)}: exponents are not accepted"
            )
        if not _RATIONAL.fullmatch(value):
            raise CoverError(
                f"bad rational {_quote(value)}: write an integer, p/q or a decimal"
            )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise CoverError(f"bad rational {_quote(value)}: {exc}") from None


def _is_names(value, size=None) -> bool:
    if not isinstance(value, list) or size not in (None, len(value)):
        return False
    return all(isinstance(x, str) for x in value)


def distances_from_json(payload) -> tuple[frozenset, dict]:
    """The taxon set and the cord values of a distance payload."""
    if not isinstance(payload, dict) or not isinstance(payload.get("distances"), list):
        raise CoverError('distance files need "taxa" and a "distances" list')
    if not _is_names(payload.get("taxa")):
        raise CoverError('distance files need "taxa" as a list of taxon names')
    taxa, entries = payload["taxa"], payload["distances"]
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and _is_names(entry[:2])):
            raise CoverError(f"bad distance entry {_quote(entry)}")
        cord(entry[0], entry[1])
    taxon_set = frozenset(taxa)
    values = {}
    for x, y, raw in entries:
        if x not in taxon_set or y not in taxon_set:
            raise CoverError(
                f"distance for {_brief(x)},{_brief(y)} uses an unknown taxon"
            )
        key = cord(x, y)
        if key in values:
            raise CoverError(f"duplicate distance for {_brief(x)},{_brief(y)}")
        value = exact_rational(raw)
        if value <= 0:
            raise CoverError(
                f"distance for {_brief(x)},{_brief(y)} must be positive, "
                f"got {_brief(str(raw))}"
            )
        values[key] = value
    return taxon_set, values
