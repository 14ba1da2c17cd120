"""The canonical JSON writer against ``json.dumps(indent=2, sort_keys=True)``,
whose pure-Python encoder it replaces: the same text for every JSON value
with string keys, and ``TypeError`` for floats and what JSON cannot hold."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover.jsonio import dumps_canonical

TRICKY_STRINGS = [
    "", "\x00", "\x1f", "\x7f", '"\\/', " ", "\ud800", "é", "😀", "a b"
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.text()
    | st.sampled_from(TRICKY_STRINGS)
)
keys = st.text(max_size=6) | st.sampled_from(TRICKY_STRINGS)
json_values = st.recursive(
    scalars,
    lambda kids: (
        st.lists(kids, max_size=5)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(keys, kids, max_size=5)
    ),
    max_leaves=40,
)


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(value):
    assert dumps_canonical(value) == reference(value)


def nested(depth, leaf, wrap):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


@pytest.mark.parametrize(
    "value",
    [
        [], {}, [[]], {"": {}}, (), ((),), [None, True, False, 0, -0, 1],
        nested(200, 7, lambda v: [v]),
        nested(200, "x", lambda v: {"k": v, "a": [v] if isinstance(v, str) else []}),
        nested(100, None, lambda v: [1, {"z": v, "y": ()}]),
        {"b": 1, "a": 2, "B": 3, "é": 4, "": 5, "a\x00": 6},
        [10**4000, -(10**4000), 2**64],
    ],
    ids=[
        "empty-list", "empty-dict", "list-of-empty", "dict-of-empty", "empty-tuple",
        "tuple-of-empty", "constants", "deep-list", "deep-dict", "deep-mixed",
        "key-order", "big-ints",
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(value):
    assert dumps_canonical(value) == reference(value)


def test_int_too_long_for_str_fails_as_json_fails():
    # int.__repr__ refuses more than 4,300 digits in both writers.
    value = {"n": [10**5000]}
    with pytest.raises(ValueError) as ours:
        dumps_canonical(value)
    with pytest.raises(ValueError) as theirs:
        reference(value)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("value", [0.5, [1, 2.0], {"a": {"b": float("nan")}}])
def test_floats_are_refused(value):
    with pytest.raises(TypeError, match="floats are not written"):
        dumps_canonical(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{(1, 2): 3}]])
def test_keys_must_be_strings(value):
    with pytest.raises(TypeError, match="keys must be str"):
        dumps_canonical(value)


@pytest.mark.parametrize("value", [{1, 2}, [Path("x")], {"a": b"bytes"}, object()])
def test_other_objects_fail_as_json_fails(value):
    with pytest.raises(TypeError) as ours:
        dumps_canonical(value)
    with pytest.raises(TypeError) as theirs:
        reference(value)
    assert str(ours.value) == str(theirs.value)
