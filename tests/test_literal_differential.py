"""The rational literal reader against ``Fraction(str)``, on both grammars
that use it: ``exact_rational``'s strings and Newick branch lengths.  Each
literal gives the same value, or the same exception type and text."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distances_reference import exact_rational as reference_rational
from tricover import CoverError, NewickError, parse_newick
from tricover.tree import _RATIONAL, _literal_value, _quote, exact_rational

DIGIT_LIMIT = 4300  # int() reads at most this many digits from a string

# Digit runs: short ones, ones with leading zeros, zeros alone, and runs
# around int()'s limit.
digits = (
    st.text("0123456789", min_size=1, max_size=12)
    | st.builds(lambda z, d: "0" * z + d, st.integers(1, 6),
                st.text("0123456789", min_size=1, max_size=4))
    | st.sampled_from(["0", "00", "1", "10"])
    | st.builds(lambda k, d: d * k, st.integers(DIGIT_LIMIT - 2, DIGIT_LIMIT + 3),
                st.sampled_from("0179"))
)

newick_literals = st.builds(
    lambda num, tail: num + tail,
    digits,
    st.just("") | digits.map(lambda d: "/" + d) | digits.map(lambda d: "." + d),
)
rational_literals = st.builds(
    lambda sign, num, tail: sign + num + tail,
    st.sampled_from(["", "+", "-"]),
    st.just("") | digits,
    st.just("") | st.just(".") | digits.map(lambda d: "/" + d)
    | digits.map(lambda d: "." + d),
)
# Near-literals: the grammar's characters and a few it refuses.
near_literals = st.text("+-0123456789./e_ E", max_size=8)


def fraction_outcome(text):
    try:
        return "value", Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def reader_outcome(num, den, dec, negative=False):
    try:
        return "value", _literal_value(num, den, dec, negative)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def rational_outcome(read, text):
    try:
        return "value", read(text)
    except CoverError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(rational_literals | near_literals)
def test_exact_rational_strings_read_as_fraction_reads_them(text):
    match = _RATIONAL.fullmatch(text)
    if match:
        sign, num, den, dec = match.groups()
        assert reader_outcome(num, den, dec, sign == "-") == fraction_outcome(text)
    ours = rational_outcome(lambda t: exact_rational(t, CoverError), text)
    assert ours == rational_outcome(reference_rational, text)
    if ours[0] == "value":
        assert type(ours[1]) is Fraction


def newick_outcome(literal):
    text = f"(a:{literal},b:1,c:1);"
    try:
        tree = parse_newick(text)
    except NewickError as exc:
        return "error", str(exc)
    (length,) = [q for u, v, q in tree.edges() if tree.leaf("a") in (u, v)]
    return "value", length


def expected_newick_outcome(literal):
    """The length, or the error, that the parser built on ``Fraction(literal)``
    gave; the literal starts at position 3."""
    kind, value = fraction_outcome(literal)
    if kind == "ZeroDivisionError":
        message = f"zero denominator in length literal {_quote(literal)}"
    elif kind == "ValueError":
        message = f"unreadable branch length: {value}"
    elif value <= 0:
        message = f"non-positive branch length {_quote(literal)}"
    else:
        return "value", value
    return "error", f"{message} (at position 3)"


@settings(max_examples=300, deadline=None)
@given(newick_literals)
def test_newick_lengths_read_as_fraction_reads_them(literal):
    assert newick_outcome(literal) == expected_newick_outcome(literal)


EDGE_CASES = [
    "0", "-0", "+0", "007", "-007/0014", "1/0", "-1/0", "+0/0", "0/5", "00.00",
    "5.", "-5.", ".5", "-.5", "+.050", "3/4", "-3/4", "1.25",
    "9" * (DIGIT_LIMIT + 1), "1/" + "9" * (DIGIT_LIMIT + 1),
    "9" * (DIGIT_LIMIT + 1) + "/0", "1." + "9" * (DIGIT_LIMIT + 1),
    "9" * (DIGIT_LIMIT + 1) + ".5", "-" + "0" * (DIGIT_LIMIT + 1),
    "0." + "0" * DIGIT_LIMIT + "1",
]


@pytest.mark.parametrize(
    "text", EDGE_CASES, ids=lambda t: t if len(t) < 20 else f"{t[:8]}..{len(t)}"
)
def test_edge_cases_read_as_fraction_reads_them(text):
    sign, num, den, dec = _RATIONAL.fullmatch(text).groups()
    assert reader_outcome(num, den, dec, sign == "-") == fraction_outcome(text)
    assert rational_outcome(
        lambda t: exact_rational(t, CoverError), text
    ) == rational_outcome(reference_rational, text)
    if sign == "" and not text.startswith(".") and not text.endswith("."):
        assert newick_outcome(text) == expected_newick_outcome(text)
