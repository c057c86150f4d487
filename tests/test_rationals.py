import sys
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercheck.errors import InvalidInput
from hypercheck.rationals import (
    Q,
    format_rational,
    parse_rational,
    qsign,
    simplest_between,
    to_q,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
).map(lambda f: Q(f.numerator, f.denominator))


def test_parse_format_round_trip():
    for text in ["1/2", "-3/4", "7", "0", "-0", "6/4"]:
        q = parse_rational(text)
        assert parse_rational(format_rational(q)) == q


def test_format_is_canonical():
    assert format_rational(Q(6, 4)) == "3/2"
    assert format_rational(Q(1, -2)) == "-1/2"
    assert format_rational(0) == "0/1"


def test_format_is_exact_past_the_int_to_str_digit_limit():
    """str() refuses integers of more than 4,300 digits; format_rational
    prints every digit, and changes no interpreter-wide setting."""
    limit = sys.get_int_max_str_digits()
    assert format_rational(Q(-(10**6000) - 7, 3)) == "-1" + "0" * 5999 + "7/3"
    assert format_rational(Q(3, 10**5000)) == "3/1" + "0" * 5000
    assert sys.get_int_max_str_digits() == limit


def test_parse_rejects_garbage():
    for text in ["", "x", "1/0", "1.5", "1/2/3"]:
        with pytest.raises(InvalidInput):
            parse_rational(text)


def test_to_q_accepts_ints_strings_and_fractions():
    from fractions import Fraction

    assert to_q(3) == Q(3)
    assert to_q("3/9") == Q(1, 3)
    assert to_q(Fraction(2, 6)) == Q(1, 3)


def test_helpers():
    assert qsign(Q(-2, 3)) == -1 and qsign(Q(0)) == 0 and qsign(Q(5)) == 1


def test_simplest_between_examples():
    assert simplest_between(Q(1, 3), Q(1, 2)) == Q(1, 2)
    assert simplest_between(Q(-1, 3), Q(1, 7)) == 0
    assert simplest_between(Q(31, 10), Q(16, 5)) == Q(16, 5)
    assert simplest_between(Q(2, 7), Q(2, 7)) == Q(2, 7)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_simplest_between_is_in_interval_and_minimal(a, b):
    lo, hi = min(a, b), max(a, b)
    best = simplest_between(lo, hi)
    assert lo <= best <= hi
    # no rational with a smaller denominator fits in [lo, hi]
    den = int(best.denominator)
    for smaller in range(1, min(den, 50)):
        first = ceil(lo * smaller)
        assert first > hi * smaller


# -- the integer continued-fraction walk against the Fraction recursion -------


def _fraction_simplest_between(lo, hi):
    """Reference: simplest_between as it was, recursing on Fractions."""
    lo, hi = Q(lo), Q(hi)
    if lo <= 0 <= hi:
        return Q(0)
    if hi < 0:
        return -_fraction_simplest_pos(-hi, -lo)
    return _fraction_simplest_pos(lo, hi)


def _fraction_simplest_pos(lo, hi):
    f = floor(lo)
    if f + 1 <= hi:
        return Q(f if f >= lo else f + 1)
    if lo - f == 0:
        return Q(f)
    return f + 1 / _fraction_simplest_pos(1 / (hi - f), 1 / (lo - f))


# endpoints of both signs with denominators up to 10^12, and integers and 0
# with a small offset on either side, so that intervals contain or just
# miss an integer or 0; lo == hi when both draws agree
endpoint = st.one_of(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**12),
    st.tuples(
        st.integers(-20, 20), st.sampled_from([0, 1, -1]), st.integers(1, 10**9)
    ).map(lambda t: t[0] + Q(t[1], t[2])),
).map(lambda f: Q(f.numerator, f.denominator))


@settings(max_examples=500, deadline=None)
@given(endpoint, st.one_of(endpoint, st.just(None)))
def test_simplest_between_matches_fraction_reference(a, b):
    lo, hi = (a, a) if b is None else (min(a, b), max(a, b))
    assert simplest_between(lo, hi) == _fraction_simplest_between(lo, hi)
    assert simplest_between(-hi, -lo) == -_fraction_simplest_between(lo, hi)
