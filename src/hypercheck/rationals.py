"""Exact rational arithmetic helpers.

All algebraic predicates in this package are sign conditions, so every
computation that feeds a verdict runs on exact rationals.  gmpy2.mpq is
used when available (it is an order of magnitude faster than
fractions.Fraction); the stdlib Fraction is a drop-in fallback.
"""

from __future__ import annotations

from .errors import InvalidInput

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


def to_q(value) -> Q:
    """Coerce an int, string "num/den" or rational-like value to Q."""
    if type(value) is Q:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Q(value) if isinstance(value, int) else Q(value.numerator, value.denominator)


def parse_rational(text: str) -> Q:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            num, den = int(num), int(den)
            if den == 0:
                raise ValueError("zero denominator")
            return Q(num, den)
        return Q(int(text))
    except ValueError as exc:
        raise InvalidInput(f"not a rational: {text!r}") from exc


def format_rational(q) -> str:
    """Canonical "num/den" string with den > 0 and gcd(num, den) = 1."""
    q = to_q(q)
    return f"{q.numerator}/{q.denominator}"


def qsign(q) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def qfloor(q) -> int:
    return q.numerator // q.denominator


def qabs(q):
    return -q if q < 0 else q


def simplest_between(lo, hi) -> Q:
    """The rational with smallest denominator in the closed interval [lo, hi].

    Ties on denominator are broken by smallest |numerator|.  Used to
    reconstruct exact rational roots from shrinking isolating intervals.
    """
    lo, hi = Q(lo), Q(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return QZERO
    if hi < 0:
        return -_simplest_pos(-hi, -lo)
    return _simplest_pos(lo, hi)


def _simplest_pos(lo, hi):
    # 0 < lo <= hi
    f = qfloor(lo)
    if f + 1 <= hi:
        # an integer lies in [lo, hi]; smallest one wins
        return Q(f if f >= lo else f + 1)
    frac_lo = lo - f
    if frac_lo == 0:
        return Q(f)
    return f + 1 / _simplest_pos(1 / (hi - f), 1 / frac_lo)
