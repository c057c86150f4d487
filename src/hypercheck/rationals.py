"""Exact rational arithmetic helpers.

All algebraic predicates in this package are sign conditions, so every
computation that feeds a verdict runs on exact rationals.  gmpy2.mpq is
used when available (it is an order of magnitude faster than
fractions.Fraction); the stdlib Fraction is a drop-in fallback.
simplest_between, which turns isolating intervals back into exact
rational roots, walks the continued fraction of its interval on integer
numerators and denominators.
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


def proportional(xs, ys) -> bool:
    """True iff xs and ys are nonzero at the same places, with one ratio."""
    if any((x == 0) != (y == 0) for x, y in zip(xs, ys)):
        return False
    return len({x / y for x, y in zip(xs, ys) if x != 0}) <= 1


def qsign(q) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def simplest_between(lo, hi) -> Q:
    """The rational with smallest denominator in the closed interval [lo, hi].

    Ties on denominator are broken by smallest |numerator|.  Used to
    reconstruct exact rational roots from shrinking isolating intervals.
    Found by one continued-fraction walk on integer numerators and
    denominators (_simplest_pos); the result is built as Q once.  The
    benchmark's tracer (hcbench/tracing.py) wraps this function by name,
    so removing or renaming it makes every traced benchmark run fail.
    """
    lo, hi = Q(lo), Q(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return QZERO
    if hi < 0:
        num, den = _simplest_pos(
            -hi.numerator, hi.denominator, -lo.numerator, lo.denominator
        )
        return Q(-num, den)
    return Q(*_simplest_pos(lo.numerator, lo.denominator, hi.numerator, hi.denominator))


def _simplest_pos(ln, ld, hn, hd):
    """(num, den) of the simplest rational in [ln/ld, hn/hd], 0 < lo <= hi:
    while no integer lies in [lo, hi], the answer is f + 1/x with
    f = floor(lo) and x the simplest rational in [1/(hi - f), 1/(lo - f)];
    the first interval holding an integer ends the walk with its smallest
    one, and folding the continued fraction back gives num/den in lowest
    terms."""
    quotients = []
    while True:
        f, r = divmod(ln, ld)
        if r == 0 or (f + 1) * hd <= hn:
            num, den = (f if r == 0 else f + 1), 1
            break
        quotients.append(f)
        ln, ld, hn, hd = hd, hn - f * hd, ld, r
    for f in reversed(quotients):
        num, den = f * num + den, num
    return num, den
