"""Exact rational arithmetic helpers.

All algebraic predicates in this package are sign conditions, so every
computation that feeds a verdict runs on exact rationals: Q is the
standard library's fractions.Fraction.  simplest_ratio, which turns
isolating intervals back into exact rational roots and snaps witnesses,
walks the continued fraction of an interval on integer endpoints.  Record
and FrozenRecord are the base of the package's value records (verdicts,
reports, certificates, points).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction as Q

from .errors import InvalidInput

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
    """Canonical "num/den" string with den > 0 and gcd(num, den) = 1, exact
    at any size: decimal prints integers past the int-to-str digit limit."""
    q = to_q(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


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

    Ties on denominator are broken by smallest |numerator|.  Found by
    simplest_ratio's continued-fraction walk on integer numerators and
    denominators; the result is built as Q once.  The benchmark's tracer
    (hcbench/tracing.py) wraps this function by name, so removing or
    renaming it makes every traced benchmark run fail.
    """
    lo, hi = Q(lo), Q(hi)
    if lo > hi:
        raise ValueError("empty interval")
    return Q(*simplest_ratio(lo.numerator, lo.denominator, hi.numerator, hi.denominator))


def simplest_ratio(ln, ld, hn, hd):
    """(num, den) of the simplest rational in [ln/ld, hn/hd], lo <= hi and
    ld, hd > 0, on integers (for callers that hold their endpoints so): 0
    when the interval holds it, minus the answer for [-hi, -lo] when hi < 0,
    and otherwise, while no integer lies in [lo, hi], f + 1/x with
    f = floor(lo) and x the simplest rational in [1/(hi - f), 1/(lo - f)];
    the first interval holding an integer ends the walk with its smallest
    one, and folding the continued fraction back gives num/den in lowest
    terms."""
    if ln <= 0 <= hn:
        return 0, 1
    if hn < 0:
        num, den = simplest_ratio(-hn, hd, -ln, ld)
        return -num, den
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


# -- value records ---------------------------------------------------------


class Record:
    """A value record: a subclass names its fields in __slots__, in
    constructor order, and its __init__ checks them and stores them with
    _init.  Records compare by value, print as Name(field=value, ...),
    copy with replace(), which re-runs __init__ and so its checks, and
    are unhashable.  Being plain classes, they load no module at import
    (tests/test_cli.py checks that the CLI starts without `inspect`)."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with the given fields changed."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return self.__class__(**values)


class FrozenRecord(Record):
    """A Record whose fields cannot be reassigned after __init__, and
    which hashes by value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
