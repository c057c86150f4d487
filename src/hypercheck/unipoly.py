"""Exact univariate polynomial arithmetic and real-root machinery.

A UniPoly is one tuple of integer numerators over one positive common
denominator, in lowest terms (gcd(den, *nums) = 1), so that equal
polynomials have equal representations.  Arithmetic runs on these
integers; the rational coefficients (.coeffs) are built only where a
caller reads them.

Polynomials carry an *ambient degree* n on top of their coefficient
vector: a polynomial of lower actual degree is treated as a limit with
"roots at infinity" (degree drop), which is what makes diagonal maps on
R[t]_n well behaved under continuity.

Questions about real roots are answered by counting wherever the answer
is a count: Yun square-free decomposition, then the sign variations of a
Sturm sequence of each square-free factor at -infinity, 0 and +infinity,
read off leading and constant coefficients (root_counts).  Interlacing is
decided by one Cauchy index, from the variations at +-infinity of a
signed remainder sequence (interlaces).  Roots are isolated by bisection,
and rational roots recovered exactly by a simplest-rational
reconstruction, only where a root value is output (root_profile).  Each
Yun factor's Sturm chain is built once (_yun_chains) and shared by
counting and isolation.

All of these run on UniPoly.primitive, the integer list of a positive
multiple of the polynomial: Sturm chains, gcds (the last term of a
signed remainder sequence) and Yun decompositions by pseudo-remainders
(Basu-Pollack-Roy, ch. 8) and exact integer division, values at
rational points by integer Horner (_horner).  An isolating interval is
integers a < c over one denominator, with the values at both ends;
isolation bisects it over L 2^depth for the Cauchy bound B / L, and
RealRoot refines it by quadratic interval refinement (Abbott 2006;
Kerber and Sagraloff 2011): the secant through the ends guesses which of
the 2^b cells of depth b holds the root, and the signs at that cell's
ends check the guess.  Success doubles b and failure halves it, so k
steps cost O(log k) evaluations once the secant is close.  As the
interval holds one simple root, a checked cell is the one that b
bisection steps reach, and a grid point that is the root is one that
bisection hits: the output is that of bisection.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import zip_longest
from math import ceil, gcd, lcm

from .errors import DegreeMismatch, DegreeTooLow, NotRealRooted, ZeroPolynomial
from .rationals import Q, QONE, QZERO, FrozenRecord, Record, simplest_ratio, to_q


def _fit(nums, ambient):
    """nums cut or zero-padded to ambient + 1 entries (at least one)."""
    if ambient is None:
        return tuple(nums) or (0,)
    if any(nums[ambient + 1 :]):
        raise DegreeMismatch(f"coefficients exceed ambient degree {ambient}")
    return tuple(nums[: ambient + 1]) + (0,) * (ambient + 1 - len(nums))


class UniPoly:
    """Dense exact-rational polynomial nums / den (ascending) with a
    declared ambient degree len(nums) - 1."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs, ambient=None):
        coeffs = [c if type(c) is int else to_q(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))  # canonical for Q entries
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        self.nums, self.den = _fit(nums, ambient), den

    @staticmethod
    def from_ints(nums, den=1) -> "UniPoly":
        """nums / den for integers nums and den != 0, in lowest terms, at
        ambient degree len(nums) - 1."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        p = object.__new__(UniPoly)
        p.nums = tuple(nums) if g == 1 else tuple(c // g for c in nums)
        p.den = den // g
        return p

    @property
    def coeffs(self) -> tuple:
        """The coefficients as rationals, ascending."""
        return tuple(Q(c, self.den) for c in self.nums)

    def primitive(self) -> list:
        """The trimmed integer coefficients of the positive multiple of p
        with content 1."""
        return _primitive(self.nums[: max(self.degree(), 0) + 1])

    # -- basic structure -------------------------------------------------
    @property
    def ambient_degree(self) -> int:
        return len(self.nums) - 1

    def degree(self) -> int:
        """Actual degree; -1 for the zero polynomial."""
        nums = self.nums
        for j in range(len(nums) - 1, -1, -1):
            if nums[j]:
                return j
        return -1

    def is_zero(self) -> bool:
        return not any(self.nums)

    def degree_drop(self) -> int:
        return self.ambient_degree - max(self.degree(), 0)

    def leading(self):
        d = self.degree()
        if d < 0:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Q(self.nums[d], self.den)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        den = lcm(self.den, other.den)
        short, long = sorted((self, other), key=lambda p: len(p.nums))
        out = [c * (den // long.den) for c in long.nums]
        for j, c in enumerate(short.nums):
            out[j] += c * (den // short.den)
        return UniPoly.from_ints(out, den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = to_q(other)
            nums = [v * c.numerator for v in self.nums]
            return UniPoly.from_ints(nums, self.den * c.denominator)
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return UniPoly.from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def __neg__(self):
        return UniPoly.from_ints([-c for c in self.nums], self.den)

    def trimmed(self) -> "UniPoly":
        """Drop the degree slack: ambient degree = actual degree."""
        return UniPoly.from_ints(self.nums[: max(self.degree(), 0) + 1], self.den)

    def evaluate(self, x):
        """p(a/b) = _horner(nums, a, b) / (den b^m), m the ambient degree."""
        x = to_q(x)
        m, b = self.ambient_degree, x.denominator
        return Q(_horner(self.nums, x.numerator, b), self.den * b**m)

    def derivative(self) -> "UniPoly":
        nums = [j * c for j, c in enumerate(self.nums)][1:] or [0]
        return UniPoly.from_ints(nums, self.den)

    def shift(self, c) -> "UniPoly":
        """Compose with the translation t -> t + c, exactly: for c = a/b,
        b^m p(t + a/b) = sum_j nums_j (b t + a)^j b^(m-j) / den, expanded
        by Horner's rule on integers."""
        c = to_q(c)
        a, b = c.numerator, c.denominator
        out = [0] * len(self.nums)
        scale = 1
        for coeff in reversed(self.nums):
            # out <- out * (b t + a) + coeff * b^(m-j)
            for j in range(len(out) - 1, 0, -1):
                out[j] = out[j - 1] * b + out[j] * a
            out[0] = out[0] * a + coeff * scale
            scale *= b
        return UniPoly.from_ints(out, self.den * (scale // b))

    def valuation(self) -> int:
        """Multiplicity of the root at 0 (ambient degree for the zero poly)."""
        return next((j for j, c in enumerate(self.nums) if c), self.ambient_degree)

    @staticmethod
    def from_roots(roots, ambient=None, lead=1) -> "UniPoly":
        """lead * prod(t - r_i), expanded on integers: with L a common
        denominator of the roots and lead, lead*L*prod(s - L*r_i) is an
        integer polynomial sum c_j s^j, and at s = L*t it is
        sum c_j L^j t^j / L^(k+1) for k roots."""
        roots = [to_q(r) for r in roots]
        lead = to_q(lead)
        den = lcm(lead.denominator, *(r.denominator for r in roots))
        c = [lead.numerator * (den // lead.denominator)]
        for r in roots:
            root = r.numerator * (den // r.denominator)
            c = [0] + c
            for j in range(len(c) - 1):
                c[j] -= root * c[j + 1]
        nums = _fit([cj * den**j for j, cj in enumerate(c)], ambient)
        return UniPoly.from_ints(nums, den ** len(c))


def _primitive(ints):
    """An integer list divided by the gcd of its entries (sign kept)."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else list(ints)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """GCD over Q, trimmed, primitive, with positive leading coefficient."""
    return UniPoly.from_ints(_int_gcd(a.primitive(), b.primitive()))


def _int_gcd(a, b):
    """Primitive gcd, leading coefficient >= 0, of trimmed integer lists:
    the last term of their signed remainder sequence."""
    g = _primitive(signed_remainder_sequence(a, b)[-1])
    return g if g[-1] >= 0 else [-c for c in g]


def _int_quo(a, b):
    """a / b for integer lists where b divides a: integral when b is
    primitive (Gauss's lemma), so every leading division is exact."""
    r, quo = list(a), []
    for j in range(len(a) - len(b), -1, -1):
        q = r[j + len(b) - 1] // b[-1]
        quo.append(q)
        for i, c in enumerate(b):
            r[j + i] -= q * c
    return quo[::-1] or [0]


def _int_derivative(a):
    return [j * a[j] for j in range(1, len(a))] or [0]


def squarefree_part(p: UniPoly) -> UniPoly:
    """A positive multiple of p / gcd(p, p') for a nonzero p, trimmed."""
    a = p.primitive()
    return UniPoly.from_ints(_int_quo(a, _int_gcd(a, _int_derivative(a))))


def _yun_chains(a):
    """(Sturm chain, multiplicity) for each Yun factor of a primitive
    trimmed integer list a, each chain starting with its factor.  a's own
    chain ends in gcd(a, a') up to sign: if that is a constant, a is square
    free and its chain is the one part."""
    chain = _sturm(a)
    if len(chain[-1]) == 1:
        return [(chain, 1)]
    return [(_sturm(f), i) for f, i in _yun(a, chain[-1])]


def _yun(a, g):
    """Yun's decomposition of a primitive integer list a as (primitive
    factor, multiplicity) pairs, given g = gcd(a, a') of positive degree up
    to sign (the last term of a's Sturm chain); w, y and z share one scale."""
    out = []
    w, y = _int_quo(a, g), _int_quo(_int_derivative(a), g)
    i = 1
    while len(w) > 1:
        dw = _int_derivative(w)
        z = _int_trim([c - d for c, d in zip_longest(y, dw, fillvalue=0)])
        f = _int_gcd(w, z)
        if len(f) > 1:
            out.append((f, i))
        w, y = _int_quo(w, f), _int_quo(z, f)
        i += 1
    return out


# -- Sturm machinery ---------------------------------------------------


def signed_remainder_sequence(a, b):
    """a, b, -rem(a, b), ... to the last nonzero term (just a if b = 0), for
    primitive trimmed int lists, each term as its primitive positive multiple.
    prem(a, b) = lc(b)^(da-db+1) rem(a, b) (a itself if da < db): its sign
    is flipped back when that power is negative, its content divided out."""
    chain = [a, b] if any(b) else [a]
    while len(b) > 1:
        r = _prem(a, b)
        if r == [0]:
            break
        g = gcd(*r)
        if len(a) >= len(b) and b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
            g = -g
        a, b = b, [-c // g for c in r]
        chain.append(b)
    return chain


def sturm_chain(p: UniPoly):
    """Sturm sequence of a square-free polynomial, primitively normalized."""
    return _sturm(p.primitive())


def _sturm(a):
    return signed_remainder_sequence(a, _primitive(_int_derivative(a)))


def _horner(ints, num, den) -> int:
    """den^m * p(num/den) for the integer polynomial `ints` (ascending) of
    formal degree m, den > 0 and num/den not necessarily in lowest terms,
    by integer Horner with the powers of den accumulated on the way."""
    acc, scale = ints[-1], den
    for c in reversed(ints[:-1]):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _variations(values):
    """Sign changes along a sequence of numbers, zeros skipped."""
    count, prev = 0, 0
    for v in values:
        if v:
            if prev and (v > 0) != (prev > 0):
                count += 1
            prev = v
    return count


def sturm_variations_at_inf(chain, positive: bool) -> int:
    """Variations of the leading signs, flipped at -infinity for odd degree."""
    return _variations([q[-1] if positive or len(q) % 2 else -q[-1] for q in chain])


def count_roots_halfopen(chain, a, b) -> int:
    """Number of distinct real roots in (a, b] of the chain's polynomial."""
    va, vb = ([_horner(q, x.numerator, x.denominator) for q in chain] for x in (a, b))
    return _variations(va) - _variations(vb)


def cauchy_bound(p: UniPoly):
    """1 + max |c_j| / |lead| over the lower coefficients."""
    d = p.degree()
    lead = abs(p.nums[d])
    return Q(lead + max((abs(c) for c in p.nums[:d]), default=0), lead)


class RealRoot:
    """One real algebraic number: a square-free defining polynomial plus
    either an exact rational value or an open isolating interval with a
    sign change and non-root endpoints: integers a < c over one den > 0
    (lo = a/den, hi = c/den), with fa = den^m p(a/den) and fc likewise, p
    the primitive integer list `ints` of poly, of degree m.  `_b`, the step
    of quadratic interval refinement, is carried from call to call."""

    __slots__ = ("poly", "exact", "_ints", "_a", "_c", "_den", "_fa", "_fc", "_b")

    def __init__(self, poly, lo=None, hi=None, exact=None):
        self.poly, self.exact, self._den = poly, exact, None
        if lo is not None:
            den, ints = lcm(lo.denominator, hi.denominator), poly.primitive()
            a = lo.numerator * (den // lo.denominator)
            c = hi.numerator * (den // hi.denominator)
            self._hold(ints, a, c, den, _horner(ints, a, den), _horner(ints, c, den))

    def _hold(self, ints, a, c, den, fa, fc, b=1) -> "RealRoot":
        self._ints, self._a, self._c, self._den = ints, a, c, den
        self._fa, self._fc, self._b = fa, fc, b
        return self

    @property
    def lo(self):
        return None if self._den is None else Q(self._a, self._den)

    @property
    def hi(self):
        return None if self._den is None else Q(self._c, self._den)

    @staticmethod
    def from_rational(value) -> "RealRoot":
        value = to_q(value)
        return RealRoot(UniPoly([-value, 1]), exact=value)

    def is_exact(self) -> bool:
        return self.exact is not None

    def interval(self):
        return (self.lo, self.hi) if self.exact is None else (self.exact, self.exact)

    def refine(self):
        """One bisection step; may discover an exact rational value."""
        self._bisect(1)

    def refine_below(self, width):
        """Bisect until the width is at most `width`: each step halves it
        exactly, so the number of steps is known in advance."""
        if self.exact is None:
            # the least k >= 0 with (hi - lo) / 2^k <= width
            self._bisect((ceil((self.hi - self.lo) / width) - 1).bit_length())

    def _copy(self) -> "RealRoot":
        """An independent copy of a root that is not exact, step b included."""
        held = (self._ints, self._a, self._c, self._den, self._fa, self._fc, self._b)
        return RealRoot(self.poly)._hold(*held)

    def try_rational(self, extra_bits: int = 24) -> bool:
        """Attempt exact reconstruction of a rational root after
        extra_bits bisection steps (each halves the width exactly)."""
        self._bisect(extra_bits)
        if self.exact is not None:
            return True
        num, d = simplest_ratio(self._a, self._den, self._c, self._den)
        if _horner(self._ints, num, d) == 0:
            self.exact = Q(num, d)
            return True
        return False

    def _bisect(self, steps: int):
        """`steps` bisection steps, fewer if one hits the root exactly, by
        quadratic interval refinement (see the module docstring).  A cell
        next to a is checked by the sign at its right end alone, one next
        to c by its left end; b = 1 is one bisection step.  A grid point
        that is the root becomes exact, with lo, hi the cell whose midpoint
        it is, as bisection leaves them."""
        if self.exact is not None or steps <= 0:
            return
        ints, m = self._ints, len(self._ints) - 1
        a, c, den, fa, fc, b = self._a, self._c, self._den, self._fa, self._fc, self._b
        while steps:
            use = min(b, steps)
            n, w, big, s = 1 << use, c - a, den << use, use * m
            j = (fa << use) // (fa - fc)  # in [0, n), as fa, fc differ in sign
            left = (a << use) + j * w
            fl = fa << s if j == 0 else _horner(ints, left, big)
            cell = hit = None
            if fl == 0:
                hit = j
            elif (fl > 0) != (fa > 0):  # the root is left of the guess
                if j == 1:
                    cell = left - w, left, fa << s, fl
            else:
                fr = fc << s if j == n - 1 else _horner(ints, left + w, big)
                if fr == 0:
                    hit = j + 1
                elif (fr > 0) == (fc > 0):
                    cell = left, left + w, fl, fr
                elif j == n - 2:  # right of the guess, in the last cell
                    cell = left + w, left + 2 * w, fr, fc << s
            if hit is not None:
                x, half = (a << use) + hit * w, w * (hit & -hit)
                self.exact = Q(x, big)
                a, c, den = x - half, x + half, big
                break
            if cell is None:
                b = use >> 1
                continue
            (a, c, fa, fc), den, steps = cell, big, steps - use
            b = 2 * b if use == b else b
        self._a, self._c, self._den, self._fa, self._fc, self._b = a, c, den, fa, fc, b

    def split_at(self, x) -> int:
        """Position of the root relative to a rational x inside the
        interval: -1 if root < x, +1 if root > x, 0 if x is the root.
        Refines in place."""
        den = lcm(self._den, x.denominator)
        k, xn = den // self._den, x.numerator * (den // x.denominator)
        fx = _horner(self._ints, xn, den)
        if fx == 0:
            self.exact = x
            return 0
        scale = k ** (len(self._ints) - 1)
        self._a, self._c, self._den = self._a * k, self._c * k, den
        self._fa, self._fc = self._fa * scale, self._fc * scale
        if (fx > 0) != (self._fa > 0):
            self._c, self._fc = xn, fx
            return -1
        self._a, self._fa = xn, fx
        return 1

    def sign(self) -> int:
        return self._compare_with_rational(QZERO)

    def compare(self, other: "RealRoot") -> int:
        if self is other:
            return 0
        while True:
            if self.exact is not None:
                return -other._compare_with_rational(self.exact)
            if other.exact is not None:
                return self._compare_with_rational(other.exact)
            if self._c * other._den <= other._a * self._den:
                return -1
            if other._c * self._den <= self._a * other._den:
                return 1
            if self._equals_overlapping(other):
                return 0
            self.refine()
            other.refine()

    def _compare_with_rational(self, x) -> int:
        """The sign of root - x for a rational x."""
        if self.exact is not None:
            return (self.exact > x) - (self.exact < x)
        if x.numerator * self._den <= self._a * x.denominator:
            return 1
        if x.numerator * self._den >= self._c * x.denominator:
            return -1
        return self.split_at(x)

    def _equals_overlapping(self, other) -> bool:
        h = poly_gcd(self.poly, other.poly)
        if h.degree() < 1:
            return False
        a, b = max(self.lo, other.lo), min(self.hi, other.hi)
        # a and b are non-root endpoints of one of the two defining
        # polynomials, hence never roots of their gcd
        return a < b and count_roots_halfopen(sturm_chain(h), a, b) >= 1

    def __eq__(self, other):  # the same exact value, or polynomial and interval
        if not isinstance(other, RealRoot):
            return NotImplemented
        return self.exact == other.exact and (self.exact is not None or (
            self.poly == other.poly and self.interval() == other.interval()))

    __hash__ = None  # refinement changes a root in place

    def __repr__(self):
        if self.exact is not None:
            return f"RealRoot({self.exact})"
        return f"RealRoot(({self.lo}, {self.hi}))"


def isolate_real_roots(p: UniPoly, chain=None):
    """Isolate the real roots of a square-free polynomial, ascending.

    Returns a list of RealRoot.  Rational roots are reconstructed exactly.
    `chain` is p's Sturm chain where the caller has built it already.
    """
    p = p.trimmed()
    if p.degree() <= 0:
        return []
    if p.degree() == 1:
        return [RealRoot.from_rational(Q(-p.nums[0], p.nums[1]))]
    chain = chain or sturm_chain(p)
    ints, m = chain[0], len(chain[0]) - 1
    bound = cauchy_bound(p)  # B / L
    B, L = bound.numerator, bound.denominator
    low, high = ([_horner(q, x, L) for q in chain] for x in (-B, B))
    roots = []
    # depth-first, left part first, on an explicit stack: close roots far
    # from 0 take more bisection levels than Python's recursion limit
    stack = [(-B, B, L, _variations(low), _variations(high), low[0], high[0])]
    while stack:
        item = stack.pop()
        if type(item) is RealRoot:  # an exact root found between two parts
            roots.append(item)
            continue
        # (a/den, c/den] holds va - vc roots, va and vc the Sturm variations
        # at its ends, fa and fc the values of ints there times den^m
        a, c, den, va, vc, fa, fc = item
        if va - vc == 1:
            roots.append(RealRoot(p)._hold(ints, a, c, den, fa, fc))
        if va - vc <= 1:
            continue
        mid, den2 = a + c, 2 * den
        vals = [_horner(q, mid, den2) for q in chain]
        if vals[0] == 0:
            # exact root found mid-bisection: carve a pivot gap around it,
            # (mid -+ e) / den2 for e from (c - a) / 4 down by halves, and
            # list it between the roots left and right of the gap
            pivot = RealRoot(p, exact=Q(mid, den2))
            mid, e, den2 = 2 * mid, c - a, 2 * den2
            while True:
                fl, fr = _horner(ints, mid - e, den2), _horner(ints, mid + e, den2)
                if fl and fr:
                    vl = _variations([_horner(q, mid - e, den2) for q in chain])
                    vr = _variations([_horner(q, mid + e, den2) for q in chain])
                    if vl - vr == 1:
                        break
                mid, den2, e = (2 * mid, 2 * den2, e) if e % 2 else (mid, den2, e // 2)
            t = (den2 // den).bit_length() - 1  # den2 = den 2^t
            stack += [(mid + e, c << t, den2, vr, vc, fr, fc << t * m), pivot,
                      (a << t, mid - e, den2, va, vl, fa << t * m, fl)]
            continue
        vm = _variations(vals)
        stack += [(mid, 2 * c, den2, vm, vc, vals[0], fc << m),
                  (2 * a, mid, den2, va, vm, fa << m, vals[0])]
    for r in roots:
        if r.exact is None:
            r.try_rational()
    return roots


# -- root counts and profiles --------------------------------------------


class RootCounts(FrozenRecord):
    """Real roots by sign, with multiplicity, plus non-real roots and
    degree drop."""

    __slots__ = ("n_positive", "n_negative", "n_zero", "n_nonreal", "degree_drop")

    def __init__(self, n_positive: int, n_negative: int, n_zero: int,
                 n_nonreal: int, degree_drop: int):
        self._init(n_positive, n_negative, n_zero, n_nonreal, degree_drop)

    def one_signed(self, k: int) -> bool:
        """Real rooted, with at least k roots >= 0 or at least k roots <= 0."""
        return not self.n_nonreal and max(self.n_positive, self.n_negative) + self.n_zero >= k


def root_counts(p: UniPoly) -> RootCounts:
    """The counts of root_profile without isolating any root.

    After the root at 0 is divided out, each Yun factor is square free and
    nonzero at 0, so the variations of its Sturm sequence at -infinity, 0
    and +infinity count its negative and positive roots.  Degree drop is
    reported separately and never counts toward the real/non-real tallies.
    """
    if p.is_zero():
        raise ZeroPolynomial("root_counts of the zero polynomial")
    a = p.primitive()
    v = next(j for j, c in enumerate(a) if c)
    a = a[v:]
    n_pos = n_neg = 0
    for chain, mult in _yun_chains(a):
        at_zero = _variations([c[0] for c in chain])
        n_neg += mult * (sturm_variations_at_inf(chain, False) - at_zero)
        n_pos += mult * (at_zero - sturm_variations_at_inf(chain, True))
    return RootCounts(n_positive=n_pos, n_negative=n_neg, n_zero=v,
                      n_nonreal=len(a) - 1 - n_pos - n_neg, degree_drop=p.degree_drop())


class RootProfile(Record):
    """Exactly isolated real roots with multiplicities plus counts."""

    __slots__ = ("real_roots", "n_positive", "n_negative", "n_zero",
                 "n_nonreal", "degree_drop")

    def __init__(self, real_roots: list, n_positive: int, n_negative: int,
                 n_zero: int, n_nonreal: int, degree_drop: int):
        # real_roots: list of (RealRoot, multiplicity), ascending
        self._init(real_roots, n_positive, n_negative, n_zero, n_nonreal,
                   degree_drop)

    def roots_with_multiplicity(self):
        return [root for root, mult in self.real_roots for _ in range(mult)]


def root_profile(p: UniPoly) -> RootProfile:
    """Exact real-root isolation with multiplicities.

    Degree drop ("roots at infinity") is reported separately and never
    counts toward the real/non-real tallies.
    """
    if p.is_zero():
        raise ZeroPolynomial("root_profile of the zero polynomial")
    a = p.primitive()
    v = next(j for j, c in enumerate(a) if c)
    entries = [  # (RealRoot, mult)
        (root, mult)
        for chain, mult in _yun_chains(a[v:])
        for root in isolate_real_roots(UniPoly.from_ints(chain[0]), chain)
    ]
    if v:
        entries.append((RealRoot.from_rational(0), v))
    entries.sort(key=cmp_to_key(lambda a, b: a[0].compare(b[0])))
    n_pos = sum(m for r, m in entries if r.sign() > 0)
    n_neg = sum(m for r, m in entries if r.sign() < 0)
    return RootProfile(real_roots=entries, n_positive=n_pos, n_negative=n_neg, n_zero=v,
                       n_nonreal=len(a) - 1 - v - n_pos - n_neg,
                       degree_drop=p.degree_drop())


def is_real_rooted(p: UniPoly) -> bool:
    """True iff every finite root is real (degree drop is forgiven)."""
    return root_counts(p).n_nonreal == 0


# -- resultants and discriminants ---------------------------------------


def _prem(a, b):
    """Pseudo-remainder lc(b)^(da-db+1) * a mod b of integer coefficient
    lists (ascending degree).  Each step cancels the top coefficient of
    the remainder, which is then dropped."""
    db, lb = len(b) - 1, b[-1]
    r = _int_trim(a)
    e = len(a) - db
    while len(r) > db and r[-1]:
        lcr, top = r.pop(), len(r) - db
        r = [lb * c for c in r[:top]] + [lb * c - lcr * d for c, d in zip(r[top:], b)]
        while len(r) > 1 and not r[-1]:
            r.pop()
        e -= 1
    r = r or [0]
    return [lb**e * c for c in r] if e > 0 else r


def _int_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _subresultant_resultant_int(A, B):
    """Resultant of integer polynomials via the subresultant PRS
    (fraction-free pseudo-division with the g/h divisor bookkeeping)."""
    A, B = _int_trim(A), _int_trim(B)
    if A == [0] or B == [0]:
        return 0
    if len(A) == 1:
        return A[0] ** (len(B) - 1)
    if len(B) == 1:
        return B[0] ** (len(A) - 1)
    s = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            s = -s
        A, B = B, A
    g, h = 1, 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        A = B
        if R == [0]:
            return 0
        div = g * h**delta
        B = [c // div for c in R]
        g = A[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)
        if len(B) == 1:
            dA = len(A) - 1
            return s * (B[0] ** dA // h ** (dA - 1))


def resultant(p: UniPoly, q: UniPoly):
    """Res(p, q) over Q, exact, at the actual degrees:
    Res(A / a, B / b) = Res(A, B) / (a^deg q * b^deg p)."""
    p, q = p.trimmed(), q.trimmed()
    if p.is_zero() or q.is_zero():
        return QZERO
    r = _subresultant_resultant_int(p.nums, q.nums)
    return Q(r, p.den ** q.degree() * q.den ** p.degree())


def discriminant(p: UniPoly):
    """disc(p) at the actual degree m: for p = A / a,
    (-1)^(m(m-1)/2) Res(A, A') / (lc(A) a^(2m-2)), where lc(A) divides
    the resultant exactly."""
    m = p.degree()
    if m <= 0:
        raise DegreeTooLow("discriminant needs actual degree >= 1")
    if m == 1:
        return QONE
    a = p.nums[: m + 1]
    res = _subresultant_resultant_int(a, _int_derivative(a))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return Q(sign * (res // a[m]), p.den ** (2 * m - 2))


# -- the diagonal operators D and delta_n --------------------------------


def dee(p: UniPoly) -> UniPoly:
    """Homogenize to degree n, differentiate in the auxiliary variable,
    evaluate at 1: coefficientwise t^k -> (n-k) t^k."""
    n = p.ambient_degree
    return UniPoly.from_ints([(n - j) * c for j, c in enumerate(p.nums)], p.den)


def delta_n(p: UniPoly) -> "ZeroSumPoly":
    """The diagonal map t^{n-k} -> -(k-1) t^{n-k}; equals p - dee(p)."""
    n = p.ambient_degree
    nums = [(1 + j - n) * c for j, c in enumerate(p.nums)]
    return ZeroSumPoly(UniPoly.from_ints(nums, p.den))


class ZeroSumPoly(FrozenRecord):
    """A polynomial in R[t]_{n,0}: vanishing t^{n-1} coefficient."""

    __slots__ = ("inner",)

    def __init__(self, inner: UniPoly):
        n = inner.ambient_degree
        if n >= 1 and inner.nums[n - 1] != 0:
            raise DegreeMismatch("coefficient of t^{n-1} must vanish")
        self._init(inner)

    @property
    def ambient_degree(self) -> int:
        return self.inner.ambient_degree


# -- interlacing ---------------------------------------------------------


def interlaces(q: UniPoly, p: UniPoly) -> bool:
    """True iff the roots of q interleave those of p:
    r_1 <= s_1 <= r_2 <= ... <= s_{m-1} <= r_m (with multiplicity).

    q must be real rooted of actual degree exactly deg(p) - 1.

    Weak interlacing with multiplicity holds iff, after the common roots
    are divided out, p1 = p/gcd and q1 = q/gcd interlace strictly, and by
    Hermite-Kakeya-Obreschkoff that holds iff the Cauchy index of q1/p1
    over R is +-deg p1 (every root of p1 real, simple, and a pole of the
    same sign).  The index is the difference of the variations of the
    signed remainder sequence of p1, q1 at -infinity and +infinity.

    A passing index with p real rooted and q nonzero makes q real rooted
    too: q = gcd * q1, the gcd divides p, and q1 has deg p1 - 1 real roots
    between those of p1.  So q's roots are counted only on the paths that
    end in DegreeMismatch or False, where a non-real q raises first.
    """
    if root_counts(p).n_nonreal:
        raise NotRealRooted("p is not real rooted")
    if q.degree() != p.degree() - 1 or q.is_zero():
        _require_real_rooted(q)  # raises ZeroPolynomial for a zero q
        raise DegreeMismatch(
            f"deg q = {q.degree()} but deg p - 1 = {p.degree() - 1}"
        )
    a, b = p.primitive(), q.primitive()
    chain = signed_remainder_sequence(a, b)
    if len(chain[-1]) > 1:
        # divide out the gcd, the last term; the primitive quotients' chain
        # is the same up to one common sign, which the index does not see
        g = chain[-1]
        chain = signed_remainder_sequence(_int_quo(a, g), _int_quo(b, g))
    index = sturm_variations_at_inf(chain, False) - sturm_variations_at_inf(
        chain, True
    )
    if abs(index) == len(chain[0]) - 1:
        return True
    _require_real_rooted(q)
    return False


def _require_real_rooted(q: UniPoly):
    if root_counts(q).n_nonreal:
        raise NotRealRooted("q is not real rooted")
