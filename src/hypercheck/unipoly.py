"""Exact univariate polynomial arithmetic and real-root machinery.

Polynomials carry an *ambient degree* n on top of their coefficient
vector: a polynomial of lower actual degree is treated as a limit with
"roots at infinity" (degree drop), which is what makes diagonal maps on
R[t]_n well behaved under continuity.

Questions about real roots are answered by counting wherever the answer
is a count: Yun square-free decomposition, then the sign variations of a
Sturm sequence of each square-free factor at -infinity, 0 and +infinity,
read off leading and constant coefficients (root_counts).  Interlacing is
decided by one Cauchy index, from the variations at +-infinity of a
signed remainder sequence (interlaces).  Roots are isolated, by interval
bisection with rational endpoints followed by a simplest-rational
reconstruction so that rational roots come out exact, only where a root
value is output (root_profile).

Sturm chains, gcds and Yun decompositions run on primitive integer lists
by pseudo-remainders (Basu-Pollack-Roy, ch. 8) and exact integer division.
Sign queries at rational points run on such lists by integer Horner
(_sign_at).  RealRoot bisection runs on integer numerators over one common
denominator and evaluates the polynomial once per step, since a RealRoot
caches its sign at the lower endpoint; its endpoints become rationals again
only when the steps are done.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import zip_longest
from math import ceil, gcd, lcm

from .errors import (
    DegreeMismatch,
    DegreeTooLow,
    NotRealRooted,
    ZeroPolynomial,
)
from .rationals import Q, QONE, QZERO, qabs, qsign, simplest_between, to_q


class UniPoly:
    """Dense exact-rational polynomial with a declared ambient degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, ambient=None):
        coeffs = [to_q(c) for c in coeffs]
        if ambient is not None:
            if len(coeffs) > ambient + 1:
                for c in coeffs[ambient + 1 :]:
                    if c != 0:
                        raise DegreeMismatch(
                            f"coefficients exceed ambient degree {ambient}"
                        )
                coeffs = coeffs[: ambient + 1]
            coeffs += [QZERO] * (ambient + 1 - len(coeffs))
        elif not coeffs:
            coeffs = [QZERO]
        self.coeffs = tuple(coeffs)

    # -- basic structure -------------------------------------------------
    @property
    def ambient_degree(self) -> int:
        return len(self.coeffs) - 1

    def degree(self) -> int:
        """Actual degree; -1 for the zero polynomial."""
        for j in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[j] != 0:
                return j
        return -1

    def is_zero(self) -> bool:
        return self.degree() == -1

    def degree_drop(self) -> int:
        return self.ambient_degree - max(self.degree(), 0)

    def leading(self):
        d = self.degree()
        if d < 0:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[d]

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        n = max(self.ambient_degree, other.ambient_degree)
        a = list(self.coeffs) + [QZERO] * (n + 1 - len(self.coeffs))
        for j, c in enumerate(other.coeffs):
            a[j] += c
        return UniPoly(a, n)

    def __sub__(self, other):
        return self + (other * Q(-1))

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = to_q(other)
            return UniPoly([ci * c for ci in self.coeffs], self.ambient_degree)
        out = [QZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * Q(-1)

    def with_ambient(self, n: int) -> "UniPoly":
        return UniPoly(self.coeffs, n)

    def trimmed(self) -> "UniPoly":
        """Drop the degree slack: ambient degree = actual degree."""
        return UniPoly(self.coeffs[: max(self.degree(), 0) + 1])

    def evaluate(self, x):
        x = to_q(x)
        acc = QZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        if len(self.coeffs) == 1:
            return UniPoly([QZERO])
        return UniPoly(
            [j * self.coeffs[j] for j in range(1, len(self.coeffs))],
            self.ambient_degree - 1,
        )

    def shift(self, c) -> "UniPoly":
        """Compose with the translation t -> t + c, exactly."""
        c = to_q(c)
        out = [QZERO] * len(self.coeffs)
        for coeff in reversed(self.coeffs):
            # out <- out * (t + c) + coeff
            for j in range(len(out) - 1, 0, -1):
                out[j] = out[j - 1] + out[j] * c
            out[0] = out[0] * c + coeff
        return UniPoly(out, self.ambient_degree)

    def dilate(self, c) -> "UniPoly":
        """Compose with t -> c*t."""
        c = to_q(c)
        scale = QONE
        out = []
        for coeff in self.coeffs:
            out.append(coeff * scale)
            scale *= c
        return UniPoly(out, self.ambient_degree)

    def reversed_coeffs(self) -> "UniPoly":
        """R_n: t^n p(1/t) at the ambient degree n."""
        return UniPoly(list(reversed(self.coeffs)), self.ambient_degree)

    def valuation(self) -> int:
        """Multiplicity of the root at 0 (ambient degree for the zero poly)."""
        for j, c in enumerate(self.coeffs):
            if c != 0:
                return j
        return self.ambient_degree

    @staticmethod
    def from_roots(roots, ambient=None, lead=1) -> "UniPoly":
        """lead * prod(t - r_i), expanded on integers: with L a common
        denominator of the roots and lead, lead*L*prod(s - L*r_i) is an
        integer polynomial sum c_j s^j, and at s = L*t the coefficient of
        t^j is c_j / L^(k+1-j) for k roots."""
        roots = [to_q(r) for r in roots]
        lead = to_q(lead)
        den = lcm(lead.denominator, *(r.denominator for r in roots))
        c = [lead.numerator * (den // lead.denominator)]
        for r in roots:
            root = r.numerator * (den // r.denominator)
            c = [0] + c
            for j in range(len(c) - 1):
                c[j] -= root * c[j + 1]
        k = len(roots)
        return UniPoly([Q(cj, den ** (k + 1 - j)) for j, cj in enumerate(c)], ambient)


def divmod_poly(a: UniPoly, b: UniPoly):
    """Exact rational polynomial division with remainder."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    db = b.degree()
    rem = list(a.coeffs) + [QZERO] * max(0, db - a.ambient_degree)
    quo = [QZERO] * max(1, len(rem) - db)
    inv_lead = 1 / b.coeffs[db]
    for j in range(len(rem) - 1, db - 1, -1):
        if rem[j] == 0:
            continue
        q = rem[j] * inv_lead
        quo[j - db] = q
        for i in range(db + 1):
            rem[j - db + i] -= q * b.coeffs[i]
    return UniPoly(quo), UniPoly(rem[:db] if db > 0 else [QZERO])


def _int_primitive(coeffs):
    """Scale rational coefficients by a positive constant (so signs and
    Sturm counts are kept) to a primitive list of ints."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """GCD over Q, trimmed, primitive, with positive leading coefficient."""
    return UniPoly(_int_gcd(*(_int_primitive(c.trimmed().coeffs) for c in (a, b))))


def _int_gcd(a, b):
    """Primitive gcd, leading coefficient >= 0, of trimmed integer lists by
    pseudo-remainders, which differ from remainders by a constant factor."""
    while b != [0]:
        a, b = b, _int_primitive(_prem(a, b))
    a = _int_primitive(a)
    return a if a[-1] >= 0 else [-c for c in a]


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
    g = poly_gcd(p, p.derivative())
    if g.degree() <= 0:
        return p.trimmed()
    q, r = divmod_poly(p.trimmed(), g)
    assert r.is_zero()
    return q


def yun_decomposition(p: UniPoly):
    """Yun's square-free decomposition: list of (factor, multiplicity).

    Factors are square free, pairwise coprime and of positive degree;
    their product with multiplicities is p up to a constant.
    """
    p = p.trimmed()
    if p.degree() <= 0:
        return []
    # on the primitive multiple of p: w, y and z share its positive scale
    a = _int_primitive(p.coeffs)
    da = _int_derivative(a)
    g = _int_gcd(a, da)
    if len(g) == 1:
        return [(p, 1)]
    out = []
    w, y = _int_quo(a, g), _int_quo(da, g)
    i = 1
    while len(w) > 1:
        dw = _int_derivative(w)
        z = _int_trim([c - d for c, d in zip_longest(y, dw, fillvalue=0)])
        f = _int_gcd(w, z)
        if len(f) > 1:
            out.append((UniPoly(f), i))
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
    a = _int_primitive(p.trimmed().coeffs)
    return signed_remainder_sequence(a, _int_primitive(_int_derivative(a)))


def _sign_at(ints, x) -> int:
    """Sign of the integer polynomial `ints` (ascending) at the rational x."""
    return _sign_at_ratio(ints, x.numerator, x.denominator)


def _sign_at_ratio(ints, num, den) -> int:
    """Sign of `ints` at num/den, den > 0, not necessarily in lowest terms:
    the sign of den^m * p(num/den) by integer Horner, where m is the
    formal degree, with the powers of den accumulated on the way."""
    acc, scale = ints[-1], den
    for c in reversed(ints[:-1]):
        acc = acc * num + c * scale
        scale *= den
    return qsign(acc)


def _variations(signs):
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def sturm_variations_at(chain, x) -> int:
    return _variations([_sign_at(q, x) for q in chain])


def sturm_variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for q in chain:
        s = qsign(q[-1])
        if not positive and len(q) % 2 == 0:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_roots_halfopen(chain, a, b) -> int:
    """Number of distinct real roots in (a, b] of the chain's polynomial."""
    return sturm_variations_at(chain, a) - sturm_variations_at(chain, b)


def cauchy_bound(p: UniPoly):
    d = p.degree()
    lead = qabs(p.coeffs[d])
    m = QZERO
    for c in p.coeffs[:d]:
        m = max(m, qabs(c) / lead)
    return 1 + m


class RealRoot:
    """One real algebraic number: a square-free defining polynomial plus
    either an exact rational value or an open isolating interval (lo, hi)
    with a sign change and non-root endpoints.  The sign of the polynomial
    at lo is cached: lo only ever moves to a point of that same sign."""

    __slots__ = ("poly", "lo", "hi", "exact", "_ints", "_lo_sign")

    def __init__(self, poly, lo=None, hi=None, exact=None):
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.exact = exact
        if exact is None:
            self._ints = _int_primitive(poly.trimmed().coeffs)
            self._lo_sign = _sign_at(self._ints, lo)

    @staticmethod
    def from_rational(value) -> "RealRoot":
        value = to_q(value)
        return RealRoot(UniPoly([-value, QONE]), exact=value)

    def is_exact(self) -> bool:
        return self.exact is not None

    def interval(self):
        if self.exact is not None:
            return (self.exact, self.exact)
        return (self.lo, self.hi)

    def refine(self):
        """One bisection step; may discover an exact rational value."""
        self._bisect(1)

    def refine_below(self, width):
        """Bisect until the width is at most `width`: each step halves it
        exactly, so the number of steps is known in advance."""
        if self.exact is None:
            # the least k >= 0 with (hi - lo) / 2^k <= width
            self._bisect((ceil((self.hi - self.lo) / width) - 1).bit_length())

    def try_rational(self, extra_bits: int = 24) -> bool:
        """Attempt exact reconstruction of a rational root after
        extra_bits bisection steps (each halves the width exactly)."""
        self._bisect(extra_bits)
        if self.exact is not None:
            return True
        cand = simplest_between(self.lo, self.hi)
        if _sign_at(self._ints, cand) == 0:
            self.exact = cand
            return True
        return False

    def _bisect(self, steps: int):
        """`steps` bisection steps, fewer if one hits the root exactly.
        The endpoints run as integer numerators a < c over one common
        denominator den, the midpoint is (a + c) / (2 den), and lo, hi (or
        exact) are written back as Q once."""
        if self.exact is not None or steps <= 0:
            return
        lo, hi = self.lo, self.hi
        den = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (den // lo.denominator)
        c = hi.numerator * (den // hi.denominator)
        ints, lo_sign = self._ints, self._lo_sign
        for _ in range(steps):
            mid = a + c
            s = _sign_at_ratio(ints, mid, 2 * den)
            if s == 0:
                self.exact = Q(mid, 2 * den)
                break
            (a, c), den = (2 * a, mid) if s != lo_sign else (mid, 2 * c), 2 * den
        self.lo, self.hi = Q(a, den), Q(c, den)

    def split_at(self, x) -> int:
        """Position of the root relative to a rational x inside the
        interval: -1 if root < x, +1 if root > x, 0 if x is the root.
        Refines in place."""
        s = _sign_at(self._ints, x)
        if s == 0:
            self.exact = x
            return 0
        if s != self._lo_sign:
            self.hi = x
            return -1
        self.lo = x
        return 1

    def sign(self) -> int:
        if self.exact is not None:
            return qsign(self.exact)
        if self.lo >= 0:
            return 1
        if self.hi <= 0:
            return -1
        return self.split_at(QZERO)

    def compare(self, other: "RealRoot") -> int:
        if self is other:
            return 0
        while True:
            if self.exact is not None and other.exact is not None:
                return (self.exact > other.exact) - (self.exact < other.exact)
            if self.exact is not None:
                return -other._compare_with_rational(self.exact)
            if other.exact is not None:
                return self._compare_with_rational(other.exact)
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1
            if self._equals_overlapping(other):
                return 0
            self.refine()
            other.refine()

    def _compare_with_rational(self, x) -> int:
        if self.exact is not None:
            return (self.exact > x) - (self.exact < x)
        if x <= self.lo:
            return 1
        if x >= self.hi:
            return -1
        return self.split_at(x)

    def _equals_overlapping(self, other) -> bool:
        h = poly_gcd(self.poly, other.poly)
        if h.degree() < 1:
            return False
        a = max(self.lo, other.lo)
        b = min(self.hi, other.hi)
        if a >= b:
            return False
        # a and b are non-root endpoints of one of the two defining
        # polynomials, hence never roots of their gcd
        chain = sturm_chain(h)
        return count_roots_halfopen(chain, a, b) >= 1

    def __repr__(self):
        if self.exact is not None:
            return f"RealRoot({self.exact})"
        return f"RealRoot(({self.lo}, {self.hi}))"


def isolate_real_roots(p: UniPoly):
    """Isolate the real roots of a square-free polynomial, ascending.

    Returns a list of RealRoot.  Rational roots are reconstructed exactly.
    """
    p = p.trimmed()
    if p.degree() <= 0:
        return []
    if p.degree() == 1:
        return [RealRoot.from_rational(-p.coeffs[0] / p.coeffs[1])]
    chain = sturm_chain(p)
    ints = chain[0]
    bound = cauchy_bound(p)
    roots = []

    def recurse(a, b, va, vb):
        # va, vb: Sturm variations at a and b; (a, b] holds va - vb roots
        if va - vb == 1:
            roots.append(RealRoot(p, lo=a, hi=b))
        if va - vb <= 1:
            return
        mid = (a + b) / 2
        signs = [_sign_at(q, mid) for q in chain]
        if signs[0] == 0:
            # exact root found mid-bisection: carve a pivot gap around it
            roots.append(("exact", mid))
            eps = (b - a) / 4
            while True:
                left, right = mid - eps, mid + eps
                if _sign_at(ints, left) != 0 and _sign_at(ints, right) != 0:
                    vl = sturm_variations_at(chain, left)
                    vr = sturm_variations_at(chain, right)
                    if vl - vr == 1:
                        break
                eps /= 2
            recurse(a, left, va, vl)
            recurse(right, b, vr, vb)
            return
        vm = _variations(signs)
        recurse(a, mid, va, vm)
        recurse(mid, b, vm, vb)

    recurse(-bound, bound, *(sturm_variations_at(chain, x) for x in (-bound, bound)))
    out = []
    for r in roots:
        if isinstance(r, tuple):
            out.append(RealRoot(p, exact=r[1]))
        else:
            r.try_rational()
            out.append(r)
    out.sort(key=cmp_to_key(lambda x, y: x.compare(y)))
    return out


# -- root counts and profiles --------------------------------------------


@dataclass(frozen=True)
class RootCounts:
    """Real roots by sign, with multiplicity, plus non-real roots and
    degree drop."""

    n_positive: int
    n_negative: int
    n_zero: int
    n_nonreal: int
    degree_drop: int


def root_counts(p: UniPoly) -> RootCounts:
    """The counts of root_profile without isolating any root.

    After the root at 0 is divided out, each Yun factor is square free and
    nonzero at 0, so the variations of its Sturm sequence at -infinity, 0
    and +infinity count its negative and positive roots.  Degree drop is
    reported separately and never counts toward the real/non-real tallies.
    """
    if p.is_zero():
        raise ZeroPolynomial("root_counts of the zero polynomial")
    q = p.trimmed()
    v = q.valuation()
    if v:
        q = UniPoly(q.coeffs[v:])
    n_pos = n_neg = 0
    for factor, mult in yun_decomposition(q):
        chain = sturm_chain(factor)
        at_zero = _variations([qsign(c[0]) for c in chain])
        n_neg += mult * (sturm_variations_at_inf(chain, False) - at_zero)
        n_pos += mult * (at_zero - sturm_variations_at_inf(chain, True))
    return RootCounts(
        n_positive=n_pos,
        n_negative=n_neg,
        n_zero=v,
        n_nonreal=q.degree() - n_pos - n_neg,
        degree_drop=p.degree_drop(),
    )


@dataclass
class RootProfile:
    """Exactly isolated real roots with multiplicities plus counts."""

    real_roots: list  # list of (RealRoot, multiplicity), ascending
    n_positive: int
    n_negative: int
    n_zero: int
    n_nonreal: int
    degree_drop: int

    def n_real(self) -> int:
        return self.n_positive + self.n_negative + self.n_zero

    def roots_with_multiplicity(self):
        out = []
        for root, mult in self.real_roots:
            out.extend([root] * mult)
        return out


def root_profile(p: UniPoly) -> RootProfile:
    """Exact real-root isolation with multiplicities.

    Degree drop ("roots at infinity") is reported separately and never
    counts toward the real/non-real tallies.
    """
    if p.is_zero():
        raise ZeroPolynomial("root_profile of the zero polynomial")
    drop = p.degree_drop()
    q = p.trimmed()
    v = q.valuation()
    if v:
        q = UniPoly(q.coeffs[v:])
    entries = []  # (RealRoot, mult)
    for factor, mult in yun_decomposition(q):
        for root in isolate_real_roots(factor):
            entries.append((root, mult))
    if v:
        entries.append((RealRoot.from_rational(0), v))
    entries.sort(key=cmp_to_key(lambda a, b: a[0].compare(b[0])))
    n_pos = sum(m for r, m in entries if r.sign() > 0)
    n_neg = sum(m for r, m in entries if r.sign() < 0)
    n_zero = v
    n_real = n_pos + n_neg + n_zero
    return RootProfile(
        real_roots=entries,
        n_positive=n_pos,
        n_negative=n_neg,
        n_zero=n_zero,
        n_nonreal=max(q.degree() + v, 0) - n_real if not p.is_zero() else 0,
        degree_drop=drop,
    )


def is_real_rooted(p: UniPoly) -> bool:
    """True iff every finite root is real (degree drop is forgiven)."""
    return root_counts(p).n_nonreal == 0


def same_sign_count(p: UniPoly, k: int) -> bool:
    """True iff at least k roots are >= 0 or at least k roots are <= 0.

    Zero roots count toward either side (weak-inequality convention).
    Degree drop is excluded.  Raises NotRealRooted on non-real input.
    """
    counts = root_counts(p)
    if counts.n_nonreal:
        raise NotRealRooted("same_sign_count requires a real-rooted polynomial")
    return (
        counts.n_positive + counts.n_zero >= k
        or counts.n_negative + counts.n_zero >= k
    )


# -- resultants and discriminants ---------------------------------------


def _prem(a, b):
    """Pseudo-remainder lc(b)^(da-db+1) * a mod b of integer coefficient
    lists (ascending degree)."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[db]
    r = list(a)
    e = da - db + 1
    while True:
        dr = len(r) - 1
        while dr >= 0 and r[dr] == 0:
            dr -= 1
        if dr < db:
            break
        lcr = r[dr]
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[dr - db + i] -= lcr * b[i]
        e -= 1
    scale = lb**e if e > 0 else 1
    r = [scale * c for c in r]
    return _int_trim(r)


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
    """Res(p, q) over Q, exact, at the actual degrees."""
    p, q = p.trimmed(), q.trimmed()
    if p.is_zero() or q.is_zero():
        return QZERO
    dp = lcm(*(c.denominator for c in p.coeffs))
    dq = lcm(*(c.denominator for c in q.coeffs))
    A = [c.numerator * (dp // c.denominator) for c in p.coeffs]
    B = [c.numerator * (dq // c.denominator) for c in q.coeffs]
    r = _subresultant_resultant_int(A, B)
    return Q(r) / (Q(dp) ** q.degree() * Q(dq) ** p.degree())


def discriminant(p: UniPoly):
    """disc(p) at the actual degree, via the subresultant resultant."""
    m = p.degree()
    if m <= 0:
        raise DegreeTooLow("discriminant needs actual degree >= 1")
    if m == 1:
        return QONE
    res = resultant(p, p.derivative())
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * res / p.leading()


# -- the diagonal operators D and delta_n --------------------------------


def dee(p: UniPoly) -> UniPoly:
    """Homogenize to degree n, differentiate in the auxiliary variable,
    evaluate at 1: coefficientwise t^k -> (n-k) t^k."""
    n = p.ambient_degree
    return UniPoly([(n - j) * c for j, c in enumerate(p.coeffs)], n)


def delta_n(p: UniPoly) -> "ZeroSumPoly":
    """The diagonal map t^{n-k} -> -(k-1) t^{n-k}; equals p - dee(p)."""
    n = p.ambient_degree
    coeffs = [(1 + j - n) * c for j, c in enumerate(p.coeffs)]
    return ZeroSumPoly(UniPoly(coeffs, n))


@dataclass(frozen=True)
class ZeroSumPoly:
    """A polynomial in R[t]_{n,0}: vanishing t^{n-1} coefficient."""

    inner: UniPoly

    def __post_init__(self):
        n = self.inner.ambient_degree
        if n >= 1 and self.inner.coeffs[n - 1] != 0:
            raise DegreeMismatch("coefficient of t^{n-1} must vanish")

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
    a, b = (_int_primitive(c.trimmed().coeffs) for c in (p, q))
    g = _int_gcd(a, b)
    # quotients of primitive lists by a primitive gcd are primitive again
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
