"""Diagonal linear maps between zero-sum polynomial spaces.

A DiagonalMap acts on binomial-normalized coefficients: writing
g = sum_k binom(n, k) c_k t^(n-k), the map sends g to
sum_{k<=d} gamma_k c_k t^(d-k).  For a monic g with root vector r this
makes c_k = (-1)^k m_k(r), and the operator associated to a hook
polynomial p satisfies the defining contract

    T(g)(t) = lead(g) * p(r - 1*t).

Matching that contract on the monomial basis gives the closed form

    gamma_j = (-1)^d * sum_{i >= max(j, 1)} binom(i, j) a_i,

which is what associated_operator uses (the defining contract, not the
closed form, is the ground truth; the tests re-check one against the
other).  gamma_1 never acts on the zero-sum space, so a DiagonalMap
stores it as 0.

The pivot g0 = (t + n - 1)(t - 1)^(n-1) has coordinates c_k = (-1)^k (1 - k)
for every n: the means of its roots (1, ..., 1, 1 - n) are
m_k = (n - k)/n - (n - 1)k/n = 1 - k.  So T(g0), its delta_d-preimages and
whether T extends are read off gamma alone, whatever n is.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from math import comb

from .errors import DegreeMismatch, DegreeTooLow, InterlacingLawViolated, NotInSimplex
from .rationals import Q, QONE, QZERO, FrozenRecord, proportional, to_q
from .sympoly import HookPoly
from .unipoly import (
    UniPoly,
    ZeroSumPoly,
    delta_n,
    discriminant,
    root_counts,
    root_profile,
)

DEFAULT_ENCLOSURE_WIDTH = Q(1, 1 << 40)


class DiagonalMap(FrozenRecord):
    """Diagonal map R[t]_{n,0} -> R[t]_{d,0} on binomial-normalized
    coefficients.  gamma has d+1 entries; gamma[1] never acts on the
    zero-sum domain and is stored as 0, so maps that differ only there
    are equal."""

    __slots__ = ("n", "d", "gamma")

    def __init__(self, n: int, d: int, gamma: tuple):
        if d < 0:
            raise DegreeTooLow(f"a diagonal map needs d >= 0, got d={d}")
        gamma = tuple(to_q(c) for c in gamma)
        if len(gamma) != d + 1:
            raise DegreeMismatch(f"expected {d + 1} gamma entries")
        if d > n:
            raise DegreeMismatch("target degree exceeds source degree")
        if d >= 1:
            gamma = gamma[:1] + (QZERO,) + gamma[2:]
        self._init(n, d, gamma)

    def proportional_to(self, other: "DiagonalMap") -> bool:
        return (self.n, self.d) == (other.n, other.d) and proportional(
            self.gamma, other.gamma
        )


class FullDiagonalMap(FrozenRecord):
    """Diagonal map R[t]_n -> R[t]_d on the monomial basis:
    t^(n-k) -> gamma_prime[k] * t^(d-k), zero for k > d."""

    __slots__ = ("n", "d", "gamma_prime")

    def __init__(self, n: int, d: int, gamma_prime: tuple):
        if d < 0:
            raise DegreeTooLow(f"a diagonal map needs d >= 0, got d={d}")
        gamma_prime = tuple(to_q(c) for c in gamma_prime)
        if len(gamma_prime) != d + 1:
            raise DegreeMismatch(f"expected {d + 1} entries")
        if d > n:
            raise DegreeMismatch("target degree exceeds source degree")
        self._init(n, d, gamma_prime)

    def apply(self, g: UniPoly) -> UniPoly:
        if g.ambient_degree != self.n:
            raise DegreeMismatch("ambient degree of g must equal the source degree")
        out = [QZERO] * (self.d + 1)
        for k in range(self.d + 1):
            out[self.d - k] = self.gamma_prime[k] * Q(g.nums[self.n - k], g.den)
        return UniPoly(out, self.d)


class ExtendCertificate(FrozenRecord):
    """Outcome evidence for decide_extendable.

    kind "Extension": f is a real-rooted one-signed preimage with
    delta_d(f) equal to the image of the pivot polynomial.
    kind "MultiplicityObstruction": the forced preimage multiplicities
    (root, multiplicity) exceed the degree.
    kind "SweepRefutation": the exhaustive lambda sweep found no witness.
    """

    __slots__ = ("kind", "f", "obstruction", "detail")

    def __init__(self, kind: str, f: UniPoly | None = None,
                 obstruction: tuple = (), detail: dict | None = None):
        self._init(kind, f, obstruction, {} if detail is None else detail)


def g0(n: int) -> ZeroSumPoly:
    """The pivot polynomial (t + n - 1)(t - 1)^(n-1), written from its
    coordinates (-1)^k (1 - k)."""
    if n < 2:
        raise DegreeTooLow("g0 requires n >= 2")
    nums = [(-1) ** k * (1 - k) * comb(n, k) for k in range(n, -1, -1)]
    return ZeroSumPoly(UniPoly.from_ints(nums))


def binomial_coords(g: UniPoly):
    """c_k with g = sum_k binom(n,k) c_k t^(n-k), k ascending from 0."""
    n = g.ambient_degree
    return tuple(Q(g.nums[n - k], g.den * comb(n, k)) for k in range(n + 1))


def associated_operator(p: HookPoly) -> DiagonalMap:
    """The diagonal map realizing g -> lead(g) * p(rootvec(g) - 1*t)."""
    d = p.d
    sign = -1 if d % 2 else 1
    gamma = []
    for j in range(d + 1):
        acc = QZERO
        for i in range(max(j, 1), d + 1):
            acc += comb(i, j) * p.a[i - 1]
        gamma.append(sign * acc)
    return DiagonalMap(p.n, d, tuple(gamma))


def operator_to_hook(T: DiagonalMap) -> HookPoly:
    """Invert the (triangular) hook -> operator system exactly."""
    d = T.d
    if d < 1:
        raise DegreeTooLow(f"a hook polynomial needs d >= 1, got d={d}")
    sign = -1 if d % 2 else 1
    a = [QZERO] * d
    for j in range(d, 1, -1):
        acc = sign * T.gamma[j]
        for i in range(j + 1, d + 1):
            acc -= comb(i, j) * a[i - 1]
        a[j - 1] = acc
    a[0] = sign * T.gamma[0] - sum(a[1:], QZERO)
    return HookPoly(T.n, d, tuple(a))


def apply(T: DiagonalMap, g) -> ZeroSumPoly:
    """Coefficientwise action of T in binomial-normalized coordinates."""
    inner = g.inner if isinstance(g, ZeroSumPoly) else g
    if inner.ambient_degree != T.n:
        raise DegreeMismatch(
            f"g has ambient degree {inner.ambient_degree}, map expects {T.n}"
        )
    g = ZeroSumPoly(inner)  # validates the vanishing t^{n-1} coefficient
    c = binomial_coords(inner)
    out = [QZERO] * (T.d + 1)
    for k in range(T.d + 1):
        out[T.d - k] = T.gamma[k] * c[k]
    return ZeroSumPoly(UniPoly(out, T.d))


def map_sending_g0_to(g, n: int) -> DiagonalMap:
    """The unique diagonal map with T(g0(n)) = g: gamma_k is the t^(d-k)
    coefficient of g over the g0 coordinate (-1)^k (1 - k), nonzero for k != 1."""
    inner = g.inner if isinstance(g, ZeroSumPoly) else g
    d = inner.ambient_degree
    if n < max(2, d):
        raise DegreeTooLow(f"need n >= max(2, d) = {max(2, d)}")
    gamma = (QZERO if k == 1 else Q((-1) ** k * inner.nums[d - k], inner.den * (1 - k))
             for k in range(d + 1))
    return DiagonalMap(n, d, tuple(gamma))


def polya_schur_test(T: FullDiagonalMap) -> bool:
    """Multiplier-sequence test: the image of (t-1)^n must be real rooted
    with all roots of one sign (zeros allowed)."""
    base = UniPoly.from_roots([1] * T.n, ambient=T.n)
    image = T.apply(base)
    return image.is_zero() or _one_sign_real_rooted(image)


def necessary_sign_test(T: DiagonalMap) -> bool:
    """Image of the pivot polynomial must be real rooted with at least
    d-1 roots of one sign.  Necessary for preserving hyperbolicity on
    the zero-sum space; also sufficient for d <= 4, and conjecturally
    sufficient beyond."""
    image = delta_n(_pivot_preimage(T)).inner
    if image.is_zero():
        return True
    return root_counts(image).one_signed(T.d - 1)


def _pivot_preimage(T: DiagonalMap) -> UniPoly:
    """f0 = sum_k (-1)^k gamma_k t^(d-k): delta_d scales t^(d-k) by 1 - k,
    so delta_d(f0) = T(g0), and the free t^(d-1) coefficient is gamma_1 = 0."""
    if T.n < 2:
        raise DegreeTooLow("g0 requires n >= 2")
    coeffs = [(-1) ** k * T.gamma[k] for k in range(T.d, -1, -1)]
    return UniPoly(coeffs, T.d)


def _one_sign_real_rooted(f: UniPoly) -> bool:
    return root_counts(f).one_signed(f.degree())


def _critical_probes(value, degree: int):
    """(crit, probes) for a one-parameter family whose root structure
    changes only where crit(lambda) vanishes, crit a nonzero integer
    polynomial of degree <= `degree` with values value(lam) at the integers
    lam = 0, 1, -1, 2, -2, ...

    Divided differences of an integer polynomial's values at integers are
    integers, so crit comes from Newton's divided differences on integers
    and Horner's rule, at ambient degree `degree`.  The rational probes are
    a point inside each open interval between consecutive real roots of
    crit, points beyond both ends, and every exact rational root.
    """
    xs = [(k + 1) // 2 * (-1) ** (k + 1) for k in range(degree + 1)]
    c = [value(x) for x in xs]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) // (xs[i] - xs[i - j])
    out = [c[-1]]
    for x, ck in zip(reversed(xs[:-1]), reversed(c[:-1])):  # out * (t - x) + ck
        out = [ck - x * out[0]] + [lo - x * hi for lo, hi in zip(out, out[1:])] + [out[-1]]
    crit = UniPoly.from_ints(out)
    roots = [r for r, _ in root_profile(crit).real_roots]
    for r in roots:
        r.try_rational()
    if not roots:
        return crit, [QZERO]
    probes = [roots[0].interval()[0] - 1]
    for a, b in zip(roots, roots[1:]):
        while a.interval()[1] >= b.interval()[0]:
            a.refine()
            b.refine()
        probes.append((a.interval()[1] + b.interval()[0]) / 2)
    probes.append(roots[-1].interval()[1] + 1)
    return crit, probes + [r.exact for r in roots if r.is_exact()]


def decide_extendable(T: DiagonalMap):
    """Decide whether T extends to a full diagonal hyperbolicity
    preserver; returns (bool, ExtendCertificate).

    The preimage family under delta_d is f_lambda = f0 + lambda*t^(d-1),
    f0 from _pivot_preimage (the kernel of delta_d is exactly
    span(t^(d-1))), so extendability is equivalent to some f_lambda being
    real rooted with one-signed roots.

    The sweep over lambda is exhaustive, and only a discriminant says where
    to probe.  Write f_lambda = t^m * h_lambda, t^m the common power of t,
    which would make disc(f_lambda) vanish identically.  The root structure
    of h_lambda changes only where two roots meet, one escapes to infinity
    or one crosses 0, and the last two cannot happen here.  gamma_0 = 0
    gives T(g0) degree <= d - 2, short of the d - 1 roots of one sign the
    sign test asks for, so f0 has degree d, and N = deg h0 = d - m.  N <= 1
    is the degree <= 1 branch; at N >= 2, m is the valuation of f0, whose
    t^(d-1) coefficient is 0, so lambda sits on t^(N-1) and moves neither
    the top coefficient of h_lambda nor h_lambda(0) = h0(0) != 0.
    """
    f0 = _pivot_preimage(T)
    g = delta_n(f0).inner
    if g.is_zero():
        # whole kernel is available; t^{d-1} is a one-signed witness
        f = UniPoly([QZERO] * (T.d - 1) + [QONE, QZERO], T.d)
        return True, ExtendCertificate(kind="Extension", f=f)
    if not necessary_sign_test(T):
        return False, ExtendCertificate(
            kind="SweepRefutation", detail={"reason": "necessary sign test fails"}
        )
    d = T.d
    prof = root_profile(g)

    # forced-multiplicity obstruction: a positive root of g of
    # multiplicity k forces a preimage root of multiplicity k+1 (and the
    # mirrored statement for the all-nonpositive branch)
    obstruction = _multiplicity_obstruction(prof, d)
    if obstruction is not None:
        return False, ExtendCertificate(
            kind="MultiplicityObstruction", obstruction=tuple(obstruction)
        )

    m = min(f0.valuation(), d - 1)
    h0 = UniPoly.from_ints(f0.nums[m:], f0.den)
    slot = d - 1 - m
    big_degree = max(h0.degree(), slot)
    if big_degree <= 1:
        # degree <= 1 families are always real rooted; probe both signs
        cands = [QZERO, QONE, Q(-1)]
    else:
        # slot = N - 1 (see the docstring); with H = den * h0 on integers,
        # disc(H + den*lam*t^slot) = den^(2N-2) disc(h_lam) has degree
        # exactly N in lam: isobaric weight N(N-1) at degree 2N - 2 bounds it,
        # and lam^N has coefficient +-(N-1)^(N-1) H(0)^(N-2) den^N != 0
        def disc(lam):
            H = list(h0.nums)
            H[slot] += h0.den * lam
            return discriminant(UniPoly.from_ints(H)).numerator

        _, cands = _critical_probes(disc, big_degree)
    for lam in cands:
        # f0 + lam t^(d-1) over the denominator f0.den * lam.denominator
        coeffs = [c * lam.denominator for c in f0.nums]
        coeffs[d - 1] += lam.numerator * f0.den
        f = UniPoly.from_ints(coeffs, f0.den * lam.denominator)
        if _one_sign_real_rooted(f):
            found = f
            break
    if found is not None:
        return True, ExtendCertificate(kind="Extension", f=found)
    return False, ExtendCertificate(
        kind="SweepRefutation",
        detail={"reason": "no lambda yields a one-signed real-rooted preimage"},
    )


def _multiplicity_obstruction(prof, d: int):
    """Forced preimage multiplicities exceeding d, or None.

    A nonzero root of g = delta_d(f) of multiplicity m >= 2 must be a
    root of any one-signed real-rooted preimage f with multiplicity
    m + 1 (simple roots of g force nothing).  Branch viability: a
    preimage with all roots >= 0 makes the image real rooted with at
    most one negative root, and symmetrically.
    """
    branches = [  # (viable, forced) for roots >= 0, then roots <= 0
        (viable, [(r, m + 1) for r, m in prof.real_roots if m >= 2 and r.sign() == s])
        for s, viable in ((1, prof.n_negative <= 1), (-1, prof.n_positive <= 1))
    ]
    if any(viable and sum(m for _, m in forced) <= d for viable, forced in branches):
        return None
    return next((forced for viable, forced in branches if viable), None)


def phi(r, width=DEFAULT_ENCLOSURE_WIDTH):
    """The root-simplex map A_d -> A_{d-1} induced by delta_d.

    Builds prod(t - r_i), applies delta_d, isolates the d-1 nonnegative
    roots, drops the unique nonpositive one and normalizes to sum 1.
    Returns weakly decreasing rational enclosures (lo, hi) of width <=
    `width`, lo == hi where exact: those after the least number of passes
    that fits, a pass bisecting each root once per unit of multiplicity.
    """
    r = [to_q(c) for c in r]
    d = len(r)
    if d < 2:
        raise NotInSimplex("need at least two coordinates")
    if any(a < b for a, b in zip(r, r[1:])) or r[-1] < 0 or sum(r) != 1:
        raise NotInSimplex("require r_1 >= ... >= r_d >= 0 with sum 1")
    if r[0] == 1:  # the vertex (1, 0, ..., 0)
        return [(QONE, QONE)] + [(QZERO, QZERO)] * (d - 2)
    prof = root_profile(delta_n(UniPoly.from_roots(r, ambient=d)).inner)
    if prof.n_nonreal or prof.n_negative > 1:
        raise InterlacingLawViolated("delta_d image violated the interlacing law")
    roots = prof.roots_with_multiplicity()  # ascending, length d
    for root in roots:
        root.try_rational()
    while roots[0].interval()[1] >= 0:  # until the dropped root shows < 0
        roots[0].refine()

    def enclosures(roots, k):  # after k more passes, in one call per root
        for root in dict.fromkeys(roots):
            root._bisect(k * roots.count(root))
        (lo_low, hi_low), *bounds = (root.interval() for root in roots)
        return [(max(lo, QZERO) / -lo_low, hi / -hi_low) for lo, hi in bounds]

    def fits(k):  # on copies of the roots; exact roots never change
        twin = {s: s if s.is_exact() else s._copy() for s in dict.fromkeys(roots)}
        return all(b - a <= width for a, b in enclosures([twin[s] for s in roots], k))

    out = enclosures(roots, 0)
    if any(hi - lo > width for lo, hi in out):
        # fits is monotone, as the intervals nest: double k to a fit, then bisect
        top = next(1 << i for i in count() if fits(1 << i))
        out = enclosures(roots, bisect_left(range(top), True, top // 2 + 1, key=fits))
    return out[::-1]  # weakly decreasing
