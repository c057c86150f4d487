"""Symmetric polynomials in the elementary-symmetric-mean basis.

Hook-shaped polynomials sum(a_i * m1^(d-i) * m_i) are stored over the
means m_k = e_k / binom(n, k).  In that basis the restriction to a line
x + t*1 expands binomially with coefficients independent of the number
of variables, which is what makes variable lifting a no-op on the
coefficient vector.
"""

from __future__ import annotations

from math import comb, lcm

from .errors import DegreeTooHigh, DegreeTooLow, ShrinkNotAllowed, ZeroPolynomial
from .rationals import Q, QZERO, FrozenRecord, proportional, to_q
from .unipoly import UniPoly


class HookPoly(FrozenRecord):
    """Hook-shaped symmetric polynomial: sum_i a[i-1] * m1^(d-i) * m_i
    in n variables, coefficients over elementary symmetric means."""

    __slots__ = ("n", "d", "a")

    def __init__(self, n: int, d: int, a: tuple):
        a = tuple(to_q(c) for c in a)
        if not (1 <= d <= n):
            raise DegreeTooHigh(f"need 1 <= d <= n, got d={d}, n={n}")
        if len(a) != d:
            raise DegreeTooHigh(f"expected {d} coefficients, got {len(a)}")
        if all(c == 0 for c in a):
            raise ZeroPolynomial("hook polynomial must be nonzero")
        self._init(n, d, a)

    @staticmethod
    def from_e_basis(n: int, d: int, a_e) -> "HookPoly":
        """Convert coefficients over e_1^(d-i) e_i to the mean basis."""
        a_e = HookPoly(n, d, a_e).a  # the shape first: 0 ** (d - i) fails for i > d
        return HookPoly(n, d, tuple(c * Q(n) ** (d - i) * comb(n, i)
                                    for i, c in enumerate(a_e, start=1)))

    def scaled(self, c) -> "HookPoly":
        c = to_q(c)
        return HookPoly(self.n, self.d, tuple(ai * c for ai in self.a))

    def proportional_to(self, other: "HookPoly") -> bool:
        return (self.n, self.d) == (other.n, other.d) and proportional(self.a, other.a)


class SymPoint(FrozenRecord):
    """A point of R^n with exact rational coordinates."""

    __slots__ = ("x",)

    def __init__(self, x: tuple):
        self._init(tuple(to_q(c) for c in x))

    def __len__(self):
        return len(self.x)


def _coords(x, d: int):
    """The coordinates of a point as rationals; at least d of them."""
    coords = x.x if isinstance(x, SymPoint) else [to_q(c) for c in x]
    if d > len(coords):
        raise DegreeTooHigh(f"d={d} exceeds variable count n={len(coords)}")
    return coords


def elem_ints(coords, d: int):
    """(E, L): the common denominator L of the rationals `coords` and the
    ints E_k = L^k e_k(coords), k = 0..d, by the product recurrence."""
    L = lcm(*(c.denominator for c in coords))
    e = [1] + [0] * d
    for c in coords:
        v = c.numerator * (L // c.denominator)
        for k in range(d, 0, -1):
            e[k] += v * e[k - 1]
    return e, L


def elem_means(x, d: int):
    """(m_0(x)=1, m_1(x), ..., m_d(x)): the e_k(x) / binom(n, k)."""
    coords = _coords(x, d)
    e, L = elem_ints(coords, d)
    return tuple(Q(e[k], L**k * comb(len(coords), k)) for k in range(d + 1))


def eval_hook(p: HookPoly, x) -> Q:
    """p(x) on integers, by homogeneity: with x = X / L and the weights of
    e_1^(d-i) e_i over M, p(x) = sum_i (M w_i) E_1^(d-i) E_i / (M L^d)."""
    coords = _coords(x, p.d)
    e, L = elem_ints(coords, p.d)
    weights, M = _int_weights(p.a, len(coords), p.d)
    return Q(sum(w * e[1] ** (p.d - i) * e[i] for i, w in weights.items()), M * L**p.d)


def _int_weights(a, n: int, d: int):
    """The weights w_i = a_i / (n^(d-i) binom(n, i)) of e_1^(d-i) e_i, as
    ({i: M w_i}, M) over their common denominator M; zero weights dropped."""
    w = {i: c / (n ** (d - i) * comb(n, i)) for i, c in enumerate(a, 1) if c}
    M = lcm(*(c.denominator for c in w.values()))
    return {i: c.numerator * (M // c.denominator) for i, c in w.items()}, M


def restrict_line(p: HookPoly, x) -> UniPoly:
    """The univariate polynomial t -> p(x + t*1), expanded exactly.

    With n = len(x), p = sum_i w_i e_1^(d-i) e_i, e_1(x + t*1) = e_1(x) + n t
    and e_i(x + t*1) = sum_s binom(n-i+s, s) e_(i-s)(x) t^s.  On ints: with
    x over its common denominator L and the weights over theirs, M, the
    coefficient of t^j is c_j / (M L^(d-j)) = c_j L^j / (M L^d) for an
    integer c_j.
    """
    coords, d = _coords(x, p.d), p.d
    n = len(coords)
    e, L = elem_ints(coords, d)
    weights, M = _int_weights(p.a, n, d)
    out = [0] * (d + 1)
    for i, w in weights.items():
        for j in range(d - i + 1):
            c = w * comb(d - i, j) * e[1] ** (d - i - j) * n**j
            for s in range(i + 1):
                out[j + s] += c * comb(n - i + s, s) * e[i - s]
    return UniPoly.from_ints([c * L**j for j, c in enumerate(out)], M * L**d)


def dir_derivative_one(p: HookPoly) -> HookPoly:
    """Directional derivative along the all-ones vector, as a hook
    polynomial of degree d-1.

    Derivation: D_1 m_k = k * m_{k-1} (n-independent over means), so the
    product rule folds back into the hook basis; the i=1 second term
    lands on index 1 because m_0 = 1.  The closed form is checked against
    the line-restriction contract in the tests.
    """
    if p.d < 2:
        raise DegreeTooLow("directional derivative of a linear hook polynomial")
    d = p.d
    b = [QZERO] * (d - 1)
    for i, a in enumerate(p.a, start=1):
        if a == 0:
            continue
        if i <= d - 1:
            b[i - 1] += a * (d - i)
        if i >= 2:
            b[i - 2] += a * i
        else:
            b[0] += a
    return HookPoly(p.n, d - 1, tuple(b))


def _mul4(a, b):
    """Product of c00 + c10*s + c01*t + c11*s*t polynomials, as 4-tuples,
    truncated past first order in s and in t."""
    return (
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[2] * b[0],
        a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
    )


def mixed_derivative_eval(p: HookPoly, u, w, x) -> Q:
    """Exact value of D_u p * D_w p - p * D_{uw} p at x.

    Evaluated through the bivariate restriction (s, t) -> p(x + s*u + t*w)
    truncated past first order in each direction, on int 4-tuples: the
    value is homogeneous of degree 2d in (x, u, w), so their common
    denominator L is cleared, the weights a_i / (n^(d-i) binom(n, i)) of
    e_1^(d-i) e_i are taken over their common denominator M, and the
    result is divided by M^2 L^(2d) at the end.
    """
    vecs = [_coords(v, 0) for v in (x, u, w)]
    n, d = p.n, p.d
    L = lcm(*(c.denominator for v in vecs for c in v))
    X, U, W = ([c.numerator * (L // c.denominator) for c in v] for v in vecs)
    e = [(1, 0, 0, 0)] + [(0, 0, 0, 0)] * d
    for xi, ui, wi in zip(X, U, W):
        for k in range(d, 0, -1):  # e_k += (x_i + u_i s + w_i t) e_(k-1)
            b, c = e[k - 1], e[k]
            e[k] = (
                c[0] + xi * b[0],
                c[1] + xi * b[1] + ui * b[0],
                c[2] + xi * b[2] + wi * b[0],
                c[3] + xi * b[3] + ui * b[2] + wi * b[1],
            )
    weights, M = _int_weights(p.a, n, d)
    powers = [(1, 0, 0, 0)]
    for _ in range(d - 1):
        powers.append(_mul4(powers[-1], e[1]))
    val = (0, 0, 0, 0)
    for i, c in weights.items():
        val = [v + c * t for v, t in zip(val, _mul4(powers[d - i], e[i]))]
    c00, c10, c01, c11 = val
    return Q(c10 * c01 - c00 * c11, M * M * L ** (2 * d))


def lift_variables(p: HookPoly, m: int) -> HookPoly:
    """Reinterpret the same mean-basis coefficients in m >= n variables."""
    if m < p.n:
        raise ShrinkNotAllowed(f"cannot shrink from {p.n} to {m} variables")
    return HookPoly(m, p.d, p.a)
