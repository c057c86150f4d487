import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercheck.errors import (
    DegreeTooHigh,
    DegreeTooLow,
    ShrinkNotAllowed,
    ZeroPolynomial,
)
from hypercheck.cli import run
from hypercheck.hyperbolicity import _restriction_ints
from hypercheck.rationals import Q, QONE, QZERO
from hypercheck.sympoly import (
    HookPoly,
    SymPoint,
    dir_derivative_one,
    elem_ints,
    elem_means,
    eval_hook,
    lift_variables,
    mixed_derivative_eval,
    restrict_line,
)
from hypercheck.unipoly import UniPoly

small_q = st.fractions(
    min_value=-6, max_value=6, max_denominator=3
).map(lambda f: Q(f.numerator, f.denominator))


def rand_hook(rng, n=None, d=None):
    n = n or rng.randint(2, 6)
    d = d or rng.randint(1, n)
    a = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]
    if all(c == 0 for c in a):
        a[-1] = Q(1)
    return HookPoly(n, d, tuple(a))


def rand_point(rng, n):
    return [Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]


# -- HookPoly structure -------------------------------------------------------


def test_hook_validation():
    with pytest.raises(DegreeTooHigh):
        HookPoly(2, 3, (1, 0, 0))
    with pytest.raises(DegreeTooHigh):
        HookPoly(3, 2, (1,))
    with pytest.raises(ZeroPolynomial):
        HookPoly(3, 2, (0, 0))


def _to_e_basis(p):
    return tuple(
        c / (Q(p.n) ** (p.d - i) * comb(p.n, i)) for i, c in enumerate(p.a, start=1)
    )


def test_e_basis_round_trip():
    rng = random.Random(0)
    for _ in range(30):
        p = rand_hook(rng)
        back = HookPoly.from_e_basis(p.n, p.d, _to_e_basis(p))
        assert back.a == p.a


def test_proportional_to():
    p = HookPoly(4, 3, (1, 0, 2))
    assert p.proportional_to(p.scaled(Q(-7, 3)))
    assert not p.proportional_to(HookPoly(4, 3, (1, 0, 3)))
    assert not p.proportional_to(HookPoly(4, 3, (1, 1, 2)))


# -- elementary symmetric means -----------------------------------------------


def test_elem_means_at_ones():
    assert elem_means([1] * 5, 5) == tuple([Q(1)] * 6)


def test_elem_means_examples():
    assert elem_means([1, 0, 0, 0], 2) == (Q(1), Q(1, 4), Q(0))
    assert elem_means([1, 2, 3], 3) == (Q(1), Q(2), Q(11, 3), Q(6))


def test_elem_means_degree_guard():
    with pytest.raises(DegreeTooHigh):
        elem_means([1, 2], 3)


def test_eval_hook_matches_direct_expansion():
    # p = m1 * m2 at (1, 2, 3): m1 = 2, m2 = 11/3
    p = HookPoly(3, 3, (0, 1, 0))
    assert eval_hook(p, [1, 2, 3]) == Q(2) * Q(11, 3)


# -- line restriction ---------------------------------------------------------


def test_restrict_line_is_evaluation():
    rng = random.Random(1)
    for _ in range(40):
        p = rand_hook(rng)
        x = rand_point(rng, p.n)
        q = restrict_line(p, x)
        for t in (Q(0), Q(1), Q(-2), Q(3, 2)):
            shifted = [xi + t for xi in x]
            assert q.evaluate(t) == eval_hook(p, shifted)


def test_restrict_line_examples():
    # m3 at a coordinate vector in 3 variables: (x1+t)(x2+t)(x3+t) = (1+t)t^2
    p = HookPoly(3, 3, (0, 0, 1))
    assert restrict_line(p, [1, 0, 0]) == UniPoly([0, 0, 1, 1], 3)


def test_restrict_line_ambient_degree():
    p = HookPoly(5, 3, (1, 0, -1))
    q = restrict_line(p, [0, 0, 0, 0, 0])
    assert q.ambient_degree == 3


def test_euler_identity_on_restrictions():
    """p(x + t*1) has t^d coefficient p(1) and, by Euler's identity
    (grad p(1) = (d p(1) / n) * 1 for a symmetric form), t^(d-1)
    coefficient d * p(1) * m1(x); so at p(1) = 0 every restriction has
    degree <= d - 2.  Every other hook is moved to p(1) = 0."""
    rng = random.Random(26)
    for i in range(300):
        p = rand_hook(rng, n=rng.randint(5, 8), d=rng.randint(3, 5))
        if i % 2 and any(p.a[1:]):
            p = HookPoly(p.n, p.d, (p.a[0] - sum(p.a),) + p.a[1:])
        x = rand_point(rng, p.n)
        q = restrict_line(p, x).coeffs
        assert q[p.d] == sum(p.a) == eval_hook(p, [QONE] * p.n)
        assert q[p.d - 1] == p.d * sum(p.a) * elem_means(x, 1)[1]


def test_restriction_of_a_hook_that_m1_divides():
    """A hook with a_d = 0 is m1 * q, q = HookPoly(n, d - 1, a[:-1]), and
    its restriction is (m1(x) + t) * q(x + t*1): the two have the same
    non-real roots at every x, which the falsifier's closed-form stop
    rests on."""
    rng = random.Random(29)
    for _ in range(200):
        d = rng.randint(4, 6)
        n = rng.randint(d, d + 2)
        a = tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d - 1))
        if not any(a):
            continue
        p, q = HookPoly(n, d, a + (QZERO,)), HookPoly(n, d - 1, a)
        x = rand_point(rng, n)
        m1 = elem_means(x, 1)[1]
        assert restrict_line(p, x) == UniPoly([m1, QONE]) * restrict_line(q, x)


def _fraction_means(x, d):
    """m_k(x) = e_k(x) / binom(len(x), k) by the Fraction recurrence."""
    e = [QONE] + [QZERO] * d
    for c in x:
        for k in range(d, 0, -1):
            e[k] += c * e[k - 1]
    return [e[k] / comb(len(x), k) for k in range(d + 1)]


def _fraction_restrict_line(p, x):
    """restrict_line by Fraction UniPoly products over the means."""
    m = _fraction_means(x, p.d)
    m1_line = UniPoly([m[1], QONE])
    powers = [UniPoly([QONE])]
    for _ in range(p.d - 1):
        powers.append(powers[-1] * m1_line)
    out = UniPoly([QZERO], p.d)
    for i, a in enumerate(p.a, start=1):
        if a != 0:
            mk_line = UniPoly([comb(i, j) * m[j] for j in range(i, -1, -1)])
            out = out + (powers[p.d - i] * mk_line) * a
    return UniPoly(out.coeffs, p.d)


def elementary_restriction(x, k, n):
    """e_k(x + t*1) from the integer elementary symmetric functions, as
    ek_plus_linear_check builds it."""
    e, L = elem_ints([Q(c) for c in x], k)
    return UniPoly.from_ints(_restriction_ints(e, L, k, n), L**k)


def _fraction_elementary_restriction(x, k, n):
    e = [QONE] + [QZERO] * k
    for c in x:
        for j in range(k, 0, -1):
            e[j] += c * e[j - 1]
    return UniPoly([comb(n - k + j, j) * e[k - j] for j in range(k + 1)], k)


# non-unit denominators, negative entries, and points with more coordinates
# than the hook has variables
restriction_case = st.integers(1, 5).flatmap(
    lambda d: st.tuples(
        st.integers(d, 7),
        st.lists(small_q, min_size=d, max_size=d).filter(any),
        st.lists(small_q, min_size=d, max_size=8),
        st.integers(0, d),
    )
)


@settings(max_examples=300, deadline=None)
@given(restriction_case)
def test_restrictions_match_fraction_reference(case):
    n, a, x, k = case
    p = HookPoly(n, len(a), tuple(a))
    assert restrict_line(p, x).coeffs == _fraction_restrict_line(p, x).coeffs
    assert elem_means(x, p.d) == tuple(_fraction_means(x, p.d))
    n_e = max(n, len(x))
    assert (
        elementary_restriction(x, k, n_e).coeffs
        == _fraction_elementary_restriction(x, k, n_e).coeffs
    )


QUARTIC_PINNED = [
    (
        '{"n": 5, "d": 4, "a": ["0/1", "875/8", "-1695/8", "207/2"]}',
        0,
        '{"detail":{"shifted_restriction":{"coeffs":["-621/1250","1617/500",'
        '"-379/100","0/1","1/1"],"n":4}},"status":"Hyperbolic"}',
    ),
    (
        '{"n": 5, "d": 4, "a": ["-5/1", "6/1", "-5/1", "6/1"]}',
        2,
        '{"detail":{"real_rooted":false,"shifted_restriction":{"coeffs":'
        '["-18/625","38/125","-27/25","0/1","2/1"],"n":4}},'
        '"status":"NotHyperbolic","witness":{"nonreal_roots":2,'
        '"x":["1/1","0/1","0/1","0/1","0/1"]}}',
    ),
]


@pytest.mark.parametrize("hook, code, expected", QUARTIC_PINNED)
def test_check_quartic_pinned(capsys, hook, code, expected):
    """check-quartic documents recorded with the Fraction restriction."""
    assert run(["check-quartic", "--hook", hook]) == code
    assert capsys.readouterr().out == expected + "\n"


# -- directional derivative along the all-ones vector -------------------------


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_dir_derivative_commutes_with_restriction(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = rng.randint(2, 6)
    p = rand_hook(rng, n=n, d=rng.randint(2, n))
    x = rand_point(rng, p.n)
    lhs = restrict_line(p, x).derivative()
    try:
        dp = dir_derivative_one(p)
    except ZeroPolynomial:
        assert lhs.is_zero()
        return
    assert lhs == UniPoly(restrict_line(dp, x).coeffs, lhs.ambient_degree)


def test_dir_derivative_degree_guard():
    with pytest.raises(DegreeTooLow):
        dir_derivative_one(HookPoly(3, 1, (1,)))


# -- mixed derivative -----------------------------------------------------------


def _restriction_oracle(p, x):
    """q'(0)^2 - q(0) q''(0) for q(t) = p(x + t*1), scaled to match the
    mixed derivative along u = w = 1."""
    q = restrict_line(p, x)
    d1 = q.derivative()
    d2 = d1.derivative()
    return d1.evaluate(0) ** 2 - q.evaluate(0) * d2.evaluate(0)


def test_mixed_derivative_matches_line_oracle():
    rng = random.Random(2)
    ones_cache = {}
    for _ in range(30):
        p = rand_hook(rng)
        x = rand_point(rng, p.n)
        ones = ones_cache.setdefault(p.n, [Q(1)] * p.n)
        assert mixed_derivative_eval(p, ones, ones, x) == _restriction_oracle(p, x)


def test_mixed_derivative_symmetry():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_hook(rng)
        x = rand_point(rng, p.n)
        u = rand_point(rng, p.n)
        w = rand_point(rng, p.n)
        assert mixed_derivative_eval(p, u, w, x) == mixed_derivative_eval(
            p, w, u, x
        )


class _Trunc2:
    """Reference: c00 + c10*s + c01*t + c11*s*t over Fraction, truncated
    past first order in s and in t (the evaluator before integer tuples)."""

    def __init__(self, c00=Q(0), c10=Q(0), c01=Q(0), c11=Q(0)):
        self.c = (c00, c10, c01, c11)

    def __add__(self, other):
        return _Trunc2(*(a + b for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        a, b = self.c, other.c
        return _Trunc2(
            a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[2] * b[0],
            a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
        )

    def scale(self, q):
        return _Trunc2(*(a * q for a in self.c))


def _mixed_derivative_by_fractions(p, u, w, x):
    n, d = p.n, p.d
    e = [_Trunc2(Q(1))] + [_Trunc2() for _ in range(d)]
    for xi, ui, wi in zip(x, u, w):
        lin = _Trunc2(xi, ui, wi)
        for k in range(d, 0, -1):
            e[k] = e[k] + lin * e[k - 1]
    m = [e[k].scale(Q(1, comb(n, k))) for k in range(d + 1)]
    val = _Trunc2()
    for i, a in enumerate(p.a, start=1):
        power = _Trunc2(Q(1))
        for _ in range(d - i):
            power = power * m[1]
        val = val + (power * m[i]).scale(a)
    c00, c10, c01, c11 = val.c
    return c10 * c01 - c00 * c11


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_mixed_derivative_matches_fraction_reference(d):
    """Integer tuples over one cleared denominator give the Fraction value,
    for arbitrary directions u, w with negative entries and denominators."""
    rng = random.Random(10 + d)
    for _ in range(25):
        p = rand_hook(rng, n=rng.randint(d, d + 2), d=d)
        x, u, w = (
            [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(p.n)]
            for _ in range(3)
        )
        assert mixed_derivative_eval(p, u, w, x) == _mixed_derivative_by_fractions(
            p, u, w, x
        )


# -- variable lifting -----------------------------------------------------------


def test_lift_preserves_coefficients():
    p = HookPoly(3, 3, (1, -2, 3))
    q = lift_variables(p, 7)
    assert q.n == 7 and q.a == p.a


def test_lift_rejects_shrink():
    with pytest.raises(ShrinkNotAllowed):
        lift_variables(HookPoly(4, 2, (1, 1)), 3)


def test_lift_consistent_on_padded_points():
    # the mean-basis coefficients are chosen so that evaluation along
    # lines through padded points stays consistent at t where the padded
    # coordinates sit at 0
    rng = random.Random(4)
    for _ in range(20):
        p = rand_hook(rng, n=3, d=3)
        q = lift_variables(p, 5)
        x = rand_point(rng, 3)
        r3 = restrict_line(p, x)
        r5 = restrict_line(q, x + [Q(0), Q(0)])
        # both restrictions agree at t=0 up to the mean rescaling of m1
        assert r3.evaluate(0) == eval_hook(p, x)
        assert r5.evaluate(0) == eval_hook(q, x + [Q(0), Q(0)])


def test_sympoint_len():
    assert len(SymPoint((1, 2, 3))) == 3
