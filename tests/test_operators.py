import contextlib
import random
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypercheck import operators
from hypercheck.errors import DegreeMismatch, DegreeTooLow, NotInSimplex
from hypercheck.operators import (
    DiagonalMap,
    _critical_probes,
    FullDiagonalMap,
    apply,
    associated_operator,
    binomial_coords,
    decide_extendable,
    g0,
    map_sending_g0_to,
    necessary_sign_test,
    operator_to_hook,
    phi,
    polya_schur_test,
)
from hypercheck.rationals import Q, QONE, QZERO
from hypercheck.sympoly import HookPoly, restrict_line
from hypercheck.unipoly import (
    UniPoly,
    ZeroSumPoly,
    delta_n,
    discriminant,
    root_profile,
)


def _dilate(p, c):
    """p(c t) at the same ambient degree."""
    return UniPoly([a * c**j for j, a in enumerate(p.coeffs)], p.ambient_degree)


def full_map_sending_onesbase_to(f, n):
    """The diagonal map on R[t]_n sending (t-1)^n to f (ambient degree d)."""
    d = f.ambient_degree
    base = UniPoly.from_roots([1] * n, ambient=n)
    gp = [f.coeffs[d - k] / base.coeffs[n - k] for k in range(d + 1)]
    return FullDiagonalMap(n, d, tuple(gp))


def rand_hook(rng, n=None, d=None):
    n = n or rng.randint(2, 6)
    d = d or rng.randint(1, n)
    a = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]
    if all(c == 0 for c in a):
        a[-1] = Q(1)
    return HookPoly(n, d, tuple(a))


def rand_zero_sum_monic(rng, n):
    roots = [Q(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n)]
    s = sum(roots)
    roots = [r - s / n for r in roots]
    return ZeroSumPoly(UniPoly.from_roots(roots, ambient=n)), roots


# -- g0 -----------------------------------------------------------------------


def test_g0_small_cases():
    assert g0(2).inner == UniPoly([-1, 0, 1])
    assert g0(3).inner == UniPoly([2, -3, 0, 1])


def test_g0_coefficient_formula():
    # derived from the symbolic product: coefficient of t^{n-k} is
    # (-1)^k (1-k) binom(n, k)
    for n in range(2, 13):
        gn = g0(n).inner
        for k in range(n + 1):
            assert gn.coeffs[n - k] == Q((-1) ** k * (1 - k) * comb(n, k))


def test_g0_matches_factored_expansion():
    """g0(n), written from its coordinates, equals (t + n - 1)(t - 1)^(n-1)
    multiplied out on integers, factor by factor."""
    for n in range(2, 61):
        coeffs = [n - 1, 1]  # ascending
        for _ in range(n - 1):
            coeffs = [lo - hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
        assert g0(n).inner == UniPoly(coeffs)


def test_g0_is_delta_of_ones_base():
    for n in range(2, 13):
        base = UniPoly.from_roots([1] * n, ambient=n)
        assert delta_n(base).inner == g0(n).inner


def test_g0_degree_guard():
    with pytest.raises(DegreeTooLow):
        g0(1)


# -- DiagonalMap basics ---------------------------------------------------------


def test_map_validation_and_equality():
    with pytest.raises(DegreeMismatch):
        DiagonalMap(3, 2, (1, 2))
    with pytest.raises(DegreeMismatch):
        DiagonalMap(2, 3, (1, 2, 3, 4))
    with pytest.raises(DegreeTooLow):
        DiagonalMap(3, -1, ())  # an empty gamma has the d + 1 entries of d = -1
    a = DiagonalMap(4, 2, (1, 5, 3))
    b = DiagonalMap(4, 2, (1, -7, 3))
    assert a == b  # gamma_1 never acts on the zero-sum space
    assert a != DiagonalMap(4, 2, (1, 5, 4))
    assert a.proportional_to(DiagonalMap(4, 2, (2, 0, 6)))


def test_apply_requires_matching_degree_and_zero_sum():
    T = DiagonalMap(3, 2, (1, 1, 1))
    with pytest.raises(DegreeMismatch):
        apply(T, ZeroSumPoly(UniPoly([1, 0, 0, 0, 1], 4)))
    with pytest.raises(DegreeMismatch):
        apply(T, UniPoly([0, 0, 1, 1], 3))  # t^{n-1} coefficient present


def test_binomial_coords():
    g = g0(3).inner  # t^3 - 3t + 2
    assert binomial_coords(g) == (Q(1), Q(0), Q(-1), Q(2))


# -- associated operator / defining oracle --------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_defining_oracle(seed):
    """T(g) must equal lead(g) * p(rootvec(g) - 1*t) exactly."""
    rng = random.Random(seed)
    p = rand_hook(rng)
    T = associated_operator(p)
    g, roots = rand_zero_sum_monic(rng, p.n)
    lhs = apply(T, g).inner
    rhs = UniPoly(_dilate(restrict_line(p, roots), Q(-1)).coeffs, p.d)
    assert lhs == rhs


def test_power_of_first_mean_annihilates_lower_coefficients():
    for n in range(2, 6):
        for d in range(1, n + 1):
            p = HookPoly(n, d, tuple([1] + [0] * (d - 1)))
            T = associated_operator(p)
            assert T.gamma[0] == Q(-1) ** d
            assert all(T.gamma[k] == 0 for k in range(2, d + 1))


def test_round_trip_hook_operator():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_hook(rng)
        T = associated_operator(p)
        assert operator_to_hook(T).a == p.a
        assert associated_operator(operator_to_hook(T)) == T


def test_operator_to_hook_needs_positive_degree():
    with pytest.raises(DegreeTooLow):
        operator_to_hook(DiagonalMap(5, 0, (2,)))


def test_commutation_with_delta():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 6)
        d = rng.randint(1, n)
        T = DiagonalMap(n, d, tuple(Q(rng.randint(-5, 5)) for _ in range(d + 1)))
        coeffs = [Q(rng.randint(-5, 5)) for _ in range(n + 1)]
        coeffs[n - 1] = Q(0)
        g = UniPoly(coeffs, n)
        lhs = apply(T, delta_n(g)).inner
        rhs = delta_n(apply(T, ZeroSumPoly(g)).inner).inner
        assert lhs == rhs


def test_quintic_image_of_pivot():
    p = HookPoly.from_e_basis(5, 5, (0, 0, 7, -220, 4500))
    T = associated_operator(p)
    image = apply(T, g0(5)).inner
    target = UniPoly.from_roots([1, 1, 2, 2, -6], ambient=5)
    assert image == target * Q(-750)


def test_quintic_hook_recovered_from_target():
    target = UniPoly.from_roots([1, 1, 2, 2, -6], ambient=5)
    T = map_sending_g0_to(ZeroSumPoly(target), 5)
    p = operator_to_hook(T)
    expected = HookPoly.from_e_basis(5, 5, (0, 0, 7, -220, 4500))
    assert p.proportional_to(expected)


def test_map_sending_g0_to_hits_target():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 7)
        d = rng.randint(1, n)
        coeffs = [Q(rng.randint(-5, 5)) for _ in range(d + 1)]
        if d >= 1:
            coeffs[d - 1] = Q(0)
        g = UniPoly(coeffs, d)
        T = map_sending_g0_to(ZeroSumPoly(g), n)
        assert apply(T, g0(n)).inner == g


# -- Polya-Schur test -------------------------------------------------------------


def test_polya_schur_identity_and_violation():
    assert polya_schur_test(FullDiagonalMap(4, 4, (1, 1, 1, 1, 1)))
    assert not polya_schur_test(FullDiagonalMap(3, 3, (1, 1, -1, 1)))


def test_full_map_refuses_negative_degree():
    with pytest.raises(DegreeTooLow):
        FullDiagonalMap(3, -1, ())  # an empty gamma' has the d + 1 entries of d = -1


def test_full_map_refuses_target_degree_above_source():
    # apply read g.nums[n - k] at k > n from the other end: t^2 + 7 went to t^3 + 5
    with pytest.raises(DegreeMismatch):
        FullDiagonalMap(2, 3, (1, 0, 0, 5))
    T = FullDiagonalMap(2, 2, (1, 0, 5))
    assert T.apply(UniPoly([7, 0, 1], 2)) == UniPoly([35, 0, 1], 2)


def test_polya_schur_derivative_map():
    # t^{n-k} -> (n-k) t^{n-k-1} realized as a diagonal map to degree n-1
    n = 5
    gp = tuple(Q(n - k) for k in range(n))
    T = FullDiagonalMap(n, n - 1, gp)
    # image of (t-1)^n is n (t-1)^{n-1}: a classical multiplier sequence
    assert polya_schur_test(T)


def test_full_map_construction_and_restriction():
    f = UniPoly.from_roots([0, 0, 0, 1], ambient=4)
    T = full_map_sending_onesbase_to(f, 4)
    base = UniPoly.from_roots([1] * 4, ambient=4)
    assert T.apply(base) == f
    assert polya_schur_test(T)


# -- necessary sign test ------------------------------------------------------------


def test_necessary_sign_test_examples():
    assert necessary_sign_test(associated_operator(HookPoly(3, 3, (0, 0, 1))))
    assert not necessary_sign_test(associated_operator(HookPoly(3, 3, (1, 0, 1))))
    # image t^d: degenerate all-zero roots pass
    T = map_sending_g0_to(ZeroSumPoly(UniPoly([0, 0, 0, 1], 3)), 3)
    assert necessary_sign_test(T)


# -- extendability ---------------------------------------------------------------


def test_extendable_t4():
    T = map_sending_g0_to(ZeroSumPoly(UniPoly([0, 0, 0, 0, 1], 4)), 4)
    ok, cert = decide_extendable(T)
    assert ok and cert.kind == "Extension"
    prof = root_profile(cert.f)
    assert prof.n_nonreal == 0
    assert prof.n_positive == 0 or prof.n_negative == 0
    assert delta_n(cert.f).inner == UniPoly([0, 0, 0, 0, 1], 4)


def test_quintic_multiplicity_obstruction():
    p = HookPoly.from_e_basis(5, 5, (0, 0, 7, -220, 4500))
    ok, cert = decide_extendable(associated_operator(p))
    assert not ok and cert.kind == "MultiplicityObstruction"
    entries = sorted((r.exact, m) for r, m in cert.obstruction)
    assert entries == [(Q(1), 3), (Q(2), 3)]
    assert sum(m for _, m in entries) > 5


def test_extendable_low_degree_theorem():
    """Maps with d <= 4 passing the sign test are always extendable."""
    rng = random.Random(10)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 8)
        d = rng.randint(3, min(4, n))
        T = DiagonalMap(
            n, d, tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1))
        )
        if not necessary_sign_test(T):
            continue
        ok, cert = decide_extendable(T)
        assert ok, (T.gamma, cert.kind, cert.detail)
        prof = root_profile(cert.f)
        assert prof.n_nonreal == 0
        assert prof.n_positive == 0 or prof.n_negative == 0
        assert delta_n(cert.f).inner == apply(T, g0(n)).inner
        checked += 1


def test_extension_round_trip_through_polya_schur():
    """An Extension witness induces a full diagonal map passing the
    multiplier-sequence test whose zero-sum restriction reproduces T."""
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        n = rng.randint(3, 6)
        d = rng.randint(3, min(4, n))
        T = DiagonalMap(
            n, d, tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1))
        )
        if not necessary_sign_test(T):
            continue
        ok, cert = decide_extendable(T)
        if not ok or cert.f.is_zero():
            continue
        full = full_map_sending_onesbase_to(cert.f, n)
        assert polya_schur_test(full)
        gamma = [full.gamma_prime[k] * comb(full.n, k) for k in range(full.d + 1)]
        restricted = DiagonalMap(full.n, full.d, tuple(gamma))
        # the restriction sends g0 to delta_d(f) = T(g0); on the zero-sum
        # space that pins the map up to the unobservable gamma_1
        assert apply(restricted, g0(n)).inner == apply(T, g0(n)).inner
        checked += 1


def test_forced_boundary_lambda_is_found():
    """A target whose only valid preimage sits exactly at a discriminant
    root of the lambda family (quadruple root) must still be decided
    extendable."""
    g = UniPoly.from_roots([Q(1, 3)] * 3 + [Q(-1)], ambient=4)
    T = map_sending_g0_to(ZeroSumPoly(g), 4)
    ok, cert = decide_extendable(T)
    assert ok
    assert cert.f == UniPoly.from_roots([Q(1, 3)] * 4, ambient=4)


def test_extend_zero_image():
    T = DiagonalMap(4, 3, (0, 0, 0, 0))
    ok, cert = decide_extendable(T)
    assert ok and cert.kind == "Extension"
    assert delta_n(cert.f).inner.is_zero()


small_q = st.fractions(-6, 6, max_denominator=3).map(lambda f: Q(f.numerator, f.denominator))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_top_gamma_zero_fails_the_sign_test(data):
    """gamma_0 = 0 leaves T(g0) of degree <= d - 2, short of the d - 1
    roots of one sign the sign test asks for, so decide_extendable's sweep
    never sees a lambda on the top coefficient."""
    d = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(d, d + 3))
    gamma = (QZERO, QZERO) + tuple(data.draw(st.lists(small_q, min_size=d - 1, max_size=d - 1)))
    T = DiagonalMap(n, d, gamma)
    assume(not apply(T, g0(n)).inner.is_zero())
    ok, cert = decide_extendable(T)
    assert not ok and cert.kind == "SweepRefutation"
    assert cert.detail == {"reason": "necessary sign test fails"}


# -- phi -----------------------------------------------------------------------


def test_phi_vertex_special_case():
    assert phi([1, 0, 0, 0]) == [(Q(1), Q(1)), (Q(0), Q(0)), (Q(0), Q(0))]


def test_phi_known_images():
    out = phi([Q(1, 4)] * 4)
    assert all(lo == hi == Q(1, 3) for lo, hi in out)
    out = phi([Q(1, 3), Q(1, 3), Q(1, 3), Q(0)])
    assert [lo for lo, _ in out] == [Q(1, 2), Q(1, 2), Q(0)]
    assert all(lo == hi for lo, hi in out)


def test_phi_validates_simplex():
    with pytest.raises(NotInSimplex):
        phi([Q(1, 2), Q(1, 2), Q(1, 2)])
    with pytest.raises(NotInSimplex):
        phi([Q(0), Q(1)])  # not weakly decreasing
    with pytest.raises(NotInSimplex):
        phi([Q(3, 2), Q(-1, 2)])


def _phi_lockstep(r, width):
    """Reference phi on a point of the simplex other than (1, 0, ..., 0):
    the lockstep loop, which bisects every listed root once per pass and
    rebuilds all the enclosures after each pass until they fit."""
    p = UniPoly.from_roots(r, ambient=len(r))
    roots = root_profile(delta_n(p).inner).roots_with_multiplicity()
    for root in roots:
        root.try_rational()
    kept = roots[1:]  # drop the unique most-negative root
    low = roots[0]
    # enclosures: s_i / (-s_low); refine until tight enough
    while True:
        lo_l, hi_l = low.interval()
        den_lo, den_hi = -hi_l, -lo_l
        if den_lo <= 0:
            low.refine()
            continue
        out = []
        widest = QZERO
        for root in kept:
            lo, hi = root.interval()
            lo = max(lo, QZERO)
            if root.is_exact() and low.is_exact():
                v = root.exact / -low.exact
                out.append((v, v))
                continue
            enc = (lo / den_hi, hi / den_lo)
            widest = max(widest, enc[1] - enc[0])
            out.append(enc)
        if widest <= width:
            return list(reversed(out))  # weakly decreasing
        for root in kept:
            root.refine()
        low.refine()


# y = 1/5 + 1/(10^30 + 7) and z = 1/20 + 3/(10^31 + 9) make two repeated
# roots of the image that are not rational
_Y, _Z = Q(1, 5) + Q(1, 10**30 + 7), Q(1, 20) + Q(3, 10**31 + 9)


@settings(max_examples=80, deadline=None)
@given(
    parts=st.lists(st.integers(0, 30), min_size=2, max_size=8),
    bits=st.integers(0, 300),
)
@example(parts=[1 - 3 * _Y - 3 * _Z] + [_Y] * 3 + [_Z] * 3, bits=200)
@example(parts=[1 - 3 * _Y - 3 * _Z] + [_Y] * 3 + [_Z] * 3, bits=40)
@example(parts=[9, 5, 4, 2, 0], bits=64)
@example(parts=[3, 1, 1, 0, 0], bits=100)
def test_phi_matches_lockstep_reference(parts, bits):
    """phi's least fitting pass count, refined once per root, prints the
    enclosures of the lockstep loop: repeated roots, exact roots and a
    zero last coordinate included."""
    parts = sorted(parts, reverse=True)
    assume(parts[0] != sum(parts))  # neither 0 nor the vertex (1, 0, ..., 0)
    r = [Q(c) / sum(parts) for c in parts]
    width = Q(1, 1 << bits)
    assert phi(r, width=width) == _phi_lockstep(r, width)


def test_phi_image_in_simplex():
    rng = random.Random(12)
    width = Q(1, 1 << 40)
    for _ in range(25):
        d = rng.randint(2, 6)
        raw = sorted((Q(rng.randint(0, 9)) for _ in range(d)), reverse=True)
        total = sum(raw)
        if total == 0:
            continue
        r = [c / total for c in raw]
        out = phi(r, width=width)
        assert len(out) == d - 1
        # nonnegative, weakly decreasing (up to enclosure width), sum ~ 1
        for lo, hi in out:
            assert hi >= 0 and hi - lo <= width
        for (_, hi1), (lo2, _) in zip(out, out[1:]):
            assert lo2 <= hi1 + width
        lo_sum = sum(lo for lo, _ in out)
        hi_sum = sum(hi for _, hi in out)
        assert lo_sum <= 1 <= hi_sum + (d - 1) * width


# -- Newton interpolation against the Lagrange products ----------------------


def _fraction_lagrange(samples):
    """Reference: _lagrange_interpolate as it was, a sum of products of
    Fraction UniPolys."""
    out = UniPoly([0])
    for i, (xi, yi) in enumerate(samples):
        if yi == 0:
            continue
        term = UniPoly([yi])
        for j, (xj, _) in enumerate(samples):
            if i != j:
                term = term * UniPoly([-xj / (xi - xj), Q(1) / (xi - xj)])
        out = out + term
    return out


def _fraction_disc_in_lambda(h0, slot, big_degree):
    """Reference: the samples of _disc_in_lambda, interpolated as before."""
    samples = []
    lam = 0
    while len(samples) < 2 * big_degree - 1:
        fl = list(h0.coeffs) + [Q(0)] * max(0, slot + 1 - len(h0.coeffs))
        fl[slot] += lam
        p = UniPoly(fl)
        if p.degree() == big_degree:
            samples.append((Q(lam), discriminant(p)))
        lam = -lam + 1 if lam <= 0 else -lam
    return _fraction_lagrange(samples)


def _former_sweep_candidates(crit_poly: UniPoly):
    """Reference: the probe list of the former _sweep_candidates, as it was."""
    if crit_poly.is_zero() or crit_poly.degree() < 1:
        return [QZERO, QONE, Q(-1)]
    prof = root_profile(crit_poly)
    roots = [r for r, _ in prof.real_roots]
    for r in roots:
        r.try_rational()
    if not roots:
        return [QZERO]
    candidates = [roots[0].interval()[0] - 1]
    for a, b in zip(roots, roots[1:]):
        ahi, blo = a.interval()[1], b.interval()[0]
        while ahi >= blo:
            a.refine()
            b.refine()
            ahi, blo = a.interval()[1], b.interval()[0]
        candidates.append((ahi + blo) / 2)
    candidates.append(roots[-1].interval()[1] + 1)
    for r in roots:
        if r.is_exact():
            candidates.append(r.exact)
    return candidates


def _lambda_order(count):
    """The first `count` sample points 0, 1, -1, 2, -2, ... of the sweep."""
    xs, lam = [], 0
    while len(xs) < count:
        xs.append(lam)
        lam = -lam + 1 if lam <= 0 else -lam
    return xs


coefficient = st.one_of(st.just(0), st.integers(-(10**9), 10**9))


@settings(max_examples=200, deadline=None)
@given(st.lists(coefficient, min_size=1, max_size=11))
def test_newton_interpolation_matches_lagrange(coeffs):
    """Given the values of a nonzero integer polynomial of degree < the
    number of samples, asked at the sample points of the lambda sweep in
    order: the polynomial's own coefficients at that ambient degree, as the
    Lagrange reference gives them, and the former probes on it.  A constant
    has no critical value, so its one probe covers the whole line (the
    sweep's discriminants never are constant)."""
    assume(any(coeffs))
    xs = _lambda_order(len(coeffs))
    ys = [sum(c * x**k for k, c in enumerate(coeffs)) for x in xs]
    asked = []

    def value(x):
        asked.append(x)
        return ys[xs.index(x)]

    crit, probes = _critical_probes(value, len(coeffs) - 1)
    assert asked == xs
    old = _fraction_lagrange([(Q(x), Q(y)) for x, y in zip(xs, ys)])
    assert crit.coeffs == tuple(coeffs) == old.coeffs
    assert probes == (_former_sweep_candidates(old) if old.degree() >= 1 else [QZERO])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=6),
    st.integers(-5, 5),
)
def test_disc_in_lambda_matches_reference(coeffs, top):
    """At the one slot the sweep reaches, N - 1 for N = deg h0 >= 2 with
    h0(0) != 0: the integer discriminants of H + den*lambda*t^(N-1), H =
    den * h0, interpolate to den^(2N-2) times the Lagrange reference
    disc(h0 + lambda t^(N-1)), and give the former probes on it."""
    h0 = UniPoly([Q(c, 1 + i % 3) for i, c in enumerate(coeffs)] + [Q(top)])
    big_degree = len(coeffs)
    slot = big_degree - 1
    assume(top != 0 and coeffs[0] != 0)

    def disc(lam):
        H = list(h0.nums)
        H[slot] += h0.den * lam
        return discriminant(UniPoly.from_ints(H)).numerator

    crit, probes = _critical_probes(disc, 2 * big_degree - 2)
    old = _fraction_disc_in_lambda(h0, slot, big_degree)
    assert UniPoly.from_ints(crit.nums, h0.den ** (2 * big_degree - 2)).coeffs == old.coeffs
    assert probes == _former_sweep_candidates(old)


def test_sweep_samples_the_discriminant_at_its_degree(monkeypatch):
    """On planted targets (t - s) * prod(t - r_i), d - 1 roots r_i of one
    sign and s = -sum r_i, the discriminant decide_extendable interpolates
    from N + 1 samples has degree exactly N, and its probes are those of
    2N - 1 samples."""
    calls = []

    def recording(value, degree):
        calls.append((value, degree))
        return _critical_probes(value, degree)

    monkeypatch.setattr(operators, "_critical_probes", recording)
    rng = random.Random(27)
    for _ in range(40):
        d, sign = rng.randint(3, 6), rng.choice((1, -1))
        roots = [Q(sign * rng.randint(1, 6), rng.randint(1, 3)) for _ in range(d - 1)]
        g = UniPoly.from_roots(roots + [-sum(roots)], ambient=d)
        # the known crash on unextendable targets (hcbench UNEXTENDABLE_TARGETS)
        # comes after the probes
        with contextlib.suppress(UnboundLocalError):
            decide_extendable(map_sending_g0_to(ZeroSumPoly(g), d))
    assert {degree for _, degree in calls} == {3, 4, 5, 6}
    for value, degree in calls:
        crit, probes = _critical_probes(value, degree)
        assert crit.degree() == degree
        assert _critical_probes(value, 2 * degree - 2)[1] == probes
