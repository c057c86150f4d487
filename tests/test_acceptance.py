"""Acceptance gate: one test per criterion, each printing a single
pass/fail line with the measured size and runtime.  Criteria cover the
exact cubic formula, the pivot-polynomial identity, the hook/operator
correspondence, the full quintic pipeline, low-degree extendability,
interlacing and multiplicity laws, the root-simplex map, the
degree-principle falsifier's agreement with the exact deciders, and the
e_k + linear interlacing claim.
"""

import random
import time
from math import comb

from hypercheck.errors import HypothesisViolated
from hypercheck.hyperbolicity import (
    HYPERBOLIC,
    NO_COUNTEREXAMPLE,
    NOT_HYPERBOLIC,
    SearchBudget,
    decide_cubic,
    decide_quartic_hook,
    ek_plus_linear_check,
    falsify_hyperbolicity,
)
from hypercheck.operators import (
    DiagonalMap,
    apply,
    associated_operator,
    decide_extendable,
    g0,
    map_sending_g0_to,
    necessary_sign_test,
    operator_to_hook,
    phi,
)
from hypercheck.rationals import Q
from hypercheck.sympoly import (
    HookPoly,
    mixed_derivative_eval,
    restrict_line,
)
from hypercheck.unipoly import (
    UniPoly,
    ZeroSumPoly,
    dee,
    delta_n,
    interlaces,
    is_real_rooted,
    root_profile,
)


def _dilate(p, c):
    """p(c t) at the same ambient degree."""
    return UniPoly([a * c**j for j, a in enumerate(p.coeffs)], p.ambient_degree)


def _report(num, ok, text):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def test_criterion_1_cubic_formula_fidelity():
    """decide_cubic agrees with coordinate-line real-rootedness on 1000
    random rational cubics, n <= 8, under 10 s."""
    rng = random.Random(101)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        a, b, c = (Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        if a == b == c == 0:
            continue
        n = rng.randint(3, 8)
        v = decide_cubic(a, b, c, n)
        p = HookPoly(n, 3, (a, b, c))
        u = [Q(1)] + [Q(0)] * (n - 1)
        restriction_real = is_real_rooted(restrict_line(p, u))
        assert (v.status == HYPERBOLIC) == restriction_real, (a, b, c, n)
        if v.status == NOT_HYPERBOLIC:
            x, prof = v.witness
            assert prof.n_nonreal > 0
            assert root_profile(restrict_line(p, list(x.x))).n_nonreal > 0
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1, elapsed < 10,
        f"1000 cubics, 0 disagreements with the line oracle, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_g0_identity():
    """g0(n) = delta_n((t-1)^n) and the closed coefficient formula
    (-1)^k (1-k) binom(n,k), for 2 <= n <= 12."""
    for n in range(2, 13):
        gn = g0(n).inner
        assert gn == delta_n(UniPoly.from_roots([1] * n, ambient=n)).inner
        for k in range(n + 1):
            assert gn.coeffs[n - k] == Q((-1) ** k * (1 - k) * comb(n, k))
    _report(2, True, "g0 identity and coefficient formula exact for n = 2..12")


def test_criterion_3_operator_round_trip():
    """Round-trip and defining-oracle contract on 200 random pairs,
    n <= 8, d <= 5."""
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(2, 8)
        d = rng.randint(1, min(5, n))
        a = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]
        if all(c == 0 for c in a):
            a[0] = Q(1)
        p = HookPoly(n, d, tuple(a))
        T = associated_operator(p)
        assert operator_to_hook(T).a == p.a
        roots = [Q(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n)]
        mean = sum(roots) / n
        roots = [r - mean for r in roots]
        g = ZeroSumPoly(UniPoly.from_roots(roots, ambient=n))
        lhs = apply(T, g).inner
        rhs = UniPoly(_dilate(restrict_line(p, roots), Q(-1)).coeffs, d)
        assert lhs == rhs
    _report(3, True, "200 round-trips and defining-oracle matches, all exact")


def test_criterion_4_quintic_pipeline():
    """The full quintic case: exact operator image, multiplicity
    obstruction, falsification pass at default budget, and 1e5 exact
    mixed-derivative samples, all under 5 minutes."""
    start = time.perf_counter()
    p = HookPoly.from_e_basis(5, 5, (0, 0, 7, -220, 4500))
    T = associated_operator(p)
    image = apply(T, g0(5)).inner
    target = UniPoly.from_roots([1, 1, 2, 2, -6], ambient=5)
    lead = image.leading() / target.leading()
    assert lead != 0 and image == target * lead

    ok, cert = decide_extendable(T)
    assert not ok and cert.kind == "MultiplicityObstruction"
    assert sorted((r.exact, m) for r, m in cert.obstruction) == [
        (Q(1), 3), (Q(2), 3),
    ]

    verdict = falsify_hyperbolicity(p)  # default budget
    assert verdict.status == NO_COUNTEREXAMPLE

    rng = random.Random(104)
    ones = tuple([Q(1)] * 5)
    minimum = None
    for _ in range(100_000):
        x = tuple(Q(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(5))
        value = mixed_derivative_eval(p, ones, ones, x)
        assert value >= 0
        if minimum is None or value < minimum:
            minimum = value
    elapsed = time.perf_counter() - start
    _report(
        4, elapsed < 300,
        "image = -750(t-1)^2(t-2)^2(t+6), obstruction {(1,3),(2,3)}, "
        f"no counterexample, 1e5 exact delta samples all >= 0 (min {minimum}), "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_5_extendability_low_degree():
    """500 random diagonal maps (d = 3, 4; n <= 10) passing the
    necessary sign test are all extendable with a verified witness."""
    rng = random.Random(105)
    checked = 0
    while checked < 500:
        d = rng.choice((3, 4))
        n = rng.randint(d, 10)
        T = DiagonalMap(
            n, d,
            tuple(Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d + 1)),
        )
        if not necessary_sign_test(T):
            continue
        ok, cert = decide_extendable(T)
        assert ok, (T.gamma, cert.kind, cert.detail)
        target = apply(T, g0(n)).inner
        delta_f = delta_n(cert.f).inner
        if target.is_zero():
            assert delta_f.is_zero()
        else:
            lead_t = target.trimmed().leading()
            lead_f = delta_f.trimmed().leading()
            assert delta_f * lead_t == target * lead_f  # proportional
        prof = root_profile(cert.f)
        assert prof.n_nonreal == 0
        assert prof.n_positive == 0 or prof.n_negative == 0
        checked += 1
    _report(5, True, "500 sign-test-passing maps all Extendable, witnesses verified")


def test_criterion_6_interlacing_and_multiplicity():
    """1000 random real-rooted polynomials with nonnegative roots
    (forced multiplicities up to 4, degree <= 8): interlaces(dee(p), p),
    interlaces(dee(p), delta_n(p)), and the multiplicity law."""
    rng = random.Random(106)
    for _ in range(1000):
        roots = []
        while len(roots) < 2 or all(r == 0 for r in roots):
            roots = []
            deg = rng.randint(2, 8)
            while len(roots) < deg:
                r = Q(rng.randint(0, 8), rng.randint(1, 2))
                mult = min(rng.randint(1, 4), deg - len(roots))
                roots.extend([r] * mult)
        scale = Q(rng.choice([-3, -1, 1, 2]))
        p = UniPoly.from_roots(roots, ambient=len(roots)) * scale
        dp = dee(p)
        q = delta_n(p).inner
        assert interlaces(dp, p), roots
        assert interlaces(dp, q), roots
        prof_q = root_profile(q)
        mult_q = {
            (r.exact if r.is_exact() else None): m for r, m in prof_q.real_roots
        }
        for r in sorted(set(roots)):
            k = roots.count(r)
            if r > 0:
                # root of p of multiplicity exactly k is a root of
                # delta_n(p) of multiplicity exactly k - 1
                assert mult_q.get(r, 0) == k - 1, (roots, r)
            else:
                assert mult_q.get(Q(0), 0) >= k, (roots,)
    _report(6, True, "1000 polynomials: both interlacings and the multiplicity law, 0 violations")


def test_criterion_7_phi_endpoints_and_surjectivity():
    """Exact phi endpoint images, plus a preimage for every target on
    the 50-step barycentric grid of the weakly-decreasing 2-simplex,
    found by the extendability sweep; under 10 minutes."""
    start = time.perf_counter()
    width = Q(1, 1 << 40)
    cases = [
        ([1, 0, 0, 0], [Q(1), Q(0), Q(0)]),
        ([Q(1, 3)] * 3 + [Q(0)], [Q(1, 2), Q(1, 2), Q(0)]),
        ([Q(1, 4)] * 4, [Q(1, 3)] * 3),
    ]
    for arg, expected in cases:
        out = phi(arg, width=width)
        for (lo, hi), want in zip(out, expected):
            assert lo <= want <= hi and hi - lo <= width

    targets = 0
    N = 50
    for i in range(N + 1):
        for j in range(N - i + 1):
            k = N - i - j
            if not (i >= j >= k):
                continue
            s = [Q(i, N), Q(j, N), Q(k, N)]
            g = UniPoly.from_roots(s + [Q(-1)], ambient=4)
            T = map_sending_g0_to(ZeroSumPoly(g), 4)
            ok, cert = decide_extendable(T)
            assert ok, s
            prof = root_profile(cert.f)
            assert prof.n_nonreal == 0 and prof.n_negative == 0, s
            targets += 1
    elapsed = time.perf_counter() - start
    _report(
        7, elapsed < 600,
        f"3 endpoints exact at width 2^-40; {targets} grid targets all "
        f"admit preimages, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_8_degree_principle_equivalence():
    """On 200 random cubics/quartics (n <= 6) the restricted falsifier
    (<= d-1 distinct entries) finds a witness iff the exact decider calls
    the hook not hyperbolic, on every hook the decider decides; all
    witnesses exactly verified."""
    rng = random.Random(108)
    budget = SearchBudget(grid=32, max_points=60_000)
    agreements, refused = 0, []
    for _ in range(200):
        n = rng.randint(3, 6)
        d = rng.choice((3, 4)) if n >= 4 else 3
        a = tuple(Q(rng.randint(-4, 4)) for _ in range(d))
        if all(c == 0 for c in a):
            a = (Q(1),) + a[1:]
        p = HookPoly(n, d, a)
        try:
            exact = decide_cubic(*a, n) if d == 3 else decide_quartic_hook(p)
        except HypothesisViolated:
            refused.append((n, a))
            continue
        restricted = falsify_hyperbolicity(p, budget)
        assert (restricted.status == NOT_HYPERBOLIC) == (
            exact.status == NOT_HYPERBOLIC
        ), (n, d, a)
        for v in (restricted, exact):
            if v.status == NOT_HYPERBOLIC:
                x, prof = v.witness
                assert prof.n_nonreal > 0
                fresh = root_profile(restrict_line(p, list(x.x)))
                assert fresh.n_nonreal > 0
        agreements += 1
    # p(1) = 0 quartics that the closed form would call hyperbolic
    assert refused == [(5, (0, -3, 2, 1)), (4, (-1, -4, 1, 4))]
    _report(8, True, f"the falsifier agrees with the exact deciders on "
            f"{agreements}/200 hooks, witnesses verified")


def test_criterion_9_ek_plus_linear():
    """e_k + ell * e_{k-1} restricted to random lines is real rooted and
    interlaced by e_{k-1}'s restriction, for every (k, n) with n <= 6
    and 1000 lines each."""
    rng = random.Random(109)
    pairs = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            ell = [Q(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
            report = ek_plus_linear_check(k, n, ell, trials=1000, seed=1000 * n + k)
            assert report.passed == report.trials, (k, n, report.failures[:3])
            pairs += 1
    _report(9, True, f"{pairs} (k, n) pairs x 1000 lines each, 0 violations")
