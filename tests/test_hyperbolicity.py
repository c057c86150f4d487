import random

import pytest

from hypercheck import hyperbolicity
from hypercheck.errors import (
    HypothesisViolated,
    InvalidInput,
    NonInvertibleTransform,
    NotHyperbolicInput,
    WrongDegree,
    ZeroPolynomial,
)
from hypercheck.hyperbolicity import (
    HYPERBOLIC,
    NO_COUNTEREXAMPLE,
    NOT_HYPERBOLIC,
    SearchBudget,
    cone_member,
    conjecture_case,
    cubic_normal_form,
    decide_cubic,
    decide_quartic_hook,
    ek_plus_linear_check,
    elementary_restriction,
    falsify_hyperbolicity,
    falsify_unrestricted,
)
from hypercheck.rationals import Q, qsign
from hypercheck.sympoly import HookPoly, lift_variables, restrict_line
from hypercheck.unipoly import (
    UniPoly,
    ZeroSumPoly,
    is_real_rooted,
    root_profile,
)

FAST = SearchBudget(grid=24, max_points=40_000, trials=400)


def _witness_is_valid(p, verdict):
    x, prof = verdict.witness
    q = restrict_line(p, list(x.x))
    fresh = root_profile(q)
    assert fresh.n_nonreal == prof.n_nonreal > 0
    return True


# -- decide_cubic -------------------------------------------------------------


def test_cubic_examples():
    assert decide_cubic(0, 0, 1, 3).status == HYPERBOLIC  # m3 = e3-tilde
    assert decide_cubic(1, 0, 0, 3).status == HYPERBOLIC  # m1^3
    v = decide_cubic(1, 0, 1, 3)
    assert v.status == NOT_HYPERBOLIC
    assert v.detail["product"] == Q(54)
    assert _witness_is_valid(HookPoly(3, 3, (1, 0, 1)), v)


def test_cubic_guards():
    with pytest.raises(ZeroPolynomial):
        decide_cubic(0, 0, 0, 3)
    with pytest.raises(InvalidInput):
        decide_cubic(1, 0, 0, 2)


def test_cubic_boundary_is_hyperbolic():
    # product == 0 sits on the boundary of the hyperbolicity cone
    assert decide_cubic(1, -3, 2, 3).detail["product"] == 0
    assert decide_cubic(1, -3, 2, 3).status == HYPERBOLIC


def test_cubic_agrees_with_sampling_oracle():
    """The closed-form decision must never contradict an exact non-real
    line restriction found by sampling, and every NotHyperbolic verdict
    must carry a verifiable witness."""
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(3, 5)
        a, b, c = (Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
        if a == b == c == 0:
            continue
        v = decide_cubic(a, b, c, n, budget=FAST)
        p = HookPoly(n, 3, (a, b, c))
        if v.status == NOT_HYPERBOLIC:
            assert _witness_is_valid(p, v)
        else:
            sampled = falsify_unrestricted(p, FAST)
            assert sampled.status == NO_COUNTEREXAMPLE


# -- decide_quartic_hook --------------------------------------------------------


def test_quartic_examples():
    # m1^4 and m1*m3 are hyperbolic; m1^4 + m4 is not
    assert decide_quartic_hook(HookPoly(4, 4, (1, 0, 0, 0))).status == HYPERBOLIC
    assert decide_quartic_hook(HookPoly(4, 4, (0, 0, 1, 0))).status == HYPERBOLIC
    v = decide_quartic_hook(HookPoly(4, 4, (1, 0, 0, 1)))
    assert v.status == NOT_HYPERBOLIC
    assert _witness_is_valid(HookPoly(4, 4, (1, 0, 0, 1)), v)


def test_quartic_wrong_degree():
    with pytest.raises(WrongDegree):
        decide_quartic_hook(HookPoly(4, 3, (1, 0, 0)))


def test_quartic_agrees_with_sampling_oracle():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(4, 6)
        a = tuple(Q(rng.randint(-3, 3)) for _ in range(4))
        if all(c == 0 for c in a):
            continue
        p = HookPoly(n, 4, a)
        v = decide_quartic_hook(p, budget=FAST)
        if v.status == NOT_HYPERBOLIC:
            assert _witness_is_valid(p, v)
        else:
            assert falsify_unrestricted(p, FAST).status == NO_COUNTEREXAMPLE


# -- cone membership -------------------------------------------------------------


def test_cone_member_examples():
    p = HookPoly(3, 3, (0, 0, 1))  # m3: restriction has roots at -x_i
    assert cone_member(p, [1, 2, 3])
    assert not cone_member(p, [-1, 2, 3])
    assert cone_member(p, [0, 0, 0])  # roots at t = 0 are allowed


def test_cone_translation_property():
    """x in the cone implies x + c*1 in the cone for any c >= 0."""
    rng = random.Random(2)
    p = HookPoly(4, 3, (1, 1, 1))
    hits = 0
    while hits < 25:
        x = [Q(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(4)]
        if restrict_line(p, x).is_zero() or not cone_member(p, x):
            continue
        for c in (Q(1, 3), Q(2), Q(17)):
            assert cone_member(p, [xi + c for xi in x])
        hits += 1


# -- falsifier --------------------------------------------------------------------


def test_falsifier_finds_cubic_witness():
    p = HookPoly(3, 3, (1, 0, 1))
    v = falsify_hyperbolicity(p, FAST)
    assert v.status == NOT_HYPERBOLIC
    assert _witness_is_valid(p, v)
    x, _ = v.witness
    # witness coordinates are exact rationals on the normalized slice
    assert max(abs(c) for c in x.x) == 1


def test_falsifier_silent_on_hyperbolic():
    for a in [(0, 0, 1), (1, 0, 0), (1, -3, 2)]:
        v = falsify_hyperbolicity(HookPoly(3, 3, a), FAST)
        assert v.status == NO_COUNTEREXAMPLE


def test_falsifier_witness_survives_lifting():
    """A non-hyperbolic polynomial stays non-hyperbolic after lifting to
    more variables: re-running the falsifier on the lift also finds an
    exactly verified witness."""
    p = HookPoly(3, 3, (1, 0, 1))
    assert falsify_hyperbolicity(p, FAST).status == NOT_HYPERBOLIC
    q = lift_variables(p, 5)
    v = falsify_hyperbolicity(q, FAST)
    assert v.status == NOT_HYPERBOLIC
    assert _witness_is_valid(q, v)


def test_falsifier_determinism():
    p = HookPoly(4, 4, (1, 0, 0, 1))
    v1 = falsify_hyperbolicity(p, FAST)
    v2 = falsify_hyperbolicity(p, FAST)
    assert v1.status == v2.status == NOT_HYPERBOLIC
    assert v1.witness[0].x == v2.witness[0].x


def test_falsifier_stops_at_first_witness_pattern(monkeypatch):
    """Patterns after the one that yields the witness are never searched."""
    calls = []
    search = hyperbolicity._search_composition

    def counting(p, a_float, mults, budget):
        calls.append(mults)
        return search(p, a_float, mults, budget)

    monkeypatch.setattr(hyperbolicity, "_search_composition", counting)
    p = HookPoly(4, 4, (3, -1, -3, 1))
    v = falsify_hyperbolicity(p, FAST)
    assert v.status == NOT_HYPERBOLIC
    patterns = [m for k in (2, 3) for m in hyperbolicity._compositions(4, k)]
    position = patterns.index(tuple(v.detail["pattern"]))
    assert 0 < position < len(patterns) - 1
    assert calls == patterns[: position + 1]


def test_restricted_and_unrestricted_agree():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(3, 5)
        d = rng.randint(3, min(4, n))
        a = tuple(Q(rng.randint(-3, 3)) for _ in range(d))
        if all(c == 0 for c in a):
            continue
        p = HookPoly(n, d, a)
        exact = (
            decide_cubic(*a, n, budget=FAST)
            if d == 3
            else decide_quartic_hook(p, budget=FAST)
        )
        sampled = falsify_unrestricted(p, FAST)
        if sampled.status == NOT_HYPERBOLIC:
            assert exact.status == NOT_HYPERBOLIC
            assert _witness_is_valid(p, sampled)


# -- conjecture evidence -------------------------------------------------------


def test_conjecture_case_quintic():
    target = UniPoly.from_roots([1, 1, 2, 2, -6], ambient=5)
    report = conjecture_case(
        ZeroSumPoly(target), 5, budget=FAST, delta_trials=200
    )
    assert report.hook.proportional_to(
        HookPoly.from_e_basis(5, 5, (0, 0, 7, -220, 4500))
    )
    assert report.falsifier.status == NO_COUNTEREXAMPLE
    assert report.delta_negative == 0 and report.delta_min >= 0
    assert not report.extendable
    assert report.certificate.kind == "MultiplicityObstruction"


def test_conjecture_case_pure_power():
    target = UniPoly([0, 0, 0, 0, 1], 4)  # t^4
    report = conjecture_case(
        ZeroSumPoly(target), 4, budget=FAST, delta_trials=100
    )
    assert report.extendable and report.certificate.kind == "Extension"
    assert report.delta_negative == 0


def test_conjecture_case_rejects_bad_target():
    bad = UniPoly.from_roots([1, -1, 2, -2], ambient=4)  # two of each sign
    with pytest.raises(HypothesisViolated):
        conjecture_case(ZeroSumPoly(bad), 4, delta_trials=1)


# -- e_k + linear --------------------------------------------------------------


def test_elementary_restriction_formula():
    # e2 in 3 variables at (1, 2, 3): e0=1, e1=6, e2=11
    q = elementary_restriction([1, 2, 3], 2, 3)
    assert q == UniPoly([Q(11), Q(2) * 6, Q(3)], 2)
    # derivative identity: d/dt e_k(x + t1) = (n - k + 1) e_{k-1}(x + t1)
    qm1 = elementary_restriction([1, 2, 3], 1, 3)
    assert q.derivative().with_ambient(1) == qm1 * Q(2)


def test_ek_plus_linear_all_pass():
    report = ek_plus_linear_check(2, 4, [1, 1, 0, 0], trials=60, seed=5)
    assert report.passed == report.trials and not report.failures


def test_ek_plus_linear_zero_linear_form():
    report = ek_plus_linear_check(3, 4, [0, 0, 0, 0], trials=40, seed=6)
    assert report.passed == report.trials


def test_ek_plus_linear_guards():
    with pytest.raises(InvalidInput):
        ek_plus_linear_check(5, 4, [0, 0, 0, 0], trials=1)
    with pytest.raises(InvalidInput):
        ek_plus_linear_check(2, 3, [-1, 0, 0], trials=1)  # ell(1) < 0
    with pytest.raises(InvalidInput):
        ek_plus_linear_check(2, 3, [1, 1], trials=1)


# -- cubic normal form ------------------------------------------------------------


def _eval_cubic(a, b, c, x, n):
    from hypercheck.sympoly import eval_hook

    return eval_hook(HookPoly(n, 3, (a, b, c)), x)


def test_normal_form_already_reduced():
    nf = cubic_normal_form(0, 1, 1, 3)
    assert nf.c1 == 1 and nf.c2 == 1 and nf.u == 1 and nf.shift == 0


def test_normal_form_requires_hyperbolic():
    with pytest.raises(NotHyperbolicInput):
        cubic_normal_form(1, 0, 1, 3)


def test_normal_form_exact_shear():
    """When the shear parameter is rational the reduced coefficients are
    produced exactly and match a direct substitution check."""
    rng = random.Random(7)
    found = 0
    while found < 20:
        a, b, c = (Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
        if a == b == c == 0:
            continue
        if decide_cubic(a, b, c, 3).status != HYPERBOLIC:
            continue
        try:
            nf = cubic_normal_form(a, b, c, 3)
        except NonInvertibleTransform:
            continue
        assert nf.c1 == c
        assert qsign(nf.c1) * nf.c2_sign >= 0
        if nf.u is None:
            lo, hi = nf.c2_interval
            assert lo <= hi
            found += 1
            continue
        # substitution check: the sheared polynomial agrees with
        # c2*m1*m2 + c1*m3 at random points
        s = nf.shift
        for _ in range(5):
            x = [Q(rng.randint(-5, 5)) for _ in range(3)]
            e1 = sum(x)
            y = [xi - s * e1 for xi in x]
            assert _eval_cubic(a, b, c, y, 3) == _eval_cubic(
                0, nf.c2, nf.c1, x, 3
            )
        found += 1


def test_normal_form_sign_compatibility_property():
    """The reduced pair always satisfies c1 * c2 >= 0 (both coefficients
    on the same side), which is the shape needed for hyperbolicity of
    the reduced form."""
    rng = random.Random(8)
    found = 0
    while found < 40:
        a, b, c = (Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
        if a == b == c == 0:
            continue
        if decide_cubic(a, b, c, 4).status != HYPERBOLIC:
            continue
        try:
            nf = cubic_normal_form(a, b, c, 4)
        except NonInvertibleTransform:
            # only two boundary families lack an invertible shear: the pure
            # first-power case (b = c = 0, where every shear is singular)
            # and the p(1) = 0 face a + b + c = 0
            assert (b == 0 and c == 0) or a + b + c == 0
            continue
        assert qsign(nf.c1) * nf.c2_sign >= 0
        found += 1
