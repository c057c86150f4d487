import json
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercheck import hyperbolicity, unipoly
from hypercheck.cli import run
from hypercheck.errors import (
    HypothesisViolated,
    InvalidInput,
    NonInvertibleTransform,
    NotHyperbolicInput,
    NotRealRooted,
    WrongDegree,
    ZeroPolynomial,
)
from hypercheck.hyperbolicity import (
    HYPERBOLIC,
    NO_COUNTEREXAMPLE,
    NOT_HYPERBOLIC,
    Verdict,
    cone_member,
    conjecture_case,
    cubic_normal_form,
    decide_cubic,
    decide_quartic_hook,
    ek_plus_linear_check,
    falsify_hyperbolicity,
)
from hypercheck.rationals import Q, qsign, simplest_between
from hypercheck.sympoly import HookPoly, elem_ints, lift_variables, restrict_line
from hypercheck.unipoly import (
    UniPoly,
    ZeroSumPoly,
    interlaces,
    is_real_rooted,
    root_counts,
    root_profile,
)

FAST = 24  # grid


def _exact_sample_witness(p):
    """The first of 400 seeded random points of [-1, 1]^n with denominator
    16 whose line restriction has a non-real root, or None."""
    rng = random.Random(0)
    for _ in range(400):
        x = [Q(rng.randint(-16, 16), 16) for _ in range(p.n)]
        q = restrict_line(p, x)
        if not q.is_zero() and root_counts(q).n_nonreal:
            return x
    return None


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
    """The closed-form decision must never contradict a non-real line
    restriction at an exactly checked random point, and every
    NotHyperbolic verdict must carry a verifiable witness."""
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(3, 5)
        a, b, c = (Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
        if a == b == c == 0:
            continue
        v = decide_cubic(a, b, c, n)
        p = HookPoly(n, 3, (a, b, c))
        if v.status == NOT_HYPERBOLIC:
            assert _witness_is_valid(p, v)
        else:
            assert _exact_sample_witness(p) is None


def test_cubics_at_p1_zero_are_hyperbolic():
    """At p(1) = a + b + c = 0 the t^3 and t^2 coefficients of every
    restriction vanish (Euler's identity), so every restriction has degree
    <= 1 and is real rooted: hyperbolic under README's definition, which,
    unlike Garding's, does not ask for p(1) != 0."""
    rng = random.Random(22)
    for _ in range(120):
        n = rng.randint(3, 7)
        b, c = (Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
        if b == c == 0:
            continue
        assert decide_cubic(-b - c, b, c, n).status == HYPERBOLIC
        p = HookPoly(n, 3, (-b - c, b, c))
        for _ in range(5):
            x = [Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
            assert restrict_line(p, x).degree() <= 1


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
    refused = []
    for _ in range(40):
        n = rng.randint(4, 6)
        a = tuple(Q(rng.randint(-3, 3)) for _ in range(4))
        if all(c == 0 for c in a):
            continue
        p = HookPoly(n, 4, a)
        try:
            v = decide_quartic_hook(p)
        except HypothesisViolated:
            refused.append((n, a))
            continue
        if v.status == NOT_HYPERBOLIC:
            assert _witness_is_valid(p, v)
        else:
            assert _exact_sample_witness(p) is None
    # p(1) = 0 hooks that the closed form would call hyperbolic
    assert refused == [(6, (-2, 3, 0, -1)), (5, (-3, 0, 2, 1))]


def test_exact_sample_witness_finds_a_witness():
    """The oracle of the two tests above finds a verified witness on m1^4 +
    m4 and none on the hyperbolic m1^4."""
    p = HookPoly(4, 4, (1, 0, 0, 1))
    x = _exact_sample_witness(p)
    assert x is not None and root_profile(restrict_line(p, x)).n_nonreal > 0
    assert _exact_sample_witness(HookPoly(4, 4, (1, 0, 0, 0))) is None


def test_quartic_refuses_p1_zero_it_would_call_hyperbolic(capsys):
    """At p(1) = 0 the closed form holds on this non-hyperbolic quartic:
    its restriction at x = (-1, -1, 1/2, 1/2, 1/2, 1/2) is
    t^2/10 - 3t/20 + 9/80, with roots 3/4 +- 3i/4."""
    hook = {"n": 6, "d": 4, "a": ["4", "-1", "-6", "3"]}
    p = HookPoly(6, 4, (4, -1, -6, 3))
    x = [Q(-1), Q(-1)] + [Q(1, 2)] * 4
    assert restrict_line(p, x) == UniPoly([Q(9, 80), Q(-3, 20), Q(1, 10)], 4)
    assert root_profile(restrict_line(p, x)).n_nonreal == 2
    assert hyperbolicity._closed_form(p)[0]
    with pytest.raises(HypothesisViolated):
        decide_quartic_hook(p)
    assert run(["check-quartic", "--hook", json.dumps(hook)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "HypothesisViolated"
    # the falsifier, which takes no shortcut at p(1) = 0, finds a witness
    v = falsify_hyperbolicity(p, 16)
    assert v.status == NOT_HYPERBOLIC and _witness_is_valid(p, v)


def test_quartic_decides_m1_times_a_p1_zero_cubic(capsys):
    """A quartic with a_4 = 0 and p(1) = 0 is m1 times a cubic with p(1) =
    0, whose restrictions are linear, so it is hyperbolic: the closed form
    holds, and check-quartic says so with the closed form's detail."""
    hook = {"n": 5, "d": 4, "a": ["1", "-1", "0", "0"]}
    p = HookPoly(5, 4, (1, -1, 0, 0))
    v = decide_quartic_hook(p)
    assert v == Verdict(HYPERBOLIC, detail=hyperbolicity._closed_form(p)[1])
    assert run(["check-quartic", "--hook", json.dumps(hook)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == HYPERBOLIC
    rng = random.Random(4)
    for _ in range(12):
        n = rng.randint(4, 6)
        b, c = rng.randint(-4, 4), rng.randint(-4, 4)
        if b == c == 0:
            continue
        p = HookPoly(n, 4, (-b - c, b, c, 0))
        assert decide_quartic_hook(p).status == HYPERBOLIC
        assert _exact_sample_witness(p) is None


def test_quartic_witness_search_needs_only_the_first_grid(monkeypatch):
    """On 40 seeded quartics whose closed form fails although their e_1
    restriction is real rooted, the witness search finds a verified witness
    on its first grid, 64, at the falsifier's fixed caps and threshold, so
    widening those would not change a witness."""
    grids = []
    falsify = hyperbolicity.falsify_hyperbolicity

    def counting(p, grid):
        grids.append(grid)
        return falsify(p, grid)

    monkeypatch.setattr(hyperbolicity, "falsify_hyperbolicity", counting)
    rng, hooks = random.Random(31), []
    while len(hooks) < 40:
        n = rng.randint(4, 12)
        a = tuple(Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4))
        p, e1 = HookPoly(n, 4, a), [Q(1)] + [Q(0)] * (n - 1)
        if any(a) and not hyperbolicity._closed_form(p)[0]:
            if root_counts(restrict_line(p, e1)).n_nonreal == 0:
                hooks.append(p)
    assert len({p.n for p in hooks}) == 9
    for p in hooks:
        grids.clear()
        v = decide_quartic_hook(p)
        assert v.status == NOT_HYPERBOLIC and grids == [64], p
        x, counts = v.witness
        assert root_counts(restrict_line(p, list(x.x))) == counts
        assert counts.n_nonreal > 0


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


def _recursive_compositions(n, k):
    """Reference: _compositions as it was, recursing on the first part."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _recursive_compositions(n - first, k - 1):
            yield (first,) + rest


def test_compositions_keep_the_recursive_order():
    """Pattern order decides which witness the falsifier reports."""
    for n in range(1, 10):
        for k in range(1, n + 1):
            got = list(hyperbolicity._compositions(n, k))
            assert got == list(_recursive_compositions(n, k)), (n, k)
            assert len(got) == comb(n - 1, k - 1)


def _without_closed_form(monkeypatch):
    """Turn off the closed-form shortcut, so that hyperbolic cubics and hook
    quartics run through every round of every chunk."""
    monkeypatch.setattr(hyperbolicity, "_closed_form", lambda p: (False, {}))


def _closed_form_holds(rng, d, count):
    """Random integer hooks of degree d with p(1) != 0 that the closed form
    proves hyperbolic."""
    hooks = []
    while len(hooks) < count:
        n = rng.randint(d, d + 2)
        a = tuple(rng.randint(-4, 4) for _ in range(d))
        if sum(a) and hyperbolicity._closed_form(HookPoly(n, d, a))[0]:
            hooks.append(HookPoly(n, d, a))
    return hooks


def _m1_multiples(rng):
    """Random integer hooks that m1 divides and that the closed form of the
    quotient proves hyperbolic: eight quintics m1 * q for quartics q with
    q(1) != 0, then cubics, quartics and quintics that reduce to a cubic
    with p(1) = 0."""
    hooks = []
    while len(hooks) < 8:
        n = rng.randint(5, 7)
        a = tuple(rng.randint(-4, 4) for _ in range(4))
        if sum(a) and hyperbolicity._closed_form(HookPoly(n, 4, a))[0]:
            hooks.append(HookPoly(n, 5, a + (0,)))
    for d in (3, 4, 5):
        while len(hooks) < 8 + 4 * (d - 2):
            b, c = rng.randint(-4, 4), rng.randint(-4, 4)
            if b or c:
                hooks.append(HookPoly(rng.randint(d, d + 2), d,
                                      (-b - c, b, c) + (0,) * (d - 3)))
    return hooks


_SHORTCUT_CASES = {
    3: (lambda: _closed_form_holds(random.Random(3), 3, 40), 12),
    4: (lambda: _closed_form_holds(random.Random(4), 4, 40), 12),
    "m1": (lambda: _m1_multiples(random.Random(5)), 8),
}


@pytest.mark.parametrize("case", sorted(_SHORTCUT_CASES, key=str))
def test_closed_form_shortcut_keeps_the_verdict(monkeypatch, case):
    """On cubics and hook quartics with p(1) != 0 that the closed form proves
    hyperbolic, and on hooks that m1 divides whose quotient it proves
    hyperbolic, the full search finds no witness, and the search that stops
    after the first chunk prints the same verdict.  The m1 case takes under
    1 s on a 2-CPU x86-64 host."""
    hooks, grid = _SHORTCUT_CASES[case]
    for p in hooks():
        assert hyperbolicity._closed_form_proves(p)
        short = falsify_hyperbolicity(p, grid)
        with monkeypatch.context() as mp:
            _without_closed_form(mp)
            full = falsify_hyperbolicity(p, grid)
        assert full.status == NO_COUNTEREXAMPLE
        assert short == full, p


def test_closed_form_shortcut_prescreens_the_first_chunk_only(monkeypatch):
    prescreened = []
    prescreen = hyperbolicity._prescreen

    def recording(p, a_float, batch):
        prescreened.extend(mults for mults, _, _ in batch)
        return prescreen(p, a_float, batch)

    monkeypatch.setattr(hyperbolicity, "_prescreen", recording)
    for p, patterns in ((HookPoly(5, 4, (0, 0, Q(5, 2), 0)), 10),
                        (HookPoly(5, 5, (0, 0, 0, 8, 0)), 14)):
        prescreened.clear()
        v = falsify_hyperbolicity(p, 8)
        assert v == Verdict(NO_COUNTEREXAMPLE, detail={"patterns": patterns})
        assert prescreened and set(prescreened) == {(1, 4)}


def test_m1_times_a_p1_zero_quartic_is_searched_to_its_witness():
    """m1 times the p(1) = 0 quartic above is not hyperbolic, though the
    quotient's closed form holds: the search goes past the first chunk and
    finds a verified witness in the second pattern, which is a witness of
    the quotient too."""
    p, q = HookPoly(6, 5, (4, -1, -6, 3, 0)), HookPoly(6, 4, (4, -1, -6, 3))
    assert hyperbolicity._closed_form(q)[0]
    assert not hyperbolicity._closed_form_proves(p)
    v = falsify_hyperbolicity(p, 8)
    assert v.status == NOT_HYPERBOLIC and v.detail == {"pattern": [2, 4]}
    assert _witness_is_valid(p, v) and _witness_is_valid(q, v)


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
    """Patterns are verified in order, after each round, and patterns after
    the one that yields the witness are never verified; chunks after the
    one that holds it are never prescreened."""
    prescreened, verified = [], []
    search = hyperbolicity._search_chunk
    verify = hyperbolicity._verify_candidates

    def searching(p, a_float, chunk, grid):
        prescreened.append(list(chunk))
        return search(p, a_float, chunk, grid)

    def verifying(p, mults, candidates, seen):
        verified.append(mults)
        return verify(p, mults, candidates, seen)

    monkeypatch.setattr(hyperbolicity, "_search_chunk", searching)
    monkeypatch.setattr(hyperbolicity, "_verify_candidates", verifying)
    p = HookPoly(4, 4, (3, -1, -3, 1))
    v = falsify_hyperbolicity(p, FAST)
    assert v.status == NOT_HYPERBOLIC
    patterns = [m for k in (2, 3) for m in hyperbolicity._compositions(4, k)]
    position = patterns.index(tuple(v.detail["pattern"]))
    assert 0 < position < len(patterns) - 1
    assert list(dict.fromkeys(verified)) == patterns[: position + 1]
    assert verified == sorted(verified, key=patterns.index)
    # chunks of 1, 2, 4, ... patterns; the witness is in the second
    assert position in (1, 2)
    assert prescreened == [patterns[:1], patterns[1:3]]


def _fraction_grid(res, free):
    """The slice grid as exact rationals, built coordinate by coordinate."""
    axis = [Q(2 * j, res - 1) - 1 for j in range(res)]
    rows = [()]
    for _ in range(free):
        rows = [w + (c,) for w in rows for c in axis]
    return rows


def _fraction_refinement(center, res, refine_grid, rnd, clip=True):
    """Refinement round rnd (from 0) around an exact center, built coordinate
    by coordinate and clipped to [-1, 1]."""
    radius = Q(2, res - 1) / (refine_grid - 1) ** rnd
    sub_axis = [radius * (Q(2 * j, refine_grid - 1) - 1) for j in range(refine_grid)]
    bound = (lambda c: min(max(c, Q(-1)), Q(1))) if clip else (lambda c: c)
    rows = [()]
    for c0 in center:
        rows = [w + (bound(c0 + dv),) for w in rows for dv in sub_axis]
    return rows


def _exact_rows(nums, den):
    return [tuple(Q(int(c), den) for c in row) for row in nums]


def _float_slice_rows(mults, rows):
    """Slice coordinates in float, one element at a time from the exact
    rows: zero-sum completion, then max-norm scaling."""
    out = []
    for w in rows:
        row = [float(c) for c in w]
        row.append(-sum(m * c for m, c in zip(mults[:-1], row)) / mults[-1])
        top = max(abs(c) for c in row) or 1.0
        out.append([c / top for c in row])
    return out


@pytest.mark.parametrize("mults", [(1, 3), (2, 1, 2), (1, 1, 2, 1)])
@pytest.mark.parametrize("res, refine_grid", [(8, 9), (7, 4), (5, 2)])
def test_integer_grid_rows_match_fraction_rows(monkeypatch, mults, res, refine_grid):
    """Grid and refinement rows as int64 numerators equal the rationals built
    one coordinate at a time, on every round and around centers whose
    neighbourhoods are clipped at -1 and +1; their floats for the prescreen
    equal float() of those rationals bit for bit, each value repeated by its
    multiplicity."""
    free = len(mults) - 1
    p = HookPoly(sum(mults), 4, (1, 0, -4, 1))
    a_float = [float(c) for c in p.a]
    seen_vals = []
    batch = hyperbolicity._batch_restriction

    def capture(a, n, d, values):
        seen_vals.append(values)
        return batch(a, n, d, values)

    monkeypatch.setattr(hyperbolicity, "_batch_restriction", capture)
    grid, den = hyperbolicity._grid_rows(res, free)
    assert grid.dtype == np.int64
    assert _exact_rows(grid, den) == _fraction_grid(res, free)
    clipped = 0
    for start in (0, len(grid) // 2, len(grid) - 1):
        rows, row_den, center = grid, den, start
        for rnd in range(3):
            exact_center = _exact_rows([rows[center]], row_den)[0]
            expected = _fraction_refinement(exact_center, res, refine_grid, rnd)
            clipped += expected != _fraction_refinement(
                exact_center, res, refine_grid, rnd, clip=False
            )
            [(_, rows, row_den)] = hyperbolicity._refine_batch(
                [(mults, rows, row_den, center)], refine_grid - 1
            )
            assert row_den == (res - 1) * (refine_grid - 1) ** (rnd + 1)
            assert _exact_rows(rows, row_den) == expected
            hyperbolicity._prescreen(p, a_float, [(mults, rows, row_den)])
            assert seen_vals.pop().tolist() == np.repeat(
                _float_slice_rows(mults, expected), mults, axis=1
            ).tolist()
            center = (3 * center + 1) % len(rows)
    assert clipped


# -- chunked prescreen against the pattern-by-pattern one --------------------


def _reference_batch_restriction(a_float, n, d, values, mults):
    """Reference: _batch_restriction as it was, one coefficient a column
    and each distinct value applied once per multiplicity."""
    N = values.shape[0]
    e = np.zeros((N, d + 1))
    e[:, 0] = 1.0
    for col, m in enumerate(mults):
        v = values[:, col]
        for _ in range(m):
            for j in range(d, 0, -1):
                e[:, j] += v * e[:, j - 1]
    mean = np.empty_like(e)
    for j in range(d + 1):
        mean[:, j] = e[:, j] / comb(n, j)
    m1 = mean[:, 1]
    asc = np.zeros((N, d + 1))
    m1_pows = [np.ones(N)]
    for _ in range(d):
        m1_pows.append(m1_pows[-1] * m1)
    for i in range(1, d + 1):
        ai = a_float[i - 1]
        if ai == 0.0:
            continue
        for j in range(i + 1):
            base = ai * comb(i, j)
            mj = mean[:, j]
            for l in range(d - i + 1):
                asc[:, l + i - j] += (
                    base * comb(d - i, l) * m1_pows[d - i - l] * mj
                )
    return asc[:, ::-1]


@pytest.mark.parametrize("d", [1, 2, 4, 5, 6])
@pytest.mark.parametrize("rows", [1, 9, 500])
def test_batch_restriction_matches_reference_bytes(d, rows):
    """Coefficients one row per coefficient, with every value of a
    multiplicity-m entry repeated m times, equal the reference bit for bit."""
    rng = np.random.default_rng(7 * d + rows)
    mults = tuple(int(m) for m in rng.integers(1, 4, size=max(2, d - 1)))
    n = sum(mults)
    a_float = [float(c) for c in rng.integers(-9, 10, size=d)]
    a_float[0] = 0.0  # a zero coefficient is skipped
    values = rng.uniform(-1, 1, size=(rows, len(mults)))
    values[0] = 0.0
    got = hyperbolicity._batch_restriction(
        a_float, n, d, np.repeat(values, mults, axis=1)
    )
    ref = _reference_batch_restriction(a_float, n, d, values, mults)
    assert got.shape == ref.shape == (rows, d + 1)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()


def _reference_trim(coeffs):
    """Reference: _trim_structural_zeros as it was, one column at a time."""
    scale = np.abs(coeffs).max() or 1.0
    start = 0
    while coeffs.shape[1] - start > 2 and np.all(
        np.abs(coeffs[:, start]) <= 1e-13 * scale
    ):
        start += 1
    return coeffs[:, start:]


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, 1e-20, 1.0, 2.0], [0.0, -1e-20, 3.0, 1.0]],
        [[0.0, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 1.0]],
        [[np.nan, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 2.0]],
        [[0.0, np.nan, 1.0, 2.0], [0.0, 0.0, 1.0, 2.0]],
        [[0.0, 1.0, np.inf, 2.0]],
        [[1e-300, 2.0, 1.0, 1.0]],
        [[3.0, 1.0, 1.0], [-2.0, 0.0, 1.0]],
    ],
)
def test_trim_matches_reference(rows):
    coeffs = np.array(rows)
    got, ref = hyperbolicity._trim_structural_zeros(coeffs), _reference_trim(coeffs)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _reference_prescreen(p, a_float, mults, nums, den):
    """Reference: _prescreen as it was, one pattern's rows per batch."""
    w = nums / den
    last = np.zeros(len(w))
    for m, col in zip(mults[:-1], w.T):
        last = last + m * col
    vals = np.column_stack([w, -last / mults[-1]])
    top = np.abs(vals).max(axis=1)
    top[top == 0] = 1.0
    coeffs = _reference_batch_restriction(a_float, p.n, p.d, vals / top[:, None], mults)
    coeffs = _reference_trim(coeffs)
    if coeffs.shape[1] < 3:
        return [], None
    defects = hyperbolicity.realness_defects(coeffs)
    order = np.argsort(-defects)
    hits = order[defects[order] > hyperbolicity.DEFECT_THRESHOLD]
    best = int(order[0]) if len(order) and defects[order[0]] > 0 else None
    return hits[: hyperbolicity.MAX_CANDIDATES], best


def _reference_refine_rows(center, den, g):
    """Reference: a refinement round as it was, one clipped axis per
    coordinate of the center, then their Cartesian product."""
    den *= g
    steps = 2 * (2 * np.arange(g + 1, dtype=np.int64) - g)
    axes = [np.clip(c * g + steps, -den, den) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes)), den


def _reference_search_composition(p, a_float, mults, grid):
    """Reference: _search_composition as it was, one pattern at a time.
    Returns the candidates and the chain of best rows, one per round, as
    (numerators, denominator), or None where a round had no best row."""
    free = len(mults) - 1
    res, cap = grid, hyperbolicity.MAX_POINTS
    if free >= 1 and res**free > cap and res > 3:
        res = max(3, int(cap ** (1.0 / free)))
    rows, den = hyperbolicity._grid_rows(res, free)
    candidates, chain = [], []
    for r in range(hyperbolicity.REFINE_ROUNDS + 1):
        if r:
            rows, den = _reference_refine_rows(
                rows[best], den, hyperbolicity.REFINE_GRID - 1
            )
        hits, best = _reference_prescreen(p, a_float, mults, rows, den)
        candidates.extend((rows[i], den) for i in hits)
        chain.append(None if best is None else (rows[best].tolist(), den))
        if best is None:
            break
    return candidates, chain


def _chunked_search(monkeypatch, p, chunks, grid):
    """Candidates and chains of best rows per pattern from every round
    _search_chunk yields over the given chunks, plus the widths of the
    kernel calls."""
    chains, widths = {}, []
    prescreen = hyperbolicity._prescreen
    kernel = hyperbolicity.realness_defects

    def recording(p, a_float, batch):
        out = prescreen(p, a_float, batch)
        for (mults, rows, den), (_, best) in zip(batch, out):
            row = None if best is None else (rows[best].tolist(), den)
            chains.setdefault(mults, []).append(row)
        return out

    def measuring(coeffs):
        widths.append(coeffs.shape[1])
        return kernel(coeffs)

    a_float = [float(c) for c in p.a]
    candidates = {}
    with monkeypatch.context() as mp:
        mp.setattr(hyperbolicity, "_prescreen", recording)
        mp.setattr(hyperbolicity, "realness_defects", measuring)
        for chunk in chunks:
            for hits, _ in hyperbolicity._search_chunk(p, a_float, chunk, grid):
                for mults, found in hits.items():
                    candidates.setdefault(mults, []).extend(found)
    return candidates, chains, widths


def _as_lists(candidates):
    return [(nums.dtype, nums.tolist(), den) for nums, den in candidates]


def _fix(monkeypatch, **constants):
    """Set fixed parts of the falsifier (MAX_POINTS=150, ...) for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(hyperbolicity, name, value)


# hook, grid and the falsifier constants the case sets
_CHUNK_CASES = {
    # p(1) = 0: the t^d column vanishes on every row and is trimmed
    "structural_zeros": (HookPoly(5, 4, (1, 0, 0, -1)), 8, {}),
    "quintic": (HookPoly(5, 5, (0, 0, 7, -220, 4500)), 8, {}),
    # pattern (2, 3) has no positive defect on its grid, (3, 2) refines on
    "stops_mid_chunk": (HookPoly(5, 4, (0, 0, 0, Q(8, 3))), 8, {}),
    "small_max_points": (
        HookPoly(6, 5, (1, -2, 3, 5, -7)), 8, {"MAX_POINTS": 150},
    ),
}


@pytest.mark.parametrize("name", sorted(_CHUNK_CASES))
def test_chunked_prescreen_matches_pattern_by_pattern(monkeypatch, name):
    """Per pattern, the lockstep prescreen returns the candidates (numerators,
    denominator, order) and the chain of best rows of the pattern-by-pattern
    one, on the falsifier's chunks and on one chunk of every pattern."""
    p, grid, fixed = _CHUNK_CASES[name]
    _fix(monkeypatch, **fixed)
    patterns = [m for k in range(2, p.d) for m in hyperbolicity._compositions(p.n, k)]
    a_float = [float(c) for c in p.a]
    expected = {
        m: _reference_search_composition(p, a_float, m, grid) for m in patterns
    }
    chunks = list(hyperbolicity._chunks(patterns, grid))
    assert [m for chunk in chunks for m in chunk] == patterns
    for schedule in (chunks, [patterns]):
        candidates, chains, widths = _chunked_search(monkeypatch, p, schedule, grid)
        for m in patterns:
            ref_candidates, ref_chain = expected[m]
            assert _as_lists(candidates[m]) == _as_lists(ref_candidates), m
            assert chains[m] == ref_chain, m
    lengths = [[len(expected[m][1]) for m in chunk] for chunk in chunks]
    if name == "structural_zeros":
        # the t^d column (p(1) = 0) and the t^(d-1) one (a multiple of
        # e_1(x), which is 0 on the slice) are trimmed from all d + 1
        assert set(widths) == {p.d - 1}
    elif name == "quintic":
        assert {len(m) for m in patterns} == {2, 3, 4}
        assert any(len({len(m) for m in chunk}) > 1 for chunk in chunks)
    elif name == "stops_mid_chunk":
        assert any(
            min(row) == 1 < max(row) for row in lengths
        ), lengths
        assert [expected[m][1][-1] for m in patterns].count(None)
    else:
        # rounds of 9, 81 and 729 rows for k = 2, 3, 4: the cap of 150 cuts
        # the third chunk after 9 + 9 + 81 rows, and a k = 4 pattern is alone
        assert [len(chunk) for chunk in chunks] == [1, 2, 3] + [1] * 19
        monkeypatch.undo()
        uncapped = hyperbolicity._chunks(patterns, grid)
        assert [len(chunk) for chunk in uncapped] == [1, 2, 4, 8, 10]


def test_kernel_calls_stay_under_max_points(monkeypatch):
    """No kernel call gets more rows than MAX_POINTS or, where one pattern's
    round alone exceeds it, that pattern's rows."""
    # no candidates, so that every chunk is prescreened
    cap = 150
    _fix(monkeypatch, MAX_POINTS=cap, MAX_CANDIDATES=0)
    bounds, calls = [], []
    prescreen = hyperbolicity._prescreen
    kernel = hyperbolicity.realness_defects

    def bounding(p, a_float, batch):
        bounds.append(max([cap] + [len(rows) for _, rows, _ in batch]))
        return prescreen(p, a_float, batch)

    def measuring(coeffs):
        calls.append((len(coeffs), bounds[-1]))
        return kernel(coeffs)

    monkeypatch.setattr(hyperbolicity, "_prescreen", bounding)
    monkeypatch.setattr(hyperbolicity, "realness_defects", measuring)
    p = HookPoly(6, 5, (1, -2, 3, 5, -7))
    falsify_hyperbolicity(p, 8)
    assert all(rows <= bound for rows, bound in calls)
    # both sides of the cap were reached: a full chunk and a lone pattern
    assert any(cap // 2 < rows <= cap for rows, _ in calls)
    assert any(rows > cap for rows, _ in calls)


# -- exact checks after each round against all rounds first -----------------


def _reference_falsify(p, grid):
    """Reference: falsify_hyperbolicity as it was, every round of a chunk
    prescreened before any of its hits is verified, pattern by pattern."""
    a_float = [float(c) for c in p.a]
    patterns = [m for k in range(2, min(p.d - 1, p.n) + 1)
                for m in hyperbolicity._compositions(p.n, k)]
    seen = set()
    for chunk in hyperbolicity._chunks(patterns, grid):
        candidates = {mults: [] for mults in chunk}
        for hits, _ in hyperbolicity._search_chunk(p, a_float, chunk, grid):
            for mults, found in hits.items():
                candidates[mults] += found
        for mults in chunk:
            witness = hyperbolicity._verify_candidates(
                p, mults, candidates[mults], seen
            )
            if witness is not None:
                return Verdict(NOT_HYPERBOLIC, witness=witness,
                               detail={"pattern": list(mults)})
    return Verdict(NO_COUNTEREXAMPLE, detail={"patterns": len(patterns)})


def _recorded(monkeypatch, falsifier, p, grid):
    """The verdict, the points checked exactly (the `seen` keys in order)
    and the number of prescreen rounds of one falsifier run."""
    checked, rounds = [], []
    check, prescreen = hyperbolicity._exact_check, hyperbolicity._prescreen

    def checking(p, x):
        checked.append(x)
        return check(p, x)

    def screening(*args):
        rounds.append(args[2])
        return prescreen(*args)

    with monkeypatch.context() as mp:
        mp.setattr(hyperbolicity, "_exact_check", checking)
        mp.setattr(hyperbolicity, "_prescreen", screening)
        verdict = falsifier(p, grid)
    return verdict, checked, len(rounds)


_ORDER_CASES = {
    # a falsify-refute hook: the witness is a round-0 hit of the first pattern
    "round_0_first_pattern": (HookPoly(4, 4, (9, 8, 3, 5)), 8, {}),
    # the witness is a hit of round 1 of the third pattern of its chunk
    "later_round": (
        HookPoly(5, 5, (8, -2, -2, 4, -3)), 2,
        {"DEFECT_THRESHOLD": 0.5},
    ),
    "second_pattern": (HookPoly(4, 4, (3, -1, -3, 1)), FAST, {}),
    # the head (2, 4) refines through every round before the round-0 hits
    # of (3, 3) are verified
    "head_refines_to_the_end": (
        HookPoly(6, 5, (-3, -6, -9, -8, 5)), 3,
        {"DEFECT_THRESHOLD": 0.3},
    ),
    # hyperbolic (m1 m3 and m1^2 m3): every round of every chunk runs
    "hyperbolic": (HookPoly(5, 4, (0, 0, Q(5, 2), 0)), 8, {}),
    "hyperbolic_small_max_points": (
        HookPoly(6, 5, (0, 0, Q(5, 2), 0, 0)), 8,
        {"MAX_POINTS": 150},
    ),
    **_CHUNK_CASES,
}


@pytest.mark.parametrize("name", sorted(_ORDER_CASES))
def test_falsifier_checks_points_in_the_all_rounds_first_order(monkeypatch, name):
    """Verifying after each round checks the same points, in the same order,
    as prescreening every round of a chunk first, and gives the same
    verdict; it never prescreens more rounds."""
    _without_closed_form(monkeypatch)
    p, grid, fixed = _ORDER_CASES[name]
    _fix(monkeypatch, **fixed)
    verdict, checked, rounds = _recorded(monkeypatch, falsify_hyperbolicity, p, grid)
    ref_verdict, ref_checked, ref_rounds = _recorded(
        monkeypatch, _reference_falsify, p, grid
    )
    assert verdict == ref_verdict
    assert checked == ref_checked
    assert rounds <= ref_rounds
    patterns = [m for k in range(2, p.d) for m in hyperbolicity._compositions(p.n, k)]
    if name in ("round_0_first_pattern", "second_pattern"):
        assert verdict.detail["pattern"] == list(patterns[name == "second_pattern"])
    elif name == "later_round":
        assert verdict.detail["pattern"] == [1, 2, 2]
        # without refinement rounds (1, 2, 2) yields no witness
        monkeypatch.setattr(hyperbolicity, "REFINE_ROUNDS", 0)
        assert falsify_hyperbolicity(p, grid).detail["pattern"] != [1, 2, 2]
    elif name == "head_refines_to_the_end":
        assert verdict.detail["pattern"] == [3, 3]
        assert rounds == ref_rounds
    elif name.startswith("hyperbolic") or name == "stops_mid_chunk":
        assert verdict.status == NO_COUNTEREXAMPLE and rounds == ref_rounds


def test_refute_witness_takes_one_prescreen_round(monkeypatch):
    """A witness among the first round's hits of the first pattern ends the
    search before any refinement round is prescreened."""
    p, grid, _ = _ORDER_CASES["round_0_first_pattern"]
    assert _recorded(monkeypatch, falsify_hyperbolicity, p, grid)[2] == 1
    assert _recorded(monkeypatch, _reference_falsify, p, grid)[2] == 4


def _falsify_stdout(capsys, hook, *args):
    run(["falsify", "--hook", json.dumps(hook), *args])
    return capsys.readouterr().out


def test_falsify_output_pinned(capsys):
    """Byte-exact falsify documents, recorded with the Fraction grid layer."""
    hook = {"n": 5, "d": 4, "a": ["1", "0", "-4", "1"]}
    out = _falsify_stdout(capsys, hook, "--seed", "0")
    assert out == (
        '{"detail":{"pattern":[2,3]},"status":"NotHyperbolic","witness":'
        '{"nonreal_roots":2,"x":["-1/1","-1/1","2/3","2/3","2/3"]}}\n'
    )
    hook = {"n": 6, "d": 5, "a": ["1", "-2", "3", "5", "-7"]}
    out = _falsify_stdout(capsys, hook, "--seed", "3", "--budget", "24")
    assert out == (
        '{"detail":{"pattern":[1,5]},"status":"NotHyperbolic","witness":'
        '{"nonreal_roots":2,"x":["-1/1","1/5","1/5","1/5","1/5","1/5"]}}\n'
    )
    hook = {"n": 4, "d": 4, "a": ["9/1", "8/1", "3/1", "5/1"]}
    out = _falsify_stdout(capsys, hook, "--seed", "0", "--budget", "8")
    assert out == (
        '{"detail":{"pattern":[1,3]},"status":"NotHyperbolic","witness":'
        '{"nonreal_roots":2,"x":["1/1","-1/3","-1/3","-1/3"]}}\n'
    )


def test_one_exact_check_per_distinct_point(monkeypatch):
    """Prescreen false alarms on the hyperbolic m_4 hook are checked exactly
    once per distinct point, across all patterns."""
    checked = []
    check = hyperbolicity._exact_check

    def counting(p, x):
        checked.append(x)
        return check(p, x)

    monkeypatch.setattr(hyperbolicity, "_exact_check", counting)
    _without_closed_form(monkeypatch)
    v = falsify_hyperbolicity(HookPoly(4, 4, (0, 0, 0, Q(8, 3))), 8)
    assert v.status == NO_COUNTEREXAMPLE
    assert len(checked) == len(set(checked)) == 28


# -- integer slice points and snapping against the Fraction versions --------


def _fraction_snap_point(x, den):
    """Reference: _snap_point as it was, on Fraction endpoints c -+ 1/den."""
    tol = Q(1, den)
    return tuple(simplest_between(c - tol, c + tol) for c in x)


def _fraction_slice_points(mults, candidates):
    """Reference: _slice_points as it was, one Fraction operation a step."""
    for nums, den in candidates:
        v = [Q(int(c), den) for c in nums]
        v.append(-sum(m * c for m, c in zip(mults[:-1], v)) / mults[-1])
        top = max(abs(c) for c in v)
        if top:
            yield tuple(c / top for c in v)


def _parts(points):
    """Points as (type, numerator, denominator) triples, so that equal
    values of another type or in other terms would not compare equal."""
    return [[(type(c), c.numerator, c.denominator) for c in v] for v in points]


@st.composite
def _slice_candidates(draw):
    mults = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=5)))
    den = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**52)))
    coordinate = st.one_of(st.just(0), st.sampled_from([den, -den]),
                           st.integers(-den, den))
    rows = draw(st.lists(st.lists(coordinate, min_size=len(mults) - 1,
                                  max_size=len(mults) - 1), min_size=1, max_size=4))
    return mults, [(np.array(row, dtype=np.int64), den) for row in rows]


@settings(max_examples=300, deadline=None)
@given(_slice_candidates())
def test_integer_slice_points_match_fractions(case):
    mults, candidates = case
    got = list(hyperbolicity._slice_points(mults, candidates))
    assert _parts(got) == _parts(_fraction_slice_points(mults, candidates))


@st.composite
def _snap_case(draw):
    """Coordinates of both signs with denominators up to 10^12, zeros, and
    coordinates c with c - 1/den or c + 1/den an integer (0 included)."""
    den = draw(st.one_of(st.integers(1, 64), st.just(4096), st.integers(1, 10**12)))
    near_integer = st.tuples(st.integers(-5, 5), st.sampled_from([-1, 1])).map(
        lambda t: t[0] + Q(t[1], den)
    )
    coordinate = st.one_of(
        st.just(Q(0)),
        near_integer,
        st.fractions(min_value=-3, max_value=3, max_denominator=10**12),
    ).map(lambda f: Q(f.numerator, f.denominator))
    return draw(st.lists(coordinate, min_size=1, max_size=6)), den


@settings(max_examples=500, deadline=None)
@given(_snap_case())
def test_integer_snap_matches_fractions(case):
    x, den = case
    got = hyperbolicity._snap_point(tuple(x), den)
    assert _parts([got]) == _parts([_fraction_snap_point(x, den)])


@pytest.mark.parametrize("falsifier", [falsify_hyperbolicity])
@pytest.mark.parametrize(
    "a, grid, snap",
    [
        ((0, 0, 0, Q(8, 3)), 8, 4096),
        ((0, 0, 0, Q(8, 3)), 8, 3),
        ((3, -1, -3, 1), FAST, 4096),
        ((1, 0, -4, 1), 8, 5),
    ],
    ids=[f"a{i}-budget{i}" for i in range(4)],
)
def test_falsifiers_check_the_fraction_path_points(
    monkeypatch, falsifier, a, grid, snap
):
    """The falsifier checks exactly the points, in the same order, that it
    checked with the Fraction slice and snap: the same `seen` keys, the
    same verdicts."""
    check = hyperbolicity._exact_check
    monkeypatch.setattr(hyperbolicity, "SNAP_DENOMINATOR", snap)

    def run(slice_points, snap_point):
        checked = []

        def counting(p, x):
            checked.append(x)
            return check(p, x)

        with monkeypatch.context() as mp:
            mp.setattr(hyperbolicity, "_exact_check", counting)
            mp.setattr(hyperbolicity, "_slice_points", slice_points)
            mp.setattr(hyperbolicity, "_snap_point", snap_point)
            verdict = falsifier(HookPoly(4, 4, a), grid)
        return verdict, checked

    verdict, checked = run(hyperbolicity._slice_points, hyperbolicity._snap_point)
    ref_verdict, ref_checked = run(_fraction_slice_points, _fraction_snap_point)
    assert checked
    assert _parts(checked) == _parts(ref_checked)
    assert (verdict.status, verdict.detail) == (ref_verdict.status, ref_verdict.detail)
    assert verdict.witness == ref_verdict.witness


# a grid is an integer of at least 2; m1^4 + m4 is not hyperbolic, so a
# grid that got past the check would run the search to a witness
@pytest.mark.parametrize(
    "kwargs",
    [{"grid": 1}, {"grid": 0}, {"grid": -1}, {"grid": -(2**60)}, {"grid": -2},
     {"grid": 2.5}, {"grid": float("inf")}, {"grid": float("nan")}, {"grid": 8.0},
     {"grid": "8"}],
)
def test_budget_rejects_inexact_grids(kwargs):
    need = "at least 2" if isinstance(kwargs["grid"], int) else "an integer"
    with pytest.raises(InvalidInput, match=f"grid must be {need}, got"):
        falsify_hyperbolicity(HookPoly(4, 4, (1, 0, 0, 1)), **kwargs)


@pytest.mark.parametrize(
    "kwargs", [{"grid": 0}, {"grid": -5}, {"grid": -5, "seed": 8},
               {"grid": 1}, {"grid": -1}]
)
def test_budget_rejects_empty_caps(capsys, kwargs):
    """conjecture passes --budget and --seed on to conjecture_case, whose
    falsifier refuses a grid below 2 whatever the seed."""
    argv = ["conjecture", "--target", '{"coeffs":["0","0","0","0","1"]}', "--n", "4",
            "--budget", str(kwargs["grid"])]
    if "seed" in kwargs:
        argv += ["--seed", str(kwargs["seed"])]
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "InvalidInput", "message": f"grid must be at least 2, got {kwargs['grid']}"
    }


def test_budget_accepts_smallest_caps(monkeypatch):
    p = HookPoly(5, 4, (0, 0, 0, 3))
    _fix(monkeypatch, MAX_POINTS=1)
    v = falsify_hyperbolicity(p, 8)
    assert v.status == NO_COUNTEREXAMPLE
    # no hit reaches exact verification, so no witness can be found
    monkeypatch.undo()
    _fix(monkeypatch, MAX_CANDIDATES=0)
    v = falsify_hyperbolicity(HookPoly(4, 4, (1, 0, -4, 1)), 8)
    assert v.status == NO_COUNTEREXAMPLE


def test_budget_accepts_largest_exact_grid():
    """Every grid is accepted: _grid_size caps it at MAX_POINTS a side, so
    the largest denominator (res - 1) * 8**3 stays far below 2**53, and on
    the one free axis of m1^4 + m4 every larger grid searches as the cap."""
    assert (hyperbolicity.REFINE_ROUNDS, hyperbolicity.REFINE_GRID) == (3, 9)
    p = HookPoly(4, 4, (1, 0, 0, 1))
    capped = falsify_hyperbolicity(p, hyperbolicity.MAX_POINTS)
    assert capped.status == NOT_HYPERBOLIC and _witness_is_valid(p, capped)
    for grid in (2**44, 2**60, hyperbolicity.MAX_POINTS + 1):
        assert falsify_hyperbolicity(p, grid) == capped
        for free in range(1, 5):
            res = hyperbolicity._grid_size(free, grid)
            assert res**free <= hyperbolicity.MAX_POINTS
            assert (res - 1) * 8**3 < 2**27 < 2**53


# -- conjecture evidence -------------------------------------------------------


def test_conjecture_case_quintic():
    target = UniPoly.from_roots([1, 1, 2, 2, -6], ambient=5)
    report = conjecture_case(
        ZeroSumPoly(target), 5, grid=FAST, delta_trials=200
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
        ZeroSumPoly(target), 4, grid=FAST, delta_trials=100
    )
    assert report.extendable and report.certificate.kind == "Extension"
    assert report.delta_negative == 0


def test_conjecture_case_rejects_bad_target():
    bad = UniPoly.from_roots([1, -1, 2, -2], ambient=4)  # two of each sign
    with pytest.raises(HypothesisViolated):
        conjecture_case(ZeroSumPoly(bad), 4, delta_trials=1)


def test_conjecture_case_rejects_negative_trials():
    target = UniPoly([0, 0, 0, 0, 1], 4)  # t^4
    with pytest.raises(InvalidInput, match="delta_trials"):
        conjecture_case(ZeroSumPoly(target), 4, delta_trials=-1)
    report = conjecture_case(ZeroSumPoly(target), 4, grid=FAST, delta_trials=0)
    assert (report.delta_trials, report.delta_negative) == (0, 0)


# -- e_k + linear --------------------------------------------------------------


def elementary_restriction(x, k, n):
    """The univariate polynomial e_k(x + t*1): coefficient of t^(k-i) is
    binom(n-i, k-i) e_i(x)."""
    e, L = elem_ints([Q(c) for c in x], k)
    return UniPoly.from_ints(hyperbolicity._restriction_ints(e, L, k, n), L**k)


def test_elementary_restriction_formula():
    # e2 in 3 variables at (1, 2, 3): e0=1, e1=6, e2=11
    q = elementary_restriction([1, 2, 3], 2, 3)
    assert q == UniPoly([Q(11), Q(2) * 6, Q(3)], 2)
    # derivative identity: d/dt e_k(x + t1) = (n - k + 1) e_{k-1}(x + t1)
    qm1 = elementary_restriction([1, 2, 3], 1, 3)
    assert UniPoly(q.derivative().coeffs, 1) == qm1 * Q(2)


def test_ek_plus_linear_all_pass():
    report = ek_plus_linear_check(2, 4, [1, 1, 0, 0], trials=60, seed=5)
    assert report.passed == report.trials and not report.failures


def test_ek_plus_linear_zero_linear_form():
    report = ek_plus_linear_check(3, 4, [0, 0, 0, 0], trials=40, seed=6)
    assert report.passed == report.trials


def test_ek_plus_linear_counts_roots_once_per_polynomial(monkeypatch):
    """Each line counts the roots of e_k + ell*e_{k-1} once, inside the
    interlacing test, and a passing line never counts those of e_{k-1}:
    its Cauchy index already proves them real."""
    calls = []
    counts = unipoly.root_counts

    def counting(p):
        calls.append(p)
        return counts(p)

    monkeypatch.setattr(unipoly, "root_counts", counting)
    report = ek_plus_linear_check(3, 5, [1, 0, 2, 0, 0], trials=25, seed=4)
    assert report.passed == 25
    assert len(calls) == 25


def _fraction_ek_plus_linear_check(k, n, ell, trials, seed):
    """Reference: ek_plus_linear_check as it was, every coefficient a
    Fraction: e_i(x) by the product recurrence, the restrictions, the line
    of ell and the total in Fraction arithmetic, and the branch on degrees.
    Also returns the (e_(k-1), total) pair of each line and the branch
    taken."""
    ell = [Q(c) for c in ell]
    big_l = sum(ell, Q(0))
    rng = random.Random(seed)
    passed, failures, pairs, branches = 0, [], [], []
    for _ in range(trials):
        x = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        e = [Q(1)] + [Q(0)] * k
        for c in x:
            for i in range(k, 0, -1):
                e[i] += c * e[i - 1]
        total = [comb(n - k + j, j) * e[k - j] for j in range(k + 1)]
        qkm1 = [comb(n - k + 1 + j, j) * e[k - 1 - j] for j in range(k)]
        ell_line = [sum((li * xi for li, xi in zip(ell, x)), Q(0)), big_l]
        for i, a in enumerate(ell_line):
            for j, c in enumerate(qkm1):
                total[i + j] += a * c
        total, qkm1 = UniPoly(total, k), UniPoly(qkm1, k - 1)
        pairs.append((qkm1, total))
        if total.degree() >= 1 and qkm1.degree() == total.degree() - 1:
            branches.append("interlaces")
            try:
                ok = interlaces(qkm1, total)
            except NotRealRooted:
                ok = False
        else:
            branches.append("is_real_rooted")
            ok = is_real_rooted(total)
        if ok:
            passed += 1
        else:
            failures.append(x)
    return passed, failures, pairs, branches


@st.composite
def ek_case(draw):
    """(k, n, ell) with k = n, k = 1 and ell(1) = 0 drawn often."""
    n = draw(st.integers(1, 6))
    k = draw(st.one_of(st.just(n), st.just(1), st.integers(1, n)))
    entries = st.sampled_from([Q(0), Q(1), Q(-2), Q(3, 2), Q(-7, 3), Q(5, 4)])
    ell = draw(st.lists(entries, min_size=n, max_size=n))
    if sum(ell) < 0 or draw(st.booleans()):
        ell[0] -= sum(ell)  # ell(1) = 0
    return k, n, ell


@settings(max_examples=120, deadline=None)
@given(ek_case(), st.integers(0, 10**6))
def test_ek_plus_linear_matches_fraction_reference(case, seed):
    """Same passed count and the same failing lines, in order, as the
    Fraction pipeline, and the same polynomials handed to interlaces on
    every line (no failing line has been seen with ell(1) >= 0, so the
    polynomials are what tells the two apart).  The reference's
    is_real_rooted branch never runs:
    the t^k coefficient binom(n, k) + ell(1) binom(n, k-1) of the total is
    positive for ell(1) >= 0, so deg total = k = deg e_(k-1) + 1 on every
    line, which is why ek_plus_linear_check has no such branch."""
    k, n, ell = case
    seen = []

    def recording(q, p):
        seen.append((q, p))
        return interlaces(q, p)

    hyperbolicity.interlaces = recording  # a fixture cannot wrap @given
    try:
        report = ek_plus_linear_check(k, n, ell, trials=12, seed=seed)
    finally:
        hyperbolicity.interlaces = interlaces
    reference = _fraction_ek_plus_linear_check(k, n, ell, 12, seed)
    passed, failures, pairs, branches = reference
    assert (report.passed, report.failures) == (passed, failures)
    assert seen == pairs
    assert set(branches) == {"interlaces"}


def test_ek_plus_linear_guards():
    with pytest.raises(InvalidInput):
        ek_plus_linear_check(5, 4, [0, 0, 0, 0], trials=1)
    with pytest.raises(InvalidInput):
        ek_plus_linear_check(2, 3, [-1, 0, 0], trials=1)  # ell(1) < 0
    with pytest.raises(InvalidInput):
        ek_plus_linear_check(2, 3, [1, 1], trials=1)
    with pytest.raises(InvalidInput, match="trials"):
        ek_plus_linear_check(2, 3, [0, 0, 0], trials=-3)
    assert ek_plus_linear_check(2, 3, [0, 0, 0], trials=0).passed == 0


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
