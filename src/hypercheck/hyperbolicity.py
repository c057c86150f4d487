"""Decision procedures and falsifiers for symmetric hyperbolicity.

Exact semialgebraic tests decide cubic and hook-quartic hyperbolicity
outright.  For higher degrees only falsification is available: the
degree principle guarantees that a symmetric polynomial of degree d is
hyperbolic iff its line restriction is real rooted at every point with
at most d - 1 distinct entries, so the falsifier searches exactly that
space, one multiplicity pattern at a time and stopping at the first
pattern that yields a witness.  Candidate points are ranked by a float
eigenvalue prescreen (see kernels) and every reported witness is
re-verified with exact rational Sturm computations; sampling procedures
therefore never return "Hyperbolic", only "NoCounterexampleFound".
Only the falsifier's functions import numpy, so a process that makes
exact decisions alone never loads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from math import comb, lcm

from .errors import (
    HypothesisViolated,
    InvalidInput,
    NonInvertibleTransform,
    NotHyperbolicInput,
    NotRealRooted,
    WitnessSearchExhausted,
    WrongDegree,
    ZeroPolynomial,
)
from .kernels import realness_defects
from .operators import (
    ExtendCertificate,
    decide_extendable,
    map_sending_g0_to,
    operator_to_hook,
)
from .rationals import Q, QONE, QZERO, _simplest_pos, qsign, to_q
from .sympoly import HookPoly, SymPoint, elem_ints, mixed_derivative_eval, restrict_line
from .unipoly import (
    UniPoly,
    ZeroSumPoly,
    interlaces,
    isolate_real_roots,
    root_counts,
    squarefree_part,
)

HYPERBOLIC = "Hyperbolic"
NOT_HYPERBOLIC = "NotHyperbolic"
NO_COUNTEREXAMPLE = "NoCounterexampleFound"


@dataclass
class Verdict:
    status: str
    witness: tuple | None = None  # (SymPoint, RootCounts)
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SearchBudget:
    """Budget knobs for the sampling falsifiers.

    grid: points per free axis on the slice grid; refine_rounds /
    refine_grid: local refinement passes around the best cell;
    max_points: cap on total grid size per multiplicity pattern;
    max_candidates: prescreen hits forwarded to exact verification;
    defect_threshold: minimum float realness defect to count as a hit;
    snap_denominator: witnesses are snapped to rationals with at most
    this denominator before exact verification; trials: sample count
    for the unrestricted falsifier; seed: determinism.
    """

    grid: int = 64
    refine_rounds: int = 3
    refine_grid: int = 9
    max_points: int = 200_000
    max_candidates: int = 24
    defect_threshold: float = 1e-7
    snap_denominator: int = 4096
    trials: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, value in (("grid", self.grid), ("refine_grid", self.refine_grid)):
            if value < 2:
                raise InvalidInput(f"{name} must be at least 2, got {value}")
        # the largest grid denominator (res-1)*g**rounds (_search_composition)
        # must keep float64 numerators exact; for g > 1, 53 rounds exceed it
        res, g = min(self.grid, max(3, self.max_points)), self.refine_grid - 1
        rounds = max(self.refine_rounds, 0)
        if (g > 1 and rounds >= 53) or (res - 1) * g**rounds >= 2**53:
            raise InvalidInput("grid denominators must stay below 2**53")


DEFAULT_BUDGET = SearchBudget()

# multiplicity patterns falsify_hyperbolicity accepts; the benchmark's and
# the tests' hooks have at most 63 (n = 8, d = 5)
MAX_PATTERNS = 1000


def max_threads() -> int:
    """Threads the falsifier uses; it runs on the caller's thread.  The
    benchmark's worker (hcbench/worker.py) calls this after every run to
    name the thread count in its record, so removing it makes every
    benchmark run fail."""
    return 1


# -- exact decisions ------------------------------------------------------


def decide_cubic(a, b, c, n: int, budget: SearchBudget = None) -> Verdict:
    """Exact hyperbolicity of a*m1^3 + b*m1*m2 + c*m3 in n >= 3 variables:
    hyperbolic iff (a+b+c) * (27ac^2 - b^3 - 9b^2c) <= 0."""
    a, b, c = to_q(a), to_q(b), to_q(c)
    if a == b == c == 0:
        raise ZeroPolynomial("zero cubic")
    if n < 3:
        raise InvalidInput("need n >= 3")
    factor_value = a + b + c
    factor_disc = 27 * a * c * c - b * b * b - 9 * b * b * c
    product = factor_value * factor_disc
    detail = {
        "value_at_ones": factor_value,
        "boundary_form": factor_disc,
        "product": product,
    }
    if product <= 0:
        return Verdict(HYPERBOLIC, detail=detail)
    p = HookPoly(n, 3, (a, b, c))
    return Verdict(NOT_HYPERBOLIC, witness=_find_witness(p, budget), detail=detail)


def decide_quartic_hook(p: HookPoly, budget: SearchBudget = None) -> Verdict:
    """Exact hyperbolicity of a hook quartic: shift the coordinate-vector
    restriction by -1/n; hyperbolic iff it is real rooted with at least
    three roots of one sign."""
    if p.d != 4:
        raise WrongDegree(f"expected degree 4, got {p.d}")
    u = [QONE] + [QZERO] * (p.n - 1)
    q = restrict_line(p, u).shift(Q(-1, p.n))
    detail = {"shifted_restriction": q}
    if q.is_zero():
        return Verdict(HYPERBOLIC, detail=detail)
    counts = root_counts(q)
    real = counts.n_nonreal == 0
    # roots at infinity (degree drop) count toward either sign, like zero
    # roots: they are limits of arbitrarily large one-signed roots
    slack = counts.n_zero + counts.degree_drop
    signs = real and (
        counts.n_positive + slack >= 3 or counts.n_negative + slack >= 3
    )
    if real and signs:
        return Verdict(HYPERBOLIC, detail=detail)
    detail["real_rooted"] = real
    return Verdict(NOT_HYPERBOLIC, witness=_find_witness(p, budget), detail=detail)


def _find_witness(p: HookPoly, budget: SearchBudget = None):
    """Exact witness for a polynomial already known non-hyperbolic.

    The coordinate-vector restriction is non-real in many failing cases;
    otherwise the failure is sign-only and the falsifier is run with an
    escalating grid until a witness appears (one exists in the <= d-1
    distinct-entry slice by the degree principle, and the violating
    region is open).
    """
    u = [QONE] + [QZERO] * (p.n - 1)
    counts = root_counts(restrict_line(p, u))
    if counts.n_nonreal:
        return (SymPoint(tuple(u)), counts)
    base = budget or DEFAULT_BUDGET
    for grid in (base.grid, 2 * base.grid, 4 * base.grid, 8 * base.grid):
        wider = replace(
            base,
            grid=grid,
            max_points=base.max_points * 4,
            max_candidates=4 * base.max_candidates,
            defect_threshold=base.defect_threshold / 10,
        )
        v = falsify_hyperbolicity(p, wider)
        if v.status == NOT_HYPERBOLIC:
            return v.witness
    raise WitnessSearchExhausted("witness search exhausted for a non-hyperbolic input")


def cone_member(p: HookPoly, x) -> bool:
    """True iff p(x + t*1) has no root with t > 0 (Sturm count on the
    open positive ray)."""
    q = restrict_line(p, x)
    if q.is_zero():
        return False
    return root_counts(q).n_positive == 0


# -- the falsifier --------------------------------------------------------


def _compositions(n: int, k: int):
    """Ordered compositions of n into k positive parts."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _batch_restriction(a_float, n: int, d: int, values, mults):
    """Line-restriction coefficients (descending) for a batch of points.

    values: (N, k) float array of distinct entries; mults: multiplicities.
    Returns an (N, d+1) float array of the coefficients of p(x + t*1).
    """
    import numpy as np
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


def _trim_structural_zeros(coeffs):
    """Drop leading coefficient columns that vanish across the whole
    batch (structural degree drop; roots at infinity are forgiven)."""
    import numpy as np
    scale = np.abs(coeffs).max() or 1.0
    start = 0
    while coeffs.shape[1] - start > 2 and np.all(
        np.abs(coeffs[:, start]) <= 1e-13 * scale
    ):
        start += 1
    return coeffs[:, start:]


def _product_rows(axes):
    """Rows of the Cartesian product of integer axes, the first axis
    varying slowest (the order of nested loops over the axes)."""
    import numpy as np
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _grid_rows(res: int, free: int):
    """The slice grid as int64 numerators 2j - (res-1) over res - 1."""
    import numpy as np
    axis = 2 * np.arange(res, dtype=np.int64) - (res - 1)
    return _product_rows([axis] * free), res - 1


def _refine_rows(center, den: int, g: int):
    """One refinement round around `center` (numerators over den): steps
    2(2j - g) for j = 0..g over den*g on every axis, clipped to [-1, 1]."""
    import numpy as np
    den *= g
    steps = 2 * (2 * np.arange(g + 1, dtype=np.int64) - g)
    return _product_rows([np.clip(c * g + steps, -den, den) for c in center]), den


def _expand_point(mults, v):
    return tuple(c for m, c in zip(mults, v) for _ in range(m))


def _exact_check(p: HookPoly, x):
    q = restrict_line(p, x)
    if q.is_zero():
        return None
    counts = root_counts(q)
    if counts.n_nonreal:
        return (SymPoint(tuple(x)), counts)
    return None


def _snap_point(x, den: int):
    """Each coordinate a/b replaced by the simplest rational within 1/den
    of it, [(a*den - b)/(b*den), (a*den + b)/(b*den)], found on integers;
    the interval is symmetric, so a negative coordinate snaps to the
    negated snap of |a|/b."""
    snapped = []
    for c in x:
        a, b = abs(c.numerator), c.denominator
        if a * den <= b:
            snapped.append(QZERO)
            continue
        num, d = _simplest_pos(a * den - b, b * den, a * den + b, b * den)
        snapped.append(Q(num if c.numerator > 0 else -num, d))
    return tuple(snapped)


def _slice_points(mults, candidates):
    """Exact slice points from free coordinates given as (numerators,
    denominator): last distinct value from the zero-sum constraint, then
    rescale to max |v| = 1 (the zero point has no slice point).  On the
    integers N_i = c_i * m_last, N_last = -sum m_i * c_i (the values times
    den * m_last) the slice point is N / max |N|."""
    for nums, _ in candidates:
        scaled = [int(c) * mults[-1] for c in nums]
        scaled.append(-sum(m * int(c) for m, c in zip(mults[:-1], nums)))
        top = max(abs(c) for c in scaled)
        if top:
            yield tuple(Q(c, top) for c in scaled)


def _verify_candidates(p: HookPoly, mults, candidates, budget, seen: set):
    """Exact checks of the candidates, snapped point first; a point in
    `seen` already failed to be a witness and is skipped."""
    for v in _slice_points(mults, candidates):
        snapped = _snap_point(v, budget.snap_denominator)
        for cand in ([snapped] if snapped != v else []) + [v]:
            x = _expand_point(mults, cand)
            if x in seen:
                continue
            seen.add(x)
            witness = _exact_check(p, x)
            if witness is not None:
                return witness
    return None


def _prescreen(p, a_float, mults, nums, den: int, budget):
    """Float defects for a batch of free-coordinate rows (int64 numerators
    over den); returns indices above threshold sorted by decreasing
    defect, plus the best row."""
    import numpy as np
    w = nums / den
    # zero-sum completion summed left to right, then max-norm scaling, as in
    # _slice_points: with den < 2**53 these floats are float() of its values
    last = np.zeros(len(w))
    for m, col in zip(mults[:-1], w.T):
        last = last + m * col
    vals = np.column_stack([w, -last / mults[-1]])
    top = np.abs(vals).max(axis=1)
    top[top == 0] = 1.0
    coeffs = _batch_restriction(a_float, p.n, p.d, vals / top[:, None], mults)
    coeffs = _trim_structural_zeros(coeffs)
    if coeffs.shape[1] < 3:
        return [], None
    defects = realness_defects(coeffs)
    order = np.argsort(-defects)
    hits = order[defects[order] > budget.defect_threshold]
    best = int(order[0]) if len(order) and defects[order[0]] > 0 else None
    return hits[: budget.max_candidates], best


def _search_composition(p, a_float, mults, budget):
    """Full grid plus local refinement for one multiplicity pattern.
    Returns candidate rows as (numerators, denominator) in priority order."""
    free = len(mults) - 1
    res = budget.grid
    if free >= 1 and res**free > budget.max_points and res > 3:
        res = max(3, int(budget.max_points ** (1.0 / free)))
    rows, den = _grid_rows(res, free)
    candidates = []
    # the grid, then local refinement around the best cell of the last pass
    for r in range(max(budget.refine_rounds, 0) + 1):
        if r:
            rows, den = _refine_rows(rows[best], den, budget.refine_grid - 1)
        hits, best = _prescreen(p, a_float, mults, rows, den, budget)
        candidates.extend((rows[i], den) for i in hits)
        if best is None:
            break
    return candidates


def falsify_hyperbolicity(p: HookPoly, budget: SearchBudget = None) -> Verdict:
    """Search for an exact witness of non-hyperbolicity.

    By the degree principle it suffices to look at points with at most
    d - 1 distinct entries; for each multiplicity pattern the distinct
    values are reduced (translation along 1, homogeneity) to the compact
    slice sum(m_i v_i) = 0, max |v_i| = 1, which is gridded, float
    prescreened and locally refined.  Hits are snapped to bounded
    denominators and re-verified exactly, each distinct point once, before
    the next pattern is searched, so the search stops at the first witness;
    only exact verification can produce NotHyperbolic, and the procedure
    never claims hyperbolicity.
    """
    budget = budget or DEFAULT_BUDGET
    d, n = p.d, p.n
    # compositions of n into k parts, 2 <= k <= d - 1
    count = sum(comb(n - 1, k - 1) for k in range(2, min(d - 1, n) + 1))
    if count > MAX_PATTERNS:
        raise InvalidInput(
            f"{count} multiplicity patterns exceed the bound {MAX_PATTERNS}"
        )
    a_float = [float(c) for c in p.a]
    patterns = []
    for k in range(2, min(d - 1, n) + 1):
        patterns.extend(_compositions(n, k))
    if not patterns:
        return Verdict(NO_COUNTEREXAMPLE, detail={"patterns": 0})
    seen = set()
    for mults in patterns:
        candidates = _search_composition(p, a_float, mults, budget)
        witness = _verify_candidates(p, mults, candidates, budget, seen)
        if witness is not None:
            return Verdict(
                NOT_HYPERBOLIC,
                witness=witness,
                detail={"pattern": list(mults)},
            )
    return Verdict(NO_COUNTEREXAMPLE, detail={"patterns": len(patterns)})


def falsify_unrestricted(p: HookPoly, budget: SearchBudget = None) -> Verdict:
    """Baseline falsifier without the distinct-entry reduction: random
    rational points, float prescreen, exact verification of the hits."""
    import numpy as np
    budget = budget or DEFAULT_BUDGET
    rng = random.Random(budget.seed)
    d, n = p.d, p.n
    a_float = [float(c) for c in p.a]
    den = 16
    nums = [[rng.randint(-den, den) for _ in range(n)] for _ in range(budget.trials)]
    vals = np.array(nums) / den
    coeffs = _trim_structural_zeros(
        _batch_restriction(a_float, n, d, vals, [1] * n)
    )
    if coeffs.shape[1] < 3:
        return Verdict(NO_COUNTEREXAMPLE, detail={"trials": budget.trials})
    defects = realness_defects(coeffs)
    order = np.argsort(-defects)
    for i in order[: budget.max_candidates]:
        if defects[i] <= budget.defect_threshold:
            break
        x = tuple(Q(c, den) for c in nums[int(i)])
        snapped = _snap_point(x, budget.snap_denominator)
        for cand in ([snapped] if snapped != x else []) + [x]:
            witness = _exact_check(p, cand)
            if witness is not None:
                return Verdict(
                    NOT_HYPERBOLIC, witness=witness, detail={"trial": int(i)}
                )
    return Verdict(NO_COUNTEREXAMPLE, detail={"trials": budget.trials})


# -- conjecture evidence ---------------------------------------------------


@dataclass
class ConjectureReport:
    """Evidence record for the sufficiency conjecture: the hook
    polynomial induced by a zero-sum target with d-1 one-signed roots,
    its falsification outcome, mixed-derivative sampling, and the
    extendability decision with its certificate."""

    n: int
    d: int
    hook: HookPoly
    falsifier: Verdict
    delta_trials: int
    delta_negative: int
    delta_min: Q
    extendable: bool
    certificate: ExtendCertificate


def conjecture_case(
    q: ZeroSumPoly, n: int, budget: SearchBudget = None, delta_trials: int = 1000
) -> ConjectureReport:
    budget = budget or DEFAULT_BUDGET
    inner = q.inner
    d = inner.ambient_degree
    if inner.is_zero():
        raise HypothesisViolated("zero target")
    counts = root_counts(inner)
    if counts.n_nonreal or not counts.one_sided(d - 1):
        raise HypothesisViolated(
            "target must be real rooted with d-1 roots of one sign"
        )
    T = map_sending_g0_to(q, n)
    p = operator_to_hook(T)
    verdict = falsify_hyperbolicity(p, budget)
    rng = random.Random(budget.seed)
    ones = tuple([QONE] * n)
    negative = 0
    minimum = None
    for _ in range(delta_trials):
        x = tuple(Q(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        value = mixed_derivative_eval(p, ones, ones, x)
        if minimum is None or value < minimum:
            minimum = value
        if value < 0:
            negative += 1
    extendable, cert = decide_extendable(T)
    return ConjectureReport(
        n=n,
        d=d,
        hook=p,
        falsifier=verdict,
        delta_trials=delta_trials,
        delta_negative=negative,
        delta_min=minimum if minimum is not None else QZERO,
        extendable=extendable,
        certificate=cert,
    )


# -- e_k + linear interlacing ----------------------------------------------


@dataclass
class EkLinearReport:
    k: int
    n: int
    trials: int
    passed: int
    failures: list


def elementary_restriction(x, k: int, n: int) -> UniPoly:
    """The univariate polynomial e_k(x + t*1): coefficient of t^(k-i) is
    binom(n-i, k-i) e_i(x)."""
    e, L = elem_ints([to_q(c) for c in x], k)
    return UniPoly.from_ints(_restriction_ints(e, L, k, n), L**k)


def _restriction_ints(e, L: int, k: int, n: int):
    """L^k e_k(x + t*1) on integers, from E_i = L^i e_i(x), i <= k: the
    coefficient of t^j is binom(n-k+j, j) E_(k-j) L^j."""
    return [comb(n - k + j, j) * e[k - j] * L**j for j in range(k + 1)]


def ek_plus_linear_check(
    k: int, n: int, ell, trials: int = 1000, seed: int = 0
) -> EkLinearReport:
    """On random rational lines, assert exactly that e_k + ell*e_{k-1}
    restricted to x + t*1 is real rooted and that e_{k-1}'s restriction
    interlaces it.  ell is a linear form given by its n coefficients,
    required to satisfy ell(1) >= 0.  With ell = l / M and x = X / L over
    common denominators, ell(x + t*1) = (l.X + l.1 L t) / (M L)."""
    if not (1 <= k <= n):
        raise InvalidInput("need 1 <= k <= n")
    ell = [to_q(c) for c in ell]
    if len(ell) != n:
        raise InvalidInput(f"expected {n} linear-form coefficients")
    M = lcm(*(c.denominator for c in ell))
    lnum = [c.numerator * (M // c.denominator) for c in ell]
    big_l = sum(lnum)  # M ell(1)
    if big_l < 0:
        raise InvalidInput("ell(1) must be nonnegative")
    rng = random.Random(seed)
    passed = 0
    failures = []
    for _ in range(trials):
        x = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        e, L = elem_ints(x, k)
        qk = UniPoly.from_ints(_restriction_ints(e, L, k, n), L**k)
        qkm1 = UniPoly.from_ints(_restriction_ints(e, L, k - 1, n), L ** (k - 1))
        lin = sum(li * c.numerator * (L // c.denominator) for li, c in zip(lnum, x))
        total = qk + UniPoly.from_ints([lin, big_l * L], M * L) * qkm1
        # deg total = k and deg qkm1 = k - 1, since the t^k coefficient
        # binom(n, k) + ell(1) binom(n, k-1) is positive; e_{k-1} is
        # hyperbolic, so only `total` can be non-real rooted
        try:
            ok = interlaces(qkm1, total)
        except NotRealRooted:
            ok = False
        if ok:
            passed += 1
        else:
            failures.append(x)
    return EkLinearReport(k=k, n=n, trials=trials, passed=passed, failures=failures)


# -- cubic normal form ------------------------------------------------------


@dataclass
class CubicNormalForm:
    """Reduced coefficients after the shear x -> x - s*e1(x)*1: the
    transformed cubic is c2*m1*m2 + c1*m3 with the m1^3 term removed.
    The shear parameter solves a cubic, so u = 1 - s*n (and hence c2 and
    s) may be irrational: exact rational values are given when they
    exist, and a rational enclosure plus an exact sign otherwise."""

    c1: Q
    c2: Q | None
    c2_interval: tuple
    c2_sign: int
    u: Q | None
    u_interval: tuple
    shift: Q | None


def cubic_normal_form(a, b, c, n: int) -> CubicNormalForm:
    """Normal form of a hyperbolic cubic a*m1^3 + b*m1*m2 + c*m3.

    Composing with x -> x - s*e1(x)*1 multiplies m1 by u = 1 - s*n and
    maps the coefficient vector to
        A(u) = a*u^3 - b*u*(1 - u^2) + c*(u-1)^2*(u+2)   (m1^3 term)
        B(u) = b*u + 3*c*(u - 1)                          (m1*m2 term)
    with the m3 coefficient fixed at c.  A root u* != 0 of A gives the
    normal form (c1, c2) = (c, B(u*)); u* = 0 only for a singular shear.
    """
    a, b, c = to_q(a), to_q(b), to_q(c)
    if decide_cubic(a, b, c, max(n, 3)).status != HYPERBOLIC:
        raise NotHyperbolicInput("cubic normal form requires a hyperbolic input")
    if a == 0 and qsign(b) * qsign(c) >= 0:
        # already in normal form (u = 1 is a root of A exactly when a = 0)
        return CubicNormalForm(
            c1=c, c2=b, c2_interval=(b, b), c2_sign=qsign(b),
            u=QONE, u_interval=(QONE, QONE), shift=QZERO,
        )
    # expanded: A(u) = (a+b+c) u^3 - (b+3c) u + 2c, never zero since
    # decide_cubic rejects a = b = c = 0
    A = UniPoly([2 * c, -b - 3 * c, QZERO, a + b + c])
    sf = squarefree_part(A)
    roots = isolate_real_roots(sf)
    if not roots:
        raise NonInvertibleTransform("no real shear makes the m1^3 term vanish")
    for root in roots:
        root.try_rational()
    for root in reversed(roots):  # largest first
        if root.is_exact() and root.exact == 0:
            continue
        c2_exact, c2_int, c2_sign = _eval_linear_on_root(b, 3 * c, -3 * c, root)
        if qsign(c) * c2_sign >= 0:
            u = root.exact
            return CubicNormalForm(
                c1=c, c2=c2_exact, c2_interval=c2_int, c2_sign=c2_sign,
                u=u, u_interval=root.interval(),
                shift=None if u is None else (1 - u) / n,
            )
    raise NonInvertibleTransform(
        "only the singular shear removes the m1^3 term"
    )


def _eval_linear_on_root(slope, offset_slope, offset, root):
    """Exact value, rational enclosure and sign of the linear form
    (slope + offset_slope)*u + offset at an algebraic u given as a
    RealRoot.  Returns (exact or None, (lo, hi), sign)."""
    k = slope + offset_slope
    if root.is_exact():
        v = k * root.exact + offset
        return v, (v, v), qsign(v)
    if k == 0:
        return offset, (offset, offset), qsign(offset)
    # sign: B vanishes at u0 = -offset/k; compare the root against it
    u0 = -offset / k
    rel = root._compare_with_rational(u0)
    if rel == 0:
        return QZERO, (QZERO, QZERO), 0
    sign = qsign(k) * rel
    root.refine_below(Q(1, 1 << 20))
    lo, hi = root.interval()
    ends = sorted((k * lo + offset, k * hi + offset))
    return None, (ends[0], ends[1]), sign
