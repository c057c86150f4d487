"""Decision procedures and a falsifier for symmetric hyperbolicity.

Exact semialgebraic tests decide cubic and hook-quartic hyperbolicity
outright (a quartic only when p(1) != 0 or a_4 = 0), and the falsifier
consults them, also on a hook's quotient by m1 (the same witnesses).
For higher degrees only falsification is available: the degree principle
guarantees that a symmetric polynomial of degree d is
hyperbolic iff its line restriction is real rooted at every point with
at most d - 1 distinct entries, so the falsifier searches exactly that
space.  Candidate points are ranked by a float eigenvalue prescreen (see
kernels), which runs on chunks of 1, 2, 4, ... multiplicity patterns at
a time.  Exact rational Sturm computations verify the hits after each
prescreen round, pattern by pattern and within a pattern round by round,
and the search, refinement included, stops at the first witness.  Its one
setting is the slice grid.  Every reported witness is exact, and sampling
procedures never return "Hyperbolic", only "NoCounterexampleFound".  Only
the falsifier's functions import numpy, so a process that makes exact
decisions alone never loads it.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, lcm

from .errors import (
    DegreeMismatch,
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
from .rationals import Q, QONE, QZERO, Record, qsign, simplest_ratio, to_q
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


# Fixed by the method; a request sets only the grid.  At most MAX_POINTS
# rows a grid and a prescreen round of a chunk (a pattern over it goes
# alone) bound a kernel call's memory; MAX_CANDIDATES hits a pattern and
# round bound the exact work false alarms cost; DEFECT_THRESHOLD keeps
# float rounding from counting as a hit; REFINE_ROUNDS = 3 passes of a
# REFINE_GRID = 9 point local grid narrow the best cell 8**3-fold at
# 9**free rows a round; SNAP_DENOMINATOR keeps witnesses short.  The exact
# deciders' witness search raises only the grid: on 600 sampled quartics,
# wider caps and a lower threshold found the same witnesses at the same grid.
REFINE_ROUNDS = 3
REFINE_GRID = 9
SNAP_DENOMINATOR = 4096
MAX_POINTS = 200_000
MAX_CANDIDATES = 24
DEFECT_THRESHOLD = 1e-7


class Verdict(Record):
    __slots__ = ("status", "witness", "detail")

    def __init__(self, status: str, witness: tuple | None = None,
                 detail: dict | None = None):
        # witness: (SymPoint, RootCounts)
        self._init(status, witness, {} if detail is None else detail)


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


def _closed_form(p: HookPoly):
    """(holds, detail) of the closed form of a cubic or hook quartic; when
    p(1) != 0 it holds iff p is hyperbolic.  d = 3: (a+b+c) * (27ac^2 -
    b^3 - 9b^2c) <= 0.  d = 4: the coordinate-vector restriction shifted
    by -1/n is real rooted with at least three roots of one sign."""
    if p.d == 3:
        a, b, c = p.a
        value, form = a + b + c, 27 * a * c * c - b * b * b - 9 * b * b * c
        detail = {"value_at_ones": value, "boundary_form": form}
        return value * form <= 0, {**detail, "product": value * form}
    u = [QONE] + [QZERO] * (p.n - 1)
    q = restrict_line(p, u).shift(Q(-1, p.n))
    detail = {"shifted_restriction": q}
    if q.is_zero():
        return True, detail
    counts = root_counts(q)
    # roots at infinity (degree drop) count toward either sign, like zero
    # roots: they are limits of arbitrarily large one-signed roots
    if counts.one_signed(3 - counts.degree_drop):
        return True, detail
    return False, {**detail, "real_rooted": counts.n_nonreal == 0}


def _closed_form_proves(p: HookPoly) -> bool:
    """True when a closed form proves p hyperbolic, after m1 is divided out
    while d > 3 and a_d = 0 (see falsify_hyperbolicity).  A cubic's closed
    form decides it, at p(1) = 0 too, where every restriction is linear; a
    quartic's only when p(1) != 0."""
    while p.d > 3 and p.a[-1] == 0:
        p = HookPoly(p.n, p.d - 1, p.a[:-1])
    return (p.d == 3 or p.d == 4 and sum(p.a) != 0) and _closed_form(p)[0]


def decide_cubic(a, b, c, n: int) -> Verdict:
    """Exact hyperbolicity of a*m1^3 + b*m1*m2 + c*m3 in n >= 3 variables
    by its closed form."""
    a, b, c = to_q(a), to_q(b), to_q(c)
    if a == b == c == 0:
        raise ZeroPolynomial("zero cubic")
    if n < 3:
        raise InvalidInput("need n >= 3")
    p = HookPoly(n, 3, (a, b, c))
    holds, detail = _closed_form(p)
    witness = None if holds else _find_witness(p)
    return Verdict(HYPERBOLIC if holds else NOT_HYPERBOLIC, witness, detail)


def decide_quartic_hook(p: HookPoly) -> Verdict:
    """Exact hyperbolicity of a hook quartic by its closed form.  At p(1) =
    0 it also holds on non-hyperbolic quartics, which raise HypothesisViolated,
    unless a_4 = 0: p is then m1 times a cubic whose restrictions are linear."""
    if p.d != 4:
        raise WrongDegree(f"expected degree 4, got {p.d}")
    holds, detail = _closed_form(p)
    if holds and sum(p.a) == 0 and p.a[-1] != 0:
        raise HypothesisViolated("the quartic closed form needs p(1) != 0")
    witness = None if holds else _find_witness(p)
    return Verdict(HYPERBOLIC if holds else NOT_HYPERBOLIC, witness, detail)


def _find_witness(p: HookPoly):
    """Exact witness for a polynomial already known non-hyperbolic.

    The coordinate-vector restriction is non-real in many failing cases;
    otherwise the failure is sign-only and the falsifier is run with an
    escalating grid until a witness appears (one exists in the <= d-1
    distinct-entry slice by the degree principle, and the violating
    region is open).
    """
    witness = _exact_check(p, (QONE,) + (QZERO,) * (p.n - 1))
    if witness is not None:
        return witness
    for grid in (64, 128, 256, 512):
        v = falsify_hyperbolicity(p, grid)
        if v.status == NOT_HYPERBOLIC:
            return v.witness
    raise WitnessSearchExhausted("witness search exhausted for a non-hyperbolic input")


def cone_member(p: HookPoly, x) -> bool:
    """True iff p(x + t*1) has no root with t > 0 (Sturm count on the
    open positive ray).  x must have p.n coordinates."""
    if len(x) != p.n:
        raise DegreeMismatch(f"point has {len(x)} coordinates, the hook has n={p.n}")
    q = restrict_line(p, x)
    if q.is_zero():
        return False
    return root_counts(q).n_positive == 0


# -- the falsifier --------------------------------------------------------


def _compositions(n: int, k: int):
    """Ordered compositions of n into k positive parts, in lexicographic
    order: the gaps between k - 1 cut points of 1..n-1 and the ends."""
    for cuts in combinations(range(1, n), k - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))


def _batch_restriction(a_float, n: int, d: int, values):
    """Line-restriction coefficients (descending) for a batch of points.

    values: (N, n) float array, one point per row.  Returns an (N, d+1)
    float array of the coefficients of p(x + t*1).
    """
    import numpy as np
    N = values.shape[0]
    # coefficient j in row j, so that every update runs on contiguous rows
    e = np.zeros((d + 1, N))
    e[0] = 1.0
    for v in values.T:
        for j in range(d, 0, -1):
            e[j] += v * e[j - 1]
    mean = e / np.array([float(comb(n, j)) for j in range(d + 1)])[:, None]
    m1 = mean[1]
    asc = np.zeros((d + 1, N))
    m1_pows = [np.ones(N)]
    for _ in range(d):
        m1_pows.append(m1_pows[-1] * m1)
    for i in range(1, d + 1):
        ai = a_float[i - 1]
        if ai == 0.0:
            continue
        for j in range(i + 1):
            base = ai * comb(i, j)
            mj = mean[j]
            for l in range(d - i + 1):
                asc[l + i - j] += (
                    base * comb(d - i, l) * m1_pows[d - i - l] * mj
                )
    return asc[::-1].T


def _trim_structural_zeros(coeffs):
    """Drop leading coefficient columns that vanish across the whole
    batch (structural degree drop; roots at infinity are forgiven)."""
    import numpy as np
    top = np.abs(coeffs).max(axis=0)  # per column; NaN where one is NaN
    bound = 1e-13 * (top.max() or 1.0)
    start = 0
    while coeffs.shape[1] - start > 2 and top[start] <= bound:
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


def _refine_batch(ranked, g: int):
    """One refinement round around the best row of each (mults, rows, den,
    best) entry: steps 2(2j - g) for j = 0..g over den*g on every axis,
    clipped to [-1, 1].  The offset lattice is built once per free count."""
    import numpy as np
    steps = 2 * (2 * np.arange(g + 1, dtype=np.int64) - g)
    offsets, batch = {}, []
    for mults, rows, den, best in ranked:
        free = len(mults) - 1
        if free not in offsets:
            offsets[free] = _product_rows([steps] * free)
        rows = rows[best] * g + offsets[free]
        batch.append((mults, np.clip(rows, -den * g, den * g, out=rows), den * g))
    return batch


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
    of it, [(a*den - b)/(b*den), (a*den + b)/(b*den)], found on integers."""
    return tuple(Q(*simplest_ratio(a * den - b, b * den, a * den + b, b * den))
                 for a, b in ((c.numerator, c.denominator) for c in x))


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


def _verify_candidates(p: HookPoly, mults, candidates, seen: set):
    """Exact checks of the candidates, snapped point first; a point in
    `seen` already failed to be a witness and is skipped."""
    for v in _slice_points(mults, candidates):
        snapped = _snap_point(v, SNAP_DENOMINATOR)
        for cand in ([snapped] if snapped != v else []) + [v]:
            x = _expand_point(mults, cand)
            if x in seen:
                continue
            seen.add(x)
            witness = _exact_check(p, x)
            if witness is not None:
                return witness
    return None


def _grid_size(free: int, grid: int) -> int:
    """Points per axis of a pattern's slice grid: grid, shrunk so that it
    holds at most MAX_POINTS rows, but at least 3 a side.  So a side has at
    most max(3, MAX_POINTS) points, and the largest grid denominator, (res
    - 1) * 8**3 after refinement, about 1.0e8, is exact in float64."""
    if grid**free > MAX_POINTS and grid > 3:
        return max(3, int(MAX_POINTS ** (1.0 / free)))
    return grid


def _chunks(patterns, grid: int):
    """Consecutive runs of 1, 2, 4, ... patterns, each cut short before the
    rows of its grids or of its refinement rounds would exceed MAX_POINTS;
    a pattern whose own rows exceed it gets a chunk of its own."""
    start, size = 0, 1
    while start < len(patterns):
        end, rows = start, 0
        while end < len(patterns) and end - start < size:
            free = len(patterns[end]) - 1
            rows += max(_grid_size(free, grid) ** free, REFINE_GRID**free)
            if end > start and rows > MAX_POINTS:
                break
            end += 1
        yield patterns[start:end]
        start, size = end, 2 * size


def _slice_values(mults, nums, den: int):
    """Slice floats of free-coordinate rows (int64 numerators over den), one
    column per variable: zero-sum completion summed left to right, then
    max-norm scaling, the steps of _slice_points in float64, so a value may
    differ from float() of its exact value by a few multiples of 2**-52."""
    import numpy as np
    w = nums / den
    last = np.zeros(len(w))
    for m, col in zip(mults[:-1], w.T):
        last = last + m * col
    vals = np.column_stack([w, -last / mults[-1]])
    top = np.abs(vals).max(axis=1)
    top[top == 0] = 1.0
    return np.repeat(vals / top[:, None], mults, axis=1)


def _prescreen(p, a_float, batch):
    """One prescreen round for a batch of (mults, numerators, den) entries:
    one line restriction for all their rows, each entry's structural zeros
    trimmed on its own rows, and one kernel call per trimmed width.
    Returns per entry the indices above threshold sorted by decreasing
    defect, plus the best row (None when no defect is positive).  A row's
    defect does not depend on its batch, so each entry gets what a batch
    of its own rows would get, bit for bit."""
    import numpy as np
    coeffs = _batch_restriction(
        a_float, p.n, p.d,
        np.concatenate([_slice_values(*entry) for entry in batch]),
    )
    by_width, start = {}, 0
    for j, (_, nums, _) in enumerate(batch):
        trimmed = _trim_structural_zeros(coeffs[start : start + len(nums)])
        start += len(nums)
        if trimmed.shape[1] >= 3:
            by_width.setdefault(trimmed.shape[1], []).append((j, trimmed))
    results = [([], None)] * len(batch)
    for group in by_width.values():
        defects = realness_defects(np.concatenate([c for _, c in group]))
        start = 0
        for j, c in group:
            results[j] = _rank(defects[start : start + len(c)])
            start += len(c)
    return results


def _rank(defects):
    """(hits, best) of a float array of defects: the indices above
    DEFECT_THRESHOLD by decreasing defect, at most MAX_CANDIDATES, and the
    index of the largest defect (None unless it is positive)."""
    order = (-defects).argsort()
    hits = order[defects[order] > DEFECT_THRESHOLD]
    best = int(order[0]) if defects[order[0]] > 0 else None
    return hits[:MAX_CANDIDATES], best


def _search_chunk(p, a_float, chunk, grid: int):
    """The slice grid plus local refinement for a chunk of multiplicity
    patterns in lockstep: each round prescreens every pattern still
    refining in one batch, and a pattern stops when no row of its round
    has a positive defect.  Yields after each round the hits of every
    pattern it prescreened, as {mults: [(numerators, denominator), ...]}
    in priority order, and the set of patterns a later round refines."""
    batch = []
    for mults in chunk:
        free = len(mults) - 1
        batch.append((mults, *_grid_rows(_grid_size(free, grid), free)))
    # the grid, then local refinement around the best cell of the last pass
    for r in range(REFINE_ROUNDS + 1):
        if r:
            batch = _refine_batch(ranked, REFINE_GRID - 1)
        hits, ranked = {}, []
        for (mults, rows, den), (found, best) in zip(
            batch, _prescreen(p, a_float, batch)
        ):
            hits[mults] = [(rows[h], den) for h in found]
            if best is not None and r < REFINE_ROUNDS:
                ranked.append((mults, rows, den, best))
        yield hits, {mults for mults, *_ in ranked}
        if not ranked:
            break


def falsify_hyperbolicity(p: HookPoly, grid: int = 64) -> Verdict:
    """Search for an exact witness of non-hyperbolicity.

    By the degree principle it suffices to look at points with at most
    d - 1 distinct entries; for each multiplicity pattern the distinct
    values are reduced (translation along 1, homogeneity) to the compact
    slice sum(m_i v_i) = 0, max |v_i| = 1, which is gridded, float
    prescreened and locally refined.  The prescreen runs per chunk of
    consecutive patterns (1, 2, 4, ... of them, capped by MAX_POINTS rows
    a round), in lockstep.  Hits are snapped to bounded denominators and
    verified exactly, each distinct point once, in pattern order and within
    a pattern round by round: after each round the chunk's first pattern
    not yet done has its new hits verified, and is done once it stops
    refining.  The search stops at the first witness, before any later
    round, pattern or chunk.  A hook with a_d = 0 is m1 * q, p(x + t*1) =
    (m1(x) + t) * q(x + t*1), so p and q have the same witnesses; when a
    closed form proves p or q hyperbolic (_closed_form_proves), the search
    stops after the first chunk, the pattern (1, n - 1).  Only exact
    verification can produce NotHyperbolic; it never claims hyperbolicity.
    grid is the points per free axis of the slice grid, an integer >= 2.
    """
    if not isinstance(grid, int):
        raise InvalidInput(f"grid must be an integer, got {grid!r}")
    if grid < 2:
        raise InvalidInput(f"grid must be at least 2, got {grid}")
    d, n = p.d, p.n
    # compositions of n into k parts, 2 <= k <= d - 1
    count = sum(comb(n - 1, k - 1) for k in range(2, min(d - 1, n) + 1))
    if count > MAX_PATTERNS:
        raise InvalidInput(
            f"{count} multiplicity patterns exceed the bound {MAX_PATTERNS}"
        )
    a_float = [float(c) for c in p.a]
    patterns = [m for k in range(2, min(d - 1, n) + 1) for m in _compositions(n, k)]
    seen = set()
    for i, chunk in enumerate(_chunks(patterns, grid)):
        pending, head = {mults: [] for mults in chunk}, 0
        for hits, refining in _search_chunk(p, a_float, chunk, grid):
            for mults, found in hits.items():
                pending[mults] += found
            while head < len(chunk):
                mults = chunk[head]
                found, pending[mults] = pending[mults], []
                witness = _verify_candidates(p, mults, found, seen)
                if witness is not None:
                    detail = {"pattern": list(mults)}
                    return Verdict(NOT_HYPERBOLIC, witness=witness, detail=detail)
                if mults in refining:
                    break
                head += 1
        if i == 0 and _closed_form_proves(p):
            break
    return Verdict(NO_COUNTEREXAMPLE, detail={"patterns": len(patterns)})


# -- conjecture evidence ---------------------------------------------------


class ConjectureReport(Record):
    """Evidence record for the sufficiency conjecture: the hook
    polynomial induced by a zero-sum target with d-1 one-signed roots,
    its falsification outcome, mixed-derivative sampling, and the
    extendability decision with its certificate."""

    __slots__ = ("n", "d", "hook", "falsifier", "delta_trials",
                 "delta_negative", "delta_min", "extendable", "certificate")

    def __init__(self, n: int, d: int, hook: HookPoly, falsifier: Verdict,
                 delta_trials: int, delta_negative: int, delta_min: Q,
                 extendable: bool, certificate: ExtendCertificate):
        self._init(n, d, hook, falsifier, delta_trials, delta_negative,
                   delta_min, extendable, certificate)


def conjecture_case(
    q: ZeroSumPoly, n: int, grid: int = 64, seed: int = 0, delta_trials: int = 1000
) -> ConjectureReport:
    if delta_trials < 0:
        raise InvalidInput(f"delta_trials must be at least 0, got {delta_trials}")
    inner = q.inner
    d = inner.ambient_degree
    if inner.is_zero():
        raise HypothesisViolated("zero target")
    if not root_counts(inner).one_signed(d - 1):
        raise HypothesisViolated(
            "target must be real rooted with d-1 roots of one sign"
        )
    T = map_sending_g0_to(q, n)
    p = operator_to_hook(T)
    verdict = falsify_hyperbolicity(p, grid)
    rng = random.Random(seed)
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


class EkLinearReport(Record):
    __slots__ = ("k", "n", "trials", "passed", "failures")

    def __init__(self, k: int, n: int, trials: int, passed: int, failures: list):
        self._init(k, n, trials, passed, failures)


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
    if trials < 0:
        raise InvalidInput(f"trials must be at least 0, got {trials}")
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


class CubicNormalForm(Record):
    """Reduced coefficients after the shear x -> x - s*e1(x)*1: the
    transformed cubic is c2*m1*m2 + c1*m3 with the m1^3 term removed.
    The shear parameter solves a cubic, so u = 1 - s*n (and hence c2 and
    s) may be irrational: exact rational values are given when they
    exist, and a rational enclosure plus an exact sign otherwise."""

    __slots__ = ("c1", "c2", "c2_interval", "c2_sign", "u", "u_interval",
                 "shift")

    def __init__(self, c1: Q, c2: Q | None, c2_interval: tuple, c2_sign: int,
                 u: Q | None, u_interval: tuple, shift: Q | None):
        self._init(c1, c2, c2_interval, c2_sign, u, u_interval, shift)


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
