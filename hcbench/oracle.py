"""Exact oracle for the benchmark, written apart from hypercheck.

Everything here is sympy over QQ and is rebuilt from the definitions, not
from hypercheck's code paths:

* a hook polynomial is sum_i a_i m1^(d-i) m_i with m_k = e_k / binom(n, k),
  and its line restriction p(x + t*1) is expanded from the elementary
  symmetric polynomials of the entries x_j + t;
* delta_d sends t^(d-k) to -(k-1) t^(d-k);
* the operator of a hook satisfies T(g)(t) = lead(g) * p(r - t*1) for the
  root vector r of g, so the hook of a target g = T(g0) solves a linear
  system on the roots of g0 = (t + n - 1)(t - 1)^(n-1);
* extendability asks for a lambda with f0 + lambda t^(d-1) real rooted and
  one-signed, where delta_d(f0) is the target.

Real roots are counted and isolated by sympy (Sturm counts and
``Poly.intervals``).  The benchmark imports this module in its own process,
never in the process that runs the requests, and only outside the timed
span.  Every ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import random
from math import comb

import sympy
from sympy import QQ, Poly, Rational

T = sympy.Symbol("t")
LAM = sympy.Symbol("lam")
EPS = Rational(1, 2**64)


def q(value) -> Rational:
    """An exact rational from "num/den", an int or a Fraction."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Rational(int(num), int(den or 1))
    return Rational(value.numerator, value.denominator)


def fmt(value) -> str:
    value = q(value)
    return f"{value.p}/{value.q}"


def upoly(coeffs) -> Poly:
    """Poly in t from ascending coefficients."""
    return Poly([q(c) for c in reversed(coeffs)], T, domain=QQ)


# -- real roots ---------------------------------------------------------


def _factors(P: Poly):
    """Irreducible factors over QQ of positive degree, with multiplicity."""
    return [(f, m) for f, m in P.factor_list()[1] if f.degree() > 0]


def real_root_count(P: Poly) -> int:
    """Real roots of P counted with multiplicity."""
    return sum(m * f.count_roots() for f, m in _factors(P))


def is_real_rooted(P: Poly) -> bool:
    return real_root_count(P) == P.degree()


def sign_counts(P: Poly):
    """(negative, zero, positive) real roots, with multiplicity."""
    neg = zero = pos = 0
    for f, m in _factors(P):
        if f.eval(0) == 0:
            zero += m
            continue
        pos += m * f.count_roots(0, None)
        neg += m * f.count_roots(None, 0)
    return neg, zero, pos


def one_signed_real_rooted(P: Poly) -> bool:
    """Real rooted with every root >= 0 or every root <= 0."""
    if not is_real_rooted(P):
        return False
    neg, _, pos = sign_counts(P)
    return neg == 0 or pos == 0


def realness_defect(P: Poly) -> float:
    """max |Im root| / (1 + max |root|), from sympy's numeric roots: the
    measure the falsifier's float prescreen ranks candidates by."""
    roots = P.nroots(n=30, maxsteps=200)
    return float(max(abs(sympy.im(r)) for r in roots)
                 / (1 + max(abs(r) for r in roots)))


def sorted_roots(P: Poly):
    """Real roots with multiplicity, ascending, each as a rational
    enclosure (lo, hi): lo == hi exactly when the root is rational.
    Enclosures of distinct roots are disjoint and narrower than EPS."""
    entries = []
    for f, m in _factors(P):
        if f.degree() == 1:
            a, b = f.all_coeffs()
            root = -b / a
            entries.append(((root, root), f, m))
        else:
            for (lo, hi), _ in f.intervals(eps=EPS):
                entries.append(((Rational(lo), Rational(hi)), f, m))
    entries.sort(key=lambda e: e[0][0] + e[0][1])
    for (a, _, _), (b, _, _) in zip(entries, entries[1:]):
        if a[1] > b[0] or (a[1] == b[0] and a[0] == a[1] == b[1]):
            raise ArithmeticError("root enclosures overlap")
    return entries


def interlaces(qp: Poly, p: Poly) -> bool:
    """True iff the roots of qp interleave those of p, with multiplicity:
    r_1 <= s_1 <= r_2 <= ... <= s_(m-1) <= r_m.  Both must be real rooted
    and deg qp = deg p - 1.

    Walks the distinct roots of p * qp in ascending order: the prefix
    count (roots of p) - (roots of qp) must stay in {0, 1} after every
    distinct root, since tied roots may be ordered either way."""
    if not (is_real_rooted(p) and is_real_rooted(qp)):
        return False
    if qp.degree() != p.degree() - 1:
        return False
    mult_p = {f.monic(): m for f, m in _factors(p)}
    mult_q = {f.monic(): m for f, m in _factors(qp)}
    square_free = Poly(1, T, domain=QQ)
    for f in set(mult_p) | set(mult_q):
        square_free *= f
    diff = 0
    for (lo, hi), _ in square_free.intervals(eps=EPS):
        lo, hi = Rational(lo), Rational(hi)
        owner = [
            f for f in set(mult_p) | set(mult_q)
            if (f.eval(lo) == 0 if lo == hi else f.eval(lo) * f.eval(hi) < 0)
        ]
        if len(owner) != 1:
            raise ArithmeticError("root interval matches no single factor")
        f = owner[0]
        diff += mult_p.get(f, 0) - mult_q.get(f, 0)
        if diff not in (0, 1):
            return False
    return diff == 1


# -- hook polynomials ---------------------------------------------------


def hook_coeffs(payload) -> tuple[int, int, list]:
    """(n, d, mean-basis coefficients) of a hook JSON payload.

    Over e_1^(d-i) e_i the coefficient of m1^(d-i) m_i picks up
    n^(d-i) binom(n, i), since e_1 = n m1 and e_i = binom(n, i) m_i."""
    n, d = payload["n"], payload["d"]
    a = [q(c) for c in payload["a"]]
    if payload.get("basis", "etilde") == "e":
        a = [c * n ** (d - i) * comb(n, i) for i, c in enumerate(a, start=1)]
    return n, d, a


def hook_payload(n: int, d: int, a) -> dict:
    return {"n": n, "d": d, "a": [fmt(c) for c in a]}


def _elementary(entries, d: int):
    """e_0 .. e_d of the given entries (sympy expressions)."""
    e = [sympy.Integer(1)] + [sympy.Integer(0)] * d
    for x in entries:
        for k in range(d, 0, -1):
            e[k] = sympy.expand(e[k] + x * e[k - 1])
    return e


def hook_value(n: int, d: int, a, entries):
    """p(entries) for the hook sum_i a_i m1^(d-i) m_i."""
    e = _elementary(entries, d)
    m = [e[k] / comb(n, k) for k in range(d + 1)]
    return sympy.expand(sum(c * m[1] ** (d - i) * m[i] for i, c in enumerate(a, start=1)))


def line_restriction(n: int, d: int, a, x) -> Poly:
    """p(x + t*1) as a polynomial in t."""
    return Poly(hook_value(n, d, a, [q(c) + T for c in x]), T, domain=QQ)


def hook_of_target(target, n: int) -> list:
    """Mean-basis coefficients of the hook whose operator sends
    g0 = (t + n - 1)(t - 1)^(n-1) to the zero-sum target (ascending
    coefficients, degree d): solves p(r - t*1) = target for the root
    vector r = (1, ..., 1, -(n-1)) of g0."""
    d = len(target) - 1
    a = sympy.symbols(f"a1:{d + 1}")
    r = [sympy.Integer(1)] * (n - 1) + [sympy.Integer(-(n - 1))]
    lhs = Poly(hook_value(n, d, a, [c - T for c in r]), T)
    equations = [
        lhs.coeff_monomial(T**j) - q(target[j]) for j in range(d + 1)
    ]
    (solution,) = sympy.linsolve(equations, a)
    return [Rational(c) for c in solution]


# -- delta_d and extendability --------------------------------------------


def delta(f: Poly, d: int) -> Poly:
    """delta_d: t^(d-k) -> -(k-1) t^(d-k)."""
    return Poly(
        sum(
            -(d - j - 1) * f.coeff_monomial(T**j) * T**j for j in range(d + 1)
        ),
        T,
        domain=QQ,
    )


def preimage_family(target, d: int):
    """f_lambda = f0 + lambda t^(d-1), the delta_d preimages of target."""
    expr = LAM * T ** (d - 1)
    for j, c in enumerate(target):
        if j != d - 1:
            expr += q(c) / (1 + j - d) * T**j
    return expr


def _family_member(family, lam) -> Poly:
    return Poly(family.subs(LAM, lam), T, domain=QQ)


def extension_lambda(target):
    """An exact rational lambda whose preimage f_lambda is one-signed and
    real rooted, or None.  The root structure of f_lambda changes only
    where its discriminant in t vanishes (lead and constant term do not
    depend on lambda), so one probe per open interval between the real
    critical values, plus every rational critical value, decides it up to
    irrational critical values."""
    d = len(target) - 1
    family = preimage_family(target, d)
    crit = Poly(sympy.discriminant(family, T), LAM, domain=QQ)
    if crit.is_zero or crit.degree() < 1:
        probes = [Rational(0), Rational(1), Rational(-1)]
    else:
        cuts = [(Rational(lo), Rational(hi)) for (lo, hi), _ in crit.intervals()]
        probes = [cuts[0][0] - 1, cuts[-1][1] + 1]
        probes += [(a[1] + b[0]) / 2 for a, b in zip(cuts, cuts[1:])]
        probes += [lo for lo, hi in cuts if lo == hi]
    for lam in probes:
        if one_signed_real_rooted(_family_member(family, lam)):
            return lam
    return None


def dense_scan_lambda(target, points: int = 201):
    """A lambda on a dense rational grid with f_lambda one-signed and real
    rooted, or None.  The grid spans |lambda| <= 2 d (1 + max |g_j / g_d|)
    times the lead g_d.  The exact sweep in extension_lambda decides; this
    scan is a second, independent look before a refutation is accepted."""
    d = len(target) - 1
    family = preimage_family(target, d)
    lead = q(target[-1])
    bound = 1 + max(abs(q(c) / lead) for c in target[:-1])
    span = 2 * d * bound
    for j in range(points):
        lam = lead * span * (Rational(2 * j, points - 1) - 1)
        if one_signed_real_rooted(_family_member(family, lam)):
            return lam
    return None


# -- per-workload checks --------------------------------------------------


def nonreal_at(payload, x) -> int:
    n, d, a = hook_coeffs(payload)
    P = line_restriction(n, d, a, x)
    return P.degree() - real_root_count(P) if not P.is_zero else 0


def check_witness(payload, out) -> list:
    """A NotHyperbolic verdict whose witness line has a non-real root,
    with the reported count of non-real roots."""
    if out.get("status") != "NotHyperbolic" or "witness" not in out:
        return [f"expected NotHyperbolic with a witness, got {out.get('status')}"]
    x = out["witness"]["x"]
    nonreal = nonreal_at(payload, x)
    if nonreal == 0:
        return [f"witness {x} has a real-rooted line restriction"]
    if nonreal != out["witness"]["nonreal_roots"]:
        return [f"witness {x}: {nonreal} non-real roots, reported "
                f"{out['witness']['nonreal_roots']}"]
    return []


def check_falsify(request, out) -> list:
    """NotHyperbolic with a verified witness where the hook is known
    non-hyperbolic, NoCounterexampleFound where it is hyperbolic by
    construction; on the conjectured quintic either, if the witness
    verifies."""
    payload = request["hook"]
    if request["expect"] == "NotHyperbolic":
        return check_witness(payload, out)
    if out.get("status") == "NoCounterexampleFound":
        return []
    if request["expect"] == "conjectured" and out.get("status") == "NotHyperbolic":
        # a counterexample to the conjecture: correct if it verifies
        return check_witness(payload, out)
    return [f"expected NoCounterexampleFound, got {out.get('status')}"]


def ek_restriction(x, k: int, n: int) -> Poly:
    """e_k(x + t*1) as a polynomial in t."""
    return Poly(_elementary([q(c) + T for c in x], k)[k], T, domain=QQ)


def ek_lines(n: int, trials: int, seed: int):
    """The lines ek_plus_linear_check samples: n rationals per trial,
    numerators in [-9, 9] and denominators in [1, 4], from
    random.Random(seed)."""
    rng = random.Random(seed)
    return [
        [Rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(trials)
    ]


def check_ek(request, out, recheck) -> list:
    """passed == trials (the paper's claim), and the lines with indices in
    `recheck` are real rooted and interlaced by e_(k-1)."""
    k, n, ell = request["k"], request["n"], [q(c) for c in request["ell"]]
    if out.get("passed") != request["trials"] or out.get("trials") != request["trials"]:
        return [f"e_{k}+ell*e_{k-1} (n={n}): passed {out.get('passed')} of "
                f"{out.get('trials')}"]
    problems = []
    lines = ek_lines(n, request["trials"], request["seed"])
    for i in recheck:
        x = lines[i]
        qk, qkm1 = ek_restriction(x, k, n), ek_restriction(x, k - 1, n)
        ell_line = Poly(sum(l * c for l, c in zip(ell, x)) + sum(ell) * T, T, domain=QQ)
        total = qk + ell_line * qkm1
        if not is_real_rooted(total):
            problems.append(f"line {x}: e_{k}+ell*e_{k-1} is not real rooted")
        elif total.degree() >= 1 and qkm1.degree() == total.degree() - 1:
            if not interlaces(qkm1, total):
                problems.append(f"line {x}: e_{k-1} does not interlace")
    return problems


def check_quartic(request, out) -> list:
    """NotHyperbolic: the witness verifies.  Hyperbolic: real rooted along
    the coordinate vector and the request's seeded lines."""
    payload = request["hook"]
    if out.get("status") == "NotHyperbolic":
        return check_witness(payload, out)
    if out.get("status") != "Hyperbolic":
        return [f"unexpected status {out.get('status')}"]
    return [
        f"Hyperbolic, but the line through {x} has a non-real root"
        for x in request["lines"]
        if nonreal_at(payload, x)
    ]


def check_cone(request, out) -> list:
    """member iff p(x + t*1) is nonzero with no root t > 0."""
    n, d, a = hook_coeffs(request["hook"])
    P = line_restriction(n, d, a, request["point"])
    expected = (not P.is_zero) and sign_counts(P)[2] == 0
    if out.get("member") is not expected:
        return [f"cone-member at {request['point']}: got {out.get('member')}, "
                f"expected {expected}"]
    return []


def check_extend(request, out) -> list:
    target = request["target"]
    d = len(target) - 1
    g = upoly(target)
    cert = out.get("certificate", {})
    kind = cert.get("kind")
    if out.get("extendable") is not (kind == "Extension"):
        return [f"extendable={out.get('extendable')} with a {kind} certificate"]
    if kind == "Extension":
        f = upoly(cert["f"]["coeffs"])
        problems = []
        if not one_signed_real_rooted(f):
            problems.append("extension f is not one-signed real rooted")
        image = delta(f, d)
        ratio = g.LC() / image.LC() if not image.is_zero else 0
        if ratio == 0 or image * ratio != g:
            problems.append("delta_d(f) is not proportional to the target")
        return problems
    if kind == "MultiplicityObstruction":
        return _check_obstruction(g, d, cert["obstruction"])
    if kind == "SweepRefutation":
        lam = extension_lambda(target)
        if lam is None:
            lam = dense_scan_lambda(target)
        return [] if lam is None else [f"refuted, but f_lambda at {lam} is an extension"]
    return [f"unknown certificate kind {kind}"]


def _check_obstruction(g: Poly, d: int, obstruction) -> list:
    """Every listed root is a root of the target of multiplicity one less
    than the listed (forced preimage) multiplicity, and the forced
    multiplicities exceed the degree."""
    problems = []
    mults = {}
    for f, m in _factors(g):
        mults[f.monic()] = m
    for root, forced in obstruction:
        if isinstance(root, str):
            r = q(root)
            found = [m for f, m in mults.items() if f.eval(r) == 0]
        else:
            lo, hi = q(root[0]), q(root[1])
            found = [
                m for f, m in mults.items()
                if f.degree() > 1 and f.count_roots(lo, hi) == 1
            ]
        if found != [forced - 1]:
            problems.append(f"obstruction root {root}: multiplicity {found} "
                            f"in the target, listed {forced}")
    if sum(m for _, m in obstruction) <= d:
        problems.append("obstruction multiplicities do not exceed the degree")
    return problems


def phi_ratios(roots):
    """Enclosures of the root ratios phi(r): the roots s_1 <= ... <= s_d of
    delta_d(prod (t - r_i)), s_i / -s_1 for i >= 2, decreasing."""
    r = [q(c) for c in roots]
    d = len(r)
    p = Poly(sympy.prod([T - c for c in r]), T, domain=QQ)
    entries = []
    for enclosure, _, m in sorted_roots(delta(p, d)):
        entries.extend([enclosure] * m)
    (low_lo, low_hi), kept = entries[0], entries[1:]
    if low_hi >= 0:
        raise ArithmeticError("delta_d image has no negative root")
    out = []
    for lo, hi in kept:
        lo = max(lo, Rational(0))
        out.append((lo / -low_lo, hi / -low_hi))
    return list(reversed(out))


def check_phi(request, out) -> list:
    width = Rational(1, 2**40)
    got = [(q(lo), q(hi)) for lo, hi in out.get("enclosures", [])]
    want = phi_ratios(request["roots"])
    if len(got) != len(want):
        return [f"phi: {len(got)} enclosures, expected {len(want)}"]
    problems = []
    for i, ((lo, hi), (a, b)) in enumerate(zip(got, want)):
        if hi - lo > width:
            problems.append(f"phi[{i}]: width {hi - lo} exceeds 2^-40")
        if not (lo <= a and b <= hi):
            problems.append(f"phi[{i}]: [{lo}, {hi}] misses the ratio in [{a}, {b}]")
    for i, (x, y) in enumerate(zip(got, got[1:])):
        if x[0] < y[0] or x[1] < y[1]:
            problems.append(f"phi: enclosures {i} and {i + 1} are not decreasing")
    return problems
