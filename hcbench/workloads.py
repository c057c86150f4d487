"""Seeded request lists for the four workloads.

A workload is one round: a fixed list of requests built from the seed
alone.  Each request holds the call the program receives ("cli" argv or
the "ek" library arguments) and what the oracle needs to check its
output; the program sees only the call.  Every run repeats the same round,
so the share of failed requests is the same in every run.

Inputs are stratified by degree and variable count with a fixed number of
requests per stratum, so that the cost of a round depends little on the
seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle

WORKLOADS = ("falsify-refute", "falsify-exhaust", "exact-count", "extend-sweep")

# grid points per axis for every falsify request ("--budget"); the three
# refinement rounds of 9^(k-1) points per pattern dominate the prescreen
FALSIFY_GRID = 8

# the paper's quintic, conjectured hyperbolic (e-basis, n = 5)
QUINTIC = {"n": 5, "d": 5, "basis": "e", "a": ["0", "0", "7", "-220", "4500"]}

# zero-sum targets with d-1 positive roots that pass the sign and
# multiplicity tests but have no extension: decide_extendable raises
# UnboundLocalError on each (``found`` is never initialised).  Fixed, not
# seeded, so that every run has the same number of failed requests.  The
# first is the reproducer: roots 7/2, 7/3, 1, 1, -47/6.
UNEXTENDABLE_TARGETS = (
    (5, ("2303/36", "-5957/36", "5077/36", "-1459/36", "0/1", "1/1")),
    (6, ("156541/300", "-135137/180", "342881/900", "-64711/900", "0/1", "1/1")),
    (7, ("301056/5", "-1397888/25", "378096/25", "-27836/25", "0/1", "1/1")),
    (6, ("-86317/3", "302795/9", "-4559677/300", "241216/75", "-255061/900",
         "0/1", "1/1")),
    (7, ("-8069072/125", "76774706/1125", "-31036573/1125", "5801326/1125",
         "-88888/225", "0/1", "1/1")),
    (8, ("-3482479/1800", "17158967/3600", "-4845407/1200", "1242457/900",
         "-39451/225", "0/1", "1/1")),
)

# the only failure a request may have: the exception these targets raise
KNOWN_FAULT = "UnboundLocalError"


def _rat(rng, num, den=(1, 1)) -> Fraction:
    return Fraction(rng.randint(*num), rng.randint(*den))


def _from_roots(roots):
    """Ascending coefficients of prod (t - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        coeffs = [s - r * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
    return coeffs


def _cli(*argv):
    return {"cli": [str(a) for a in argv]}


def _falsify_call(hook):
    return _cli("falsify", "--hook", json.dumps(hook), "--seed", 0,
                "--budget", FALSIFY_GRID)


def _zero_sum_target(rng, d: int):
    """Ascending coefficients of a monic zero-sum target with d-1 distinct
    positive rational roots and one negative root."""
    while True:
        pos = [_rat(rng, (1, 24), (1, 6)) for _ in range(d - 1)]
        if len(set(pos)) == d - 1:
            return _from_roots(pos + [-sum(pos)])


# Request counts per stratum.  Costs are steady within a stratum, so the
# counts place the median request in the middle of one stratum and the
# 90th percentile in the middle of another; a percentile that fell on the
# boundary between two strata would swing with the seed.

# (d, n): count.  Median: d = 4, n = 5; 90th percentile: d = 5, n = 5.
REFUTE_STRATA = {(4, 4): 16, (4, 5): 20, (4, 6): 4, (5, 5): 8, (5, 6): 2, (5, 7): 1}


# a refute hook's restriction along e_1 must be this far from real rooted,
# far above the prescreen's threshold of 1e-7
REFUTE_DEFECT = 1e-3


def falsify_refute(rng):
    """Hooks non-hyperbolic along the coordinate vector e_1.  The point
    (1, -1/(n-1), ...) is the end of the grid of the (1, n-1) pattern, so
    the falsifier must find a witness at any grid size."""
    requests = []
    for (d, n), count in REFUTE_STRATA.items():
        e1 = [1] + [0] * (n - 1)
        while count:
            a = [rng.randint(-9, 9) for _ in range(d)]
            if not any(a):
                continue
            line = oracle.line_restriction(n, d, a, e1)
            if line.degree() < 2 or oracle.is_real_rooted(line) or (
                oracle.realness_defect(line) < REFUTE_DEFECT
            ):
                continue
            hook = oracle.hook_payload(n, d, a)
            requests.append({**_falsify_call(hook), "hook": hook,
                             "expect": "NotHyperbolic"})
            count -= 1
    return requests


# (d, n, k): count of m1^(d-k) m_k hooks.  The median falls among the
# d = 4, n = 5, k <= 2 powers: requests of 20 ms or less, mostly spent
# starting the falsifier's thread pool, swing with the load on the other
# CPU.  The k = d - 1 and k = d hooks send many float false alarms to exact
# verification; d = 4, k = 4 and d = 5, n = 5, k <= 3 (with the quintic)
# make the 90th-percentile stratum.  Larger d = 5 hooks are left out: m_5
# at n = 5 alone takes about 3 s, and d = 5 at n >= 6 costs 0.5-11 s.
POWER_STRATA = {
    (4, 4, 1): 2, (4, 4, 2): 1, (4, 4, 3): 1, (4, 5, 3): 1, (4, 6, 3): 2,
    (4, 5, 1): 12, (4, 5, 2): 12,
    (4, 6, 1): 2, (4, 6, 2): 2,
    (4, 4, 4): 2, (4, 5, 4): 2,
    (5, 5, 1): 1, (5, 5, 2): 1, (5, 5, 3): 1, (5, 5, 4): 1,
}
ZERO_SUM_HOOKS = {4: 2, 5: 2, 6: 2}  # n: count of d = 4 zero-sum hooks


def falsify_exhaust(rng):
    """Hooks that are hyperbolic by construction, plus the quintic."""
    requests = []
    # m1^(d-k) m_k with a positive scale: products of hyperbolic factors
    for (d, n, k), count in POWER_STRATA.items():
        for _ in range(count):
            a = [Fraction(0)] * d
            a[k - 1] = _rat(rng, (1, 9), (1, 4))
            hook = oracle.hook_payload(n, d, a)
            requests.append({**_falsify_call(hook), "hook": hook,
                             "expect": "Hyperbolic"})
    # d = 4: hooks of zero-sum targets with three one-signed roots
    for n, count in ZERO_SUM_HOOKS.items():
        for _ in range(count):
            a = oracle.hook_of_target(_zero_sum_target(rng, 4), n)
            hook = oracle.hook_payload(n, 4, a)
            requests.append({**_falsify_call(hook), "hook": hook,
                             "expect": "Hyperbolic"})
    requests.append({**_falsify_call(QUINTIC), "hook": QUINTIC,
                     "expect": "conjectured"})
    return requests


# (k, n): count of batches.  Median: check-quartic; 90th percentile: the
# eight k = 5 batches, below the six batches with k >= 6.
EK_STRATA = {
    (2, 3): 2, (2, 4): 2, (2, 6): 2, (3, 3): 2, (3, 5): 2, (3, 7): 2,
    (4, 4): 2, (4, 6): 2, (4, 8): 2, (5, 5): 4, (5, 7): 4,
    (6, 6): 1, (6, 8): 1, (7, 7): 2, (8, 8): 2,
}
EK_TRIALS = 4
QUARTICS_PER_N = 6  # of each kind, for n = 4, 5, 6
CONE_STRATA = {(3, 3): 4, (3, 4): 4, (3, 5): 4, (4, 4): 4, (4, 5): 4,
               (4, 6): 4, (5, 5): 4, (5, 7): 4}


def _random_point(rng, n):
    return [_rat(rng, (-6, 6), (1, 3)) for _ in range(n)]


def _quartic_hooks(rng):
    """Quartic hooks the exact test decides without running the falsifier:
    hooks of zero-sum targets (Hyperbolic), and random hooks non-real along
    e_1 (NotHyperbolic with the e_1 witness).  Random hooks that are
    real rooted along e_1 but fail the sign condition are redrawn: their
    witness search runs the falsifier at its default grid, which the
    falsify workloads already measure."""
    hooks = []
    for n in (4, 5, 6):
        e1 = [1] + [0] * (n - 1)
        for _ in range(QUARTICS_PER_N):
            hooks.append(oracle.hook_payload(
                n, 4, oracle.hook_of_target(_zero_sum_target(rng, 4), n)))
            while True:
                a = [rng.randint(-9, 9) for _ in range(4)]
                hook = oracle.hook_payload(n, 4, a)
                if any(a) and oracle.nonreal_at(hook, e1):
                    break
            hooks.append(hook)
    return hooks


def exact_count(rng):
    requests = []
    for (k, n), count in EK_STRATA.items():
        for _ in range(count):
            ell = [_rat(rng, (-3, 3), (1, 3)) for _ in range(n)]
            if sum(ell) < 0:
                ell[0] -= sum(ell)
            requests.append({
                "ek": {"k": k, "n": n, "ell": [oracle.fmt(c) for c in ell],
                       "trials": EK_TRIALS, "seed": rng.randint(0, 2**31)},
                "recheck": [rng.randrange(EK_TRIALS)],
            })
    for hook in _quartic_hooks(rng):
        n = hook["n"]
        lines = [[1] + [0] * (n - 1)] + [_random_point(rng, n) for _ in range(2)]
        requests.append({
            **_cli("check-quartic", "--hook", json.dumps(hook)),
            "hook": hook, "lines": [[oracle.fmt(c) for c in x] for x in lines],
        })
    for (d, n), count in CONE_STRATA.items():
        for _ in range(count):
            a = [rng.randint(-5, 5) for _ in range(d)]
            if not any(a):
                a[-1] = 1
            hook = oracle.hook_payload(n, d, a)
            point = [oracle.fmt(c) for c in _random_point(rng, n)]
            requests.append({
                **_cli("cone-member", "--hook", json.dumps(hook),
                       "--point", json.dumps({"x": point})),
                "hook": hook, "point": point,
            })
    return requests


def _extend_call(target, n):
    coeffs = [oracle.fmt(c) for c in target]
    payload = json.dumps({"n": len(coeffs) - 1, "coeffs": coeffs})
    return {**_cli("extend", "--target", payload, "--n", n), "target": coeffs}


# (d, n): count of seeded extendable targets, and d: count of phi
# requests.  Median: phi at d = 5; 90th percentile: extend at d = 6.
EXTEND_STRATA = {(5, 5): 2, (5, 6): 2, (5, 7): 2, (6, 6): 4, (6, 7): 4, (6, 8): 4}
PHI_STRATA = {3: 6, 4: 16, 5: 42}


def extend_sweep(rng):
    requests = []
    # targets the oracle proves extendable; the others are redrawn, since
    # today they crash (see UNEXTENDABLE_TARGETS) and their share depends
    # on the seed
    for (d, n), count in EXTEND_STRATA.items():
        for _ in range(count):
            while True:
                target = _zero_sum_target(rng, d)
                if oracle.extension_lambda([oracle.q(c) for c in target]) is not None:
                    break
            requests.append(_extend_call(target, n))
    # forced multiplicities exceed d: doubled roots a, b (d = 5) and a
    # tripled and a doubled root (d = 6)
    for n, mults in ((6, (2, 2)), (7, (3, 2))):
        a, b = rng.sample(range(1, 13), 2)
        roots = [Fraction(a)] * mults[0] + [Fraction(b)] * mults[1]
        requests.append(_extend_call(_from_roots(roots + [-sum(roots)]), n))
    for n, target in UNEXTENDABLE_TARGETS:
        requests.append({**_extend_call(target, n), "fault": KNOWN_FAULT})
    # points of the simplex r_1 >= ... >= r_d >= 0, sum 1, off its vertex
    for d, count in PHI_STRATA.items():
        for _ in range(count):
            while True:
                parts = sorted((rng.randint(0, 20) for _ in range(d)), reverse=True)
                if parts[1]:
                    break
            roots = [Fraction(p, sum(parts)) for p in parts]
            text = ",".join(oracle.fmt(r) for r in roots)
            requests.append({**_cli("phi", "--roots", text), "roots": text.split(",")})
    return requests


BUILDERS = {
    "falsify-refute": falsify_refute,
    "falsify-exhaust": falsify_exhaust,
    "exact-count": exact_count,
    "extend-sweep": extend_sweep,
}


def build(workload: str, seed: int):
    """The seeded round of a workload: a list of request dicts."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng)
