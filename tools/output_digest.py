"""Digest of hypercheck's outputs on the benchmark's request rounds.

    python3 tools/output_digest.py --seed 1 --seed 11

Builds the seeded round of every hcbench workload, runs each request
once, in order, through hypercheck.cli.run (CLI requests) or
hyperbolicity.ek_plus_linear_check (e_k + linear requests), and prints one
sha256 per workload and seed over the requests, their exit codes and their
outputs.  An exception that escapes a request is recorded by its type
alone, since its message is worded by the Python version, and the run goes
on.  One more line digests an unbiased sample of falsify requests
(random_falsify), whose witnesses, unlike those of the falsify-refute
round, may come from any multiplicity pattern and refinement round, and
another a sample of extend requests (random_extend) with the count of
each outcome, and a last one check-quartic requests whose witness comes
from the falsifier (random_witness), and a sample of phi requests
(random_phi), which the benchmark rounds never refine.  Two checkouts that
print the same digests gave byte-identical outputs on those requests.

Run from the root of a checkout; it imports hypercheck from src/ and the
request builders from hcbench/, and changes neither.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "hcbench")]

import workloads  # noqa: E402
from hypercheck import cli, hyperbolicity  # noqa: E402
from hypercheck.sympoly import HookPoly  # noqa: E402


def outcome(call):
    """The request's exit code and output, or the exception it raised."""
    try:
        if "cli" in call:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.run(call["cli"])
            return [rc, buf.getvalue()]
        ek = call["ek"]
        report = hyperbolicity.ek_plus_linear_check(
            ek["k"], ek["n"], ek["ell"], trials=ek["trials"], seed=ek["seed"]
        )
        return [0, [report.trials, report.passed]]
    except Exception as exc:  # recorded as an outcome, like any other
        return ["raised", type(exc).__name__]


def random_falsify(count: int = 150, seed: int = 5):
    """falsify requests on hooks with integer coefficients in [-9, 9],
    d in {4, 5}, n in [d, d + 2] and grid budgets 4-12, drawn from
    random.Random(seed); most are not hyperbolic."""
    rng = random.Random(seed)
    requests = []
    while len(requests) < count:
        d = rng.choice((4, 5))
        n = rng.randint(d, d + 2)
        a = [rng.randint(-9, 9) for _ in range(d)]
        if not any(a):
            continue
        hook = {"n": n, "d": d, "a": [str(c) for c in a]}
        requests.append({"cli": ["falsify", "--hook", json.dumps(hook), "--seed",
                                 "0", "--budget", str(rng.randint(4, 12))]})
    return requests


def random_extend(count: int = 200, seed: int = 5):
    """extend requests drawn from random.Random(seed), alternating two kinds:

    --map with gamma entries in [-3, 3] (zeros included), d in [0, 7] and
    n in [1, 12], so that some maps have d > n or n < 2;

    --target (t - s) * prod(t - r_i) with d - 1 planted roots r_i of one
    sign, drawn from a pool of three so that some repeat, and s = -sum r_i
    so that the target is zero-sum, at --n in [d, d + 4], and once at
    --n MAX_G0_N."""
    rng = random.Random(seed)
    requests = []
    for i in range(count):
        if i % 2 == 0:
            d, n = rng.randint(0, 7), rng.randint(1, 12)
            gamma = [str(rng.randint(-3, 3)) for _ in range(d + 1)]
            payload = {"n": n, "d": d, "gamma": gamma}
            requests.append({"cli": ["extend", "--map", json.dumps(payload)]})
            continue
        d, sign = rng.randint(2, 6), rng.choice((1, -1))
        pool = [Fraction(sign * rng.randint(1, 6), rng.randint(1, 3)) for _ in range(3)]
        roots = [rng.choice(pool) for _ in range(d - 1)]
        coeffs = [Fraction(1)]  # ascending powers of t
        for r in roots + [-sum(roots)]:
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        target = {"n": d, "coeffs": [f"{c.numerator}/{c.denominator}" for c in coeffs]}
        n = cli.MAX_G0_N if i == 1 else rng.randint(d, d + 4)
        requests.append({"cli": ["extend", "--target", json.dumps(target), "--n", str(n)]})
    return requests


def random_witness(count: int = 3000, seed: int = 5):
    """check-quartic requests on hooks with integer coefficients in [-5, 5]
    and n in [4, 6], drawn from random.Random(seed), kept when the quartic
    closed form fails with a real-rooted restriction: decide_quartic_hook
    finds them not hyperbolic, and its witness search has to run the
    falsifier, since the coordinate-vector restriction is real rooted."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        n = rng.randint(4, 6)
        a = [rng.randint(-5, 5) for _ in range(4)]
        holds, detail = hyperbolicity._closed_form(HookPoly(n, 4, tuple(a)))
        if holds or not detail["real_rooted"]:
            continue
        hook = {"n": n, "d": 4, "a": [str(c) for c in a]}
        requests.append({"cli": ["check-quartic", "--hook", json.dumps(hook)]})
    return requests


def random_phi(count: int = 120, seed: int = 5):
    """phi requests drawn from random.Random(seed): simplex points with
    2-12 parts, weakly decreasing integers in [0, 40] scaled to sum 1 (so
    some repeat and some end in 0), at --width-bits in {0, 1, 40, 64, 256}
    and every 24th at 1024; then the point (x, y, y, y, z, z, z) with
    y = 1/5 + 1/(10^30 + 7), z = 1/20 + 3/(10^31 + 9) and x = 1 - 3y - 3z,
    whose image has two repeated roots that are not rational, at 40, 200
    and 1024 bits."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        size = rng.randint(2, 12)
        parts = sorted((rng.randint(0, 40) for _ in range(size)), reverse=True)
        if sum(parts):
            points.append([Fraction(c, sum(parts)) for c in parts])
    requests = [(point, 1024 if i % 24 == 23 else rng.choice((0, 1, 40, 64, 256)))
                for i, point in enumerate(points)]
    y = Fraction(1, 5) + Fraction(1, 10**30 + 7)
    z = Fraction(1, 20) + Fraction(3, 10**31 + 9)
    requests += [([1 - 3 * y - 3 * z] + [y] * 3 + [z] * 3, bits) for bits in (40, 200, 1024)]
    return [{"cli": ["phi", "--roots", ",".join(f"{c.numerator}/{c.denominator}" for c in point),
                     "--width-bits", str(bits)]} for point, bits in requests]


def outcome_kind(out) -> str:
    """The certificate kind, error name or exception type of an extend
    outcome."""
    if out[0] == "raised":
        return out[1]
    doc = json.loads(out[1])
    return doc["certificate"]["kind"] if out[0] == 0 else doc["error"]


def digest_requests(requests, kinds: Counter | None = None):
    """(number of requests, sha256 hex) of a list of requests; counts the
    outcome_kind of each outcome into `kinds` when given."""
    h = hashlib.sha256()
    for call in requests:
        out = outcome(call)
        if kinds is not None:
            kinds[outcome_kind(out)] += 1
        line = [call.get("cli", call.get("ek")), *out]
        h.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    return len(requests), h.hexdigest()


def digest(workload: str, seed: int):
    """(number of requests, sha256 hex) of one workload's seeded round."""
    return digest_requests(workloads.build(workload, seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, action="append", help="default 1")
    args = parser.parse_args()
    for seed in args.seed or [1]:
        for workload in workloads.BUILDERS:
            count, hexdigest = digest(workload, seed)
            print(f"{workload} seed={seed} requests={count} sha256={hexdigest}")
    count, hexdigest = digest_requests(random_falsify())
    print(f"falsify-random seed=5 requests={count} sha256={hexdigest}")
    kinds = Counter()
    count, hexdigest = digest_requests(random_extend(), kinds)
    tally = " ".join(f"{kind}={k}" for kind, k in sorted(kinds.items()))
    print(f"extend-random seed=5 requests={count} sha256={hexdigest} {tally}")
    count, hexdigest = digest_requests(random_witness())
    print(f"witness-random seed=5 requests={count} sha256={hexdigest}")
    count, hexdigest = digest_requests(random_phi())
    print(f"phi-random seed=5 requests={count} sha256={hexdigest}")


if __name__ == "__main__":
    main()
