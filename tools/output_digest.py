"""Digest of hypercheck's outputs on the benchmark's request rounds.

    python3 tools/output_digest.py --seed 1 --seed 11

Builds the seeded round of every hcbench workload, runs each request
once, in order, through hypercheck.cli.run (CLI requests) or
hyperbolicity.ek_plus_linear_check (e_k + linear requests), and prints one
sha256 per workload and seed over the requests, their exit codes and their
outputs.  An exception that escapes a request
is recorded by type and message, and the run goes on.  One more line
digests an unbiased sample of falsify requests (random_falsify), whose
witnesses, unlike those of the falsify-refute round, may come from any
multiplicity pattern and refinement round.  Two checkouts that print the
same digests gave byte-identical outputs on those requests.

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "hcbench")]

import workloads  # noqa: E402
from hypercheck import cli, hyperbolicity  # noqa: E402


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
        return ["raised", f"{type(exc).__name__}: {exc}"]


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


def digest_requests(requests):
    """(number of requests, sha256 hex) of a list of requests."""
    h = hashlib.sha256()
    for call in requests:
        line = [call.get("cli", call.get("ek")), *outcome(call)]
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


if __name__ == "__main__":
    main()
