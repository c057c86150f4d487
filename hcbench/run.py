"""hypercheck benchmark: one workload, one seed, one run.

    python3 hcbench/run.py --workload falsify-refute --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds src/hypercheck.  The command
builds the workload's round of requests from the seed, checks the inputs
that need it with the exact oracle, measures set-up in fresh processes,
runs the requests in a fresh worker process, checks every output with the
oracle, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from a run with every public layer function wrapped.  A
record of the run is written under hcbench/out/.  A request that fails
makes the run incorrect unless it is the known fault on a request built
to hit it (workloads.KNOWN_FAULT).  Exits 2, printing no result, if the
checkout has no hypercheck sources or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 6  # fresh set-up-only processes, plus the worker itself
WORKER_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str):
    print(f"hcbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(workload: str, *extra, stdin=None) -> dict:
    argv = [sys.executable, WORKER, "--src", SRC, "--workload", workload, *extra]
    try:
        done = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"worker for {workload} did not finish in {WORKER_TIMEOUT} s")
    if done.returncode != 0:
        fail(f"worker for {workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def check_outputs(requests, outputs, errors) -> dict:
    """Problems per request: the oracle's verdict on each output, and every
    failure other than the known fault on a request built to hit it."""
    checks = {
        "falsify": oracle.check_falsify,
        "check-quartic": oracle.check_quartic,
        "cone-member": oracle.check_cone,
        "extend": oracle.check_extend,
        "phi": oracle.check_phi,
    }
    problems = {}
    for i, (request, out) in enumerate(zip(requests, outputs)):
        if out is None:  # failed: counted, and wrong unless the known fault
            error = errors[str(i)]
            if "fault" not in request or not error.startswith(request["fault"] + ":"):
                problems[str(i)] = [f"request failed: {error.strip()[:200]}"]
            continue
        try:
            if "ek" in request:
                found = oracle.check_ek(request["ek"], out, request["recheck"])
            else:
                found = checks[request["cli"][0]](request, out)
        except Exception as exc:  # an output the oracle cannot read is wrong
            found = [f"oracle could not check the output: {type(exc).__name__}: {exc}"]
        if found:
            problems[str(i)] = found
    return problems


def main():
    parser = argparse.ArgumentParser(description="hypercheck benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hypercheck", "__init__.py")):
        fail(f"no hypercheck sources under {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload}; choose from {workloads.WORKLOADS}")
    requests = workloads.build(args.workload, args.seed)
    calls = [{k: r[k] for k in ("cli", "ek") if k in r} for r in requests]

    # half the set-up samples before the worker and half after it, so
    # that they span the run
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_runs = [worker(args.workload, "--setup-only") for _ in range(probes)]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.perf_counter()
    result = worker(args.workload, *extra, stdin=json.dumps(calls))
    run_s = time.perf_counter() - started
    setup_runs += [worker(args.workload, "--setup-only") for _ in range(probes)]
    setup = [r["setup_s"] for r in setup_runs + [result]]
    setup_raw = [r["setup_raw_s"] for r in setup_runs + [result]]

    started = time.perf_counter()
    problems = check_outputs(requests, result["outputs"], result["errors"])
    oracle_s = time.perf_counter() - started
    for i in result["drift"]:
        problems.setdefault(str(i), []).append("output changed between rounds")
    correct = not problems
    # a verified witness on a conjectured-hyperbolic hook refutes the conjecture
    counterexamples = [
        {"hook": r["hook"], "witness": out["witness"]}
        for r, out in zip(requests, result["outputs"])
        if r.get("expect") == "conjectured" and out and out.get("status") == "NotHyperbolic"
    ]

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(result["round_wall"]),
            "cpu_s": statistics.median(result["round_cpu"]),
            "op_p50_ms": 1000 * percentile(result["latencies"], 0.5),
            "op_p90_ms": 1000 * percentile(result["latencies"], 0.9),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_round": len(requests),
        "rounds": len(result["round_wall"]),
        "round_wall_s": result["round_wall"],
        "round_cpu_s": result["round_cpu"],
        "round_raw_wall_s": result["round_raw_wall"],
        "worker_s": run_s,
        "oracle_s": oracle_s,
        "setup_samples_s": setup,
        "setup_raw_samples_s": setup_raw,
        "falsifier_threads": result["threads"],
        "prescreen_backend": result["prescreen"],
        "python": sys.version.split()[0],
        "errors": result["errors"],
        "problems": problems,
        "counterexamples": counterexamples,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"hcbench: {args.workload} seed {args.seed}: {record['rounds']} rounds of "
          f"{len(requests)} requests, {result['failed']} failed, "
          f"{len(problems)} wrong outputs", file=sys.stderr)
    for i, error in result["errors"].items():
        print(f"hcbench: request {i} failed: {error.strip()[:200]}", file=sys.stderr)
    for i, found in problems.items():
        print(f"hcbench: request {i} is wrong: {found}", file=sys.stderr)
    for found in counterexamples:
        print(f"hcbench: counterexample to a conjecture: {found}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
