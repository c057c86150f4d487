"""Runs one workload's requests in a fresh process and reports timings.

Reads the requests (a JSON list of calls) on stdin, imports hypercheck
from the given source directory, makes one warm-up call into each public
function the workload uses, then repeats the round of requests, one at a
time, until --seconds have passed and at least MIN_REQUESTS were issued.
CLI requests go through hypercheck.cli.run in-process with stdout
captured; e_k + linear requests call the library.  Any exception escaping
a request, or an error document from the CLI, counts as one failed
request, and the run goes on.

The process pins itself to one CPU.  The falsifier still starts its
min(8, cpu_count) threads, which then share that CPU: unpinned, other
tenants' load on the second CPU moves falsify latencies by a quarter,
beyond what the probe below can see.  Pinned, a parallel speedup in the
falsifier cannot show, so changes to its threading need an unpinned
comparison too.

Times are reported in reference seconds.  On a host whose CPUs other
tenants share, speed drifts by half or more over tens of seconds, so each
request is bracketed by two runs of a fixed probe, and its wall and CPU
times are scaled by PROBE_REF_S over the mean of the two probe times:
the time the request would take on a machine where the probe takes
PROBE_REF_S.  The raw times are reported too.

Prints one JSON object on stdout.  With --setup-only it only measures
set-up.  This process never imports the oracle (sympy), so its peak
resident memory is the program's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

WARMUP = {
    "falsify": [["falsify", "--hook", '{"n":4,"d":4,"a":["1","0","0","1"]}',
                 "--seed", "0", "--budget", "4"]],
    "exact": [
        ["check-quartic", "--hook", '{"n":4,"d":4,"a":["1","0","0","1"]}'],
        ["cone-member", "--hook", '{"n":3,"d":3,"a":["0","0","1"]}',
         "--point", '{"x":["1","2","3"]}'],
    ],
    "extend": [
        ["extend", "--target",
         '{"n":5,"coeffs":["24","-68","66","-23","0","1"]}', "--n", "5"],
        ["phi", "--roots", "1/2,1/4,1/4"],
    ],
}

PROBE_REF_S = 0.0005

MIN_REQUESTS = 100  # at least ten latency samples beyond the 90th percentile


def probe() -> float:
    """Seconds for a fixed piece of pure-Python rational arithmetic, the
    median of three runs (0.5-0.8 ms a run on a 2-vCPU shared host)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        x = 0
        for i in range(2000):
            x = (x * 31 + i) % 1000003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pin_to_one_cpu():
    """Run this process, and the threads it starts, on one CPU only."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _family(workload: str) -> str:
    return workload.split("-")[0]


def setup(src: str, workload: str):
    """Import hypercheck and warm up every entry point the workload uses;
    returns the elapsed seconds, raw and in reference seconds."""
    before = statistics.median(probe() for _ in range(5))
    start = time.perf_counter()
    sys.path.insert(0, src)
    import hypercheck.cli
    import hypercheck.hyperbolicity

    where = os.path.dirname(os.path.abspath(hypercheck.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"hypercheck imported from {where}, not from {src}")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in WARMUP[_family(workload)]:
            hypercheck.cli.run(argv)
    if _family(workload) == "exact":
        hypercheck.hyperbolicity.ek_plus_linear_check(2, 3, [0, 0, 0], trials=1)
    elapsed = time.perf_counter() - start
    after = statistics.median(probe() for _ in range(5))
    return elapsed, elapsed * 2 * PROBE_REF_S / (before + after)


def issue(call):
    """One request: (failed, output).  CLI output stays text here, so that
    parsing it is not timed."""
    import hypercheck.cli
    import hypercheck.hyperbolicity

    if "cli" in call:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = hypercheck.cli.run(call["cli"])
        return rc == 1, buf.getvalue()
    ek = call["ek"]
    report = hypercheck.hyperbolicity.ek_plus_linear_check(
        ek["k"], ek["n"], ek["ell"], trials=ek["trials"], seed=ek["seed"])
    return False, {"trials": report.trials, "passed": report.passed}


def _parse(out):
    if not isinstance(out, str):
        return out
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return {"unparsable": out}


def run(calls, seconds: float, min_requests: int, tracer):
    """Repeat the round of calls until `seconds` have passed and at least
    `min_requests` were issued; returns the run's measurements.  A round's
    wall and CPU times add up its requests, without the probes."""
    latencies, round_wall, round_cpu, round_raw, factors = [], [], [], [], []
    first, errors, drift = [None] * len(calls), {}, set()
    failed = attempted = 0
    start = time.perf_counter()
    while not round_wall or (
        time.perf_counter() - start < seconds or attempted < min_requests
    ):
        rnd = len(round_wall)
        wall = cpu = raw = 0.0
        factors.append([])
        last_probe = probe()
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.request = (rnd, i)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                bad, out = issue(call)
            except Exception as exc:  # a failed request; the run goes on
                bad, out = True, f"{type(exc).__name__}: {exc}"
            elapsed, used = time.perf_counter() - t0, time.process_time() - c0
            next_probe = probe()
            factor = 2 * PROBE_REF_S / (last_probe + next_probe)
            last_probe = next_probe
            factors[rnd].append(factor)
            latencies.append(elapsed * factor)
            wall += elapsed * factor
            cpu += used * factor
            raw += elapsed
            attempted += 1
            if bad:
                failed += 1
                errors.setdefault(i, out)
            if rnd == 0:
                first[i] = out
            elif out != first[i]:
                drift.add(i)
        round_wall.append(wall)
        round_cpu.append(cpu)
        round_raw.append(raw)
    return {
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies,
        "round_wall": round_wall,
        "round_cpu": round_cpu,
        "round_raw_wall": round_raw,
        "factors": factors,
        "outputs": [None if i in errors else _parse(out) for i, out in enumerate(first)],
        "errors": {str(i): str(e) for i, e in errors.items()},
        "drift": sorted(drift),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    pin_to_one_cpu()
    setup_raw_s, setup_s = setup(args.src, args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return
    calls = json.load(sys.stdin)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = run(calls, args.seconds, MIN_REQUESTS, tracer)
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import hypercheck.hyperbolicity
    import hypercheck.kernels

    result["threads"] = hypercheck.hyperbolicity.max_threads()
    result["prescreen"] = hypercheck.kernels.backend_name()
    if tracer is not None:
        tracer.uninstall()
        from tracing import per_layer_metrics

        result["per_layer"] = per_layer_metrics(tracer.spans, result["factors"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
