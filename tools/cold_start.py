"""Cold start of the README's CLI examples, each in a fresh process.

    python3 tools/cold_start.py --repeats 10 . ../other-checkout

For every checkout root given, runs `python3 -m hypercheck.cli ARGS` for
each example (and a bare `import hypercheck.cli`) --repeats times with
PYTHONPATH set to that root's src/, interleaving the roots and rotating
which goes first, and prints one JSON object per line: the command, and
per root the median wall seconds and the peak resident memory (VmHWM, in
MB, read from /proc where it exists) of one more fresh process that runs
the command through hypercheck.cli.run.  Wall times are raw seconds on
whatever host runs this; pin it to one CPU (taskset -c 1 ...) to keep
other load off it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXAMPLES = [
    ["check-cubic", "--a", "1", "--b", "0", "--c", "1", "--n", "3"],
    ["g0", "--n", "3"],
    ["check-quartic", "--hook", '{"n":4,"d":4,"a":["1","0","0","1"]}'],
    ["operator", "--hook", '{"n":5,"d":5,"basis":"e","a":["0","0","7","-220","4500"]}'],
    ["extend", "--target", '{"n":5,"coeffs":["24","-68","66","-23","0","1"]}', "--n", "5"],
    ["falsify", "--hook", '{"n":3,"d":3,"a":["1","0","1"]}', "--seed", "0", "--budget", "64"],
    ["cone-member", "--hook", '{"n":3,"d":3,"a":["0","0","1"]}',
     "--point", '{"x":["1","2","3"]}'],
    ["phi", "--roots", "1/4,1/4,1/4,1/4"],
]

# argv: JSON list of CLI arguments ([] imports only); prints VmHWM in MB
PEAK = """
import contextlib, io, json, sys
import hypercheck.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        hypercheck.cli.run(argv)
with open("/proc/self/status") as status:
    print(next(int(l.split()[1]) / 1024 for l in status if l.startswith("VmHWM")))
"""


def command(argv):
    if not argv:
        return [sys.executable, "-c", "import hypercheck.cli"]
    return [sys.executable, "-m", "hypercheck.cli", *argv]


def env_for(root):
    return dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))


def wall_s(root, argv) -> float:
    start = time.perf_counter()
    subprocess.run(command(argv), env=env_for(root), capture_output=True, check=False)
    return time.perf_counter() - start


def peak_mb(root, argv):
    if not os.path.exists("/proc/self/status"):
        return None
    done = subprocess.run([sys.executable, "-c", PEAK, json.dumps(argv)],
                          env=env_for(root), capture_output=True, text=True)
    return round(float(done.stdout), 1) if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("roots", nargs="+", help="checkout roots holding src/hypercheck")
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args()
    for argv in [[]] + EXAMPLES:
        times = {root: [] for root in args.roots}
        for i in range(args.repeats):
            k = i % len(args.roots)
            for root in args.roots[k:] + args.roots[:k]:
                times[root].append(wall_s(root, argv))
        print(json.dumps({
            "command": " ".join(argv[:1]) or "import hypercheck.cli",
            "roots": {root: {"median_s": round(statistics.median(t), 4),
                             "vmhwm_mb": peak_mb(root, argv)}
                      for root, t in times.items()},
        }), flush=True)


if __name__ == "__main__":
    main()
