"""Spans around hypercheck's public functions, recorded from outside.

The tracer replaces each traced function by a wrapper in its defining
module and in every hypercheck module that imported the name, so that
internal calls are seen too.  A span records its name, start, end, the
span open on the same thread when it began (its parent), the thread and
the request.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the durations of its children on the same thread.

Stdlib only: the benchmark's worker imports this next to hypercheck.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>"
TRACED = (
    ("cli", "run"),
    ("hyperbolicity", "falsify_hyperbolicity"),
    ("hyperbolicity", "ek_plus_linear_check"),
    ("hyperbolicity", "decide_quartic_hook"),
    ("hyperbolicity", "cone_member"),
    ("kernels", "realness_defects"),
    ("sympoly", "restrict_line"),
    ("unipoly", "root_profile"),
    ("unipoly", "isolate_real_roots"),
    ("unipoly", "RealRoot.try_rational"),
    ("unipoly", "is_real_rooted"),
    ("unipoly", "interlaces"),
    ("unipoly", "discriminant"),
    ("operators", "decide_extendable"),
    ("operators", "necessary_sign_test"),
    ("operators", "phi"),
    ("rationals", "simplest_between"),
)

# per-layer metrics: name, unit, better
PER_LAYER = (
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("hyperbolicity.falsify_hyperbolicity.calls", "count", "lower"),
    ("hyperbolicity.falsify_hyperbolicity.busy_s", "s", "lower"),
    ("hyperbolicity.falsify_hyperbolicity.self_s", "s", "lower"),
    ("hyperbolicity.exact_checks", "count", "lower"),
    ("hyperbolicity.witness_yield", "ratio", "higher"),
    ("hyperbolicity.ek_plus_linear_check.busy_s", "s", "lower"),
    ("hyperbolicity.ek_plus_linear_check.self_s", "s", "lower"),
    ("hyperbolicity.decide_quartic_hook.busy_s", "s", "lower"),
    ("hyperbolicity.cone_member.busy_s", "s", "lower"),
    ("kernels.realness_defects.calls", "count", "lower"),
    ("kernels.realness_defects.rows", "count", "lower"),
    ("kernels.realness_defects.busy_s", "s", "lower"),
    ("kernels.rows_per_s", "rows/s", "higher"),
    ("sympoly.restrict_line.calls", "count", "lower"),
    ("sympoly.restrict_line.busy_s", "s", "lower"),
    ("unipoly.root_profile.calls", "count", "lower"),
    ("unipoly.root_profile.busy_s", "s", "lower"),
    ("unipoly.isolate_real_roots.busy_s", "s", "lower"),
    ("unipoly.RealRoot.try_rational.calls", "count", "lower"),
    ("unipoly.RealRoot.try_rational.busy_s", "s", "lower"),
    ("unipoly.is_real_rooted.calls", "count", "lower"),
    ("unipoly.interlaces.calls", "count", "lower"),
    ("unipoly.interlaces.busy_s", "s", "lower"),
    ("unipoly.discriminant.calls", "count", "lower"),
    ("unipoly.discriminant.busy_s", "s", "lower"),
    ("operators.decide_extendable.calls", "count", "lower"),
    ("operators.decide_extendable.busy_s", "s", "lower"),
    ("operators.decide_extendable.self_s", "s", "lower"),
    ("operators.necessary_sign_test.busy_s", "s", "lower"),
    ("operators.phi.busy_s", "s", "lower"),
    ("rationals.simplest_between.calls", "count", "lower"),
    ("rationals.simplest_between.busy_s", "s", "lower"),
)

FALSIFY = "hyperbolicity.falsify_hyperbolicity"


def _note(name, args, result):
    """Work counted at the span: prescreen rows, falsifier witnesses."""
    if name == "kernels.realness_defects":
        return len(args[0])
    if name == FALSIFY:
        return int(result.status == "NotHyperbolic")
    return 0


class Tracer:
    """Records spans while installed; `request` tags every new span."""

    def __init__(self):
        # [id, parent id, name, thread, request, start, end, note]
        self.spans = []
        self.request = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = [next(tracer._ids), stack[-1][0] if stack else None, name,
                    threading.get_ident(), tracer.request, 0.0, 0.0, 0]
            stack.append(span)
            span[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span[7] = _note(name, args, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "hypercheck" or k.startswith("hypercheck.")]
        for module_name, path in TRACED:
            home = sys.modules[f"hypercheck.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = owner.__dict__[attr]
            wrapped = self._wrap(f"{module_name}.{path}", original)
            targets = [owner] if owner_name else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for target in targets:
                setattr(target, attr, wrapped)
                self._undo.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


def per_layer_metrics(spans, factors):
    """Per-layer metrics per round.  factors[round][request] scales the
    durations of a request's spans to reference seconds."""
    rounds = len(factors)
    children = defaultdict(float)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
    for span in spans:
        if span[1] is not None:
            children[span[1]] += _duration(span, factors)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    notes = defaultdict(int)
    exact_checks = 0
    for span in spans:
        name, duration = span[2], _duration(span, factors)
        calls[name] += 1
        busy[name] += duration
        self_s[name] += duration - children[span[0]]
        notes[name] += span[7]
        if name == "sympoly.restrict_line" and _inside(span, FALSIFY, by_id):
            exact_checks += 1
    values = {}
    for metric, _, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls[layer]
        elif kind == "busy_s":
            values[metric] = busy[layer]
        elif kind == "self_s":
            values[metric] = self_s[layer]
    rows = notes["kernels.realness_defects"]
    values["kernels.realness_defects.rows"] = rows
    values["hyperbolicity.exact_checks"] = exact_checks
    out = {k: v / rounds for k, v in values.items()}
    busy_defects = busy["kernels.realness_defects"]
    out["kernels.rows_per_s"] = rows / busy_defects if busy_defects else 0.0
    witnesses = notes[FALSIFY]
    out["hyperbolicity.witness_yield"] = witnesses / exact_checks if exact_checks else 0.0
    return out


def _duration(span, factors) -> float:
    rnd, i = span[4]
    return (span[6] - span[5]) * factors[rnd][i]


def _inside(span, name, by_id) -> bool:
    parent = span[1]
    while parent is not None:
        up = by_id[parent]
        if up[2] == name:
            return True
        parent = up[1]
    return False
