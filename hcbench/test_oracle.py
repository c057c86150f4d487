"""Tests of the benchmark's oracle on hand-worked cases, and a smoke run
of every workload.

    python3 -m pytest hcbench -q
"""

import json
import os
import subprocess
import sys

import pytest
import sympy
from sympy import Poly, QQ, Rational

import oracle
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
T = oracle.T


def poly(expr):
    return Poly(expr, T, domain=QQ)


def test_t_squared_plus_one_has_two_nonreal_roots():
    p = poly(T**2 + 1)
    assert oracle.real_root_count(p) == 0
    assert not oracle.is_real_rooted(p)
    assert not oracle.one_signed_real_rooted(p)


def test_cube_of_t_minus_one_is_one_signed_with_an_exact_triple_root():
    p = poly((T - 1) ** 3)
    assert oracle.is_real_rooted(p)
    assert oracle.sign_counts(p) == (0, 0, 3)
    assert oracle.one_signed_real_rooted(p)
    [(enclosure, _, mult)] = oracle.sorted_roots(p)
    assert enclosure == (1, 1) and mult == 3


def test_sign_counts_split_zero_negative_and_positive_roots():
    p = poly(T**2 * (T + 2) * (T - 3) ** 2 * (T**2 + 1))
    assert oracle.sign_counts(p) == (1, 2, 2)
    assert oracle.real_root_count(p) == 5


def test_line_restriction_of_m1_power_is_a_d_fold_root():
    # m1^3 at x + t*1 is (m1(x) + t)^3, and m1(1, 2, 3) = 2
    p = oracle.line_restriction(3, 3, [1, 0, 0], ["1", "2", "3"])
    assert p == poly((T + 2) ** 3)


def test_line_restriction_of_e_basis_m3():
    # e_3 = m_3 in three variables; along (0, 0, 0) it is t^3, and the
    # e-basis coefficient of e_3 is the mean-basis one
    hook = {"n": 3, "d": 3, "basis": "e", "a": ["0", "0", "1"]}
    assert oracle.hook_coeffs(hook) == (3, 3, [0, 0, 1])
    assert oracle.line_restriction(3, 3, [0, 0, 1], [0, 0, 0]) == poly(T**3)


def test_hook_of_target_inverts_m1_power():
    # p = m1^4 gives p(r - t*1) = (-t)^4 because the roots of g0 sum to 0
    assert oracle.hook_of_target([0, 0, 0, 0, 1], 5) == [1, 0, 0, 0]


def test_interlacing_with_and_without_multiplicity():
    assert oracle.interlaces(poly((T - 1) * (T - 3)), poly(T * (T - 2) * (T - 4)))
    assert not oracle.interlaces(poly((T - 1) * (T - 5)), poly(T * (T - 2) * (T - 4)))
    p = poly((T - 1) ** 2 * (T - 3))
    assert oracle.interlaces(poly((T - 1) * (T - 2)), p)
    assert not oracle.interlaces(poly((T - 2) ** 2), p)
    assert not oracle.interlaces(poly(T**2 + 1), p)


def test_ek_restriction_at_the_origin():
    # e_2(t, t, t) = 3 t^2
    assert oracle.ek_restriction([0, 0, 0], 2, 3) == poly(3 * T**2)


def test_witness_check_rejects_a_real_rooted_line():
    hook = {"n": 3, "d": 3, "a": ["1", "0", "0"]}
    fake = {"status": "NotHyperbolic", "witness": {"x": ["1/1", "0/1", "0/1"],
                                                   "nonreal_roots": 2}}
    assert oracle.check_witness(hook, fake)


def test_witness_check_accepts_a_nonreal_line():
    # m2 - 2 m1^2 in two variables along (1, 0): m1 = t + 1/2 and
    # m2 = t^2 + t give -t^2 - t - 1/2, with discriminant -1
    hook = {"n": 2, "d": 2, "a": ["-2", "1"]}
    x = ["1/1", "0/1"]
    assert oracle.line_restriction(2, 2, [-2, 1], x) == poly(-T**2 - T - Rational(1, 2))
    out = {"status": "NotHyperbolic", "witness": {"x": x, "nonreal_roots": 2}}
    assert oracle.check_witness(hook, out) == []
    out["witness"]["nonreal_roots"] = 1
    assert oracle.check_witness(hook, out)


def test_cone_membership_of_m1_cube():
    hook = {"n": 3, "d": 3, "a": ["1", "0", "0"]}
    inside = {"hook": hook, "point": ["1", "2", "3"]}   # root t = -2
    outside = {"hook": hook, "point": ["-1", "-2", "-3"]}  # root t = 2
    assert oracle.check_cone(inside, {"member": True}) == []
    assert oracle.check_cone(outside, {"member": False}) == []
    assert oracle.check_cone(outside, {"member": True})


README_TARGET = ["24/1", "-68/1", "66/1", "-23/1", "0/1", "1/1"]


def test_readme_extend_example_is_an_obstruction():
    # roots 1, 1, 2, 2, -6: the doubled positive roots force two triple
    # preimage roots, 3 + 3 > 5
    request = {"target": README_TARGET}
    out = {"extendable": False, "certificate": {
        "kind": "MultiplicityObstruction", "obstruction": [["1/1", 3], ["2/1", 3]]}}
    assert oracle.check_extend(request, out) == []
    out["certificate"]["obstruction"] = [["1/1", 2], ["2/1", 3]]
    assert oracle.check_extend(request, out)
    out["certificate"]["obstruction"] = [["3/1", 3], ["2/1", 3]]
    assert oracle.check_extend(request, out)
    assert oracle.extension_lambda([oracle.q(c) for c in README_TARGET]) is None


def test_extension_check_accepts_a_real_preimage_and_rejects_a_wrong_one():
    # f = (t - 1)(t - 2)(t - 3) = t^3 - 6 t^2 + 11 t - 6:
    # delta_3(f) = t^3 - 11 t + 12
    target = ["12/1", "-11/1", "0/1", "1/1"]
    good = {"n": 3, "coeffs": ["-6/1", "11/1", "-6/1", "1/1"]}
    out = {"extendable": True, "certificate": {"kind": "Extension", "f": good}}
    assert oracle.check_extend({"target": target}, out) == []
    # same image, one real root
    out["certificate"]["f"] = {"n": 3, "coeffs": ["-6/1", "11/1", "6/1", "1/1"]}
    assert oracle.check_extend({"target": target}, out)
    # (t - 1)(t - 2)(t - 4): one-signed, but delta_3(f) = t^3 - 14 t + 16
    out["certificate"]["f"] = {"n": 3, "coeffs": ["-8/1", "14/1", "-7/1", "1/1"]}
    assert oracle.check_extend({"target": target}, out)
    out["extendable"] = False
    assert oracle.check_extend({"target": target}, out)
    assert oracle.extension_lambda([oracle.q(c) for c in target]) is not None


def test_unextendable_targets_have_no_preimage():
    for _, target in workloads.UNEXTENDABLE_TARGETS:
        target = [oracle.q(c) for c in target]
        assert oracle.extension_lambda(target) is None
        assert oracle.dense_scan_lambda(target, points=21) is None


def test_phi_ratios_of_a_hand_worked_point():
    # delta_3((t - 1/2)(t - 1/4)^2) = (t - 1/4)(t^2 + t/4 - 1/4), roots
    # (-1 - s)/8, 1/4, (-1 + s)/8 with s = sqrt(17)
    s = sympy.sqrt(17)
    exact = [(-1 + s) / (1 + s), 2 / (1 + s)]
    ratios = oracle.phi_ratios(["1/2", "1/4", "1/4"])
    for (lo, hi), value in zip(ratios, exact):
        assert lo <= value <= hi and hi - lo < Rational(1, 2**50)
    out = {"enclosures": [[oracle.fmt(lo - Rational(1, 2**45)), oracle.fmt(hi)]
                          for lo, hi in ratios]}
    assert oracle.check_phi({"roots": ["1/2", "1/4", "1/4"]}, out) == []
    out["enclosures"].reverse()
    assert oracle.check_phi({"roots": ["1/2", "1/4", "1/4"]}, out)


def test_benchmark_json_names_what_the_run_reports():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_seeded(workload):
    assert workloads.build(workload, 3) == workloads.build(workload, 3)
    assert workloads.build(workload, 3) != workloads.build(workload, 4)


def test_only_the_known_fault_may_fail():
    requests = workloads.build("extend-sweep", 3)
    known = next(r for r in requests if "fault" in r)
    other = next(r for r in requests if "fault" not in r)
    crash = "UnboundLocalError: cannot access local variable 'found'"
    problems = run.check_outputs([known, other], [None, None], {"0": crash, "1": crash})
    assert list(problems) == ["1"]
    problems = run.check_outputs([known], [None], {"0": "ValueError: other"})
    assert list(problems) == ["0"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    per_round = len(workloads.build(workload, 7))
    rounds, rest = divmod(result["attempted"], per_round)
    assert rounds >= 1 and rest == 0
    expected = len(workloads.UNEXTENDABLE_TARGETS) if workload == "extend-sweep" else 0
    assert result["failed"] == expected * rounds
    names = {name for name, _, _ in tracing.PER_LAYER}
    assert set(result["metrics"]) == names
