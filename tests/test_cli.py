import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercheck import cli, hyperbolicity, operators
from hypercheck.cli import MAX_G0_N, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- exact decisions ----------------------------------------------------------


def test_check_cubic_not_hyperbolic(capsys):
    code, doc = _capture(
        capsys, ["check-cubic", "--a", "1", "--b", "0", "--c", "1", "--n", "3"]
    )
    assert code == 2
    assert doc["status"] == "NotHyperbolic"
    assert doc["detail"]["product"] == "54/1"
    assert doc["witness"]["nonreal_roots"] > 0


def test_check_cubic_hyperbolic(capsys):
    code, doc = _capture(
        capsys, ["check-cubic", "--a", "0", "--b", "1", "--c", "0"]
    )
    assert code == 0
    assert doc["status"] == "Hyperbolic"
    assert doc["detail"]["product"] == "-1/1"


def test_check_quartic(capsys):
    hook = json.dumps({"n": 4, "d": 4, "a": ["1", "0", "0", "0"]})
    code, doc = _capture(capsys, ["check-quartic", "--hook", hook])
    assert code == 0 and doc["status"] == "Hyperbolic"
    hook = json.dumps({"n": 4, "d": 4, "a": ["1", "0", "0", "1"]})
    code, doc = _capture(capsys, ["check-quartic", "--hook", hook])
    assert code == 2 and doc["status"] == "NotHyperbolic"
    assert "witness" in doc


def test_g0(capsys):
    code, doc = _capture(capsys, ["g0", "--n", "3"])
    assert code == 0
    assert doc == {"coeffs": ["2/1", "-3/1", "0/1", "1/1"], "n": 3}


# -- round trips between producing and consuming subcommands ------------------


def test_operator_hook_round_trip(capsys):
    hook = {"n": 5, "d": 3, "a": ["2", "-1/3", "4"]}
    code, op = _capture(capsys, ["operator", "--hook", json.dumps(hook)])
    assert code == 0
    assert op["coords"] == "binomial-normalized"
    code, back = _capture(capsys, ["hook-of", "--map", json.dumps(op)])
    assert code == 0
    assert back["n"] == 5 and back["d"] == 3
    assert back["a"] == ["2/1", "-1/3", "4/1"]


def test_e_basis_input(capsys):
    hook_e = {"n": 5, "d": 5, "basis": "e", "a": ["0", "0", "7", "-220", "4500"]}
    code, op1 = _capture(capsys, ["operator", "--hook", json.dumps(hook_e)])
    code, back = _capture(capsys, ["hook-of", "--map", json.dumps(op1)])
    code, op2 = _capture(capsys, ["operator", "--hook", json.dumps(back)])
    assert op1 == op2


def test_extend_by_target(capsys):
    target = {"n": 5, "coeffs": ["24", "-68", "66", "-23", "0", "1"]}
    code, doc = _capture(
        capsys, ["extend", "--target", json.dumps(target), "--n", "5"]
    )
    assert code == 0
    assert doc["extendable"] is False
    assert doc["certificate"]["kind"] == "MultiplicityObstruction"
    assert doc["certificate"]["obstruction"] == [["1/1", 3], ["2/1", 3]]


def test_extend_by_map(capsys):
    target = {"n": 4, "coeffs": ["0", "0", "0", "0", "1"]}
    code, doc = _capture(
        capsys, ["extend", "--target", json.dumps(target), "--n", "4"]
    )
    assert code == 0 and doc["extendable"] is True
    assert doc["certificate"]["kind"] == "Extension"
    assert "f" in doc["certificate"]


def test_extend_requires_exactly_one_input(capsys):
    code, doc = _capture(capsys, ["extend"])
    assert code == 1 and doc["error"] == "InvalidInput"


def test_demo_quintic(capsys):
    code, doc = _capture(capsys, ["demo-quintic", "--delta-trials", "50"])
    assert code == 0
    assert doc["falsifier"]["status"] == "NoCounterexampleFound"
    assert doc["extendable"] is False
    assert doc["certificate"]["kind"] == "MultiplicityObstruction"
    assert doc["delta_samples"]["negative"] == 0
    # image of the pivot is -750 (t-1)^2 (t-2)^2 (t+6)
    assert doc["image_of_pivot"]["coeffs"] == [
        "-18000/1", "51000/1", "-49500/1", "17250/1", "0/1", "-750/1",
    ]


def test_falsify_and_cone(capsys):
    hook = json.dumps({"n": 3, "d": 3, "a": ["1", "0", "1"]})
    code, doc = _capture(capsys, ["falsify", "--hook", hook, "--budget", "24"])
    assert code == 2 and doc["status"] == "NotHyperbolic"
    hook = json.dumps({"n": 3, "d": 3, "a": ["0", "0", "1"]})
    code, doc = _capture(capsys, ["falsify", "--hook", hook, "--budget", "24"])
    assert code == 0 and doc["status"] == "NoCounterexampleFound"
    point = json.dumps({"x": ["1", "2", "3"]})
    code, doc = _capture(capsys, ["cone-member", "--hook", hook, "--point", point])
    assert code == 0 and doc["member"] is True


def test_phi(capsys):
    code, doc = _capture(capsys, ["phi", "--roots", "1/4,1/4,1/4,1/4"])
    assert code == 0
    assert doc["enclosures"] == [["1/3", "1/3"]] * 3


def test_conjecture(capsys):
    target = {"n": 4, "coeffs": ["0", "0", "0", "0", "1"]}
    code, doc = _capture(
        capsys,
        [
            "conjecture", "--target", json.dumps(target), "--n", "4",
            "--budget", "16", "--delta-trials", "20",
        ],
    )
    assert code == 0
    assert doc["extendable"] is True and doc["delta_samples"]["negative"] == 0


# -- plumbing -------------------------------------------------------------------


def test_at_file_payload(tmp_path, capsys):
    path = tmp_path / "hook.json"
    path.write_text(json.dumps({"n": 4, "d": 4, "a": ["1", "0", "0", "0"]}))
    code, doc = _capture(capsys, ["check-quartic", "--hook", f"@{path}"])
    assert code == 0 and doc["status"] == "Hyperbolic"


def test_determinism(capsys):
    hook = json.dumps({"n": 4, "d": 4, "a": ["1", "0", "0", "1"]})
    argv = ["falsify", "--hook", hook, "--budget", "24", "--seed", "7"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_falsify_ignores_seed(capsys):
    """falsify_hyperbolicity never reads the seed: --seed 0 and --seed 7
    print the same bytes."""
    hook = json.dumps({"n": 3, "d": 3, "a": ["1", "0", "1"]})
    outs = []
    for seed in ("0", "7"):
        run(["falsify", "--hook", hook, "--budget", "24", "--seed", seed])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_pretty_appends_decimals(capsys):
    code = run(["--pretty", "check-cubic", "--a", "1", "--b", "0", "--c", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert '"54/1 ~ 54"' in out


def test_errors_are_machine_readable(capsys):
    code, doc = _capture(
        capsys, ["check-cubic", "--a", "0", "--b", "0", "--c", "0"]
    )
    assert code == 1
    assert doc["error"] == "ZeroPolynomial" and doc["message"]

    code, doc = _capture(capsys, ["check-quartic", "--hook", "not json"])
    assert code == 1 and doc["error"] == "InvalidInput"

    hook = json.dumps({"n": 4, "d": 3, "a": ["1", "0", "0"]})
    code, doc = _capture(capsys, ["check-quartic", "--hook", hook])
    assert code == 1 and doc["error"] == "WrongDegree"


def test_missing_payload_file_rejected(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    code, doc = _capture(capsys, ["extend", "--target", f"@{missing}"])
    assert code == 1 and doc["error"] == "InvalidInput"


def test_negative_width_bits_rejected(capsys):
    code, doc = _capture(
        capsys, ["phi", "--roots", "1/2,1/4,1/4", "--width-bits", "-3"]
    )
    assert code == 1 and doc["error"] == "InvalidInput"


@pytest.mark.parametrize("budget", ["1", "0", "-3"])
def test_budget_below_two_rejected(capsys, budget):
    hook = json.dumps({"n": 4, "d": 4, "a": ["1", "0", "0", "1"]})
    code, doc = _capture(capsys, ["falsify", "--hook", hook, "--budget", budget])
    assert code == 1 and doc["error"] == "InvalidInput"


BIG_HOOK = json.dumps({"n": MAX_G0_N + 1, "d": 4, "a": ["1", "0", "0", "0"]})
BIG_POINT = json.dumps({"x": ["1"] * (MAX_G0_N + 1)})


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--roots", "1/2,1/4,1/4", "--width-bits", "1025"],
        ["phi", "--roots", "1/2,1/4,1/4", "--width-bits", "100000000"],
        ["g0", "--n", "1001"],
        ["g0", "--n", "100000000"],
        ["check-quartic", "--hook", BIG_HOOK],
        ["cone-member", "--hook", BIG_HOOK, "--point", BIG_POINT],
        # n = MAX_G0_N, d = 5: 166,167,999 multiplicity patterns
        ["falsify", "--hook", '{"n":1000,"d":5,"a":["1","0","0","0","0"]}'],
        # n = 50, d = 4: 1,225 patterns
        ["falsify", "--hook", '{"n":50,"d":4,"a":["1","0","0","1"]}'],
    ],
)
def test_oversized_inputs_rejected(capsys, argv):
    code, doc = _capture(capsys, argv)
    assert code == 1 and doc["error"] == "InvalidInput"


@pytest.mark.parametrize(
    "argv",
    [
        ["falsify", "--hook", "{}", "--budget", "x"],
        ["no-such-command"],
        ["falsify", "--budget", "8"],
    ],
)
def test_usage_errors_are_json(capsys, argv):
    """A bad flag value, an unknown subcommand and a missing required flag
    give one JSON error document and exit 1, not argparse's usage and 2."""
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out)["error"] == "InvalidInput"


@pytest.mark.parametrize("command", ["extend", "conjecture"])
def test_source_degree_bounded(capsys, command):
    target = json.dumps({"n": 4, "coeffs": ["0", "0", "0", "0", "1"]})
    argv = [command, "--target", target, "--n", str(MAX_G0_N + 1)]
    code, doc = _capture(capsys, argv)
    assert code == 1 and doc["error"] == "InvalidInput"


def test_shared_parser_matches_fresh_parser(capsys):
    """Requests parsed back to back by the one shared parser print what a
    newly built parser prints; subcommand defaults do not leak."""
    cubic = ["check-cubic", "--a", "1", "--b", "0", "--c", "1"]
    phi = ["phi", "--roots", "1/2,1/4,1/4"]
    fresh = []
    for argv in (cubic, phi):
        cli.build_parser.cache_clear()
        fresh.append(_capture(capsys, argv))
    assert cli.build_parser() is cli.build_parser()
    shared = [_capture(capsys, argv) for argv in (cubic, phi, cubic)]
    assert shared == fresh + fresh[:1]


# -- lambda-sweep and phi documents, pinned byte for byte ---------------------

SWEEP_AND_PHI_PINNED = [
    # the lambda of the certificate is a midpoint probe between two critical
    # values that needed extra refinement to separate
    (
        ["extend", "--target", '{"n": 6, "coeffs": ["-56693/200", "13562857/18000", '
         '"-7596441/10000", "421729/1200", "-47681/720", "0/1", "1/1"]}', "--n", "7"],
        '{"certificate":{"f":{"coeffs":["56693/1000","-13562857/72000",'
        '"2532147/10000","-421729/2400","47681/720","-423899165102715823008047300'
        '8424596357090285997461593874954136217043/33027878007073866493770533503235'
        '7081232567173120000000000000000000","1/1"],"n":6},"kind":"Extension"},'
        '"extendable":true}',
    ),
    (
        ["extend", "--target", '{"n": 6, "coeffs": ["-1099917/50", "1186847/40", '
         '"-54012727/3600", "1236797/360", "-1133449/3600", "0/1", "1/1"]}',
         "--n", "6"],
        '{"certificate":{"f":{"coeffs":["1099917/250","-1186847/160",'
        '"54012727/10800","-1236797/720","1133449/3600","-1820329958143/63172362240",'
        '"1/1"],"n":6},"kind":"Extension"},"extendable":true}',
    ),
    # irrational coordinates beside an exact zero
    (
        ["phi", "--roots", "9/20,1/4,1/5,1/10,0/1"],
        '{"enclosures":[["301004272537551/588448174841308",'
        '"37625534067194/73556021855163"],["186191673200705/588448174841308",'
        '"372383346401411/1176896349682608"],["202504458206099/1176896349682616",'
        '"16875371517175/98074695806884"],["0/1","0/1"]],"width":"1/1099511627776"}',
    ),
    # a tripled coordinate: equal roots of the image refine in step
    (
        ["phi", "--roots", "17/57,4/19,4/19,4/19,4/57", "--width-bits", "64"],
        '{"enclosures":[["5658167398495404369/16133180283012289568",'
        '"14145418496238510923/40332950707530723916"],'
        '["18446744073709551616/68061854318958096615",'
        '"73786976294838206464/272247417275832386433"],'
        '["18446744073709551616/68061854318958096615",'
        '"73786976294838206464/272247417275832386433"],'
        '["432472442022904071/4033295070753072392",'
        '"8649448840458081421/80665901415061447832"]],'
        '"width":"1/18446744073709551616"}',
    ),
]


@pytest.mark.parametrize("argv, expected", SWEEP_AND_PHI_PINNED)
def test_sweep_and_phi_outputs_pinned(capsys, argv, expected):
    """Recorded with the per-step Fraction bisection and the Lagrange
    interpolation of the lambda sweep; must not move by a byte."""
    assert run(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_bad_rational_rejected(capsys):
    code, doc = _capture(
        capsys, ["check-cubic", "--a", "1.5", "--b", "0", "--c", "0"]
    )
    assert code == 1 and doc["error"] == "InvalidInput"


def test_console_script_entry_point():
    import shutil
    import subprocess

    exe = shutil.which("hypercheck")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run(
        [exe, "g0", "--n", "3"], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout)["n"] == 3


# -- numpy loads only with the float prescreen ----------------------------------
# Checked in fresh interpreters: this test process has loaded numpy already.

EXACT_EXAMPLES = [
    ["check-cubic", "--a", "1", "--b", "0", "--c", "1", "--n", "3"],
    ["check-quartic", "--hook", '{"n":4,"d":4,"a":["1","0","0","0"]}'],
    ["check-quartic", "--hook", '{"n":4,"d":4,"a":["1","0","0","1"]}'],
    ["cone-member", "--hook", '{"n":3,"d":3,"a":["0","0","1"]}',
     "--point", '{"x":["1","2","3"]}'],
    ["extend", "--target", '{"n":5,"coeffs":["24","-68","66","-23","0","1"]}',
     "--n", "5"],
    ["phi", "--roots", "1/4,1/4,1/4,1/4"],
    ["g0", "--n", "3"],
]
EK_EXAMPLE = (3, 4, [1, 0, 0, 0])

# argv: source directory, JSON list of CLI calls, JSON arguments of
# ek_plus_linear_check; prints one JSON object
EXACT_RUNNER = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now fails
sys.path.insert(0, sys.argv[1])
from hypercheck import cli, hyperbolicity
outputs = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        outputs.append([cli.run(argv), buf.getvalue()])
report = hyperbolicity.ek_plus_linear_check(*json.loads(sys.argv[3]), trials=20, seed=1)
print(json.dumps({"cli": outputs, "ek": repr(report)}))
"""

LOAD_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import hypercheck.cli
loaded = [["hypercheck.kernels" in sys.modules, "numpy" in sys.modules]]
with contextlib.redirect_stdout(io.StringIO()):
    hypercheck.cli.run(["falsify", "--hook", '{"n":4,"d":4,"a":["1","0","0","1"]}',
                        "--budget", "4"])
loaded.append(["hypercheck.kernels" in sys.modules, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def _fresh_interpreter(script, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script, src, *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exact_subcommands_run_without_numpy():
    """The exact subcommands and ek_plus_linear_check print the same
    outputs in an interpreter where numpy cannot be imported."""
    got = _fresh_interpreter(EXACT_RUNNER, json.dumps(EXACT_EXAMPLES),
                             json.dumps(EK_EXAMPLE))
    expected = []
    for argv in EXACT_EXAMPLES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            expected.append([run(argv), buf.getvalue()])
    assert got["cli"] == expected
    report = hyperbolicity.ek_plus_linear_check(*EK_EXAMPLE, trials=20, seed=1)
    assert got["ek"] == repr(report)


def test_numpy_loads_with_the_falsifier():
    """Importing the CLI loads the kernels module but not numpy; the
    first falsify call loads numpy."""
    assert _fresh_interpreter(LOAD_PROBE) == [[True, False], [True, True]]


# -- internal failures still give one JSON document -----------------------------


def test_exhausted_witness_search_is_json(capsys, monkeypatch):
    """A quartic that fails only the sign condition, with a real-rooted
    coordinate restriction, sends _find_witness to the falsifier; if that
    never finds a witness the CLI reports a typed error."""
    monkeypatch.setattr(
        hyperbolicity, "falsify_hyperbolicity",
        lambda p, budget=None: hyperbolicity.Verdict(hyperbolicity.NO_COUNTEREXAMPLE),
    )
    hook = json.dumps({"n": 4, "d": 4, "a": ["-3", "2", "3", "-1"]})
    code = run(["check-quartic", "--hook", hook])
    out = capsys.readouterr().out
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out)["error"] == "WitnessSearchExhausted"


def test_interlacing_law_violation_is_json(capsys, monkeypatch):
    real = operators.root_profile
    monkeypatch.setattr(
        operators, "root_profile",
        lambda p: dataclasses.replace(real(p), n_nonreal=1),
    )
    code = run(["phi", "--roots", "1/2,1/4,1/4"])
    out = capsys.readouterr().out
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out)["error"] == "InterlacingLawViolated"


# -- fuzzing the cheap subcommands ------------------------------------------------

valid_rational = st.fractions(min_value=-20, max_value=20, max_denominator=6).map(
    lambda f: f"{f.numerator}/{f.denominator}"
)
fuzz_rational = st.one_of(valid_rational, st.integers(-9, 9).map(str), st.text(max_size=8))
fuzz_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "d", "a", "x", "coeffs", "basis"]), inner),
    max_leaves=8,
)


def _rationals(size):
    """Lists of `size` rationals, or of any length with junk entries."""
    return st.one_of(
        st.lists(valid_rational, min_size=size, max_size=size),
        st.lists(fuzz_rational, max_size=6),
    )


@st.composite
def _hook_payload(draw, n, d):
    n, d = draw(n), draw(d)
    hook = {"n": n, "d": d, "a": draw(_rationals(d))}
    if draw(st.booleans()):
        hook["basis"] = draw(st.sampled_from(["e", "etilde", "x"]))
    return draw(st.sampled_from([json.dumps(hook), draw(fuzz_json.map(json.dumps))]))


@st.composite
def _extend_target(draw):
    d = draw(st.integers(0, 6))
    coeffs = draw(_rationals(d + 1))
    if d and len(coeffs) == d + 1 and draw(st.booleans()):
        coeffs[d - 1] = "0"  # zero-sum, so that the sweep runs
    target = {"coeffs": coeffs}
    if draw(st.booleans()):
        target["n"] = draw(st.integers(-1, 6))
    return draw(st.sampled_from([json.dumps(target), draw(fuzz_json.map(json.dumps))]))


simplex_point = st.lists(st.integers(0, 6), min_size=2, max_size=5).map(
    lambda parts: ",".join(
        f"{p}/{sum(parts) or 1}" for p in sorted(parts, reverse=True)
    )
)
fuzz_argv = st.one_of(
    st.tuples(
        st.just("check-cubic"), st.just("--a"), fuzz_rational, st.just("--b"),
        fuzz_rational, st.just("--c"), fuzz_rational, st.just("--n"),
        st.sampled_from(["3", "4", "5", "2", "x"]),
    ),
    st.tuples(
        st.just("check-quartic"), st.just("--hook"),
        _hook_payload(st.integers(3, 5), st.just(4)),
    ),
    st.tuples(
        st.just("cone-member"), st.just("--hook"),
        _hook_payload(st.integers(1, 5), st.integers(1, 5)), st.just("--point"),
        st.one_of(
            st.integers(0, 6).flatmap(_rationals).map(lambda x: json.dumps({"x": x})),
            fuzz_json.map(json.dumps),
        ),
    ),
    st.tuples(
        st.just("phi"), st.just("--roots"),
        st.one_of(simplex_point, st.lists(fuzz_rational, max_size=4).map(",".join)),
    ),
    st.tuples(st.just("g0"), st.just("--n"), st.sampled_from(["-1", "0", "1", "7", "x"])),
    st.tuples(
        st.just("extend"), st.just("--target"), _extend_target(),
        st.just("--n"), st.integers(-1, 6).map(str),
    ),
)


@settings(max_examples=200, deadline=None)
@given(fuzz_argv)
def test_cli_fuzz_prints_one_json_document(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    out = buf.getvalue()
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert code in (0, 1, 2)
    assert (code == 2) == (doc.get("status") == "NotHyperbolic")
