import json

import pytest

from hypercheck import cli
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


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--roots", "1/2,1/4,1/4", "--width-bits", "1025"],
        ["phi", "--roots", "1/2,1/4,1/4", "--width-bits", "100000000"],
        ["g0", "--n", "1001"],
        ["g0", "--n", "100000000"],
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
