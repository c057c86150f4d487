import ast
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercheck import cli, hyperbolicity, operators
from hypercheck.cli import MAX_DELTA_TRIALS, MAX_G0_N, MAX_PHI_DEN_BITS, MAX_PHI_ROOTS, run


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
    code = run(["demo-quintic", "--delta-trials", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        '{"certificate":{"kind":"MultiplicityObstruction","obstruction":[["1/1",3],'
        '["2/1",3]]},"delta_samples":{"min":"109455095665/1327104","negative":0,'
        '"trials":50},"extendable":false,"falsifier":{"detail":{"patterns":14},'
        '"status":"NoCounterexampleFound"},"hook":{"a":["0/1","0/1","1750/1",'
        '"-5500/1","4500/1"],"basis":"etilde","d":5,"n":5},"image_of_pivot":{"coeffs":'
        '["-18000/1","51000/1","-49500/1","17250/1","0/1","-750/1"],"n":5},"operator":'
        '{"coords":"binomial-normalized","d":5,"gamma":["-750/1","0/1","-17250/1",'
        '"-24750/1","-17000/1","-4500/1"],"n":5}}\n'
    )
    doc = json.loads(out)
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


@pytest.mark.parametrize("x", [["1", "2", "3"], ["1", "2", "3", "4", "5", "6"]])
def test_cone_member_point_needs_n_coordinates(capsys, x):
    """A point is refused unless it has the hook's n coordinates: the
    answer would be for the polynomial in len(x) variables."""
    hook = json.dumps({"n": 5, "d": 3, "a": ["0", "0", "1"]})
    point = json.dumps({"x": x})
    code, doc = _capture(capsys, ["cone-member", "--hook", hook, "--point", point])
    assert code == 1 and doc["error"] == "DegreeMismatch"


@pytest.mark.parametrize("bits, code", [(MAX_PHI_DEN_BITS, 0), (MAX_PHI_DEN_BITS + 1, 1)])
def test_phi_common_denominator_bounded(capsys, bits, code):
    den = 1 << (bits - 1)  # the common denominator has `bits` bits
    roots = f"{den - 3}/{den},2/{den},1/{den}"
    got, doc = _capture(capsys, ["phi", "--roots", roots])
    assert got == code
    assert ("enclosures" in doc) if code == 0 else (doc["error"] == "InvalidInput")


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


def test_pretty_decimals_past_the_float_range(capsys):
    """Rationals whose numerator, denominator or value overflows a float
    still get decimals, from decimal arithmetic."""
    a = 10**400
    code = run(["--pretty", "check-cubic", "--a", str(a), "--b", "0", "--c", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["detail"]["product"] == f"{27 * a * (a + 1)}/1 ~ 2.7e+801"
    assert doc["detail"]["value_at_ones"] == f"{a + 1}/1 ~ 1e+400"
    code = run(["--pretty", "phi", "--roots", "1/2,1/4,1/4", "--width-bits", "1024"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [[end.split(" ~ ")[1] for end in pair] for pair in doc["enclosures"]] == [
        ["0.609612", "0.609612"], ["0.390388", "0.390388"],
    ]
    assert doc["width"] == f"1/{1 << 1024} ~ 5.56268e-309"


def test_outputs_past_the_int_to_str_digit_limit(capsys):
    """A product of about 6,000 digits is printed exactly, although str()
    refuses integers of more than 4,300 digits."""
    big = "1" + "0" * 1500
    code, doc = _capture(capsys, ["check-cubic", "--a", big, "--b", "0", "--c", big])
    assert code == 2
    assert doc["detail"]["product"] == "54" + "0" * 6000 + "/1"


def test_payload_integer_past_the_digit_limit_rejected(capsys):
    """json.loads raises ValueError, not JSONDecodeError, on an integer
    literal of more than 4,300 digits."""
    hook = '{"n": 1' + "0" * 5000 + ', "d": 4, "a": ["1", "0", "0", "1"]}'
    code, doc = _capture(capsys, ["check-quartic", "--hook", hook])
    assert code == 1 and doc["error"] == "InvalidInput"


def test_extend_target_with_close_roots_far_from_zero(capsys):
    """(t - a)(t - b)(t + a + b), b = a + 1 = 10^180 + 1: isolating a and b
    takes more bisection levels than Python's recursion limit."""
    a, b = 10**180, 10**180 + 1
    c = -a - b
    coeffs = [str(-a * b * c), str(a * b + b * c + c * a), "0", "1"]
    target = json.dumps({"n": 3, "coeffs": coeffs})
    code, doc = _capture(capsys, ["extend", "--target", target, "--n", "3"])
    assert code == 0
    assert doc["extendable"] is True and doc["certificate"]["kind"] == "Extension"


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
        # without --n, extend takes n from the target's degree
        ["extend", "--target", json.dumps({"coeffs": ["1"] + ["0"] * MAX_G0_N + ["1"]})],
        ["phi", "--roots", ",".join(["1/13"] * (MAX_PHI_ROOTS + 1))],
        # the witness search of a non-hyperbolic cubic builds n-long points
        ["check-cubic", "--a", "1", "--b", "0", "--c", "1", "--n", "1000000"],
        ["check-cubic", "--a", "1", "--b", "0", "--c", "1", "--n", "2000000000"],
    ],
)
def test_oversized_inputs_rejected(capsys, argv):
    code, doc = _capture(capsys, argv)
    assert code == 1 and doc["error"] == "InvalidInput"


@pytest.mark.parametrize("trials", ["-1", "-5", str(MAX_DELTA_TRIALS + 1)])
@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "--target", '{"n":4,"coeffs":["0","0","0","0","1"]}', "--n", "4"],
        ["demo-quintic"],
    ],
)
def test_delta_trials_bounded(capsys, argv, trials):
    code, doc = _capture(capsys, argv + ["--delta-trials", trials])
    assert code == 1 and doc["error"] == "InvalidInput"


@pytest.mark.parametrize("command", ["hook-of", "extend"])
def test_map_gamma_1_is_not_read(capsys, command):
    """gamma_1 never acts on the zero-sum space: maps that differ only
    there print the same bytes."""
    outs = set()
    for gamma_1 in ("0", "7", "-1/3"):
        payload = {"n": 5, "d": 3, "gamma": ["2", gamma_1, "-3", "1"]}
        assert run([command, "--map", json.dumps(payload)]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


GOOD_MAP = {"n": 5, "d": 2, "gamma": ["1", "0", "1"]}


@pytest.mark.parametrize(
    "command, flag, payload, error",
    [
        (command, "--map", {**GOOD_MAP, **bad}, "InvalidInput")
        for command in ("hook-of", "extend")
        for bad in ({"n": "5"}, {"d": "2"}, {"n": 5.5}, {"n": True}, {"d": -1})
    ]
    + [
        ("hook-of", "--map", {"n": 5, "d": 0, "gamma": ["1"]}, "DegreeTooLow"),
        ("operator", "--hook", {"n": True, "d": 1, "a": ["1"]}, "InvalidInput"),
        ("operator", "--hook", {"n": 5, "d": False, "a": []}, "InvalidInput"),
        ("extend", "--target", {"n": 2.0, "coeffs": ["-1", "0", "1"]}, "InvalidInput"),
    ],
)
def test_payload_fields_checked(capsys, command, flag, payload, error):
    """Integer fields of map, hook and polynomial payloads are integers in
    [0, MAX_G0_N], not strings, floats or booleans."""
    code, doc = _capture(capsys, [command, flag, json.dumps(payload)])
    assert code == 1 and doc["error"] == error


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


# -- one document per subcommand, pinned byte for byte ---------------------------

PRETTY_QUARTIC = """{
  "detail": {
    "real_rooted": false,
    "shifted_restriction": {
      "coeffs": [
        "-3/256 ~ -0.0117188",
        "1/8 ~ 0.125",
        "-3/8 ~ -0.375",
        "0/1 ~ 0",
        "2/1 ~ 2"
      ],
      "n": 4
    }
  },
  "status": "NotHyperbolic",
  "witness": {
    "nonreal_roots": 2,
    "x": [
      "1/1 ~ 1",
      "0/1 ~ 0",
      "0/1 ~ 0",
      "0/1 ~ 0"
    ]
  }
}"""

PRETTY_PHI = """{
  "enclosures": [
    [
      "356974224536635/541356939625344 ~ 0.659406",
      "89243556134159/135339234906335 ~ 0.659406"
    ],
    [
      "92191357544353/270678469812672 ~ 0.340594",
      "184382715088707/541356939625340 ~ 0.340594"
    ]
  ],
  "width": "1/1099511627776 ~ 9.09495e-13"
}"""

DOCUMENTS_PINNED = [
    pytest.param(
        ["check-cubic", "--a", "1", "--b", "0", "--c", "1"], 2,
        '{"detail":{"boundary_form":"27/1","product":"54/1","value_at_ones":"2/1"},'
        '"status":"NotHyperbolic","witness":{"nonreal_roots":2,"x":["1/1","0/1","0/1"]}}',
        id="check-cubic-not-hyperbolic",
    ),
    pytest.param(
        ["check-cubic", "--a", "0", "--b", "1", "--c", "0"], 0,
        '{"detail":{"boundary_form":"-1/1","product":"-1/1","value_at_ones":"1/1"},'
        '"status":"Hyperbolic"}',
        id="check-cubic-hyperbolic",
    ),
    pytest.param(
        ["check-quartic", "--hook", '{"n":4,"d":4,"a":["-3","2","3","-1"]}'], 2,
        '{"detail":{"real_rooted":true,"shifted_restriction":{"coeffs":["3/256",'
        '"-1/32","-5/16","0/1","1/1"],"n":4}},"status":"NotHyperbolic",'
        '"witness":{"nonreal_roots":2,"x":["-1/1","-1/1","1/1","1/1"]}}',
        id="check-quartic",
    ),
    pytest.param(
        ["operator", "--hook", '{"n":5,"d":3,"a":["2","-1/3","4"]}'], 0,
        '{"coords":"binomial-normalized","d":3,"gamma":["-17/3","0/1","-35/3","-4/1"],'
        '"n":5}',
        id="operator",
    ),
    pytest.param(
        ["hook-of", "--map", '{"n":5,"d":3,"gamma":["-17/3","0","-35/3","-4"]}'], 0,
        '{"a":["2/1","-1/3","4/1"],"basis":"etilde","d":3,"n":5}',
        id="hook-of",
    ),
    pytest.param(
        ["g0", "--n", "4"], 0, '{"coeffs":["-3/1","8/1","-6/1","0/1","1/1"],"n":4}',
        id="g0",
    ),
    pytest.param(
        ["extend", "--map", '{"n":4,"d":3,"gamma":["1","0","0","0"]}'], 0,
        '{"certificate":{"f":{"coeffs":["0/1","0/1","0/1","1/1"],"n":3},'
        '"kind":"Extension"},"extendable":true}',
        id="extend-extension",
    ),
    pytest.param(
        ["extend", "--map", '{"n":4,"d":3,"gamma":["1","0","1","1"]}'], 0,
        '{"certificate":{"detail":{"reason":"necessary sign test fails"},'
        '"kind":"SweepRefutation"},"extendable":false}',
        id="extend-sign-test",
    ),
    # the forced roots 2 -+ sqrt(2) are irrational: printed as isolating intervals
    pytest.param(
        ["extend", "--target", '{"n":5,"coeffs":["32","-124","144","-44","0","1"]}',
         "--n", "5"], 0,
        '{"certificate":{"kind":"MultiplicityObstruction","obstruction":'
        '[[["9827865/16777216","19655735/33554432"],3],'
        '[["114561995/33554432","7160125/2097152"],3]]},"extendable":false}',
        id="extend-irrational-obstruction",
    ),
    pytest.param(
        ["falsify", "--hook", '{"n":3,"d":3,"a":["1","0","1"]}', "--budget", "24"], 2,
        '{"detail":{"pattern":[1,2]},"status":"NotHyperbolic",'
        '"witness":{"nonreal_roots":2,"x":["-1/1","1/2","1/2"]}}',
        id="falsify",
    ),
    pytest.param(
        ["cone-member", "--hook", '{"n":3,"d":3,"a":["0","0","1"]}',
         "--point", '{"x":["1","2","-3"]}'], 0,
        '{"member":false}',
        id="cone-member",
    ),
    pytest.param(
        ["conjecture", "--target", '{"n":3,"coeffs":["6","-7","0","1"]}', "--n", "4",
         "--delta-trials", "5", "--budget", "8"], 0,
        '{"certificate_kind":"Extension","d":3,"delta_samples":{"min":"5619253/186624",'
        '"negative":0,"trials":5},"extendable":true,"falsifier":{"detail":'
        '{"patterns":3},"status":"NoCounterexampleFound"},"hook":{"a":["0/1","2/1",'
        '"-3/1"],"basis":"etilde","d":3,"n":4},"n":4}',
        id="conjecture",
    ),
    pytest.param(
        ["--pretty", "check-quartic", "--hook", '{"n":4,"d":4,"a":["1","0","0","1"]}'],
        2, PRETTY_QUARTIC, id="pretty-check-quartic",
    ),
    pytest.param(
        ["--pretty", "phi", "--roots", "1/2,1/3,1/6"], 0, PRETTY_PHI, id="pretty-phi",
    ),
    pytest.param(
        ["check-cubic", "--a", "0", "--b", "0", "--c", "0"], 1,
        '{"error": "ZeroPolynomial", "message": "zero cubic"}',
        id="error",
    ),
]


@pytest.mark.parametrize("argv, code, expected", DOCUMENTS_PINNED)
def test_documents_pinned(capsys, argv, code, expected):
    """Every subcommand's document, and --pretty and error documents, must
    not move by a byte."""
    assert run(argv) == code
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("argv", [argv for argv, _ in SWEEP_AND_PHI_PINNED[:2]])
def test_extend_target_independent_of_n(capsys, argv):
    """T(g0) does not depend on n, so neither does the answer for a target."""
    target = argv[2]
    d = json.loads(target)["n"]
    outs = set()
    for n in (d, d + 1, MAX_G0_N):
        assert run(["extend", "--target", target, "--n", str(n)]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


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

# modules that only a dataclass (or numpy) would load
HEAVY = ("dataclasses", "inspect")

# argv: source directory, JSON list of CLI calls, JSON arguments of
# ek_plus_linear_check; prints one JSON object, with the HEAVY modules
# loaded after the import, the CLI calls and ek_plus_linear_check
EXACT_RUNNER = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now fails
sys.path.insert(0, sys.argv[1])
heavy = lambda: [m for m in ("dataclasses", "inspect") if m in sys.modules]
from hypercheck import cli, hyperbolicity
loaded = [heavy()]
outputs = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        outputs.append([cli.run(argv), buf.getvalue()])
loaded.append(heavy())
report = hyperbolicity.ek_plus_linear_check(*json.loads(sys.argv[3]), trials=20, seed=1)
loaded.append(heavy())
print(json.dumps({"cli": outputs, "ek": repr(report), "loaded": loaded}))
"""

LOAD_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import hypercheck.cli
loaded = [["hypercheck.kernels" in sys.modules, "numpy" in sys.modules,
           "dataclasses" in sys.modules, "inspect" in sys.modules]]
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
    outputs in an interpreter where numpy cannot be imported, and load
    neither dataclasses nor inspect."""
    got = _fresh_interpreter(EXACT_RUNNER, json.dumps(EXACT_EXAMPLES),
                             json.dumps(EK_EXAMPLE))
    assert got["loaded"] == [[], [], []]
    expected = []
    for argv in EXACT_EXAMPLES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            expected.append([run(argv), buf.getvalue()])
    assert got["cli"] == expected
    report = hyperbolicity.ek_plus_linear_check(*EK_EXAMPLE, trials=20, seed=1)
    assert got["ek"] == repr(report)


def test_numpy_loads_with_the_falsifier():
    """Importing the CLI loads neither the kernels module, numpy,
    dataclasses nor inspect; the first falsify call loads kernels and
    numpy."""
    assert _fresh_interpreter(LOAD_PROBE) == [[False, False, False, False],
                                              [True, True]]


# subcommands that never run the falsifier, one call each
NO_FALSIFIER = [
    ["extend", "--target", '{"n":5,"coeffs":["24","-68","66","-23","0","1"]}', "--n", "5"],
    ["extend", "--map", '{"n":4,"d":3,"gamma":["1","0","1","1"]}'],
    ["phi", "--roots", "1/2,1/4,1/4"],
    ["g0", "--n", "3"],
    ["operator", "--hook", '{"n":4,"d":4,"a":["1","0","0","1"]}'],
    ["hook-of", "--map", '{"n":4,"d":3,"gamma":["1","0","1","1"]}'],
]

# argv: source directory, JSON list of CLI calls; prints per call its exit
# code and the falsifier's modules loaded after it
SUBCOMMAND_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import hypercheck.cli
loaded = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hypercheck.cli.run(argv)
    loaded.append([code] + [m for m in ("hypercheck.hyperbolicity", "hypercheck.kernels")
                            if m in sys.modules])
print(json.dumps(loaded))
"""


def test_subcommands_load_only_what_they_run():
    """extend, phi, g0, operator and hook-of load neither hyperbolicity nor
    kernels: the CLI reaches the library through the package's exports."""
    got = _fresh_interpreter(SUBCOMMAND_PROBE, json.dumps(NO_FALSIFIER))
    assert got == [[0]] * len(NO_FALSIFIER)


# -- the package's exports resolve on first access ------------------------------

# every public name of the package, by the module that defines it
PUBLIC = {
    "rationals": ["Q", "format_rational", "parse_rational"],
    "unipoly": [
        "RealRoot", "RootCounts", "RootProfile", "UniPoly", "ZeroSumPoly", "dee",
        "delta_n", "discriminant", "interlaces", "is_real_rooted", "resultant",
        "root_counts", "root_profile",
    ],
    "sympoly": [
        "HookPoly", "SymPoint", "dir_derivative_one", "elem_means", "eval_hook",
        "lift_variables", "mixed_derivative_eval", "restrict_line",
    ],
    "operators": [
        "DiagonalMap", "ExtendCertificate", "FullDiagonalMap", "apply",
        "associated_operator", "decide_extendable", "g0", "map_sending_g0_to",
        "necessary_sign_test", "operator_to_hook", "phi", "polya_schur_test",
    ],
    "hyperbolicity": [
        "SearchBudget", "Verdict", "cone_member", "conjecture_case",
        "cubic_normal_form", "decide_cubic", "decide_quartic_hook",
        "ek_plus_linear_check", "falsify_hyperbolicity",
    ],
}
SUBMODULES = ["errors", "hyperbolicity", "kernels", "operators", "rationals",
              "sympoly", "unipoly"]

# argv: source directory, PUBLIC and SUBMODULES as JSON; prints what each
# step loaded and how the package's names resolved
EXPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
public, submodules = json.loads(sys.argv[2]), json.loads(sys.argv[3])
watched = lambda: [m for m in ("hypercheck.hyperbolicity", "hypercheck.kernels", "numpy")
                   if m in sys.modules]
import hypercheck
out = {"bare": sorted(m for m in sys.modules if m.startswith("hypercheck."))}
import hypercheck.unipoly, hypercheck.operators
out["unipoly_operators"] = watched()
out["submodules"] = [getattr(hypercheck, m) is sys.modules["hypercheck." + m]
                     for m in submodules]
namespace = {}
exec("from hypercheck import *", namespace)
namespace.pop("__builtins__")
home = {name: module for module, names in public.items() for name in names}
out["star"] = sorted(namespace)
out["defining"] = [name for name, value in namespace.items()
                   if vars(sys.modules["hypercheck." + home[name]])[name] is not value]
print(json.dumps(out))
"""


def test_exports_resolve_lazily():
    """A bare import loads no submodule; unipoly and operators load neither
    hyperbolicity, kernels nor numpy; every module the package used to load
    eagerly still resolves as an attribute; `import *` binds exactly the
    public names, each the object its module defines."""
    got = _fresh_interpreter(EXPORT_PROBE, json.dumps(PUBLIC), json.dumps(SUBMODULES))
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 45
    assert got == {"bare": [], "unipoly_operators": [],
                   "submodules": [True] * len(SUBMODULES), "star": names,
                   "defining": []}


def test_unknown_export_is_an_attribute_error():
    import hypercheck

    assert sorted(hypercheck.__all__) == sorted(
        name for names in PUBLIC.values() for name in names)
    assert set(hypercheck.__all__) <= set(dir(hypercheck))
    with pytest.raises(AttributeError, match="no_such_name"):
        hypercheck.no_such_name
    with pytest.raises(ImportError):
        from hypercheck import no_such_name  # noqa: F401


def test_package_never_imports_dataclasses():
    """The records are plain classes (rationals.Record): no module of the
    package imports dataclasses, even lazily inside a function."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] in HEAVY for m in modules), (name, modules)


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
        lambda p: real(p).replace(n_nonreal=1),
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


@st.composite
def _planted_target(draw):
    """(t - s) * prod(t - r_i), r_i integers of one sign and s = -sum r_i:
    a zero-sum target that meets the hypothesis of conjecture."""
    roots = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    roots = [draw(st.sampled_from([1, -1])) * r for r in roots]
    coeffs = [1]  # ascending powers of t
    for r in roots + [-sum(roots)]:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return json.dumps({"coeffs": [str(c) for c in coeffs]})


@st.composite
def _map_payload(draw):
    n, d = draw(st.integers(-1, 6)), draw(st.integers(-1, 6))
    payload = {"n": n, "d": d, "gamma": draw(_rationals(d + 1))}
    return draw(st.sampled_from([json.dumps(payload), draw(fuzz_json.map(json.dumps))]))


simplex_point = st.lists(st.integers(0, 6), min_size=2, max_size=5).map(
    lambda parts: ",".join(
        f"{p}/{sum(parts) or 1}" for p in sorted(parts, reverse=True)
    )
)
fuzz_command = st.one_of(
    st.tuples(
        st.just("check-cubic"), st.just("--a"), fuzz_rational, st.just("--b"),
        fuzz_rational, st.just("--c"), fuzz_rational, st.just("--n"),
        st.sampled_from(["3", "4", "5", "2", "x", "1001", "2000000000"]),
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
    st.tuples(st.just("hook-of"), st.just("--map"), _map_payload()),
    st.tuples(
        st.just("operator"), st.just("--hook"),
        _hook_payload(st.integers(0, 6), st.integers(0, 6)),
    ),
    st.tuples(
        st.just("extend"), st.just("--target"), _extend_target(),
        st.just("--n"), st.integers(-1, 6).map(str),
    ),
    st.tuples(
        st.just("conjecture"), st.just("--target"),
        st.one_of(_planted_target(), _extend_target()),
        st.just("--n"), st.integers(-1, 6).map(str), st.just("--budget"), st.just("2"),
        st.just("--delta-trials"),
        st.sampled_from(["-1", "0", "2", str(MAX_DELTA_TRIALS + 1)]),
    ),
)
fuzz_argv = st.tuples(st.sampled_from([(), ("--pretty",)]), fuzz_command).map(
    lambda parts: parts[0] + parts[1]
)


# e-basis hooks with more coefficients than d, at n = 0: the conversion
# divided by zero before the shape was checked
E_BASIS_SHAPES = ['{"n":0,"d":0,"a":["2"],"basis":"e"}',
                  '{"n":0,"d":1,"a":["1","2"],"basis":"e"}']


@settings(max_examples=200, deadline=None)
@given(fuzz_argv)
@example(("operator", "--hook", E_BASIS_SHAPES[0]))
@example(("check-quartic", "--hook", E_BASIS_SHAPES[0]))
@example(("falsify", "--hook", E_BASIS_SHAPES[1], "--budget", "2"))
@example(("cone-member", "--hook", E_BASIS_SHAPES[1], "--point", '{"x":[]}'))
# decimals of rationals past the float range, integers past the int-to-str
# digit limit in an output and in a payload
@example(("--pretty", "phi", "--roots", "1/2,1/4,1/4", "--width-bits", "1024"))
@example(("check-cubic", "--a", str(10**1500), "--b", "0", "--c", str(10**1500)))
@example(("check-quartic", "--hook", '{"n": 1' + "0" * 5000 + ', "d": 4, "a": ["1"]}'))
def test_cli_fuzz_prints_one_json_document(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    out = buf.getvalue()
    # one line, or one indented document under --pretty
    assert out.endswith("\n") and (argv[0] == "--pretty" or out.count("\n") == 1)
    doc = json.loads(out)
    assert code in (0, 1, 2)
    assert (code == 2) == (doc.get("status") == "NotHyperbolic")
