"""Command-line front end.

Every subcommand reads inline JSON (or @file payloads), runs one library
decision procedure, and prints a single JSON document on stdout.
Handlers build documents from library values, and to_json serializes
them in one walk: rationals become canonical "num/den" strings; --pretty
switches to indented output with decimal approximations appended for
human reading.  Exit codes: 0 = decided / no counterexample found,
2 = NotHyperbolic, 1 = error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context
from math import lcm

import hypercheck

from .errors import HypercheckError, InvalidInput
from .rationals import Q, format_rational, parse_rational
from .sympoly import HookPoly
from .unipoly import RealRoot, UniPoly, ZeroSumPoly

# input-size bounds: g0 writes n + 1 coefficients of up to n bits, and
# conjecture samples n-long points and check-cubic's witness search builds
# them, so they share the bound on --n with extend and with every "n" and
# "d" of a payload, from which check-quartic, cone-member and falsify
# build n-long points.  phi's cost is isolating the roots of its image,
# which grows with the roots' common denominator: 12 roots take about 2 s
# when it has 1024 bits, 14 s at ~4,000 bits and 69 s at ~12,000 bits,
# while refining them to 1024 bits takes 0.2 s.  conjecture and
# demo-quintic evaluate a mixed derivative at --delta-trials n-long points:
# at n = MAX_G0_N, the worst n the falsifier admits (d = 3), 1,000 trials
# take 8.1 s, on top of the 2.7 s the rest of the case takes (0.09 s at the
# quintic's n = 5).
MAX_WIDTH_BITS = 1024
MAX_PHI_ROOTS = 12
MAX_PHI_DEN_BITS = 1024
MAX_G0_N = 1000
MAX_DELTA_TRIALS = 1000


# -- JSON plumbing ---------------------------------------------------------


def _load_payload(text: str) -> dict:
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInput(f"cannot read payload file: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InvalidInput(f"malformed JSON payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInput("payload must be a JSON object")
    return payload


def _int_field(payload: dict, key: str, default=None) -> int:
    """payload[key], or default when it is absent, as an integer in
    [0, MAX_G0_N]; booleans and non-integers are refused."""
    value = payload.get(key, default)
    if type(value) is not int or not 0 <= value <= MAX_G0_N:
        raise InvalidInput(f'"{key}" must be an integer in [0, {MAX_G0_N}]')
    return value


def _need(payload: dict, what: str, *keys) -> None:
    for key in keys:
        if key not in payload:
            raise InvalidInput(f'{what} payload needs "{key}"')


def _rat_list(values, what: str):
    if not isinstance(values, list):
        raise InvalidInput(f"{what} must be a list of rationals")
    return [parse_rational(str(v)) for v in values]


def poly_from_json(payload: dict) -> UniPoly:
    _need(payload, "polynomial", "coeffs")
    coeffs = _rat_list(payload["coeffs"], "coeffs")
    return UniPoly(coeffs, _int_field(payload, "n", len(coeffs) - 1))


def hook_to_json(p: HookPoly) -> dict:
    return {"n": p.n, "d": p.d, "basis": "etilde", "a": p.a}


def hook_from_json(payload: dict) -> HookPoly:
    _need(payload, "hook", "n", "d", "a")
    n, d = _int_field(payload, "n"), _int_field(payload, "d")
    a = _rat_list(payload["a"], "a")
    basis = payload.get("basis", "etilde")
    if basis == "e":
        return HookPoly.from_e_basis(n, d, a)
    if basis == "etilde":
        return HookPoly(n, d, tuple(a))
    raise InvalidInput('"basis" must be "e" or "etilde"')


def map_to_json(T: hypercheck.DiagonalMap) -> dict:
    return {"n": T.n, "d": T.d, "gamma": T.gamma, "coords": "binomial-normalized"}


def map_from_json(payload: dict) -> hypercheck.DiagonalMap:
    _need(payload, "map", "n", "d", "gamma")
    coords = payload.get("coords", "binomial-normalized")
    if coords != "binomial-normalized":
        raise InvalidInput('only "binomial-normalized" coords are supported')
    return hypercheck.DiagonalMap(
        _int_field(payload, "n"), _int_field(payload, "d"),
        tuple(_rat_list(payload["gamma"], "gamma")),
    )


def point_from_json(payload: dict):
    _need(payload, "point", "x")
    return _rat_list(payload["x"], "x")


def verdict_to_json(v) -> dict:
    out = {"status": v.status, "detail": v.detail}
    if v.witness is not None:
        point, prof = v.witness
        out["witness"] = {"x": point.x, "nonreal_roots": prof.n_nonreal}
    return out


def certificate_to_json(cert) -> dict:
    out = {"kind": cert.kind}
    if cert.f is not None:
        out["f"] = cert.f
    if cert.obstruction:
        out["obstruction"] = cert.obstruction
    if cert.detail:
        out["detail"] = cert.detail
    return out


def to_json(value, pretty: bool):
    """The JSON form of a document of library values: a rational as its
    "num/den" string, with " ~ <decimal>" appended when pretty; a UniPoly
    as {"n", "coeffs"}; a RealRoot as its exact value or [lo, hi]
    interval; containers entry by entry; anything else as it is."""
    kind = type(value)
    if kind is Q:
        if not pretty:
            return format_rational(value)
        num, den = value.numerator, value.denominator
        try:
            approx = float(num) / float(den)
        except OverflowError:  # a decimal with no bound on its exponent
            wide = Context(Emax=MAX_EMAX, Emin=MIN_EMIN)
            approx = wide.normalize(wide.divide(num, den))
        return f"{format_rational(value)} ~ {approx:.6g}"
    if kind is dict:
        return {key: to_json(entry, pretty) for key, entry in value.items()}
    if kind is list or kind is tuple:
        return [to_json(entry, pretty) for entry in value]
    if kind is UniPoly:
        return {"n": value.ambient_degree, "coeffs": to_json(value.coeffs, pretty)}
    if kind is RealRoot:
        return to_json(value.exact if value.is_exact() else value.interval(), pretty)
    return value


def _emit(document, pretty: bool) -> None:
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    print(json.dumps(to_json(document, pretty), sort_keys=True, **layout))


# -- subcommand handlers -----------------------------------------------------
# Each returns (document, exit code): the document of library values that
# _emit prints and 2 for a NotHyperbolic verdict, else 0.  Library calls go through the package's
# exports, so that a subcommand loads only the modules it runs.


def _given(**options) -> dict:
    """The options given; the library's defaults stand for the others."""
    return {key: value for key, value in options.items() if value is not None}


def _exit_code(v) -> int:
    return 2 if v.status == hypercheck.hyperbolicity.NOT_HYPERBOLIC else 0


def _verdict(v):
    return verdict_to_json(v), _exit_code(v)


def _cmd_check_cubic(args):
    _check_n(args.n)
    return _verdict(hypercheck.decide_cubic(
        parse_rational(args.a), parse_rational(args.b), parse_rational(args.c),
        args.n,
    ))


def _cmd_check_quartic(args):
    p = hook_from_json(_load_payload(args.hook))
    return _verdict(hypercheck.decide_quartic_hook(p))


def _cmd_operator(args):
    p = hook_from_json(_load_payload(args.hook))
    return map_to_json(hypercheck.associated_operator(p)), 0


def _cmd_hook_of(args):
    T = map_from_json(_load_payload(args.map))
    return hook_to_json(hypercheck.operator_to_hook(T)), 0


def _check_n(n) -> None:
    if n is not None and n > MAX_G0_N:
        raise InvalidInput(f"--n must be at most {MAX_G0_N}")


def _cmd_g0(args):
    _check_n(args.n)
    return hypercheck.g0(args.n).inner, 0


def _cmd_extend(args):
    _check_n(args.n)
    if (args.map is None) == (args.target is None):
        raise InvalidInput("provide exactly one of --map or --target")
    if args.map is not None:
        T = map_from_json(_load_payload(args.map))
    else:
        target = poly_from_json(_load_payload(args.target))
        n = args.n if args.n is not None else max(2, target.ambient_degree)
        T = hypercheck.map_sending_g0_to(ZeroSumPoly(target), n)
    extendable, cert = hypercheck.decide_extendable(T)
    return {"extendable": extendable, "certificate": certificate_to_json(cert)}, 0


def _cmd_phi(args):
    if not 0 <= args.width_bits <= MAX_WIDTH_BITS:
        raise InvalidInput(f"--width-bits must be in [0, {MAX_WIDTH_BITS}]")
    roots = args.roots.split(",")
    if len(roots) > MAX_PHI_ROOTS:
        raise InvalidInput(f"--roots takes at most {MAX_PHI_ROOTS} rationals")
    roots = [parse_rational(part) for part in roots]
    if lcm(*(r.denominator for r in roots)).bit_length() > MAX_PHI_DEN_BITS:
        raise InvalidInput(
            f"--roots must have a common denominator of at most {MAX_PHI_DEN_BITS} bits"
        )
    width = Q(1, 1 << args.width_bits)
    return {"enclosures": hypercheck.phi(roots, width=width), "width": width}, 0


def _cmd_falsify(args):
    p = hook_from_json(_load_payload(args.hook))
    return _verdict(hypercheck.falsify_hyperbolicity(p, **_given(grid=args.budget)))


def _cmd_cone_member(args):
    p = hook_from_json(_load_payload(args.hook))
    x = point_from_json(_load_payload(args.point))
    return {"member": hypercheck.cone_member(p, x)}, 0


def _delta_trials(args) -> int:
    if not 0 <= args.delta_trials <= MAX_DELTA_TRIALS:
        raise InvalidInput(f"--delta-trials must be in [0, {MAX_DELTA_TRIALS}]")
    return args.delta_trials


def _delta_samples(report) -> dict:
    return {"trials": report.delta_trials, "negative": report.delta_negative,
            "min": report.delta_min}


def _cmd_conjecture(args):
    _check_n(args.n)
    target = poly_from_json(_load_payload(args.target))
    report = hypercheck.conjecture_case(
        ZeroSumPoly(target), args.n, delta_trials=_delta_trials(args),
        **_given(grid=args.budget, seed=args.seed),
    )
    return {
        "n": report.n,
        "d": report.d,
        "hook": hook_to_json(report.hook),
        "falsifier": verdict_to_json(report.falsifier),
        "delta_samples": _delta_samples(report),
        "extendable": report.extendable,
        "certificate_kind": report.certificate.kind,
    }, _exit_code(report.falsifier)


def _cmd_demo_quintic(args):
    p = HookPoly.from_e_basis(5, 5, (0, 0, 7, -220, 4500))
    T = hypercheck.associated_operator(p)
    image = hypercheck.apply(T, hypercheck.g0(5)).inner
    # conjecture_case recovers this same p and T from the image of the pivot
    report = hypercheck.conjecture_case(
        ZeroSumPoly(image), 5, delta_trials=_delta_trials(args),
        **_given(grid=args.budget, seed=args.seed),
    )
    return {
        "hook": hook_to_json(p),
        "operator": map_to_json(T),
        "image_of_pivot": image,
        "falsifier": verdict_to_json(report.falsifier),
        "extendable": report.extendable,
        "certificate": certificate_to_json(report.certificate),
        "delta_samples": _delta_samples(report),
    }, _exit_code(report.falsifier)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInput, so that they print one JSON error
    document and exit 1 like every other bad input."""

    def error(self, message):
        raise InvalidInput(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use and then shared."""
    parser = _Parser(
        prog="hypercheck",
        description=(
            "Exact decision procedures for symmetric hyperbolic polynomials "
            "and diagonal zero-sum hyperbolicity preservers."
        ),
    )
    parser.add_argument(
        "--pretty", action="store_true",
        help="indented output with decimal approximations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-cubic", help="exact cubic hyperbolicity test")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--c", required=True)
    s.add_argument("--n", type=int, default=3)
    s.set_defaults(func=_cmd_check_cubic)

    s = sub.add_parser("check-quartic", help="exact hook-quartic test")
    s.add_argument("--hook", required=True, help="hook polynomial JSON or @file")
    s.set_defaults(func=_cmd_check_quartic)

    s = sub.add_parser("operator", help="diagonal map associated to a hook polynomial")
    s.add_argument("--hook", required=True)
    s.set_defaults(func=_cmd_operator)

    s = sub.add_parser("hook-of", help="hook polynomial of a diagonal map")
    s.add_argument("--map", required=True)
    s.set_defaults(func=_cmd_hook_of)

    s = sub.add_parser("g0", help="the pivot polynomial (t+n-1)(t-1)^(n-1)")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=_cmd_g0)

    s = sub.add_parser("extend", help="extendability of a diagonal map")
    s.add_argument("--map", help="diagonal map JSON or @file")
    s.add_argument("--target", help="zero-sum polynomial JSON (image of the pivot)")
    s.add_argument("--n", type=int, help="source degree when using --target")
    s.set_defaults(func=_cmd_extend)

    s = sub.add_parser("phi", help="root-simplex map induced by delta_d")
    s.add_argument("--roots", required=True, help="comma-separated rationals")
    s.add_argument("--width-bits", type=int, default=40,
                   help="enclosure width 2^-bits")
    s.set_defaults(func=_cmd_phi)

    s = sub.add_parser("falsify", help="search for a non-hyperbolicity witness")
    s.add_argument("--hook", required=True)
    s.add_argument("--seed", type=int,
                   help="accepted but unused: the search is deterministic")
    s.add_argument("--budget", type=int, help="grid points per axis")
    s.set_defaults(func=_cmd_falsify)

    s = sub.add_parser("cone-member", help="hyperbolicity cone membership")
    s.add_argument("--hook", required=True)
    s.add_argument("--point", required=True)
    s.set_defaults(func=_cmd_cone_member)

    s = sub.add_parser("conjecture", help="sufficiency-conjecture evidence run")
    s.add_argument("--target", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int)
    s.add_argument("--budget", type=int)
    s.add_argument("--delta-trials", type=int, default=1000)
    s.set_defaults(func=_cmd_conjecture)

    s = sub.add_parser("demo-quintic", help="full quintic reproduction pipeline")
    s.add_argument("--seed", type=int)
    s.add_argument("--budget", type=int)
    s.add_argument("--delta-trials", type=int, default=1000)
    s.set_defaults(func=_cmd_demo_quintic)

    return parser


def run(argv) -> int:
    """Print one JSON document; exit 2 on a NotHyperbolic verdict, 1 on an
    error, else 0."""
    try:
        args = build_parser().parse_args(argv)
        document, code = args.func(args)
    except HypercheckError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True))
        return 1
    _emit(document, args.pretty)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
