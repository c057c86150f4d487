"""Exact-arithmetic toolkit for symmetric hyperbolic polynomials,
hook-shaped polynomials and diagonal zero-sum hyperbolicity preservers.

Each public name is imported from its module on first access (PEP 562),
so importing one module of the package loads only what that module uses.
"""

import importlib

_EXPORTS = {
    "rationals": "Q format_rational parse_rational",
    "unipoly": "RealRoot RootCounts RootProfile UniPoly ZeroSumPoly dee delta_n "
    "discriminant interlaces is_real_rooted resultant root_counts root_profile",
    "sympoly": "HookPoly SymPoint dir_derivative_one elem_means eval_hook "
    "lift_variables mixed_derivative_eval restrict_line",
    "operators": "DiagonalMap ExtendCertificate FullDiagonalMap apply "
    "associated_operator decide_extendable g0 map_sending_g0_to necessary_sign_test "
    "operator_to_hook phi polya_schur_test",
    "hyperbolicity": "Verdict cone_member conjecture_case cubic_normal_form "
    "decide_cubic decide_quartic_hook ek_plus_linear_check falsify_hyperbolicity",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {"errors", "kernels", *_EXPORTS}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if home := _HOME.get(name):  # a loaded submodule is a global of the package
        module = globals().get(home) or importlib.import_module(f"{__name__}.{home}")
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
