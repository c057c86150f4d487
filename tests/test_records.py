"""The package's value records (rationals.Record and FrozenRecord):
equality by value, hashing and read-only fields for the frozen ones, the
repr, replace(), pickling, and the checks their constructors make."""

import pickle

import pytest

from hypercheck.errors import DegreeMismatch, DegreeTooHigh, InvalidInput
from hypercheck.hyperbolicity import (
    ConjectureReport,
    CubicNormalForm,
    EkLinearReport,
    Verdict,
    conjecture_case,
)
from hypercheck.operators import DiagonalMap, ExtendCertificate, FullDiagonalMap, g0
from hypercheck.rationals import Q, FrozenRecord
from hypercheck.sympoly import HookPoly, SymPoint
from hypercheck.unipoly import RootCounts, RootProfile, UniPoly, ZeroSumPoly

HOOK = HookPoly(4, 4, (1, 0, -4, 1))

# class, constructor keywords (every field, in __slots__ order), and one
# field with a different value
CASES = [
    (Verdict, dict(status="Hyperbolic", witness=None, detail={"k": 1}),
     ("status", "NotHyperbolic")),
    (ConjectureReport, dict(n=5, d=4, hook=HOOK, falsifier=Verdict("Hyperbolic"),
                            delta_trials=3, delta_negative=0, delta_min=Q(1, 2),
                            extendable=True,
                            certificate=ExtendCertificate("Extension")),
     ("extendable", False)),
    (EkLinearReport, dict(k=2, n=3, trials=4, passed=3, failures=[(Q(1),)]),
     ("passed", 4)),
    (CubicNormalForm, dict(c1=Q(1), c2=None, c2_interval=(Q(-1), Q(0)), c2_sign=-1,
                           u=None, u_interval=(Q(1), Q(2)), shift=None),
     ("c2_sign", 1)),
    (DiagonalMap, dict(n=4, d=3, gamma=(Q(1), Q(0), Q(-2), Q(3))), ("n", 5)),
    (FullDiagonalMap, dict(n=3, d=2, gamma_prime=(Q(1), Q(2), Q(3))), ("n", 4)),
    (ExtendCertificate, dict(kind="SweepRefutation", f=None, obstruction=(),
                             detail={"probes": 2}),
     ("kind", "Extension")),
    (HookPoly, dict(n=4, d=2, a=(Q(1), Q(-3))), ("a", (Q(1), Q(3)))),
    (SymPoint, dict(x=(Q(1), Q(1, 2))), ("x", (Q(1, 2), Q(1)))),
    (RootCounts, dict(n_positive=1, n_negative=1, n_zero=0, n_nonreal=2,
                      degree_drop=0),
     ("n_nonreal", 0)),
    (RootProfile, dict(real_roots=[], n_positive=0, n_negative=0, n_zero=0,
                       n_nonreal=2, degree_drop=0),
     ("degree_drop", 1)),
    (ZeroSumPoly, dict(inner=g0(3).inner), ("inner", g0(4).inner)),
]


@pytest.mark.parametrize("cls, fields, change", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, fields, change):
    record, twin = cls(**fields), cls(*fields.values())
    name, value = change
    other = cls(**dict(fields, **{name: value}))
    assert tuple(cls.__slots__) == tuple(fields)
    assert record == twin and not record != twin
    assert record != other and record != fields
    shown = ", ".join(f"{key}={getattr(record, key)!r}" for key in fields)
    assert repr(record) == f"{cls.__name__}({shown})"
    assert record.replace(**{name: value}) == other
    assert record.replace() == record and getattr(record, name) != value
    assert pickle.loads(pickle.dumps(record)) == record
    if issubclass(cls, FrozenRecord):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1
        if cls is ExtendCertificate:  # its detail is a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) and len({record, twin, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, value)
        assert record == other


def test_defaults():
    assert Verdict("Hyperbolic") == Verdict("Hyperbolic", None, {})
    assert Verdict("Hyperbolic").detail is not Verdict("Hyperbolic").detail
    cert = ExtendCertificate("Extension")
    assert (cert.f, cert.obstruction, cert.detail) == (None, (), {})


def test_reports_holding_roots_compare_by_value():
    """The quintic's report holds its multiplicity obstruction as roots, so
    two runs compare equal only if the roots do."""
    target = ZeroSumPoly(UniPoly.from_roots([1, 1, 2, 2, -6], ambient=5))
    first, second = (conjecture_case(target, 5, grid=8, delta_trials=5) for _ in range(2))
    assert first.certificate.obstruction and first == second


def test_diagonal_map_ignores_gamma_1():
    a = DiagonalMap(4, 3, (1, 0, -2, 3))
    b = DiagonalMap(4, 3, (1, Q(-1, 3), -2, 3))
    assert a == b and hash(a) == hash(b) and a != DiagonalMap(4, 3, (1, 0, -2, 4))
    assert b.gamma == (1, 0, -2, 3) and b.replace(gamma=(1, 7, -2, 3)) == a
    assert DiagonalMap(4, 0, (5,)).gamma == (5,)


def test_constructors_coerce_to_rationals():
    p = HookPoly(4, 2, (1, "-3/2"))
    assert p.a == (Q(1), Q(-3, 2)) and all(type(c) is Q for c in p.a)
    assert all(type(c) is Q for c in SymPoint((1, "1/2")).x)
    assert all(type(c) is Q for c in DiagonalMap(4, 3, (1, 0, -2, 3)).gamma)
    assert all(type(c) is Q for c in FullDiagonalMap(3, 1, (1, 2)).gamma_prime)
    assert HookPoly(4, 2, (1, -3)).replace(a=(2, "1/3")).a == (Q(2), Q(1, 3))


@pytest.mark.parametrize("n, d, a", [(4, 0, ()), (4, 5, (1,) * 5), (4, 2, (1,))])
def test_hook_rejects_bad_degree(n, d, a):
    with pytest.raises(DegreeTooHigh):
        HookPoly(n, d, a)
    with pytest.raises(DegreeTooHigh):
        HOOK.replace(n=n, d=d, a=a)


def test_zero_sum_rejects_nonzero_subleading_coefficient():
    with pytest.raises(DegreeMismatch):
        ZeroSumPoly(UniPoly.from_roots([1, 2, 3]))
    with pytest.raises(DegreeMismatch):
        g0(3).replace(inner=UniPoly([1, 1, 1]))


@pytest.mark.parametrize("fields", [
    {"grid": 1}, {"grid": -1}, {"grid": 1, "seed": 3}, {"grid": 0},
    {"grid": -(2**60)}, {"grid": -5}, {"grid": 0, "seed": -1},
])
def test_budget_rejects_bad_fields(fields):
    """conjecture_case takes the falsifier's grid and its own seed as
    arguments, and refuses a grid below 2 whatever the seed."""
    with pytest.raises(InvalidInput, match="grid must be at least 2"):
        conjecture_case(g0(4), 4, delta_trials=0, **fields)
