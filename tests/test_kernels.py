import numpy as np
import pytest

from hypercheck.kernels import backend_name, realness_defects


def _coeffs(*rows):
    return np.array(rows, dtype=np.float64)


def test_known_defects():
    # t^2 + 1: roots +-i, defect = 1 / (1 + 1) = 0.5
    out = realness_defects(_coeffs([1.0, 0.0, 1.0]))
    assert out.shape == (1,)
    assert abs(out[0] - 0.5) < 1e-12
    # (t - 1)(t - 2): real rooted, defect ~ 0
    out = realness_defects(_coeffs([1.0, -3.0, 2.0]))
    assert out[0] < 1e-10


def test_zero_leading_coefficient_flagged():
    out = realness_defects(_coeffs([0.0, 1.0, 1.0], [1.0, 0.0, 1.0]))
    assert out[0] == -1.0
    assert out[1] > 0.4


def test_nonfinite_rows_flagged():
    out = realness_defects(_coeffs([np.nan, 1.0, 1.0], [1.0, np.inf, 1.0]))
    assert out[0] == -1.0
    assert out[1] == -1.0


def test_input_validation():
    with pytest.raises(ValueError):
        realness_defects(np.zeros(3))
    with pytest.raises(ValueError):
        realness_defects(np.zeros((2, 1)))


def test_backend_name_valid():
    assert backend_name() == "numpy"


# -- one eigvals per distinct row, against the kernel that solved every row ---


def _reference_defects(coeffs):
    """Reference: realness_defects as it was, one companion matrix per
    finite row with a nonzero lead, duplicates included."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    n, m = coeffs.shape
    d = m - 1
    out = np.full(n, -1.0)
    ok = (coeffs[:, 0] != 0.0) & np.all(np.isfinite(coeffs), axis=1)
    if not ok.any():
        return out
    sub = coeffs[ok]
    comp = np.zeros((sub.shape[0], d, d))
    comp[:, 0, :] = -sub[:, 1:] / sub[:, :1]
    idx = np.arange(1, d)
    comp[:, idx, idx - 1] = 1.0
    eig = np.linalg.eigvals(comp)
    out[ok] = np.abs(eig.imag).max(axis=1) / (1.0 + np.abs(eig).max(axis=1))
    return out


def _batches():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(7, 6))
    repeated = base[rng.integers(0, 7, size=60)]
    signed_zero = np.array(
        [[1.0, 0.0, -2.0, 0.0], [1.0, -0.0, -2.0, 0.0],
         [1.0, 0.0, -2.0, -0.0], [1.0, -0.0, -2.0, -0.0],
         [1.0, 0.0, -2.0, 0.0]]
    )
    bad = np.array(
        [[0.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0],
         [1.0, -np.inf, 1.0], [1.0, 1.0, np.nan], [-0.0, 2.0, 1.0]]
    )
    good = np.array([[1.0, 0.0, 1.0], [2.0, -3.0, 1.0], [1.0, 0.0, 1.0]])
    mixed = np.vstack([bad, good, bad[::-1], good, good[::-1]])[
        rng.permutation(2 * len(bad) + 3 * len(good))
    ]
    # integer-valued rows repeat often, as the falsifier's clipped
    # refinements and m1^(d-k) m_k hooks do
    small = rng.integers(-2, 3, size=(400, 5)).astype(np.float64)
    small[:, 0] = rng.integers(1, 3, size=400)
    return {
        "repeated": repeated,
        "signed_zero": signed_zero,
        "mixed": mixed,
        "all_bad": bad,
        "all_equal": np.tile(base[:1], (25, 1)),
        "single": base[:1],
        "small_integers": small,
        "strided": small[::3, ::-1],
    }


@pytest.mark.parametrize("name", sorted(_batches()))
def test_distinct_rows_match_reference_bytes(name):
    coeffs = _batches()[name]
    out = realness_defects(coeffs)
    assert out.dtype == np.float64 and out.shape == (len(coeffs),)
    assert out.tobytes() == _reference_defects(coeffs).tobytes()


def _count_solved(monkeypatch):
    """Record how many matrices each np.linalg.eigvals call receives."""
    solved = []
    eigvals = np.linalg.eigvals

    def counting(a):
        solved.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return solved


def test_signed_zero_rows_stay_distinct(monkeypatch):
    """0.0 and -0.0 differ in their bytes, so such rows are solved apart."""
    solved = _count_solved(monkeypatch)
    realness_defects(_batches()["signed_zero"])
    assert solved == [4]


def test_each_call_solves_its_distinct_rows(monkeypatch):
    """On the m1^5 hook (n = 5, grid 8) the clipped refinements restrict to
    the same polynomial at many points: every kernel call hands eigvals one
    matrix per distinct usable row, and most rows repeat, within a pattern
    and across the patterns prescreened together in one chunk.  Its closed
    form would stop the search after the first chunk, so it is turned off,
    as _without_closed_form does in test_hyperbolicity."""
    from hypercheck import hyperbolicity
    from hypercheck.hyperbolicity import (
        NO_COUNTEREXAMPLE,
        falsify_hyperbolicity,
    )
    from hypercheck.sympoly import HookPoly

    solved = _count_solved(monkeypatch)
    distinct, rows = [], []
    kernel = hyperbolicity.realness_defects

    def recording(coeffs):
        ok = (coeffs[:, 0] != 0.0) & np.all(np.isfinite(coeffs), axis=1)
        distinct.append(len({row.tobytes() for row in coeffs[ok]}))
        rows.append(len(coeffs))
        return kernel(coeffs)

    monkeypatch.setattr(hyperbolicity, "realness_defects", recording)
    monkeypatch.setattr(hyperbolicity, "_closed_form", lambda p: (False, {}))
    hook = HookPoly(5, 5, (1, 0, 0, 0, 0))
    assert falsify_hyperbolicity(hook, 8).status == NO_COUNTEREXAMPLE
    assert solved == [k for k in distinct if k]
    assert (sum(rows), sum(solved)) == (12_697, 93)
