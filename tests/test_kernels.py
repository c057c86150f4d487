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
