"""Float prescreen kernel for the falsifier.

Exact decisions never happen here: this kernel only ranks candidate
points by how non-real the roots of their line restriction look, so the
expensive exact Sturm verification runs on a short list.  The measure is
the companion-matrix eigenvalue "realness defect"

    defect(q) = max_i |Im lambda_i| / (1 + max_i |lambda_i|)

which is 0 (up to rounding) for real-rooted q and bounded away from 0
when q has a genuinely non-real root.  The defects of a whole stack of
polynomials come from one batched numpy eigvals call, with one matrix per
distinct row: rows are keyed by their exact bytes, so a row that repeats
within the stack is solved once and its defect copied, bit for bit.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """The prescreen backend; numpy is the only one.  Kept because run
    records name the backend they were measured with."""
    return "numpy"


def realness_defects(coeffs: np.ndarray) -> np.ndarray:
    """Realness defects for a stack of polynomials.

    coeffs: (N, d+1) float64, descending degree order.  Rows with a zero
    or non-finite leading coefficient get defect -1 (excluded from the
    candidate ranking), as do rows with any non-finite coefficient.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 2 or coeffs.shape[1] < 2:
        raise ValueError("expected an (N, d+1) array with d >= 1")
    n, m = coeffs.shape
    d = m - 1
    out = np.full(n, -1.0)
    lead = coeffs[:, 0]
    ok = (lead != 0.0) & np.all(np.isfinite(coeffs), axis=1)
    if not ok.any():
        return out
    sub = coeffs[ok]
    # key each row by its bytes, so equal keys give equal eigenvalues and
    # 0.0 and -0.0 stay apart; a dict costs less than np.unique on the
    # falsifier's many small batches and as much on its large ones
    raw, width = sub.tobytes(), sub.itemsize * m
    slot = {}
    inverse = [
        slot.setdefault(raw[i : i + width], len(slot))
        for i in range(0, len(raw), width)
    ]
    sub = np.frombuffer(b"".join(slot), dtype=np.float64).reshape(len(slot), m)
    comp = np.zeros((sub.shape[0], d, d))
    comp[:, 0, :] = -sub[:, 1:] / sub[:, :1]
    idx = np.arange(1, d)
    comp[:, idx, idx - 1] = 1.0
    eig = np.linalg.eigvals(comp)
    defects = np.abs(eig.imag).max(axis=1) / (1.0 + np.abs(eig).max(axis=1))
    out[ok] = defects[inverse]
    return out
