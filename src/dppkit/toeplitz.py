"""Dense Toeplitz windows over an index set, the joint index set of a word
pair across a gap, and the log-determinant and trace-norm kernels behind
the correlation ratio.

The window builder takes a coefficient function, not a symbol: the
library passes ``symbol.g_coeff_fn``, so every window it forms is one of
g = 2f - 1 behind the range gate.  Matrices are plain numpy arrays; a
window has the dtype of its coefficient function's values (real exactly
when the symbol has real coefficients).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import require_int


def build_T(coeffs: Callable[[np.ndarray], np.ndarray], J) -> np.ndarray:
    """Window matrix [coeffs(i - j)] for i, j in the strictly increasing set J,
    of the dtype that ``coeffs`` returns."""
    J = np.asarray(J)
    if J.ndim != 1 or (J.size and J.dtype.kind not in "iu"):
        raise ValueError("J must be a 1-d integer set")
    J = J.astype(np.int64, copy=False)
    if J.size and np.any(np.diff(J) <= 0):
        raise ValueError("J must be strictly increasing")
    gaps = np.subtract.outer(J, J)
    return np.asarray(coeffs(gaps))


def joint_index_set(N: int, ell: int) -> np.ndarray:
    """{1..N} followed by {N+ell+1 .. N+ell+N}.  A gap past 2^62 is a
    SizeCapError: the indices must stay inside int64."""
    ell = require_int(ell, 1, 2 ** 62, "gap ell must be in [1, 2^62]")
    return np.concatenate([np.arange(1, N + 1), np.arange(N + ell + 1, 2 * N + ell + 1)])


def log_det(m: np.ndarray) -> tuple[float, complex]:
    """(log|det|, unit phase) via pivoted LU (LAPACK slogdet); the phase is
    the sign for real input, and a singular matrix gives (-inf, 0)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("log_det: need a square matrix")
    sign, logabs = np.linalg.slogdet(m)
    return float(logabs), complex(sign)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("trace_norm: need a square matrix")
    return float(np.linalg.svd(m, compute_uv=False).sum())
