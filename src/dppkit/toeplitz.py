"""Dense Toeplitz windows, off-diagonal coupling blocks, and the
log-determinant / norm / quadrature kernels behind the probability layer.

Matrices are plain numpy arrays; builders return a real dtype whenever the
coefficient source is real (even symbols), complex otherwise.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import HypothesisError
from .symbol import Symbol

SZEGO_GRID = 16384
SZEGO_CLAMP = 1e-14


def _coeff_lookup(source) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(source, Symbol):
        return source.coeffs
    if callable(source):
        return lambda ns: np.asarray(source(ns))
    raise TypeError("coefficient source must be a Symbol or a callable(ns) -> coeffs")


def _realify(m: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(m) and np.all(m.imag == 0.0):
        return m.real.copy()
    return m


def build_T(source, J) -> np.ndarray:
    """Window matrix [fhat(i - j)] for i, j in the strictly increasing set J."""
    J = np.asarray(J, dtype=np.int64)
    if J.ndim != 1:
        raise ValueError("J must be a 1-d integer set")
    if J.size and np.any(np.diff(J) <= 0):
        raise ValueError("J must be strictly increasing")
    if J.size == 0:
        return np.zeros((0, 0))
    gaps = np.subtract.outer(J, J)
    return _realify(_coeff_lookup(source)(gaps))


def build_T_window(source, N: int) -> np.ndarray:
    """The N x N window over consecutive positions."""
    return build_T(source, np.arange(1, N + 1))


def build_lambda(source, N: int, ell: int) -> np.ndarray:
    """Coupling block of two length-N windows separated by a gap ell:
    entries fhat(i - j - N - ell) for 1-based i, j."""
    if N < 1 or ell < 1:
        raise ValueError("build_lambda: need N >= 1 and ell >= 1")
    i = np.arange(1, N + 1)
    gaps = np.subtract.outer(i, i + N + ell)
    return _realify(_coeff_lookup(source)(gaps))


def joint_index_set(N: int, ell: int) -> np.ndarray:
    """{1..N} followed by {N+ell+1 .. N+ell+N}."""
    return np.concatenate([np.arange(1, N + 1), np.arange(N + ell + 1, 2 * N + ell + 1)])


def joint_window_block(source, N: int, ell: int) -> np.ndarray:
    """2N x 2N window matrix over joint_index_set(N, ell); equals the block
    matrix [[T_N, Lambda], [Lambda*, T_N]]."""
    return build_T(source, joint_index_set(N, ell))


class LogDet(NamedTuple):
    """log|det| plus the unit phase (sign for real input); singular
    matrices report log_abs = -inf with phase 0."""

    log_abs: float
    phase: complex


def log_det(m: np.ndarray) -> LogDet:
    """Determinant in log space via pivoted LU (LAPACK slogdet)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("log_det: need a square matrix")
    sign, logabs = np.linalg.slogdet(m)
    if sign == 0:
        return LogDet(-math.inf, 0.0 + 0.0j)
    return LogDet(float(logabs), complex(sign))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("trace_norm: need a square matrix")
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def hs_norm_sq_lambda(source, N: int, ell: int) -> float:
    """Squared Frobenius norm of the coupling block, by the closed form
    sum_{k=1}^{N} k |fhat(ell+k)|^2 + sum_{k=N+1}^{2N-1} (2N-k) |fhat(ell+k)|^2."""
    if N < 1 or ell < 1:
        raise ValueError("hs_norm_sq_lambda: need N >= 1 and ell >= 1")
    look = _coeff_lookup(source)
    k = np.arange(1, 2 * N)
    weights = np.minimum(k, 2 * N - k)
    vals = np.abs(look(ell + k)) ** 2
    return float(np.sum(weights * vals))


class SzegoIntegral(NamedTuple):
    """Quadrature of log(phi); ``clamped`` flags nodes pushed up to the
    clamp floor (the true integral may be -inf)."""

    value: float
    clamped: bool


def szego_log_integral(phi, grid: int = SZEGO_GRID, clamp: float = SZEGO_CLAMP) -> SzegoIntegral:
    """Trapezoid quadrature of integral_0^1 log(phi(t)) dt for phi >= 0.

    ``phi`` is a callable on [0,1) or an array of values on the uniform
    grid t_k = k/grid.  Values below ``clamp`` are clamped and flagged.
    """
    if callable(phi):
        vals = np.asarray(phi(np.arange(grid) / grid), dtype=float)
    else:
        vals = np.asarray(phi, dtype=float)
        grid = vals.size
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("szego_log_integral: phi must give a 1-d grid of values")
    if np.any(vals < 0):
        raise HypothesisError("szego_log_integral: phi must be non-negative")
    clamped = bool(np.any(vals < clamp))
    vals = np.maximum(vals, clamp)
    # uniform periodic grid: trapezoid == mean of node values
    return SzegoIntegral(float(np.mean(np.log(vals))), clamped)
