"""Multiplicative-mixing diagnostics: certified analytic bounds on the
psi-function of the measure, plus the exhaustive finite-window value

    max over words (eps, eps') of |R(eps, eps') - 1|

at fixed window size N and gap ell.  The analytic bounds use the one-sided
tail sum of n*|fhat(n)|^2; truncation rounds the lower bound down (still a
valid lower bound) and the upper bound carries the analytic remainder when
the family provides one, else it is flagged approximate.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import measure, toeplitz
from .symbol import (DEFAULT_TRUNCATION, Symbol, TailSum, contraction_margin, g_coeff_fn,
                     require_range, tail_sum)

FINITE_WINDOW_CAP = 7
FINITE_WINDOW_HARD_CAP = 10


class SizeCapError(ValueError):
    """An enumeration exceeded its configured size cap."""


@dataclass(frozen=True)
class PsiBoundReport:
    """Certified bounds on psi(ell).

    ``upper_bound`` is None when the contraction margin tau is not positive
    (the sufficient condition fails); ``upper_approximate`` flags a missing
    analytic remainder for the truncated tail.
    """

    ell: int
    lower_bound: float
    upper_bound: float | None
    tau: float
    tail: TailSum
    truncation: int
    upper_approximate: bool


def psi_lower_bound(sym: Symbol, ell: int, truncation: int = DEFAULT_TRUNCATION) -> float:
    """1 - exp(-tail/(ell+1)); truncating the tail keeps this a valid lower bound."""
    if ell < 1:
        raise ValueError("psi_lower_bound: need ell >= 1")
    require_range(sym)
    t = tail_sum(sym, ell, truncation)
    return -math.expm1(-t.value / (ell + 1.0))


def psi_upper_bound(sym: Symbol, ell: int, truncation: int = DEFAULT_TRUNCATION) -> float | None:
    """(tail/tau^2) exp(1 + tail/tau^2), or None when tau <= 0."""
    return psi_bound_report(sym, ell, truncation).upper_bound


def psi_bound_report(sym: Symbol, ell: int, truncation: int = DEFAULT_TRUNCATION) -> PsiBoundReport:
    if ell < 1:
        raise ValueError("psi_bound_report: need ell >= 1")
    require_range(sym)
    t = tail_sum(sym, ell, truncation)
    lower = -math.expm1(-t.value / (ell + 1.0))
    tau = contraction_margin(sym)
    upper = None
    approx = False
    if tau > 0.0:
        total = t.certified_total
        if total is None:
            total = t.value
            approx = True
        x = total / (tau * tau)
        upper = x * math.exp(1.0 + x)
    return PsiBoundReport(int(ell), lower, upper, tau, t, int(truncation), approx)


@dataclass(frozen=True)
class FiniteWindowPsi:
    """Exact max of |R - 1| over all word pairs at window size N, gap ell."""

    ell: int
    N: int
    value: float
    argmax_word: str
    argmax_word_prime: str


@dataclass(frozen=True)
class FiniteWindowDetails:
    """Per-pair grids from the exhaustive search; index m encodes bit k of
    the word as (m >> k) & 1."""

    deviation: np.ndarray      # (2^N, 2^N) |R - 1|, rows = eps, cols = eps'
    h_trace_norm: np.ndarray   # (2^N, 2^N) ||H||_1
    hs_norm_sq: float          # ||Lambda||_HS^2


def _mask_word(mask: int, n: int) -> str:
    return "".join("1" if (mask >> k) & 1 else "0" for k in range(n))


def _enumerate_ratio_grid(sym: Symbol, ell: int, N: int) -> np.ndarray:
    """log R over all word pairs, batched."""
    tg = g_coeff_fn(sym)
    base = toeplitz.build_T(tg, toeplitz.joint_index_set(N, ell))
    masks = np.arange(2 ** N, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(N)[None, :]) & 1).astype(np.float64)
    theta = 2.0 * bits - 1.0

    tN = base[:N, :N]
    mats = theta[:, :, None] * tN[None] + np.eye(N, dtype=base.dtype)
    sign, logp = np.linalg.slogdet(mats)
    if np.any(np.real(sign) <= 0):
        raise measure.NumericsError("vanishing marginal in finite-window enumeration")
    logp = logp - N * math.log(2.0)

    eye2 = np.eye(2 * N, dtype=base.dtype)
    logj = np.empty((2 ** N, 2 ** N))
    chunk = max(1, 2 ** 14 // 2 ** N)
    for lo in range(0, 2 ** N, chunk):
        hi = min(lo + chunk, 2 ** N)
        pair_theta = np.concatenate(
            [
                np.repeat(theta[lo:hi], 2 ** N, axis=0),
                np.tile(theta, (hi - lo, 1)),
            ],
            axis=1,
        )
        mats = pair_theta[:, :, None] * base[None] + eye2
        sign, lj = np.linalg.slogdet(mats)
        if np.any(np.real(sign) <= 0):
            raise measure.NumericsError("vanishing joint in finite-window enumeration")
        logj[lo:hi] = lj.reshape(hi - lo, 2 ** N)
    logj -= 2 * N * math.log(2.0)
    return logj - logp[:, None] - logp[None, :]


def psi_finite_window(sym: Symbol, ell: int, N: int, cap: int = FINITE_WINDOW_CAP) -> FiniteWindowPsi:
    """Exhaustive max of |R - 1| over the 4^N word pairs."""
    if ell < 1 or N < 1:
        raise ValueError("psi_finite_window: need ell >= 1 and N >= 1")
    require_range(sym)
    cap = min(int(cap), FINITE_WINDOW_HARD_CAP)
    if N > cap:
        raise SizeCapError(f"finite-window size {N} exceeds cap {cap}")
    if N > FINITE_WINDOW_CAP:
        warnings.warn(f"finite-window search at N={N} evaluates 4^{N} ratios", stacklevel=2)
    measure_dev = np.abs(np.expm1(_enumerate_ratio_grid(sym, ell, N)))
    i, j = np.unravel_index(int(np.argmax(measure_dev)), measure_dev.shape)
    return FiniteWindowPsi(
        int(ell), int(N), float(measure_dev[i, j]), _mask_word(i, N), _mask_word(j, N)
    )


def finite_window_details(sym: Symbol, ell: int, N: int, cap: int = FINITE_WINDOW_CAP) -> FiniteWindowDetails:
    """Deviation and trace-norm grids for every word pair (test harness)."""
    if N > min(int(cap), 8):  # the (4^N, N, N) svd grid gets heavy past 8
        raise SizeCapError(f"finite-window size {N} exceeds cap {cap}")
    dev = np.abs(np.expm1(_enumerate_ratio_grid(sym, ell, N)))

    t = toeplitz.build_T_window(sym, N)
    lam = toeplitz.build_lambda(sym, N, ell)
    masks = np.arange(2 ** N, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(N)[None, :]) & 1).astype(np.float64)
    diag = bits - 1.0
    mats = np.broadcast_to(t, (2 ** N, N, N)).copy()
    mats[:, np.arange(N), np.arange(N)] += diag
    inv = np.linalg.inv(mats)
    p = inv @ lam                  # A(eps)^-1 Lambda
    q = inv @ lam.conj().T         # A(eps')^-1 Lambda*
    h = q[None, :] @ p[:, None]    # H[eps, eps'] = q[eps'] p[eps]
    hnorm = np.linalg.svd(h, compute_uv=False).sum(axis=-1)
    return FiniteWindowDetails(dev, hnorm, toeplitz.hs_norm_sq_lambda(sym, N, ell))


def allones_lower_witness(sym: Symbol, ell: int, N: int) -> float:
    """1 - det(I - T^-1 Lambda* T^-1 Lambda): the all-ones word's certified
    contribution to psi(ell) at window size N."""
    if ell < 1 or N < 1:
        raise ValueError("allones_lower_witness: need ell >= 1 and N >= 1")
    require_range(sym)
    t = toeplitz.build_T_window(sym, N)
    lam = toeplitz.build_lambda(sym, N, ell)
    k = np.linalg.solve(t, lam.conj().T) @ np.linalg.solve(t, lam)
    logabs, phase = toeplitz.log_det(np.eye(N, dtype=k.dtype) - k)
    det = (math.exp(logabs) * phase).real if logabs > -math.inf else 0.0
    return max(0.0, 1.0 - det)
