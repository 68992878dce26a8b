"""Multiplicative-mixing diagnostics: certified analytic bounds on the
psi-function of the measure, plus the exhaustive finite-window value

    max over words (eps, eps') of |R(eps, eps') - 1|

at fixed window size N and gap ell.  The analytic bounds use the one-sided
tail sum of n*|fhat(n)|^2; truncation rounds the lower bound down (still a
valid lower bound) and the upper bound carries the analytic remainder when
the family provides one, else it is flagged approximate.

The finite-window value comes from the Schur complement of the joint
2N x 2N matrix [[A(eps), D(theta) Lambda], [D(theta') Lambda*, A(eps')]]
with A(eps) = D(theta) T_N(g) + I:

    log R(eps, eps') = log det(I - Q(eps') P(eps)),
    P(eps) = A(eps)^-1 D(theta) Lambda,  Q(eps') = A(eps')^-1 D(theta') Lambda*,

so the 2^N solves are shared and each pair costs one N x N determinant.
Q(eps') P(eps) is the operator H behind the Simon trace-norm bound.  No
marginal log-determinant is subtracted, so band-limited symbols at gaps
past the bandwidth give exactly 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure, toeplitz
from .errors import NumericsError, SizeCapError
from .symbol import (DEFAULT_TRUNCATION, Symbol, TailSum, contraction_margin, g_coeff_fn,
                     require_range, tail_sum)

FINITE_WINDOW_CAP = 7


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


def psi_bound_report(sym: Symbol, ell: int, truncation: int = DEFAULT_TRUNCATION) -> PsiBoundReport:
    """lower = 1 - exp(-tail/(ell+1)), which truncating the tail keeps valid;
    upper = (tail/tau^2) exp(1 + tail/tau^2), or None when tau <= 0."""
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


def _coupling_stacks(sym: Symbol, ell: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """P(eps) = A(eps)^-1 D(theta) Lambda_g and Q(eps') = A(eps')^-1 D(theta') Lambda_g*
    for every word, with A(eps) = D(theta) T_N(g) + I; stacks of shape (2^N, N, N)."""
    if ell < 1 or N < 1:
        raise ValueError("finite-window search: need ell >= 1 and N >= 1")
    if N > FINITE_WINDOW_CAP:
        raise SizeCapError(f"finite-window size {N} exceeds cap {FINITE_WINDOW_CAP}")
    base = toeplitz.build_T(g_coeff_fn(sym), toeplitz.joint_index_set(N, ell))
    theta = 2.0 * measure.word_bits(N) - 1.0
    a = theta[:, :, None] * base[:N, :N] + np.eye(N, dtype=base.dtype)
    if np.any(measure._log_probs(a) == -math.inf):
        raise NumericsError("vanishing marginal in finite-window enumeration")
    # columns 0..N-1 hold Lambda_g (top-right block), N..2N-1 Lambda_g* (bottom-left)
    pq = np.linalg.solve(a, theta[:, :, None] * np.hstack([base[:N, N:], base[N:, :N]]))
    return pq[:, :, :N], pq[:, :, N:]


def _log_ratio_grid(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log R[eps, eps'] = log det(I - Q(eps') P(eps)), 2^14 pairs per batch."""
    words, n = p.shape[:2]
    eye = np.eye(n, dtype=p.dtype)
    out = np.empty((words, words))
    chunk = max(1, 2 ** 14 // words)
    for lo in range(0, words, chunk):
        # H[eps, eps'] = Q(eps') P(eps); the joint determinant's sign is the
        # sign of det(I - H) times the two positive marginal signs
        sign, out[lo:lo + chunk] = np.linalg.slogdet(eye - q[None, :] @ p[lo:lo + chunk, None])
        if np.any(np.real(sign) <= 0):
            raise NumericsError("vanishing joint in finite-window enumeration")
    return out


def psi_finite_window(sym: Symbol, ell: int, N: int) -> FiniteWindowPsi:
    """Exhaustive max of |R - 1| over the 4^N word pairs, N <= FINITE_WINDOW_CAP."""
    p, q = _coupling_stacks(sym, ell, N)
    dev = np.abs(np.expm1(_log_ratio_grid(p, q)))
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    words = measure.word_bits(N)
    return FiniteWindowPsi(
        int(ell), int(N), float(dev[i, j]), measure._word_str(words[i]), measure._word_str(words[j])
    )


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
