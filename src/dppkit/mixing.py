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

    R(eps, eps') = det(I - Q(eps') P(eps)),
    P(eps) = A(eps)^-1 D(theta) Lambda,  Q(eps') = A(eps')^-1 D(theta') Lambda*.

Lambda = Lambda_g, read from the 2N-1 coefficients that fix it, is factored
exactly as U M V^T with the smallest inner size r the symbol gives: r = 1
for a non-degenerate poisson (geometric coefficients), the nonzero columns
of Lambda otherwise, mirrored by its nonzero rows (r <= max(0, B - ell) for
bandwidth B, r = N with U = V = I for a full block).  Sylvester's identity
det(I - AB) = det(I - BA) then gives

    R(eps, eps') = det(I_r - Y(eps') X(eps)),
    X(eps) = U* A(eps)^-1 D(theta) U M,  Y(eps') = V^T A(eps')^-1 D(theta') conj(V) M*,

so the 2^N solves are shared.  For r <= 2 the whole grid is closed form:
R - 1 = -tr K + det K with K = Y X, where tr K over every pair is one
matrix product of the flattened stacks and det K = det Y det X (zero for
r <= 1).  It is read off without forming 1 - det(I - K), so it keeps its
relative accuracy as psi gets small.  For r >= 3 each pair costs one
r x r slogdet and the deviation is |expm1(log|det(I - K)|)|.  No marginal
log-determinant is subtracted, so band-limited symbols at gaps past the
bandwidth (r = 0) give exactly 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import measure, toeplitz
from .errors import ConditioningError, SizeCapError, require_int
from .symbol import (DEFAULT_TRUNCATION, Symbol, TailSum, contraction_margin, g_coeff_fn,
                     require_range, tail_sum)

FINITE_WINDOW_CAP = 7


@dataclass(frozen=True)
class PsiBoundReport:
    """Certified bounds on psi(ell).

    ``upper_bound`` is 0.0 for a band-limited symbol at ell >= its
    bandwidth, at any tau, where psi(ell) = 0 exactly; otherwise it is None
    when the contraction margin tau is not positive (the sufficient
    condition fails), and inf where it passes the float range.
    ``upper_approximate`` flags a missing analytic remainder for the
    truncated tail.
    """

    ell: int
    lower_bound: float
    upper_bound: float | None
    tau: float
    tail: TailSum
    upper_approximate: bool


def psi_bound_report(sym: Symbol, ell: int, truncation: int = DEFAULT_TRUNCATION) -> PsiBoundReport:
    """lower = 1 - exp(-tail/(ell+1)), which truncating the tail keeps valid;
    upper = (tail/tau^2) exp(1 + tail/tau^2), or None when tau <= 0, rounded
    up so that it is never below the exact value of that formula.  Where the
    tail passes below the normal float range, the upper bound is formed from
    the tail's logarithm (``TailSum.log_total``), so it stays positive.  An
    upper bound past the float range is inf."""
    ell = require_int(ell, 1, None, "psi_bound_report: need ell >= 1")
    require_range(sym)
    t = tail_sum(sym, ell, truncation)
    lower = -math.expm1(-t.value / (ell + 1.0))
    tau = contraction_margin(sym)
    upper = None
    approx = False
    if sym.bandwidth is not None and ell >= sym.bandwidth:
        upper = 0.0  # Lambda_g = 0: the two windows are independent
    elif tau > 0.0:
        approx = t.remainder_bound is None
        try:
            if t.log_total is not None:
                upper = _upper_from_log(t.log_total - 2.0 * math.log(tau))
            else:
                upper = _upper_rounded_up(t.value if approx else t.certified_total, tau)
        except OverflowError:  # an exponential past the float range: still never below
            upper = math.inf
    return PsiBoundReport(ell, lower, upper, tau, t, approx)


def _upper_rounded_up(total: float, tau: float) -> float:
    """x exp(1 + x) with x = total / tau^2, never below its exact value.

    Its five roundings (tau^2, the division, 1 + x, exp and the product),
    each within u = 2^-53 relative and exp within 2u, put it within
    (6 + 3x) u of the exact value to first order.  It is widened by
    (7 + 4x) u, which also covers the rounding of the widening term, and
    the sum is rounded up to the next float."""
    x = total / (tau * tau)
    upper = x * math.exp(1.0 + x)
    return math.nextafter(upper + upper * (7.0 + 4.0 * x) * 2.0 ** -53, math.inf)


def _upper_from_log(log_x: float) -> float:
    """x exp(1 + x) from log x, widened by 1e-12 |log| (far above the
    rounding of log x) and rounded up to the next float, so it is positive
    and never below the exact value."""
    log_upper = log_x + 1.0 + math.exp(log_x)
    return math.nextafter(math.exp(log_upper + 1e-12 * abs(log_upper)), math.inf)


@dataclass(frozen=True)
class FiniteWindowPsi:
    """Exact max of |R - 1| over all word pairs at window size N, gap ell.

    On a tie the argmax is the first maximal pair in row-major order of the
    word indices m (bit k of the word is (m >> k) & 1), eps before eps'."""

    ell: int
    N: int
    value: float
    argmax_word: str
    argmax_word_prime: str


def _coupling_factors(sym: Symbol, ell: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real U and V (N x r) and M (r x r), with Lambda_g = U M V^T, from the
    2N-1 coefficients g_k = ghat(-(ell+1+k)) in one lookup: Lambda_g[i, j] =
    g_{N-1-i+j}.  A non-degenerate poisson has g_k = g_0 r^k, so M = g_0 and
    every entry of U and V is at most 1 in modulus.  Any other symbol keeps
    the columns j whose g_j .. g_{j+N-1} hold a nonzero (an exact zero of the
    lookup), so U and V are columns of I; column j and row N-1-j hold the
    same entries, so the rows kept mirror the columns and M is square.  A gap
    past 2^62 is a SizeCapError: the indices must stay inside int64."""
    ell = require_int(ell, 1, 2 ** 62, "gap ell must be in [1, 2^62]")
    g = g_coeff_fn(sym)(-(ell + 1) - np.arange(2 * N - 1))
    if sym.geometric is not None:
        r = sym.geometric[1]
        return r ** np.arange(N - 1, -1, -1)[:, None], g[:1, None], r ** np.arange(N)[:, None]
    cols = np.flatnonzero(np.lib.stride_tricks.sliding_window_view(g, N).any(axis=1))
    eye = np.eye(N)
    return eye[:, N - 1 - cols[::-1]], g[cols[::-1, None] + cols], eye[:, cols]


@functools.lru_cache(maxsize=1)
def _marginal_stack(sym: Symbol, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The signs theta (2^N, N) and windows A(eps) = D(theta) T_N(g) + I
    (2^N, N, N) of every word, read-only, after checking that no word has
    mass 0.  They do not depend on the gap, so a run over gaps at one
    (sym, N) forms and checks them once; a failed check is not cached."""
    theta = 2.0 * measure.word_bits(N) - 1.0
    a = measure._signed_windows(sym, theta, np.arange(1, N + 1))
    if np.any(measure._log_probs(a) == -math.inf):
        raise ConditioningError("vanishing marginal in finite-window enumeration")
    theta.flags.writeable = a.flags.writeable = False
    return theta, a


def _coupling_stacks(sym: Symbol, ell: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """X(eps) = U* A(eps)^-1 D(theta) U M and Y(eps') = V^T A(eps')^-1 D(theta') conj(V) M*
    for every word, with A(eps) = D(theta) T_N(g) + I; two stacks of shape
    (2^N, r, r).  At r = 0 no solve is needed, but the marginals are still
    checked."""
    need = "finite-window search: need ell >= 1 and N >= 1"
    ell, N = require_int(ell, 1, None, need), require_int(N, 1, None, need)
    if N > FINITE_WINDOW_CAP:
        raise SizeCapError(f"finite-window size {N} exceeds cap {FINITE_WINDOW_CAP}")
    theta, a = _marginal_stack(sym, N)
    u, m, v = _coupling_factors(sym, ell, N)
    r = m.shape[1]
    if r == 0:
        empty = np.zeros((2 ** N, 0, 0), dtype=a.dtype)
        return empty, empty
    # U and V are real, so U* = U^T and conj(V) = V
    sol = np.linalg.solve(a, theta[:, :, None] * np.hstack([u @ m, v @ m.conj().T]))
    return u.T @ sol[:, :, :r], v.T @ sol[:, :, r:]


def _deviation_grid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|R - 1| for every pair, R[eps, eps'] = det(I - K), K = Y(eps') X(eps)."""
    words, r = x.shape[:2]
    # the joint determinant's sign is the sign of det(I - K) times the two
    # positive marginal signs, so the joint vanishes where Re(R) <= 0
    if r <= 2:
        # 1 - R = tr K - det K; tr(Y' X) is the dot product of X and Y'^T
        t = x.reshape(words, -1) @ y.transpose(0, 2, 1).reshape(words, -1).T
        if r == 2:
            t -= np.multiply.outer(np.linalg.det(x), np.linalg.det(y))
        if np.any(np.real(t) >= 1.0):
            raise ConditioningError("vanishing joint in finite-window enumeration")
        return np.abs(t)
    sign, logabs = np.linalg.slogdet(np.eye(r, dtype=x.dtype) - y[None, :] @ x[:, None])
    if np.any(np.real(sign) <= 0):
        raise ConditioningError("vanishing joint in finite-window enumeration")
    return np.abs(np.expm1(logabs))


def psi_finite_window(sym: Symbol, ell: int, N: int) -> FiniteWindowPsi:
    """Exhaustive max of |R - 1| over the 4^N word pairs, N <= FINITE_WINDOW_CAP."""
    x, y = _coupling_stacks(sym, ell, N)
    if x.shape[1] == 0:  # Lambda_g = 0: R = 1 for every pair, so the first pair is the argmax
        return FiniteWindowPsi(int(ell), int(N), 0.0, "0" * int(N), "0" * int(N))
    dev = _deviation_grid(x, y)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    words = measure.word_bits(N)
    return FiniteWindowPsi(
        int(ell), int(N), float(dev[i, j]), measure._word_str(words[i]), measure._word_str(words[j])
    )


def allones_lower_witness(sym: Symbol, ell: int, N: int) -> float:
    """1 - det(I - K) for the all-ones signed joint window [[A, B], [C, A]]
    (theta = +1, so A = T_N(g) + I), K = A^-1 C A^-1 B: the all-ones word's
    certified contribution to psi(ell) at window size N.  Formed as
    -expm1(sum log1p(-lambda_i)) over the eigenvalues of K, which lie in
    [0, 1], so it keeps its relative accuracy as the witness gets small."""
    need = "allones_lower_witness: need ell >= 1 and N >= 1"
    ell, N = require_int(ell, 1, None, need), require_int(N, 1, None, need)
    m = measure._signed_windows(sym, np.ones(2 * N), toeplitz.joint_index_set(N, ell))
    sol = np.linalg.solve(m[:N, :N], np.hstack([m[N:, :N], m[:N, N:]]))
    k = sol[:, :N] @ sol[:, N:]
    lam = np.minimum(np.linalg.eigvals(k).real, 1.0)
    return max(0.0, -math.expm1(np.log1p(-lam).sum()))
