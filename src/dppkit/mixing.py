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

Lambda = Lambda_g is factored exactly as U M V^T with the smallest inner
size r the symbol gives: r = 1 for a non-degenerate poisson (geometric
coefficients), the nonzero rows and columns of Lambda otherwise (r =
max(0, B - ell) for bandwidth B, r = N with U = V = I for a full block).
Sylvester's identity det(I - AB) = det(I - BA) then gives

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
    return PsiBoundReport(int(ell), lower, upper, tau, t, approx)


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


def _coupling_factors(sym: Symbol, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real U and V (N x r) and M (r x r), with lam = Lambda_g = U M V^T.

    A non-degenerate poisson has lam[i, j] = ghat(ell + 1) r^(N-1-i) r^j, so
    M is the corner entry ghat(ell + 1) and every entry of U and V is at most
    1 in modulus.  Any other symbol keeps the nonzero rows and columns of lam
    (exact zeros of the coefficient lookup), so U and V are columns of I.
    Row N-1-k and column k of the Toeplitz block lam hold the same entries
    ghat(-(ell+1+k)) .. ghat(-(ell+N+k)), so the nonzero rows mirror the
    nonzero columns and M is square."""
    N = lam.shape[0]
    if sym.family == "poisson" and sym.bandwidth is None:
        r = sym.params["r"]
        return r ** np.arange(N - 1, -1, -1)[:, None], lam[N - 1:, :1], r ** np.arange(N)[:, None]
    rows = np.flatnonzero(np.any(lam != 0, axis=1))
    cols = np.flatnonzero(np.any(lam != 0, axis=0))
    if not np.array_equal(rows, N - 1 - cols[::-1]):
        raise NumericsError("coupling block rows and columns do not mirror")
    eye = np.eye(N)
    return eye[:, rows], lam[np.ix_(rows, cols)], eye[:, cols]


def _coupling_stacks(sym: Symbol, ell: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """X(eps) = U* A(eps)^-1 D(theta) U M and Y(eps') = V^T A(eps')^-1 D(theta') conj(V) M*
    for every word, with A(eps) = D(theta) T_N(g) + I; two stacks of shape
    (2^N, r, r).  At r = 0 no solve is needed, but the marginals are still
    checked."""
    if ell < 1 or N < 1:
        raise ValueError("finite-window search: need ell >= 1 and N >= 1")
    if N > FINITE_WINDOW_CAP:
        raise SizeCapError(f"finite-window size {N} exceeds cap {FINITE_WINDOW_CAP}")
    base = toeplitz.build_T(g_coeff_fn(sym), toeplitz.joint_index_set(N, ell))
    theta = 2.0 * measure.word_bits(N) - 1.0
    a = theta[:, :, None] * base[:N, :N] + np.eye(N, dtype=base.dtype)
    if np.any(measure._log_probs(a) == -math.inf):
        raise NumericsError("vanishing marginal in finite-window enumeration")
    u, m, v = _coupling_factors(sym, base[:N, N:])
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
            raise NumericsError("vanishing joint in finite-window enumeration")
        return np.abs(t)
    sign, logabs = np.linalg.slogdet(np.eye(r, dtype=x.dtype) - y[None, :] @ x[:, None])
    if np.any(np.real(sign) <= 0):
        raise NumericsError("vanishing joint in finite-window enumeration")
    return np.abs(np.expm1(logabs))


def psi_finite_window(sym: Symbol, ell: int, N: int) -> FiniteWindowPsi:
    """Exhaustive max of |R - 1| over the 4^N word pairs, N <= FINITE_WINDOW_CAP."""
    dev = _deviation_grid(*_coupling_stacks(sym, ell, N))
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
    if ell < 1 or N < 1:
        raise ValueError("allones_lower_witness: need ell >= 1 and N >= 1")
    m = measure._signed_windows(sym, np.ones(2 * N), toeplitz.joint_index_set(N, ell))
    sol = np.linalg.solve(m[:N, :N], np.hstack([m[N:, :N], m[:N, N:]]))
    k = sol[:, :N] @ sol[:, N:]
    lam = np.minimum(np.linalg.eigvals(k).real, 1.0)
    return max(0.0, -math.expm1(np.log1p(-lam).sum()))
