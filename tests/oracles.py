"""Reference routes the tests compare the library against.

Each computes a quantity the library also computes, by a slower or more
literal route: the f-route window and coupling-block builders with the
correlation-ratio matrix H and the all-ones witness formed from them, the
direct cylinder determinant, moment sums from one batched determinant per
word, the parity coefficient of the Walsh tuple sum, the complement symbol
1 - f, the N x N P/Q route of the finite-window search with its per-pair
deviation and trace-norm grids, the closed-form Hilbert-Schmidt norm
of the coupling block, the eager prefix extension that forms every
child's inverse corner as soon as the child is created, the depth-first
moment-sum walk of the prefix tree, and the Szego upper
bound on the correlation dimension by scipy's bounded Brent search and by a
fine beta grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dppkit import dimension, measure, toeplitz
from dppkit.errors import ConditioningError, NumericsError, SizeCapError, SymbolSpecError, require_bits
from dppkit.measure import IMAG_TOL, _GData, _unresolved, cylinder_log_probs_direct
from dppkit.mixing import FINITE_WINDOW_CAP
from dppkit.symbol import Symbol, g_coeff_fn, require_range


def build_T_window(sym: Symbol, N: int) -> np.ndarray:
    """The N x N window [fhat(i - j)] over consecutive positions."""
    return toeplitz.build_T(sym.coeffs, np.arange(1, N + 1))


def build_lambda(sym: Symbol, N: int, ell: int) -> np.ndarray:
    """Coupling block of two length-N windows separated by a gap ell:
    entries fhat(i - j - N - ell) for 1-based i, j."""
    i = np.arange(1, N + 1)
    lam = sym.coeffs(np.subtract.outer(i, i + N + ell))
    return lam.real.copy() if np.all(lam.imag == 0.0) else lam


def ratio_h(sym: Symbol, word, word_prime, ell: int) -> np.ndarray:
    """H = [T + D(eps' - 1)]^-1 Lambda* [T + D(eps - 1)]^-1 Lambda, so that
    R(eps, eps') = det(I - H), from the f-route builders."""
    eps, eps_p = require_bits(word, "cylinder word"), require_bits(word_prime, "cylinder word")
    t = build_T_window(sym, eps.size)
    lam = build_lambda(sym, eps.size, ell)
    return np.linalg.solve(t + np.diag(eps_p - 1.0), lam.conj().T) @ np.linalg.solve(
        t + np.diag(eps - 1.0), lam)


def allones_witness(sym: Symbol, ell: int, N: int) -> float:
    """1 - det(I - K) with K = T^-1 Lambda* T^-1 Lambda, the all-ones H."""
    k = ratio_h(sym, "1" * N, "1" * N, ell)
    return 1.0 - float(np.linalg.det(np.eye(N) - k).real)


def cylinder_prob_direct(sym: Symbol, word) -> float:
    """mu([word]) from det(D(2 eps - 1) T_N(f) + D(1 - eps))."""
    require_range(sym)
    eps = require_bits(word, "cylinder word")
    t = build_T_window(sym, eps.size)
    val = np.linalg.det((2.0 * eps - 1.0)[:, None] * t + np.diag(1.0 - eps))
    if np.iscomplexobj(val):
        if abs(val.imag) > IMAG_TOL:
            raise NumericsError(f"cylinder determinant has imaginary part {val.imag!r}")
        val = val.real
    return float(val)


def s_n_q_direct(sym: Symbol, N: int, q: float) -> float:
    """log2 S_N^(q) via one batched determinant per word."""
    logs = cylinder_log_probs_direct(sym, N)
    finite = logs[logs > -math.inf]
    return float(np.log2(np.sum(np.exp(q * finite))))


def walsh_tuple_coefficient(masks: "list[int]", N: int) -> int:
    """1 iff every position appears an even number of times across the tuple."""
    for k in range(N):
        if sum((m >> k) & 1 for m in masks) % 2:
            return 0
    return 1


def complement(sym: Symbol) -> Symbol:
    """The symbol 1 - f (exact for families closed under complement, a
    trig_poly keeping every coefficient above 1e-18 otherwise)."""
    fam, p = sym.family, sym.params
    if fam == "constant":
        return Symbol.constant(1.0 - p["a"])
    if fam == "raised_cosine":
        return Symbol.raised_cosine(1.0 - p["a"], -p["b"])
    if fam == "trig_poly":
        tab = -sym.table.copy()
        tab[0] = 1.0 - sym.table[0]
        return Symbol.trig_poly(tab)
    if fam == "power_decay":
        return Symbol.power_decay(1.0 - p["a"], -p["c"], p["p"], p["cutoff"])
    tab = -sym.coeffs(np.arange(8193))
    keep = np.nonzero(np.abs(tab) > 1e-18)[0]
    if keep[-1] == tab.size - 1:
        raise SymbolSpecError(f"complement of {fam} symbol is not representable")
    tab = tab[: keep[-1] + 1]
    tab[0] = 1.0 - sym.fhat0
    return Symbol.trig_poly(tab)


def hs_norm_sq_lambda(sym: Symbol, N: int, ell: int) -> float:
    """Squared Frobenius norm of the coupling block, by the closed form
    sum_{k=1}^{N} k |fhat(ell+k)|^2 + sum_{k=N+1}^{2N-1} (2N-k) |fhat(ell+k)|^2."""
    k = np.arange(1, 2 * N)
    return float(np.sum(np.minimum(k, 2 * N - k) * np.abs(sym.coeffs(ell + k)) ** 2))


@dataclass(frozen=True)
class FiniteWindowDetails:
    """Per-pair grids of the exhaustive finite-window search; index m
    encodes bit k of the word as (m >> k) & 1."""

    deviation: np.ndarray      # (2^N, 2^N) |R - 1|, rows = eps, cols = eps'
    h_trace_norm: np.ndarray   # (2^N, 2^N) ||H||_1, H = Q(eps') P(eps)
    hs_norm_sq: float          # ||Lambda||_HS^2


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


def finite_window_details(sym: Symbol, ell: int, N: int) -> FiniteWindowDetails:
    """Deviation and trace-norm grids for every word pair at window N, gap ell."""
    p, q = _coupling_stacks(sym, ell, N)
    dev = np.abs(np.expm1(_log_ratio_grid(p, q)))
    hnorm = np.linalg.svd(q[None, :] @ p[:, None], compute_uv=False).sum(axis=-1)
    return FiniteWindowDetails(dev, hnorm, hs_norm_sq_lambda(sym, N, ell))


class EagerPrefixState:
    """The eager prefix extension: each ``extend`` forms the child's corner
    and theta at once.  The library's lazy ``PrefixState`` must match it
    bit for bit.  It is also the matrix route for the poisson and
    bandwidth <= 1 symbols whose ``PrefixState`` is one number: this class
    never takes that route.

    State of one cylinder prefix, extended one bit at a time.

    Maintains the trailing ``window`` x ``window`` corner of the inverse of
    D(theta) T_k(g) + I (the full inverse when window is None), which is all
    the next conditional probability needs.  Extension costs O(window^2).
    The corner recursion is exact when the symbol bandwidth fits inside the
    window; a finite window on a non-band-limited symbol truncates
    coefficients beyond it.
    """

    __slots__ = ("gd", "window", "length", "theta", "corner", "log_prob", "_ext")

    def __init__(self, gd: _GData, window, length, theta, corner, log_prob):
        self.gd = gd
        self.window = window
        self.length = length
        self.theta = theta
        self.corner = corner
        self.log_prob = log_prob
        self._ext = None

    @classmethod
    def root(cls, sym: Symbol, *, window: int | None = None) -> "EagerPrefixState":
        gd = _GData(sym)
        dtype = np.float64 if gd.real else np.complex128
        empty = np.zeros(0, dtype=dtype)
        return cls(gd, window, 0, empty, np.zeros((0, 0), dtype=dtype), 0.0)

    def _extension(self):
        """(u, w, alpha) for appending position length+1."""
        if self._ext is None:
            gd, k = self.gd, self.length
            j = self.corner.shape[0]
            if j == 0:
                dtype = self.corner.dtype
                self._ext = (np.zeros(0, dtype=dtype), np.zeros(0, dtype=dtype), gd.g0)
            else:
                # corner covers rows/cols k-j+1..k; new column entries are
                # theta_i * ghat(i - (k+1)), new row entries ghat(k+1 - j')
                gneg, r = gd.reversed_rows(j)
                b = self.theta[-j:] * gneg
                u = self.corner @ b
                w = r @ self.corner
                self._ext = (u, w, gd.g0 - r @ u)
        return self._ext

    def conditional_one(self) -> float:
        """P(next bit = 1 | prefix)."""
        _, _, alpha = self._extension()
        if not self.gd.real:
            if abs(alpha.imag) > IMAG_TOL:
                raise _unresolved(self.length, self.log_prob, abs(1.0 + alpha), alpha.imag)
            alpha = alpha.real
        p1 = 0.5 * (1.0 + alpha)
        if p1 < -1e-9 or p1 > 1.0 + 1e-9:
            raise ConditioningError(
                f"conditional probability {p1!r} out of range at position {self.length}"
            )
        return min(max(p1, 0.0), 1.0)

    def extend(self, bit: int) -> "EagerPrefixState":
        u, w, alpha = self._extension()
        tp = 2.0 * bit - 1.0
        s = 1.0 + tp * alpha
        if self.gd.real:
            s_real = s
        else:
            if abs(s.imag) > IMAG_TOL:
                raise _unresolved(self.length, self.log_prob, abs(s), s.imag)
            s_real = s.real
        if s_real <= 0.0:
            raise ConditioningError(
                f"prefix probability vanishes extending with bit {bit} at position {self.length}"
            )
        j = self.corner.shape[0]
        e = np.empty((j + 1, j + 1), dtype=self.corner.dtype)
        if j:
            np.multiply.outer(u, w, out=e[:j, :j])
            e[:j, :j] *= tp / s
            e[:j, :j] += self.corner
            e[:j, j] = -u / s
            e[j, :j] = -(tp / s) * w
        e[j, j] = 1.0 / s
        if self.window is not None and j + 1 > self.window:
            e = np.ascontiguousarray(e[1:, 1:])
        theta = np.append(self.theta, tp)
        if self.window is not None and theta.size > self.window:
            theta = theta[theta.size - self.window:]
        return EagerPrefixState(
            self.gd, self.window, self.length + 1, theta, e,
            self.log_prob + math.log(s_real / 2.0),
        )


def _dfs_accumulate(state, n_max: int, qs: tuple, sums: np.ndarray, comp: np.ndarray) -> None:
    """Add exp(q * log mu) for every descendant prefix and every q in qs,
    Kahan-compensated per level."""
    for bit in (0, 1):
        child = state.extend(bit)
        level = child.length - 1
        for i, q in enumerate(qs):
            term = math.exp(q * child.log_prob)
            y = term - comp[i, level]
            t = sums[i, level] + y
            comp[i, level] = (t - sums[i, level]) - y
            sums[i, level] = t
        if child.length < n_max:
            _dfs_accumulate(child, n_max, qs, sums, comp)


def s_n_q_table_dfs(sym: Symbol, n_max: int, q, route=EagerPrefixState,
                    window: int | None = None) -> np.ndarray:
    """log2 S_N^(q) for N = 1..n_max by a depth-first walk of the prefix
    tree of ``route`` states rooted at ``window`` (None: the full state):
    every level's terms in lexicographic order, each level Kahan-summed, as
    the level-order walk must sum them.  The library walks at window =
    bandwidth.  A tuple of q gives one row per q from the one walk."""
    qs = q if isinstance(q, tuple) else (q,)
    sums = np.zeros((len(qs), n_max))
    comp = np.zeros((len(qs), n_max))
    _dfs_accumulate(route.root(sym, window=window), n_max, qs, sums, comp)
    out = np.log2(sums)
    return out if isinstance(q, tuple) else out[0]


def corr_dim_szego_upper_brent(sym: Symbol) -> float:
    """The Szego upper bound from the 41-point beta grid refined by scipy's
    bounded Brent search on the +-0.1 bracket around its best point, to
    xatol = 1e-10."""
    from scipy.optimize import minimize_scalar

    g = dimension._g_on_szego_grid(sym)

    def objective(beta: float) -> float:
        val, clamped = dimension._upper_bound_at_beta(g, beta)
        return math.inf if clamped else val

    best, best_beta = 1.0, 0.0
    for beta in np.linspace(-1.0, 1.0, 41):
        val = objective(float(beta))
        if val < best:
            best, best_beta = val, float(beta)
    bracket = (max(-1.0, best_beta - 0.1), min(1.0, best_beta + 0.1))
    res = minimize_scalar(objective, bounds=bracket, method="bounded", options={"xatol": 1e-10})
    return min(best, float(res.fun))


def corr_dim_szego_upper_grid(sym: Symbol, points: int) -> float:
    """The smallest unclamped Szego upper bound over an even beta grid on [-1, 1]."""
    g = dimension._g_on_szego_grid(sym)
    vals = [dimension._upper_bound_at_beta(g, float(b)) for b in np.linspace(-1.0, 1.0, points)]
    return min(val for val, clamped in vals if not clamped)
