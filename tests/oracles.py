"""Reference routes the tests compare the library against.

Each computes a quantity the library also computes, by a slower or more
literal route: the f-route window and coupling-block builders with the
correlation-ratio matrix H and the all-ones witness formed from them, the
direct cylinder determinant, and at 60 digits for poisson, the joint cylinder probability from the signed
joint window alone, the next-bit conditional by a walk of the eager
inverse-corner route,
the sampler's Schur chain step that slices its buffer on every bit, moment
sums from one batched determinant per word and at 50 digits from a Schur
tree walk, the parity coefficient of the Walsh tuple sum, the complement
symbol 1 - f, the N x N P/Q route of the finite-window search with its
per-pair deviation and trace-norm grids, the closed-form Hilbert-Schmidt norm
of the coupling block, the eager prefix extension that forms every child's
inverse corner, or its Schur block, as soon as the child is created, the
depth-first moment-sum walk of the prefix tree, the Szego upper bound on
the correlation dimension by scipy's bounded Brent search and by a fine
beta grid, the chi-square fit of sampled word frequencies against the exact
cylinder probabilities, the longest common substring by a suffix automaton,
and the correlation dimension of poisson(0.75, 0.125) from its transfer
operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from dppkit import dimension, measure, toeplitz
from dppkit.errors import (ConditioningError, NumericsError, SizeCapError, SymbolSpecError, require_bits,
                           require_int)
from dppkit.measure import IMAG_TOL, _GData, _joint_window, _log_probs, _unresolved, cylinder_log_probs_direct
from dppkit.mixing import FINITE_WINDOW_CAP
from dppkit.sampler import sample_prefix
from dppkit.symbol import Symbol, g_coeff_fn, require_range

# D2 of poisson(0.75, 0.125): -log2 of the spectral radius of the one-number
# state's transfer operator (L phi)(x) = sum over tp = +-1 of
# (s(x, tp) / 2)^2 phi(T_tp(x)), by Chebyshev collocation on 16 nodes, which
# agrees to 12 digits with 8 and 32 nodes (ROADMAP direction 4)
POISSON_D2 = 0.692960209233
# the i.i.d. constant(a) with the same D2, -log2(a^2 + (1 - a)^2)
POISSON_D2_CONTROL_A = 0.7434987681349194


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


def joint_cylinder_log_prob(sym: Symbol, word, word_prime, gap_ell: int) -> float:
    """Natural log of mu([word] n shift^-(N+ell) [word_prime])."""
    return float(_log_probs(_joint_window(sym, word, word_prime, gap_ell)[None])[0])


def conditional_next(sym: Symbol, word) -> float:
    """P(x_N = 1 | the first N bits equal word); word may be empty.  The
    eager corner route walks it at a window as wide as the bandwidth, which
    is exact."""
    state = EagerPrefixState.root(sym, window=sym.bandwidth)
    if word is not None and len(word) > 0:
        for bit in require_bits(word, "cylinder word"):
            state = state.extend(int(bit))
    return state.conditional_one()


def conditional_alphas_mp(sym: Symbol, bits, dps: int = 40) -> list:
    """alpha_k = g0 - T_kK (T_KK + D(theta_K))^-1 T_Kk for k = 0 .. len(bits) - 1,
    where K = 0 .. k - 1 holds the bits before k, so that
    P(bit k = 1 | bits 0 .. k - 1) = (1 + alpha_k) / 2.  The inverse is
    bordered one position at a time at ``dps`` digits, from the double
    coefficients ghat(i - j) taken as exact, with no window: the sampler
    matches it where its window covers the bandwidth."""
    n = len(bits)
    ghat = g_coeff_fn(sym)(np.arange(-n, n + 1)).tolist()  # ghat(d) at n + d
    alphas, inv = [], []  # inv: rows of (T_KK + D(theta_K))^-1
    with mpmath.workdps(dps):
        g = [mpmath.mpmathify(v) for v in ghat]
        for k in range(n):
            col = [g[n + i - k] for i in range(k)]
            row = [g[n + k - j] for j in range(k)]
            u = [mpmath.fdot(line, col) for line in inv]
            w = [mpmath.fdot(row, column) for column in zip(*inv)]
            alpha = g[n] - mpmath.fdot(row, u)
            alphas.append(alpha)
            sigma = alpha + (1 if bits[k] else -1)  # the Schur complement of T_KK + D(theta_K)
            us = [x / sigma for x in u]
            inv = [[a + ui * wj for a, wj in zip(line, w)] + [-ui]
                   for ui, line in zip(us, inv)] + [[-x / sigma for x in w] + [1 / sigma]]
    return alphas


def sliced_schur_step(chain: measure._SchurChain, tp: float, s) -> None:
    """``measure._SchurChain.step`` as it was before a moving buffer formed
    its rows' views once: it slices the stored columns, their first column,
    d, the target row and g from the buffer again on every bit."""
    rows, d, reach, row = chain.rows, chain.d, chain.reach, chain.row
    left = chain.left = chain.left - 1  # positions still to draw
    if not left:
        return
    d[row] = tp / s
    row += 1
    if row == len(rows):  # no row left for c_k
        rows[:reach] = rows[row - reach:]
        d[:reach] = d[row - reach:]
        row = reach
    lo, cols = max(row - reach, 0), min(reach + 1, left)
    a = chain.skew[lo:row, row:row + cols]  # the columns that reach k, over positions k ..
    v = d[lo:row] * a[:, 0].conj()
    c = rows[row, :cols]
    np.subtract(chain.g[:cols], v @ a, out=c)
    chain.row = row
    chain.alphas[0] = c.item(0)


def s_n_q_direct(sym: Symbol, N: int, q: float) -> float:
    """log2 S_N^(q) via one batched determinant per word."""
    logs = cylinder_log_probs_direct(sym, N)
    finite = logs[logs > -math.inf]
    return float(np.log2(np.sum(np.exp(q * finite))))


def s_n_q_mp(sym: Symbol, n_max: int, q, dps: int = 50) -> list:
    """log2 S_N^(q) for N = 1..n_max at ``dps`` digits, from the double
    coefficients ghat taken as exact: the prefix tree walked level by level
    on the Schur complement of each prefix in every position still to draw
    (no window), each mu the product of its factors s / 2."""
    ghat = g_coeff_fn(sym)(np.arange(-n_max, n_max + 1)).tolist()  # ghat(d) at n_max + d
    out = []
    with mpmath.workdps(dps):
        g = [mpmath.mpmathify(v) for v in ghat]
        q = mpmath.mpmathify(q)
        level = [(mpmath.mpf(1), [[g[n_max + i - j] for j in range(n_max)] for i in range(n_max)])]
        for n in range(1, n_max + 1):
            total, children = mpmath.mpf(0), []
            for mass, z in level:
                for tp in (-1, 1):
                    s = mpmath.re(1 + tp * z[0][0])
                    if s <= 0:
                        raise ValueError("a word of mass 0")
                    total += (mass * s / 2) ** q
                    if n < n_max:
                        d = tp / s
                        children.append((mass * s / 2, [[z[i][j] - d * z[i][0] * z[0][j]
                                                         for j in range(1, len(z))] for i in range(1, len(z))]))
            out.append(mpmath.log(total, 2))
            level = children
    return out


def _f_form_mu_mp(f, word, rows):
    """det(D(2 eps - 1) T(f) + D(1 - eps)) over the positions ``rows`` of
    the mp coefficient grid f[i][j] = fhat(J_i - J_j)."""
    m = mpmath.matrix(len(rows), len(rows))
    for a, (i, e) in enumerate(zip(rows, word)):
        for b, j in enumerate(rows):
            m[a, b] = (2 * e - 1) * f[i][j] + (1 - e if a == b else 0)
    return mpmath.re(mpmath.det(m))


def cylinder_log_probs_mp(c: float, r: float, N: int, dps: int = 60) -> list:
    """log mu of every length-N word of poisson(c, r), in ``word_bits``
    order, from the f-form windows at ``dps`` digits, with the exact
    coefficients fhat(n) = c r^|n| of the double c and r."""
    with mpmath.workdps(dps):
        c, r = mpmath.mpmathify(c), mpmath.mpmathify(r)
        f = [[c * r ** abs(i - j) for j in range(N)] for i in range(N)]
        return [mpmath.log(_f_form_mu_mp(f, word, range(N))) for word in measure.word_bits(N).tolist()]


def psi_finite_window_mp(sym: Symbol, ell: int, N: int, dps: int = 50) -> float:
    """psi_N(ell) = max over word pairs of |R - 1|, R = mu[eps, gap, eps'] /
    (mu[eps] mu[eps']), from determinants of the f-form windows
    det(D(2 eps - 1) T_J(f) + D(1 - eps)) at ``dps`` digits, the double
    coefficients fhat taken as exact."""
    J = toeplitz.joint_index_set(N, ell)
    fhat = sym.coeffs(np.subtract.outer(J, J)).tolist()
    bits = measure.word_bits(N).tolist()
    with mpmath.workdps(dps):
        f = [[mpmath.mpmathify(v) for v in row] for row in fhat]
        inner, outer = list(range(N)), list(range(N, 2 * N))
        marginal = [_f_form_mu_mp(f, word, inner) for word in bits]
        worst = mpmath.mpf(0)
        for eps, p in zip(bits, marginal):
            for eps_p, p_p in zip(bits, marginal):
                worst = max(worst, abs(_f_form_mu_mp(f, eps + eps_p, inner + outer) / (p * p_p) - 1))
        return float(worst)


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
        raise ConditioningError("vanishing marginal in finite-window enumeration")
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
            raise ConditioningError("vanishing joint in finite-window enumeration")
    return out


def finite_window_details(sym: Symbol, ell: int, N: int) -> FiniteWindowDetails:
    """Deviation and trace-norm grids for every word pair at window N, gap ell."""
    p, q = _coupling_stacks(sym, ell, N)
    dev = np.abs(np.expm1(_log_ratio_grid(p, q)))
    hnorm = np.linalg.svd(q[None, :] @ p[:, None], compute_uv=False).sum(axis=-1)
    return FiniteWindowDetails(dev, hnorm, hs_norm_sq_lambda(sym, N, ell))


class EagerPrefixState:
    """The eager inverse-corner route: each ``extend`` forms the child's
    corner and theta at once.  It is the tests' reference for the library's
    other eliminations: the sampler's Schur chain draws its bits, and the
    one-number states of the poisson and bandwidth <= 1 symbols match it
    (bit for bit at bandwidth <= 1).  This class never takes the one-number
    route.

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
                # as reversed views: numpy's matmul rounds a complex product of
                # negatively strided rows unlike one of contiguous rows, and
                # the tests pin a residue of this route
                ns = np.arange(1, j + 1)
                gneg, r = gd.ghat(-ns)[::-1], gd.ghat(ns)[::-1]
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
                f"conditional probability {float(p1)!r} out of range at position {self.length}"
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


class EagerSchurState:
    """The eager Schur route of the moment-sum walk: each ``extend`` forms
    the child's Schur block at once, one prefix at a time, by the rule that
    the library's ``measure._SchurBlocks`` applies to a whole level.

    The block is the Schur complement of the drawn positions 0 .. k - 1 in
    the positions k .. min(k + window, n_max - 1) still to draw within
    reach (every one up to n_max - 1 at window None).  alpha is its pivot,
    and extend checks the extension factor s as ``PrefixState.extend``
    does.  The child's block is Z[1:, 1:] - (tp / Re s) Z[1:, 0] Z[0, 1:],
    with the row, column and diagonal of a position that comes into reach
    read from the coefficients: no drawn position reaches it.  On real
    symbols the library matches it byte for byte.  On complex ones numpy
    may round a product of one prefix's block (its scalar loop) unlike one
    of a stack (its SIMD loop, with a fused multiply-add), so the moment
    sums agree within a few ulps.
    """

    __slots__ = ("ghat", "reach", "n_max", "length", "block", "log_prob")

    @classmethod
    def root(cls, sym: Symbol, *, window: int | None = None, n_max: int) -> "EagerSchurState":
        state = cls()
        state.ghat = g_coeff_fn(sym)
        state.reach = n_max - 1 if window is None else min(window, n_max - 1)
        state.n_max, state.length, state.log_prob = n_max, 0, 0.0
        state.block = toeplitz.build_T(state.ghat, np.arange(state.reach + 1))
        return state

    def conditional_one(self) -> float:
        """P(next bit = 1 | prefix), unclamped."""
        alpha = self.block[0, 0].item()
        if abs(alpha.imag) > IMAG_TOL:
            raise _unresolved(self.length, self.log_prob, abs(1.0 + alpha), alpha.imag)
        return 0.5 * (1.0 + alpha.real)

    def extend(self, bit: int) -> "EagerSchurState":
        z = self.block
        tp = 2.0 * bit - 1.0
        s = 1.0 + tp * z[0, 0].item()
        if abs(s.imag) > IMAG_TOL:
            raise _unresolved(self.length, self.log_prob, abs(s), s.imag)
        s = s.real
        if s <= 0.0:
            raise ConditioningError(
                f"prefix probability vanishes extending with bit {bit} at position {self.length}"
            )
        child = EagerSchurState()
        child.ghat, child.reach, child.n_max = self.ghat, self.reach, self.n_max
        child.length, child.log_prob = self.length + 1, self.log_prob + math.log(s / 2.0)
        m = min(self.reach + 1, self.n_max - child.length)
        j = z.shape[0] - 1
        block = np.empty((m, m), dtype=z.dtype)
        if j:
            block[:j, :j] = z[1:, 1:] - (tp / s) * np.multiply.outer(z[1:, 0], z[0, 1:])
        if m > j:
            block[j] = self.ghat(np.arange(j, -1, -1))
            block[:j, j] = self.ghat(np.arange(-j, 0))
        child.block = block
        return child


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
    the level-order walk must sum them.  The library walks the Schur route
    (``EagerSchurState``) at window = bandwidth.  A tuple of q gives one row
    per q from the one walk."""
    qs = q if isinstance(q, tuple) else (q,)
    sums = np.zeros((len(qs), n_max))
    comp = np.zeros((len(qs), n_max))
    root = (route.root(sym, window=window, n_max=n_max) if route is EagerSchurState
            else route.root(sym, window=window))
    _dfs_accumulate(root, n_max, qs, sums, comp)
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


@dataclass(frozen=True)
class CylinderFitReport:
    """Chi-square goodness of fit of sampled word frequencies against the
    exact cylinder probabilities of ``model`` (the sampling symbol itself
    unless a deliberate mismatch is being tested)."""

    word_len: int
    n_samples: int
    statistic: float
    dof: int
    p_value: float
    counts: np.ndarray
    expected: np.ndarray


def empirical_cylinder_test(sym: Symbol, word_len: int, n_samples: int, seed: int,
                            model: Symbol | None = None) -> CylinderFitReport:
    """Sample one trajectory, split it into disjoint length-``word_len``
    windows, and chi-square the window histogram against exact probabilities.

    Disjoint windows of a fast-mixing process are close enough to independent
    for the test sizes used here; fixed seeds make the check reproducible.
    """
    from scipy.stats import chi2

    word_len = require_int(word_len, 1, 6, "empirical_cylinder_test: need 1 <= word_len <= 6")
    n_samples = require_int(n_samples, 100, None, "empirical_cylinder_test: need n_samples >= 100")
    model = sym if model is None else model
    traj = sample_prefix(sym, word_len * n_samples, seed)
    windows = traj.bits.reshape(n_samples, word_len)
    codes = windows @ (1 << np.arange(word_len))
    counts = np.bincount(codes, minlength=2 ** word_len).astype(float)
    expected = np.exp(cylinder_log_probs_direct(model, word_len)) * n_samples
    if np.any(expected < 5.0):
        raise ConditioningError("expected cell counts below 5; increase n_samples")
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    dof = 2 ** word_len - 1
    return CylinderFitReport(word_len, n_samples, statistic, dof, float(chi2.sf(statistic, dof)),
                             counts, expected)


def lcs_automaton(xs: list[int], ys: list[int]) -> int:
    """Longest common substring by a suffix automaton of xs scanned with ys."""
    # suffix automaton of xs over the binary alphabet
    sa_len = [0]
    sa_link = [-1]
    sa_next = [[-1, -1]]
    last = 0
    for ch in xs:
        cur = len(sa_len)
        sa_len.append(sa_len[last] + 1)
        sa_link.append(-1)
        sa_next.append([-1, -1])
        p = last
        while p != -1 and sa_next[p][ch] == -1:
            sa_next[p][ch] = cur
            p = sa_link[p]
        if p == -1:
            sa_link[cur] = 0
        else:
            q = sa_next[p][ch]
            if sa_len[p] + 1 == sa_len[q]:
                sa_link[cur] = q
            else:
                clone = len(sa_len)
                sa_len.append(sa_len[p] + 1)
                sa_link.append(sa_link[q])
                sa_next.append(sa_next[q].copy())
                while p != -1 and sa_next[p][ch] == q:
                    sa_next[p][ch] = clone
                    p = sa_link[p]
                sa_link[q] = clone
                sa_link[cur] = clone
        last = cur

    # scan ys, tracking the longest suffix of the scanned part that occurs in xs
    v = 0
    length = 0
    best = 0
    for ch in ys:
        while v and sa_next[v][ch] == -1:
            v = sa_link[v]
            length = sa_len[v]
        if sa_next[v][ch] != -1:
            v = sa_next[v][ch]
            length += 1
            if length > best:
                best = length
        else:
            v = 0
            length = 0
    return best
