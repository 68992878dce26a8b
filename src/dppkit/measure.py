"""Exact cylinder and joint-cylinder probabilities of the determinantal
measure induced by a symbol, correlation ratios, and the incremental
prefix factorization used by the enumeration and sampling layers.

Probability of the word eps (length N, signs theta = 2*eps - 1):

    mu([eps]) = det(D(2 eps - 1) T_N(f) + D(1 - eps))
              = 2^-N det(D(theta) T_N(g) + I),      g = 2f - 1.

Joint probability across a gap ell uses the same formula over the index
set {1..N} u {N+ell+1..N+ell+N}.  Words are exposed 0-based; by
stationarity the window anchor is irrelevant.

Every such determinant, det(D(theta) T_J(g) + I) over n = |J| bits, is
judged by ``_log_probs`` (the finite-window marginals of ``mixing`` too)
under one rule: an imaginary phase above IMAG_TOL raises ConditioningError
(the word is too improbable to resolve); a zero determinant, or a negative
one with log|det| < -200, is mass 0; any other negative determinant raises
NumericsError.  Otherwise log mu = log|det| - n log 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import toeplitz
from .errors import ConditioningError, NumericsError, SizeCapError
from .symbol import Symbol, g_coeff_fn

IMAG_TOL = 1e-10


def _parse_word(word) -> np.ndarray:
    if isinstance(word, str):
        if not word or any(ch not in "01" for ch in word):
            raise ValueError(f"cylinder word must be a non-empty 0/1 string, got {word!r}")
        return np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
    eps = np.asarray(word, dtype=np.int64)
    if eps.ndim != 1 or eps.size == 0 or np.any((eps != 0) & (eps != 1)):
        raise ValueError("cylinder word must be a non-empty 0/1 sequence")
    return eps.astype(np.uint8)


def _word_str(eps: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in eps)


def word_bits(N: int) -> np.ndarray:
    """(2^N, N) bits of every length-N word; row m holds bit k as (m >> k) & 1."""
    return (np.arange(2 ** N, dtype=np.int64)[:, None] >> np.arange(N)[None, :]) & 1


def _unresolved(position: int, log_mass: float, s_abs: float, residue: float) -> ConditioningError:
    """An imaginary residue above IMAG_TOL in a factor s (one extension
    factor, or a whole determinant): on a word this improbable the
    floating-point route has lost real accuracy too, so no number is given."""
    return ConditioningError(
        "prefix mass %.3g too small to resolve at position %d: |s| = %.3g, imaginary residue %.3g"
        % (math.exp(log_mass), position, s_abs, residue))


def _signed_windows(sym: Symbol, theta: np.ndarray, J: np.ndarray) -> np.ndarray:
    """D(theta) T_J(g) + I for each row of signs theta (shape (..., |J|))."""
    tg = toeplitz.build_T(g_coeff_fn(sym), J)
    return theta[..., None] * tg + np.eye(len(J), dtype=tg.dtype)


def _log_probs(mats: np.ndarray) -> np.ndarray:
    """log mu for a stack of det(D(theta) T_J(g) + I), under the module's one rule."""
    sign, logabs = np.linalg.slogdet(mats)
    n_bits = mats.shape[-1]
    out = logabs - n_bits * math.log(2.0)
    bad = np.nonzero(np.abs(np.imag(sign)) > IMAG_TOL)[0]
    if bad.size:
        i = bad[0]
        raise _unresolved(n_bits - 1, out[i], math.exp(logabs[i]), sign[i].imag)
    null = np.real(sign) <= 0  # zero, or negative
    if np.any(null & (logabs >= -200.0)):
        raise NumericsError("cylinder determinant is negative")
    out[null] = -math.inf
    return out


def cylinder_log_prob(sym: Symbol, word) -> float:
    """Natural log of mu([word])."""
    eps = _parse_word(word)
    theta = 2.0 * eps - 1.0
    mats = _signed_windows(sym, theta[None], np.arange(1, eps.size + 1))
    return float(_log_probs(mats)[0])


def cylinder_prob(sym: Symbol, word) -> float:
    """mu([word]) in [0, 1]."""
    return math.exp(cylinder_log_prob(sym, word))


def _joint_window(sym: Symbol, word, word_prime, gap_ell: int) -> np.ndarray:
    """The 2N x 2N signed joint window D(theta) T_J(g) + I of a word pair across a gap."""
    eps = _parse_word(word)
    eps_p = _parse_word(word_prime)
    if eps.size != eps_p.size:
        raise ValueError("joint cylinder words must have equal length")
    if gap_ell < 1:
        raise ValueError("gap ell must be >= 1")
    theta = np.concatenate([2.0 * eps - 1.0, 2.0 * eps_p - 1.0])
    return _signed_windows(sym, theta, toeplitz.joint_index_set(eps.size, gap_ell))


def joint_cylinder_log_prob(sym: Symbol, word, word_prime, gap_ell: int) -> float:
    """Natural log of mu([word] n shift^-(N+ell) [word_prime])."""
    return float(_log_probs(_joint_window(sym, word, word_prime, gap_ell)[None])[0])


@dataclass(frozen=True)
class RatioReport:
    """Correlation ratio R = joint / (p * p') for a pair of words across a gap.

    All of it is read off the signed joint window
    M = [[A(eps), B], [C, A(eps')]] = D(theta) T_J(g) + I: the marginals
    from the diagonal blocks, the joint from M itself, and
    H = A(eps')^-1 C A(eps)^-1 B, with R = det(I - H) by the Schur
    complement.  The direct ratio and det(I - H) must agree to 1e-8
    relative.  ``simon_bound`` = ||H||_1 exp(||H||_1 + 1) dominates |R - 1|.
    """

    ratio: float
    log_joint: float
    log_p_eps: float
    log_p_eps_prime: float
    h_trace_norm: float
    simon_bound: float


def correlation_ratio(sym: Symbol, word, word_prime, gap_ell: int) -> RatioReport:
    m = _joint_window(sym, word, word_prime, gap_ell)
    n = len(m) // 2
    a1, a2 = m[:n, :n], m[n:, n:]
    log_p, log_p2 = map(float, _log_probs(np.stack([a1, a2])))
    if not (math.isfinite(log_p) and math.isfinite(log_p2)):
        raise ConditioningError("marginal cylinder probability vanishes")
    log_joint = float(_log_probs(m[None])[0])
    ratio_direct = math.exp(log_joint - log_p - log_p2)

    try:
        h = np.linalg.solve(a2, m[n:, :n]) @ np.linalg.solve(a1, m[:n, n:])
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"degenerate symbol: {exc}") from exc
    logabs, phase = toeplitz.log_det(np.eye(n, dtype=h.dtype) - h)
    ratio_det = (math.exp(logabs) * phase).real if logabs > -math.inf else 0.0

    if abs(ratio_direct - ratio_det) > 1e-8 * max(1.0, abs(ratio_direct)):
        raise NumericsError(
            f"ratio routes disagree: direct {ratio_direct!r} vs det(I-H) {ratio_det!r}"
        )
    hnorm = toeplitz.trace_norm(h)
    return RatioReport(
        ratio=ratio_direct,
        log_joint=log_joint,
        log_p_eps=log_p,
        log_p_eps_prime=log_p2,
        h_trace_norm=hnorm,
        simon_bound=hnorm * math.exp(hnorm + 1.0),
    )


# -- incremental prefix factorization ---------------------------------------


class _GData:
    """Cached g-coefficients for prefix extension up to a maximal depth."""

    __slots__ = ("g0", "gpos", "gneg", "real")

    def __init__(self, sym: Symbol, max_len: int):
        ghat = g_coeff_fn(sym)
        ns = np.arange(max_len + 1)
        pos = ghat(ns)
        neg = ghat(-ns)
        self.real = sym.has_real_coeffs
        if self.real:
            pos = pos.real.copy()
            neg = neg.real.copy()
        self.g0 = pos[0]
        self.gpos = pos
        self.gneg = neg


class PrefixState:
    """State of one cylinder prefix, extended one bit at a time.

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
    def root(cls, sym: Symbol, max_len: int, window: int | None = None) -> "PrefixState":
        gd = _GData(sym, max_len + (window or 0) + 1)
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
                b = self.theta[-j:] * gd.gneg[j:0:-1]
                r = gd.gpos[j:0:-1]
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

    def extend(self, bit: int) -> "PrefixState":
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
        return PrefixState(
            self.gd, self.window, self.length + 1, theta, e,
            self.log_prob + math.log(s_real / 2.0),
        )


def conditional_next(sym: Symbol, word) -> float:
    """P(x_N = 1 | the first N bits equal word); word may be empty."""
    state = PrefixState.root(sym, (len(word) if word is not None else 0) + 1)
    if word is not None and len(word) > 0:
        for bit in _parse_word(word):
            state = state.extend(int(bit))
    return state.conditional_one()


def cylinder_log_probs_direct(sym: Symbol, N: int) -> np.ndarray:
    """log mu for all 2^N words of length N via batched determinants.

    Word index m encodes bit k as (m >> k) & 1 (bit 0 first).  Memory is
    O(2^N N^2); intended as an oracle and for CLI enumeration at small N.
    """
    if not (1 <= N <= 14):
        error = ValueError if N < 1 else SizeCapError
        raise error("cylinder_log_probs_direct: need 1 <= N <= 14")
    return _log_probs(_signed_windows(sym, 2.0 * word_bits(N) - 1.0, np.arange(1, N + 1)))
