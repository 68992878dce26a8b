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
from .errors import ConditioningError, NumericsError, require_bits, require_int
from .symbol import Symbol, g_coeff_fn

IMAG_TOL = 1e-10
# at least the bytes of the rows a windowed Schur chain spares between two
# moves of its buffer (``_SchurChain``)
CHUNK_BYTES = 32 * 1024
# a PrefixState with no slot set; ``_root`` and ``extend`` store the slots one
# by one, which costs ``extend`` less than half of a keyword constructor call
_new_state = object.__new__


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
    """D(theta) T_J(g) + I for each row of signs theta (shape (..., |J|)),
    its diagonal 1 + theta g0 read from f as 2 fhat(0) or 2 (1 - fhat(0)):
    g0 = 2 fhat(0) - 1 is rounded, and 1 + theta g0 cancels near fhat(0) = 0 or 1."""
    mats = theta[..., None] * toeplitz.build_T(g_coeff_fn(sym), J)
    f0 = sym.fhat0
    np.einsum("...ii->...i", mats)[...] = np.where(theta > 0.0, 2.0 * f0, 2.0 * (1.0 - f0))
    return mats


def _log_probs(mats: np.ndarray) -> np.ndarray:
    """log mu for a stack of det(D(theta) T_J(g) + I), under the module's one rule."""
    with np.errstate(divide="ignore"):  # a zero determinant is mass 0 below, not a warning
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
    eps = require_bits(word, "cylinder word")
    theta = 2.0 * eps - 1.0
    mats = _signed_windows(sym, theta[None], np.arange(1, eps.size + 1))
    return float(_log_probs(mats)[0])


def cylinder_prob(sym: Symbol, word) -> float:
    """mu([word]) in [0, 1]."""
    return math.exp(cylinder_log_prob(sym, word))


def _joint_window(sym: Symbol, word, word_prime, gap_ell: int) -> np.ndarray:
    """The 2N x 2N signed joint window D(theta) T_J(g) + I of a word pair across a gap."""
    eps = require_bits(word, "cylinder word")
    eps_p = require_bits(word_prime, "cylinder word")
    if eps.size != eps_p.size:
        raise ValueError("joint cylinder words must have equal length")
    gap_ell = require_int(gap_ell, 1, None, "gap ell must be >= 1")
    theta = np.concatenate([2.0 * eps - 1.0, 2.0 * eps_p - 1.0])
    return _signed_windows(sym, theta, toeplitz.joint_index_set(eps.size, gap_ell))


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
        sol = np.linalg.solve(np.stack([a2, a1]), np.stack([m[n:, :n], m[:n, n:]]))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"degenerate symbol: {exc}") from exc
    h = sol[0] @ sol[1]
    logabs, phase = toeplitz.log_det(np.eye(n, dtype=h.dtype) - h)
    ratio_det = (math.exp(logabs) * phase).real

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


def _one_number(sym: Symbol, window: int | None) -> bool:
    """Whether the prefix state of ``sym`` is one number: for a geometric
    (non-degenerate poisson) symbol at window None, and for one of bandwidth
    <= 1 at window None or one that covers the bandwidth."""
    if sym.geometric is not None:
        return window is None
    bw = sym.bandwidth
    return bw is not None and bw <= 1 and (window is None or window >= bw)


class _GData:
    """Cached g-coefficients for prefix extension.

    ``ghat`` reads them (``g_coeff_fn``); ``g0`` = ghat(0) and the constants
    of the one-number recursion (see ``PrefixState``): ``kx`` with alpha =
    g0 - kx x, ``gm1`` = ghat(-1), and for a geometric symbol ``c2`` = 2c and
    ``r2`` = r^2 (``c2`` is None otherwise).
    """

    __slots__ = ("ghat", "g0", "real", "kx", "c2", "r2", "gm1")

    def __init__(self, sym: Symbol):
        ghat = self.ghat = g_coeff_fn(sym)
        self.real = sym.has_real_coeffs
        self.gm1, self.g0, self.kx = ghat(np.arange(-1, 2)).tolist()
        self.c2 = self.r2 = None
        if sym.geometric is not None:
            c, r = sym.geometric
            self.kx, self.c2, self.r2 = 4.0 * c * c, 2.0 * c, r * r


class _SchurBlocks:
    """The moment-sum walk's matrix states (``_moment_root``): the n
    prefixes of one length k as one (n, m, m) stack of the Schur complements

        Z = T_F(g) - T_FK (T_KK + D(theta_K))^-1 T_KF

    of each prefix's drawn positions K = 0 .. k - 1 in the positions F it
    has still to draw within reach, k .. min(k + window, n_max - 1) (every
    one up to n_max - 1 at window None), so m = min(window + 1, n_max - k).
    A row's alpha is its pivot Z[0, 0].  Z is Hermitian, so the pivots are
    real: ``extension`` checks their imaginary residues against IMAG_TOL
    once and hands ``PrefixState.extend`` real alphas, keeping the complex
    value only on a row whose residue passes it, where ``extend`` raises.

    A stack appends each child of a row to its ``pending`` child stack,
    which keeps the parent's blocks (``source``) until it forms its own, on
    first use, all at once.  Each child's block
    is one subtract, Z[1:, 1:] - (tp/s) Z[1:, 0] Z[0, 1:], with the outer
    product formed once per parent row for all of its children.  At a
    finite window a position comes into reach at each step while one is
    left: no drawn position reaches it, so its row ghat(m - 1) .. ghat(1),
    column ghat(1 - m) .. ghat(-1) and diagonal g0 are constant, and are
    written in.  ``edge`` = (reach, row, column) is shared by every level of
    a walk and sizes its blocks (``dimension._stack_rows``).
    """

    __slots__ = ("edge", "left", "source", "kids", "block", "alphas", "pending")

    def __init__(self, edge: tuple, left: int, block=None, source=None):
        self.edge, self.left, self.block, self.source = edge, left, block, source
        self.kids, self.alphas, self.pending = [], None, None

    @classmethod
    def root(cls, gd: _GData, reach: int, n_max: int) -> "_SchurBlocks":
        """The empty prefix of a walk to n_max bits: T_F(g) itself."""
        top = toeplitz.build_T(gd.ghat, np.arange(reach + 1))
        return cls((reach, top[-1].copy(), top[:-1, -1].copy()), n_max, block=top[None])

    def children(self) -> "_SchurBlocks":
        """A new pending child stack."""
        return _SchurBlocks(self.edge, self.left - 1, source=(self.block, self.block[:, 0, 0].real))

    def _form(self) -> None:
        """Form every child's block from its parent's, then drop the parents'."""
        (z, alphas), kids = self.source, np.array(self.kids)
        self.source = self.kids = None
        reach, edge_row, edge_col = self.edge
        pick, tp = kids >> 1, 2.0 * (kids & 1) - 1.0
        j = z.shape[1] - 1
        upd = (z[:, 1:, :1] * z[:, :1, 1:])[pick]  # the outer product once per parent row
        upd *= (tp / (1.0 + tp * alphas[pick]))[:, None, None]  # tp / s, as extend rounds it
        m = min(reach + 1, self.left)
        block = np.empty((kids.size, m, m), z.dtype)
        np.subtract(z[pick, 1:, 1:], upd, out=block[:, :j, :j])
        if m > j:  # the position that comes into reach
            block[:, j] = edge_row
            block[:, :j, j] = edge_col
        self.block = block

    def extension(self) -> list:
        """alpha of every row, forming the rows' blocks first."""
        if self.block is None:
            self._form()
        a = self.block[:, 0, 0]
        alphas = self.alphas = a.real.tolist()
        if a.dtype.kind == "c":
            for i in np.flatnonzero(np.abs(a.imag) > IMAG_TOL).tolist():
                alphas[i] = complex(a[i])  # extend raises on this row
        return alphas


class _SchurChain:
    """The sampler's chain state.  Before bit k it stands for the Schur
    complement

        Z_k = T_F(g) - T_FK (T_KK + D(theta_K))^-1 T_KF

    of the drawn positions K in the positions F still to draw within the
    window's reach, k .. min(k + window, n - 1) (every remaining one at
    window None).  At an exact window Z_k = 2 K_F - I for the kernel K_F of
    F given the drawn bits: Hermitian, of norm <= 1, so elimination without
    pivoting has no growth.  alpha is Z_k[0, 0], read as a Python number.

    The chain looks left: it forms no Z_k, only its pivot column c_k =
    Z_k[:, 0], and keeps those of the positions that still reach a later
    one, with d_i = tp_i / s_i.  Eliminating position i subtracts
    d_i c_i conj(c_i)^T (Z_i is Hermitian, so its pivot row is conj(c_i)),
    so

        c_k[j] = ghat(j) - sum_i d_i conj(c_i[k - i]) c_i[k - i + j]

    over the drawn positions i that reach k: one gemv against their stored
    columns, with zeros for the positions past each one's reach.

    Row p of ``rows`` holds the column of position base + p from its start,
    then zeros, and ``skew[p, q] = rows[p, q - p]`` is that column's entry
    at position base + q: the columns that reach k, over positions k ..,
    are one strided view.  At window None ``rows`` is n x n.  At a finite
    window a row holds 2 window + 1 entries, a column's window + 1 and the
    zeros the view reads past them, and when no row is left for c_k the
    last window rows move to the start.  Such a buffer then steps rows
    window .. len(rows) - 1 again and again, so it forms their views once
    (``views``: the stored columns, their first column, d and the target
    row).  The step slices them as before only where a view would change
    shape, in the first window rows and the last window bits, and in a
    buffer that never moves (the full state, or a chain that fits in its
    buffer), whose rows are each used once.  Both routes feed the same
    arrays, with the same strides, into one update line.
    """

    __slots__ = ("alphas", "rows", "skew", "d", "g", "reach", "row", "left", "views")

    def __init__(self, gd: _GData, reach: int, n: int):
        width = max(2, min(2 * reach + 1, n))  # 2 at n = 1, so that skew has a row step
        dtype = np.dtype(np.float64 if gd.real else np.complex128)
        # at a finite window, rows to spare between two moves: at least
        # reach, so the move never overlaps itself
        spare = max(reach, CHUNK_BYTES // (width * dtype.itemsize))
        size = n if width >= n else min(n, reach + 1 + spare)
        buf = np.zeros(size * width, dtype)
        self.rows = buf.reshape(size, width)
        self.skew = np.lib.stride_tricks.sliding_window_view(buf, size + width - 1)[::width - 1]
        self.d = np.zeros(size, dtype)
        self.g = gd.ghat(np.arange(reach + 1))
        buf[:reach + 1] = self.g
        self.reach, self.row, self.left = reach, 0, n
        self.alphas = [buf.item(0)]
        self.views = []  # of rows reach .. size - 1, in a buffer that moves
        for p in range(reach, size if size < n else reach):
            a = self.skew[p - reach:p, p:p + reach + 1]
            self.views.append((a, a[:, 0], self.d[p - reach:p], self.rows[p, :reach + 1]))

    def step(self, tp: float, s) -> None:
        """Eliminate the position just drawn, of bit sign tp and factor s,
        and form the pivot column of the next."""
        rows, d, reach, row = self.rows, self.d, self.reach, self.row
        left = self.left = self.left - 1  # positions still to draw
        if not left:
            return
        d[row] = tp / s
        row += 1
        if row == len(rows):  # no row left for c_k
            rows[:reach] = rows[row - reach:]
            d[:reach] = d[row - reach:]
            row = reach
        g = self.g
        if left > reach and self.views and row >= reach:
            a, a0, dk, c = self.views[row - reach]
        else:
            lo, cols = max(row - reach, 0), min(reach + 1, left)
            a = self.skew[lo:row, row:row + cols]  # the columns that reach k, over positions k ..
            a0, dk, c, g = a[:, 0], d[lo:row], rows[row, :cols], g[:cols]
        np.subtract(g, (dk * a0.conj()) @ a, out=c)
        self.row = row
        self.alphas[0] = c.item(0)


class PrefixState:
    """State of one cylinder prefix, extended one bit at a time: a node of
    the moment-sum walk's tree, or a state of a sampled chain.

    For a geometric symbol (``Symbol.geometric``) at window None, or one of
    bandwidth <= 1 at window None or one that covers the bandwidth, the
    state is one number x, exact at every length.  Each bit of sign tp
    costs O(1): alpha = g0 - kx x, s = 1 + tp alpha, and

      geometric (fhat(n) = c r^|n|, so every vector of the extension is
      geometric; kx = 4c^2):  x <- r^2 (x + tp (1 - 2c x)^2 / s);
      bandwidth <= 1 (the 1 x 1 corner 1/s; kx = ghat(1)):  x <- (tp/s) ghat(-1),

    both from x = 0.  At bandwidth <= 1 this rounds as the test oracle's
    inverse-corner recursion (``EagerPrefixState``, tests/oracles.py) does at window 1.

    Every other state is one row of a stack of prefixes of its length.
    ``extend`` does only scalar work: the extension factor s, its checks
    and ``log_prob``.  Only ``_moment_root`` and ``_chain_root`` build an
    empty prefix, both through ``_root``, so no matrix state lacks its
    stack.  Two kinds of stack serve the two walks:

    - the moment-sum walk (``_moment_root``) steps ``_SchurBlocks``: its row
      holds the Schur complement of the drawn positions in those still to
      draw within reach.  ``extend`` appends the child to its row's pending
      child stack, which forms the blocks of all its children together, on
      the first ``conditional_one`` or ``extend`` of any of them, and then
      drops the parent blocks it kept.  So the leaves of a tree never form
      one;
    - a chain (``_chain_root``: the sampler's, and selftest's replay) drops
      each state once extended, so its states share one ``_SchurChain``:
      ``conditional_one`` reads its alpha as a stack's, and ``extend`` steps
      it in place, one gemv forming the next pivot column.  Only the newest
      state of a chain may be read.

    Each recursion is exact when the window is None or covers the symbol's
    bandwidth, so the moment-sum walk and the sampler root their states at
    window = bandwidth; any other window truncates the coefficients beyond
    it (a geometric symbol too, whose one-number state needs window None).
    """

    __slots__ = ("gd", "length", "log_prob", "_stack", "_row", "_x")

    def conditional_one(self) -> float:
        """P(next bit = 1 | prefix), from alpha for position length+1 (x or the stack's row)."""
        x = self._x
        if x is None:
            stack = self._stack
            alpha = (stack.alphas or stack.extension())[self._row]
        else:
            alpha = self.gd.g0 - self.gd.kx * x
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

    def extend(self, bit: int) -> "PrefixState":
        """The child prefix with ``bit`` appended: its one number at once, or
        its row of the pending child stack, built slot by slot as ``_root``
        builds the empty prefix."""
        gd, x = self.gd, self._x
        if x is None:
            stack = self._stack
            alpha = (stack.alphas or stack.extension())[self._row]
        else:
            alpha = gd.g0 - gd.kx * x
        tp = 2.0 * bit - 1.0
        s = 1.0 + tp * alpha
        if gd.real:
            s_real = s
        else:
            if abs(s.imag) > IMAG_TOL:
                raise _unresolved(self.length, self.log_prob, abs(s), s.imag)
            s_real = s.real
        if s_real <= 0.0:
            raise ConditioningError(
                f"prefix probability vanishes extending with bit {bit} at position {self.length}"
            )
        log_prob = self.log_prob + math.log(s_real / 2.0)
        if x is None:
            if type(stack) is _SchurChain:  # the sampler's chain steps in place
                stack.step(tp, s)
                child_stack, row = stack, 0
            else:
                child_stack = stack.pending
                if child_stack is None or child_stack.kids is None:
                    child_stack = stack.pending = stack.children()
                kids = child_stack.kids
                kids.append(2 * self._row + (tp > 0.0))  # the row and the bit
                row = len(kids) - 1
        else:
            child_stack, row = None, 0
            if gd.c2 is None:
                x = tp / s * gd.gm1
            else:
                d = 1.0 - gd.c2 * x
                x = gd.r2 * (x + tp * d * d / s)
        child = _new_state(PrefixState)
        child.gd, child.length, child.log_prob = gd, self.length + 1, log_prob
        child._stack, child._row, child._x = child_stack, row, x
        return child


def _root(sym: Symbol, window: int | None, n: int, stack) -> PrefixState:
    """The empty prefix of a walk of n bits at ``window``, after the range
    gate (``_GData``): one number, or row 0 of ``stack(gd, reach, n)``."""
    gd = _GData(sym)
    state = _new_state(PrefixState)
    state.gd, state.length, state.log_prob, state._row = gd, 0, 0.0, 0
    reach = n - 1 if window is None else min(window, n - 1)
    state._x, state._stack = (0.0, None) if _one_number(sym, window) else (None, stack(gd, reach, n))
    return state


def _moment_root(sym: Symbol, n_max: int) -> PrefixState:
    """The empty prefix of the moment-sum walk to n_max bits, at window =
    bandwidth (exact): one number, or a row of ``_SchurBlocks``."""
    return _root(sym, sym.bandwidth, n_max, _SchurBlocks.root)


def _chain_root(sym: Symbol, window: int | None, n: int) -> PrefixState:
    """The empty prefix of a chain of n bits at ``window``: one number, or a
    ``_SchurChain`` that each ``extend`` steps in place.  The only root a
    caller's window reaches, so the window gate (None or an int >= 0) is here."""
    if window is not None:
        window = require_int(window, 0, None, "prefix state window must be None or an int >= 0")
    return _root(sym, window, n, _SchurChain)


def _sampled_bits(sym: Symbol, window: int | None, n: int, rng: np.random.Generator) -> np.ndarray:
    """n bits sampled by the chain rule at ``window``: bit k is 1 when the
    k-th of n uniforms drawn from ``rng`` is below P(1 | bits 0..k-1).  At
    window 0 the conditionals are constant: i.i.d. Bernoulli(fhat(0))."""
    if window == 0:
        p1 = _chain_root(sym, window, 1).conditional_one()  # the gates, also for this path
        bits = np.empty(n, dtype=np.uint8)
        np.less(rng.random(n), p1, out=bits.view(bool))
        return bits
    state = _chain_root(sym, window, n)
    bits = np.empty(n, dtype=np.uint8)  # before the uniforms, as above: numpy names an n too large
    out = bits.data  # a memoryview, whose item store costs less than the array's
    for k, u in enumerate(rng.random(n).tolist()):
        bit = 1 if u < state.conditional_one() else 0
        out[k] = bit
        state = state.extend(bit)
    return bits


def cylinder_log_probs_direct(sym: Symbol, N: int) -> np.ndarray:
    """log mu for all 2^N words of length N via batched determinants.

    Word index m encodes bit k as (m >> k) & 1 (bit 0 first).  Memory is
    O(2^N N^2); intended as an oracle and for CLI enumeration at small N.
    """
    N = require_int(N, 1, 14, "cylinder_log_probs_direct: need 1 <= N <= 14")
    return _log_probs(_signed_windows(sym, 2.0 * word_bits(N) - 1.0, np.arange(1, N + 1)))
