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
# g-coefficients a corner prefix state caches at first (see ``_GData``)
COEFF_BLOCK = 64
# bytes of a child corner's rows formed at a time, in a contiguous temporary
# (a chain step's chunk is also at least 1/16 of its corner), and at least
# those of the rows a windowed Schur chain spares between two moves
CHUNK_BYTES = 32 * 1024
# a PrefixState with no slot set; ``root`` and ``extend`` store the slots one
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
    """D(theta) T_J(g) + I for each row of signs theta (shape (..., |J|))."""
    tg = toeplitz.build_T(g_coeff_fn(sym), J)
    mats = theta[..., None] * tg
    mats += np.eye(len(J), dtype=tg.dtype)  # in place: one stack, not two
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

    ``g0`` = ghat(0) and the constants of the one-number recursion (see
    ``PrefixState``): ``kx`` with alpha = g0 - kx x, ``gm1`` = ghat(-1), and
    for a geometric symbol ``c2`` = 2c and ``r2`` = r^2 (``c2`` is None
    otherwise).  ``gpos`` and ``gneg`` hold ghat(n) and ghat(-n) for n = 0 ..
    size - 1, of the symbol's coefficient dtype: empty at first, then
    COEFF_BLOCK, doubled whenever a corner outgrows them (see
    ``reversed_rows``), so a prefix reads only as many as its corner needs.
    """

    __slots__ = ("ghat", "g0", "gpos", "gneg", "real", "kx", "c2", "r2", "gm1")

    def __init__(self, sym: Symbol):
        ghat = self.ghat = g_coeff_fn(sym)
        self.real = sym.has_real_coeffs
        self.gm1, self.g0, self.kx = ghat(np.arange(-1, 2)).tolist()
        self.c2 = self.r2 = None
        if sym.geometric is not None:
            c, r = sym.geometric
            self.kx, self.c2, self.r2 = 4.0 * c * c, 2.0 * c, r * r
        self.gpos = np.zeros(0)

    def reversed_rows(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """ghat(-j) .. ghat(-1) and ghat(j) .. ghat(1), as reversed views."""
        if j >= self.gpos.size:
            ns = np.arange(max(j + 1, COEFF_BLOCK, 2 * self.gpos.size))
            self.gpos, self.gneg = self.ghat(ns), self.ghat(-ns)
        return self.gneg[j:0:-1], self.gpos[j:0:-1]


def _chain_child(corner, theta, u, w, tp, s, window):
    """The corner and theta of one child of a prefix, from its parent's
    (corner, theta, u, w), bit sign tp and extension factor s (a numpy
    scalar), as ``_bordered`` forms a stack of them, but a chunk of rows at
    a time, last first, beside the parent."""
    j = u.size
    keep = j + 1 if window is None else min(j + 1, window)
    lo = j + 1 - keep
    out = np.empty((keep, keep), dtype=corner.dtype)
    th = np.empty(keep, dtype=corner.dtype)
    ts = tp / s
    step = max(CHUNK_BYTES // ((j + 1) * corner.itemsize), j // 16)
    for r1 in range(j, lo, -step):
        r0 = max(r1 - step, lo)
        rows = np.multiply(u[r0:r1, None], w)
        rows *= ts
        rows += corner[r0:r1]
        out[r0 - lo:r1 - lo, :-1] = rows[:, lo:]
    if keep:
        np.divide(u[lo:], -s, out=out[:-1, -1])
        out[-1, :-1] = (-ts * w)[lo:]
        out[-1, -1] = 1.0 / s
        th[:-1] = theta[lo:]
        th[-1] = tp
    return out, th


def _bordered(source, pick, tp, s, window):
    """The trailing corners and thetas of a stack of children formed from
    ``source``, the (corner, theta, u, w) stacks of their parents (corners
    of at least 2 x 2): one child per entry of ``pick`` (its parent's row),
    of bit sign tp and extension factor s (arrays).

    A child's bordered inverse is [[C + (tp/s) u w, -u/s], [-(tp/s) w, 1/s]].
    The rows C + (tp/s) u w are formed a chunk of children at a time in a
    contiguous temporary, at their untrimmed length, so numpy rounds every
    entry as in the untrimmed inverse of one prefix on its own.  When the
    window is full the oldest row and column fall out: that row is never
    formed.
    """
    corner, theta, u, w = source
    theta, u, w = theta[pick], u[pick], w[pick]
    n, j = u.shape
    keep = j + 1 if window is None else min(j + 1, window)
    lo = j + 1 - keep
    ts = tp / s
    e = np.empty((n, keep, keep), dtype=corner.dtype)
    th = np.empty((n, keep), dtype=corner.dtype)
    step = max(1, CHUNK_BYTES // ((j - lo) * j * corner.itemsize))
    for c0 in range(0, n, step):
        c = slice(c0, c0 + step)
        rows = np.multiply(u[c, lo:, None], w[c, None])
        rows *= ts[c, None, None]
        rows += corner[pick[c], lo:]
        e[c, :-1, :-1] = rows[..., lo:]
    np.divide(u[:, lo:], -s[:, None], out=e[:, :-1, -1])
    e[:, -1, :-1] = ((-ts)[:, None] * w)[:, lo:]
    e[:, -1, -1] = 1.0 / s
    th[:, :-1] = theta[:, lo:]
    th[:, -1] = tp
    return e, th


class _CornerStack:
    """The inverse corners of n prefixes of one length, as one (n, k, k)
    stack, with their signs theta as one (n, k) stack, for every n: the
    root and a caller's chain are stacks of one.

    ``PrefixState.extend`` appends each child of a row to the stack's
    ``pending`` child stack: its parent row, bit sign tp and extension
    factor s.  A child stack keeps the arrays of its parent that it needs
    (``source``), not the parent itself, so no reference cycle forms.  It
    forms the corners of all its children in one stacked update on first
    use (``formed``), then drops ``source``; a child appended after that
    starts a new stack.  ``extension`` forms every row's (u, w, alpha) in
    one stacked update too.  The sampler's chain is no stack of these but a
    ``_SchurChain``.
    """

    __slots__ = ("gd", "window", "source", "kids", "corner", "theta", "uw", "alphas", "pending")

    def __init__(self, gd: _GData, window, parent=None, corner=None, theta=None):
        self.gd = gd
        self.window = window
        self.source = None if parent is None else (parent.corner, parent.theta, *parent.uw)
        self.kids = []
        self.corner = corner
        self.theta = theta
        self.uw = self.alphas = self.pending = None

    def formed(self) -> "_CornerStack":
        if self.corner is None:
            self._form()
        return self

    def _form(self) -> None:
        """Form corner and theta from the parent's, then drop them.  The only
        child, and each child of a corner of at most 1 x 1, is formed on its
        own (``_chain_child``): numpy rounds a 1 x 1 complex product of one
        prefix in its scalar loop, but those of several prefixes in its SIMD
        loop, whose fused multiply-add rounds differently.  Other children
        are formed as one stack (``_bordered``).
        """
        source, kids, window = self.source, self.kids, self.window
        self.source = self.kids = None
        dtype = source[0].dtype
        if len(kids) == 1 or source[2].shape[1] <= 1:
            parts = [_chain_child(*[a[row] for a in source], tp, dtype.type(s), window)
                     for row, tp, s in kids]
            # a lone child's arrays as views, not copies: a chain holds two corners
            self.corner, self.theta = ([a[None] for a in parts[0]] if len(parts) == 1
                                       else map(np.stack, zip(*parts)))
        else:
            rows, tp, s = zip(*kids)
            self.corner, self.theta = _bordered(source, np.array(rows), np.array(tp),
                                                np.array(s, dtype=dtype), window)

    def extension(self) -> list:
        """alpha of every row, forming each row's (u, w) for appending the
        next position in one stacked update."""
        if self.alphas is None:
            gd, corner, theta = self.gd, self.formed().corner, self.theta
            j = corner.shape[-1]
            # corner covers rows/cols k-j+1..k; new column entries are
            # theta_i * ghat(i - (k+1)), new row entries ghat(k+1 - j')
            gneg, r = gd.reversed_rows(j)
            u = (corner @ (theta * gneg)[..., None])[..., 0]
            self.alphas = (gd.g0 - (r @ u[..., None])[..., 0]).tolist()
            self.uw = (u, r @ corner)
        return self.alphas


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

    def __init__(self, gd: _GData, window, n: int):
        reach = n - 1 if window is None else min(n - 1, window)
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
    """State of one cylinder prefix, extended one bit at a time.

    For a geometric symbol (``Symbol.geometric``) at window None, or one of
    bandwidth <= 1 at window None or one that covers the bandwidth, the
    state is one number x, exact at every length.  Each bit of sign tp
    costs O(1): alpha = g0 - kx x, s = 1 + tp alpha, and

      geometric (fhat(n) = c r^|n|, so every vector of the extension is
      geometric; kx = 4c^2):  x <- r^2 (x + tp (1 - 2c x)^2 / s);
      bandwidth <= 1 (the 1 x 1 corner 1/s; kx = ghat(1)):  x <- (tp/s) ghat(-1),

    both from x = 0.  At bandwidth <= 1 this rounds as the corner route
    does at window 1.  Such a state has no ``corner`` or ``theta``: reading
    them raises AttributeError.

    Every other state is one row of a stack of prefixes of its length
    (``_CornerStack``).  Its row holds the trailing ``window`` x ``window``
    corner of the inverse of D(theta) T_k(g) + I (the full inverse when
    window is None), which is all the next conditional probability needs.
    ``extend`` does only scalar work: the extension factor s, its checks and
    ``log_prob``; it appends the child to its row's pending child stack.
    That stack forms the corners of all its children together, at O(window^2)
    each, on the first ``conditional_one`` or ``extend`` of any of them, or
    when ``corner`` or ``theta`` is first read, and then drops the parent
    arrays it kept.  So the leaves of a prefix tree never form a corner, and
    the children of a whole tree level form theirs in one stacked update.
    The children of a state built by ``root`` are formed beside their
    parent, so a state and its corner keep their values however long a
    caller holds them, and a chain step holds two corners.  The sampler's
    chain (``_sampled_bits``) hands no state out, so its states share one
    ``_SchurChain`` instead of a corner stack: ``conditional_one`` reads its
    alpha as a stack's, and ``extend`` steps it, one gemv forming the next
    pivot column, with no corner.  Either recursion is exact when the
    window is None or covers the symbol's bandwidth, so the moment-sum walk
    and the sampler root their states at window = bandwidth; any other
    window truncates the coefficients beyond it (a geometric symbol too,
    whose one-number state needs window None).
    """

    __slots__ = ("gd", "window", "length", "log_prob", "_stack", "_row", "_x")

    @classmethod
    def root(cls, sym: Symbol, *, window: int | None = None) -> "PrefixState":
        """The empty prefix; ``window`` is None (the full state) or an int >= 0."""
        if window is not None:
            window = require_int(window, 0, None, "prefix state window must be None or an int >= 0")
        one_number = _one_number(sym, window)
        gd = _GData(sym)
        dtype = np.float64 if gd.real else np.complex128
        state = _new_state(cls)
        state.gd, state.window, state.length, state.log_prob, state._row = gd, window, 0, 0.0, 0
        state._x = 0.0 if one_number else None
        state._stack = None if one_number else _CornerStack(
            gd, window, corner=np.zeros((1, 0, 0), dtype=dtype), theta=np.zeros((1, 0), dtype=dtype))
        return state

    def _formed_stack(self) -> _CornerStack:
        if self._x is not None:
            raise AttributeError("a one-number prefix state has no inverse corner or theta")
        return self._stack.formed()

    @property
    def corner(self) -> np.ndarray:
        return self._formed_stack().corner[self._row]

    @property
    def theta(self) -> np.ndarray:
        return self._formed_stack().theta[self._row]

    def conditional_one(self) -> float:
        """P(next bit = 1 | prefix), from alpha for position length+1 (x or the corner stack)."""
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
        its row of the pending child stack, built slot by slot as ``root``
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
                if child_stack is None or child_stack.corner is not None:
                    child_stack = stack.pending = _CornerStack(gd, self.window, parent=stack)
                kids = child_stack.kids
                kids.append((self._row, tp, s))
                row = len(kids) - 1
        else:
            child_stack, row = None, 0
            if gd.c2 is None:
                x = tp / s * gd.gm1
            else:
                d = 1.0 - gd.c2 * x
                x = gd.r2 * (x + tp * d * d / s)
        child = _new_state(PrefixState)
        child.gd, child.window, child.length = gd, self.window, self.length + 1
        child.log_prob, child._stack, child._row = log_prob, child_stack, row
        child._x = x
        return child


def _sampled_bits(sym: Symbol, window: int | None, n: int, rng: np.random.Generator) -> np.ndarray:
    """n bits sampled by the chain rule at ``window``: bit k is 1 when the
    k-th of n uniforms drawn from ``rng`` is below P(1 | bits 0..k-1).  No
    state leaves this loop, and each is dropped once extended, so a matrix
    state's chain is one ``_SchurChain``, stepped in place.  At window 0
    the conditionals are constant: i.i.d. Bernoulli(fhat(0))."""
    state = PrefixState.root(sym, window=window)  # the range gate, also for the i.i.d. path
    uni = rng.random(n)
    if window == 0:
        bits = np.empty(n, dtype=np.uint8)
        np.less(uni, state.conditional_one(), out=bits.view(bool))
        return bits
    if state._stack is not None:
        state._stack = _SchurChain(state.gd, window, n)
    bits = bytearray(n)
    for k, u in enumerate(uni.tolist()):
        bit = 1 if u < state.conditional_one() else 0
        bits[k] = bit
        state = state.extend(bit)
    return np.frombuffer(bits, np.uint8)


def cylinder_log_probs_direct(sym: Symbol, N: int) -> np.ndarray:
    """log mu for all 2^N words of length N via batched determinants.

    Word index m encodes bit k as (m >> k) & 1 (bit 0 first).  Memory is
    O(2^N N^2); intended as an oracle and for CLI enumeration at small N.
    """
    N = require_int(N, 1, 14, "cylinder_log_probs_direct: need 1 <= N <= 14")
    return _log_probs(_signed_windows(sym, 2.0 * word_bits(N) - 1.0, np.arange(1, N + 1)))
