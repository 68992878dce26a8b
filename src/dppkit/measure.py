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
# least bytes of rows a chain step formed in its parent's memory updates at a
# time (a chunk is also at least 1/16 of the corner, so a wide corner takes
# at most 17; numpy's ufunc buffers for the broadcast product add two chunks
# more, of up to 8,192 entries each), and the bytes of rows past which a
# tree level adds its parents' corners through a view, not a gathered copy
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


def _bordered(source, pick, tp, s, window):
    """The trailing corners and thetas of children formed from ``source``,
    the (corner, theta, u, w) of their parents: one child per entry of
    ``pick`` (its parent's row; None for the one row of a stack of one),
    of bit sign tp and extension factor s.  Either one child, with a numpy
    scalar s, or a stack of them, with arrays tp and s.

    A child's bordered inverse is [[C + (tp/s) u w, -u/s], [-(tp/s) w, 1/s]].
    When no row is trimmed, C + (tp/s) u w is formed in the child's own
    leading block, so a step holds the parent's corners and the child's,
    and nothing else of that size.  When ``pick`` holds each of a run of
    parent rows twice in turn, as a tree level extends every parent by 0
    and then 1, each parent corner is added to both its children through a
    (parents, 2, j, j) view, not gathered into a copy the size of the
    children's rows (below CHUNK_BYTES of rows the copy costs less than
    checking ``pick``).  When the window is full its oldest row and column
    fall out: that row is never formed, and the kept rows are formed at
    their untrimmed length in a temporary, so numpy rounds every entry as it
    would in the untrimmed inverse of one prefix on its own.
    """
    corner, theta, u, w = source
    if pick is not None:
        theta, u, w = theta[pick], u[pick], w[pick]
    j = u.shape[-1]
    keep = j + 1 if window is None else min(j + 1, window)
    lo = j + 1 - keep
    ts = tp / s
    if s.ndim:  # one tp and s per child: shape them against its rows
        s_col, mts_col, ts_blk, w_row = s[:, None], (-ts)[:, None], ts[:, None, None], w[:, None, :]
    else:  # numpy scalars broadcast against one child as they are
        s_col, mts_col, ts_blk, w_row = s, -ts, ts, w
    # the lasting arrays before any temporary rows: the other order fragments
    # the C heap of a long full-window chain (7% more peak resident memory)
    e = np.empty(s.shape + (keep, keep), dtype=corner.dtype)
    th = np.empty(s.shape + (keep,), dtype=corner.dtype)
    if lo:
        rows = u[..., lo:, None] * w_row
    else:  # formed where they stay (lo == 0 implies keep >= 1)
        rows = np.multiply(u[..., None], w_row, out=e[..., :-1, :-1])
    rows *= ts_blk
    if pick is None:
        rows += corner[lo:]
    elif (s.ndim and rows.nbytes > CHUNK_BYTES and pick.size % 2 == 0
          and np.array_equal(pick, (np.arange(pick.size) >> 1) + pick[0])):
        both = rows.reshape(pick.size // 2, 2, *rows.shape[1:])  # a view: only axis 0 is split
        both += corner[pick[0]:pick[0] + pick.size // 2, None, lo:]
    else:
        rows += corner[pick, lo:]
    if keep:
        if lo:
            e[..., :-1, :-1] = rows[..., lo:]
        np.divide(u[..., lo:], -s_col, out=e[..., :-1, -1])
        e[..., -1, :-1] = (mts_col * w)[..., lo:]
        e[..., -1, -1] = 1.0 / s
        th[..., :-1] = theta[..., lo:]
        th[..., -1] = tp
    return e, th


def _formed_in_place(buf, theta, u, w, tp, s):
    """The corner and theta of a sampled chain's child (see ``_sampled_bits``),
    ``_bordered``'s byte for byte, formed in ``buf``: the memory of the
    parent's j x j corner, held row-major at its start (a 1-d buffer, or the
    corner itself while it owns its memory).  ``buf`` grows by realloc, by
    an eighth (at least 64 entries), so a step holds one corner and its
    slack.  Rows move from width j to j + 1 last first, so none is
    overwritten before it is read, a chunk at a time through a contiguous
    temporary.  numpy rounds a complex product there as in ``_bordered``'s
    strided rows: the same on its AVX-512, AVX2 and baseline loops."""
    j = u.size
    k = j + 1
    if buf.size < k * k:  # no array views buf: ``_form`` dropped the parent corner
        buf.resize(max(k * k, buf.size + max(64, buf.size // 8)), refcheck=False)
    out = buf[:k * k].reshape(k, k)
    ts = tp / s
    step = max(CHUNK_BYTES // (k * buf.itemsize), j // 16)
    for r1 in range(j, 0, -step):
        r0 = max(r1 - step, 0)
        rows = np.multiply(u[r0:r1, None], w)
        rows *= ts
        rows += buf[r0 * j:r1 * j].reshape(r1 - r0, j)
        out[r0:r1, :-1] = rows
        np.divide(u[r0:r1], -s, out=out[r0:r1, -1])
    out[-1, :-1] = -ts * w
    out[-1, -1] = 1.0 / s
    th = np.empty(k, dtype=buf.dtype)
    th[:-1] = theta
    th[-1] = tp
    return out, th


class _CornerStack:
    """The inverse corners of n prefixes of one length, as one (n, k, k)
    stack, with their signs theta as one (n, k) stack.  A stack of one (a
    chain) keeps its arrays without the leading axis, for speed: numpy sets
    up 2-D arithmetic faster than 3-D.  A (1, k, k) chain formed child by
    child, as the 1 x 1 rule of ``_form`` does, keeps every corner and theta
    byte, but it cost 1.4-1.5x more per bit on the complex trig_poly chain
    (25.7-43.7 against 17.7-29.0 us; min of 5, one BLAS thread, 2-CPU
    machine).  Formed through the stacked ``_bordered`` route, it also
    changes corner bytes (on an arc_indicator chain a diagonal entry got
    imaginary part 5.2e-33 where the eager route has 0).

    ``PrefixState.extend`` appends each child of a row to the stack's
    ``pending`` child stack: its parent row, bit sign tp and extension
    factor s.  A child stack keeps the arrays of its parent that it needs
    (``source``), not the parent itself, so no reference cycle forms.  It
    forms the corners of all its children in one stacked update on first
    use (``formed``), then drops ``source``; a child appended after that
    starts a new stack.  ``extension`` forms every row's (u, w, alpha) in
    one stacked update too.

    ``owned`` marks the stacks of the chain that ``_sampled_bits`` walks,
    from its root on: a child stack takes the mark from its parent.
    """

    __slots__ = ("gd", "window", "owned", "source", "kids", "corner", "theta", "uw", "alphas", "pending")

    def __init__(self, gd: _GData, window, parent=None, corner=None, theta=None):
        self.gd = gd
        self.window = window
        self.owned = parent is not None and parent.owned
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
        """Form corner and theta from the parent's (see ``_bordered``), then
        drop them.  The only child, and each child of a 1 x 1 corner, is
        formed on its own: numpy rounds a 1 x 1 complex product of one prefix
        in its scalar loop, but those of several prefixes in its SIMD loop,
        whose fused multiply-add rounds differently.  The child of an owned
        chain whose row is not trimmed (window None, or a chain still
        shorter than its window) is formed in its parent's memory.
        """
        source, kids, window = self.source, self.kids, self.window
        dtype, chain = source[0].dtype, source[2].ndim == 1
        if self.owned and (window is None or source[2].size < window):
            corner, theta, u, w = source
            buf = corner if corner.base is None else corner.base
            self.source = source = corner = None  # no view of buf may outlive a resize
            _, tp, s = kids[0]
            self.corner, self.theta = _formed_in_place(buf, theta, u, w, tp, dtype.type(s))
        elif len(kids) == 1 or source[2].shape[-1] == 1:
            parts = []
            for row, tp, s in kids:  # on Python 3.11 a comprehension costs a chain 0.4 us a bit
                parts.append(_bordered(source, None if chain else row, tp, dtype.type(s), window))
            self.corner, self.theta = parts[0] if len(parts) == 1 else map(np.stack, zip(*parts))
        else:
            source = [a[None] for a in source] if chain else source
            rows, tp, s = zip(*kids)
            self.corner, self.theta = _bordered(source, np.array(rows), np.array(tp),
                                                np.array(s, dtype=dtype), window)
        self.source = self.kids = None

    def extension(self) -> list:
        """alpha of every row, forming each row's (u, w) for appending the
        next position in one stacked update."""
        if self.alphas is None:
            gd, corner, theta = self.gd, self.formed().corner, self.theta
            j = corner.shape[-1]
            # corner covers rows/cols k-j+1..k; new column entries are
            # theta_i * ghat(i - (k+1)), new row entries ghat(k+1 - j')
            gneg, r = gd.reversed_rows(j)
            b = theta * gneg
            if corner.ndim == 2:
                u = corner @ b
                self.alphas = [gd.g0 - r @ u]
            else:
                u = (corner @ b[..., None])[..., 0]
                self.alphas = (gd.g0 - (r @ u[..., None])[..., 0]).tolist()
            self.uw = (u, r @ corner)
        return self.alphas


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
    chain (``_sampled_bits``) owns its states by construction, since none
    leaves its loop, so it forms each untrimmed child in its parent's
    memory and holds one corner.  The corner recursion is exact when the
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
            gd, window, corner=np.zeros((0, 0), dtype=dtype), theta=np.zeros(0, dtype=dtype))
        return state

    def _formed_stack(self) -> _CornerStack:
        if self._x is not None:
            raise AttributeError("a one-number prefix state has no inverse corner or theta")
        return self._stack.formed()

    @property
    def corner(self) -> np.ndarray:
        corner = self._formed_stack().corner
        return corner if corner.ndim == 2 else corner[self._row]

    @property
    def theta(self) -> np.ndarray:
        theta = self._formed_stack().theta
        return theta if theta.ndim == 1 else theta[self._row]

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
                f"conditional probability {p1!r} out of range at position {self.length}"
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
        # allocated last: built before the child stack's entry, the state
        # raised a long sampled chain's peak resident memory by 1.1 MB
        child = _new_state(PrefixState)
        child.gd, child.window, child.length = gd, self.window, self.length + 1
        child.log_prob, child._stack, child._row = log_prob, child_stack, row
        child._x = x
        return child


def _sampled_bits(sym: Symbol, window: int | None, n: int, rng: np.random.Generator) -> np.ndarray:
    """n bits sampled by the chain rule at ``window``: bit k is 1 when the
    k-th of n uniforms drawn from ``rng`` is below P(1 | bits 0..k-1).  No
    state leaves this loop, and each is dropped once extended, so the
    chain owns its corner stacks (``_CornerStack.owned``) and forms each
    untrimmed child in its parent's memory (``_formed_in_place``).  At
    window 0 the conditionals are constant: i.i.d. Bernoulli(fhat(0))."""
    state = PrefixState.root(sym, window=window)  # the range gate, also for the i.i.d. path
    uni = rng.random(n)
    bits = np.empty(n, dtype=np.uint8)
    if window == 0:
        np.less(uni, state.conditional_one(), out=bits.view(bool))
        return bits
    if state._stack is not None:
        state._stack.owned = True
    for k in range(n):
        p1 = state.conditional_one()
        bit = 1 if uni[k] < p1 else 0
        bits[k] = bit
        state = state.extend(bit)
    return bits


def cylinder_log_probs_direct(sym: Symbol, N: int) -> np.ndarray:
    """log mu for all 2^N words of length N via batched determinants.

    Word index m encodes bit k as (m >> k) & 1 (bit 0 first).  Memory is
    O(2^N N^2); intended as an oracle and for CLI enumeration at small N.
    """
    N = require_int(N, 1, 14, "cylinder_log_probs_direct: need 1 <= N <= 14")
    return _log_probs(_signed_windows(sym, 2.0 * word_bits(N) - 1.0, np.arange(1, N + 1)))
