"""Moment sums S_N^(q) = sum over length-N words of mu([word])^q, the
subset-determinant and parity-tuple sums Sigma_N that cross-check them
(sigma_n_2, sigma_n_q_walsh), Fekete-certified dimension lower bounds, and
quadrature bounds on the correlation dimension.

For one-sided symbols (f >= 1/2 or f <= 1/2) S_N is sub-multiplicative, so
-log2 S_N is superadditive and every finite-N estimate

    estimate_N = -log2(S_N) / ((q-1) N)

is a certified lower bound on the limiting dimension; the supremum over
computed N is reported as ``fekete_lower``.

``s_n_q_table`` walks the prefix tree level by level inside subtrees whose
deepest stack of inverse corners fits in STACK_BYTES, so the corners of a
whole level are formed in one stacked update (see ``measure.PrefixState``),
and walks the subtree roots depth first.  Its states keep a window as wide
as the symbol's bandwidth B, which is exact: a band-limited symbol carries
B x B corners (one number at B <= 1), not corners as long as the prefix
(the cut stays keyed on the prefix length).  Each level is Kahan-summed in
lexicographic order, as a depth-first walk sums it, so the sums do not
depend on the cut.  On a tree that meets an unresolvable prefix the
ConditioningError names the first such prefix in level order within its
subtree (a depth-first walk names the first in depth-first order).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import toeplitz
from .errors import ConditioningError, SizeCapError, require_int
from .measure import PrefixState, word_bits
from .symbol import Symbol, g_coeff_fn, one_sidedness, require_range

SNQ_CAP = 22
# bytes of the deepest level of inverse corners a level-order subtree holds
STACK_BYTES = 256 * 1024
SIGMA_CAP = 18
WALSH_CAP_BITS = 20
BETA_XATOL = 1e-10

LOG2 = math.log(2.0)
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# -- S_N^{(q)} via level-order prefix-tree traversal --------------------------


def _stack_rows(state: PrefixState, length: int) -> int:
    """How many inverse corners of prefixes of ``length`` fit in STACK_BYTES."""
    itemsize = 8 if state.gd.real else 16
    return STACK_BYTES // (length * length * itemsize)


def _level_accumulate(level: list, n_max: int, q: float, sums: np.ndarray,
                      comp: np.ndarray) -> None:
    """Add exp(q * log mu) for every descendant prefix of the prefixes in
    ``level``, which are consecutive in lexicographic order.

    The descendants are walked level by level while the next level's corner
    stack fits in STACK_BYTES (the leaves form no corners).  Then the
    deepest level held is cut into runs of consecutive prefixes whose whole
    subtrees fit, or into single prefixes, and each is walked in turn.  So
    every level's terms arrive in lexicographic order and are Kahan-summed
    in it.
    """
    while True:
        depth = level[0].length
        total, c = float(sums[depth]), float(comp[depth])
        children = []
        for state in level:
            # both children in turn, unrolled: this loop is the tree's per-node cost
            child = state.extend(0)
            y = math.exp(q * child.log_prob) - c
            t = total + y
            c = (t - total) - y
            total = t
            children.append(child)
            child = state.extend(1)
            y = math.exp(q * child.log_prob) - c
            t = total + y
            c = (t - total) - y
            total = t
            children.append(child)
        sums[depth], comp[depth] = total, c
        if depth + 1 == n_max:
            return
        level = children
        if depth + 2 < n_max and 2 * len(level) > _stack_rows(level[0], depth + 2):
            break
    # a run of r prefixes holds r 2^(n_max - 2 - depth) corners at length n_max - 1
    run = max(1, _stack_rows(level[0], n_max - 1) >> (n_max - 2 - depth))
    for i in range(0, len(level), run):
        _level_accumulate(level[i:i + run], n_max, q, sums, comp)


def s_n_q_table(sym: Symbol, n_max: int, q: float) -> np.ndarray:
    """log2 S_N^(q) for N = 1..n_max, in one traversal of the prefix tree.

    Raises ConditioningError where S_N < 2^(N - 1022): below that, terms
    that round into the subnormal range can move the sum by more than one
    ulp, and a sum of 0.0 has no logarithm.
    """
    n_max = require_int(n_max, 1, SNQ_CAP, f"s_n_q_table: need 1 <= n_max <= {SNQ_CAP}")
    if not (math.isfinite(q) and q > 1):
        raise ValueError("s_n_q_table: need finite q > 1")
    sums = np.zeros(n_max)
    comp = np.zeros(n_max)
    root = PrefixState.root(sym, window=sym.bandwidth)  # exact
    _level_accumulate([root], n_max, q, sums, comp)
    with np.errstate(divide="ignore"):
        log2s = np.log2(sums)
    low = np.nonzero(log2s < np.arange(1, n_max + 1) - 1022)[0]
    if low.size:
        n = int(low[0]) + 1
        raise ConditioningError(
            f"moment sum S_N^(q) underflows at N = {n}, q = {q:g}: "
            f"log2 S_N = {log2s[n - 1]:.6g} < N - 1022 = {n - 1022}")
    return log2s


# -- subset-determinant and parity-tuple oracles -----------------------------


def subset_dets(sym: Symbol, N: int) -> np.ndarray:
    """det T_J(g) for every J subset of [N], indexed by bitmask.

    Entries lie in [-1, 1] since the spectrum of every window of g is
    contained in [-1, 1]; the empty subset contributes 1.
    """
    N = require_int(N, 1, SIGMA_CAP, f"subset determinants: need 1 <= N <= {SIGMA_CAP}")
    tg = toeplitz.build_T(g_coeff_fn(sym), np.arange(1, N + 1))
    bits = word_bits(N)
    popcount = bits.sum(axis=1)
    out = np.empty(2 ** N)
    out[0] = 1.0  # empty subset convention
    for size in range(1, N + 1):
        group = np.nonzero(popcount == size)[0]
        ix = np.nonzero(bits[group])[1].reshape(group.size, size)
        dets = np.linalg.det(tg[ix[:, :, None], ix[:, None, :]])
        out[group] = dets.real
    return out


def sigma_n_2(sym: Symbol, N: int) -> float:
    """Sum over subsets J of [N] of det^2 T_J(g); equals 2^N S_N^(2)."""
    a = subset_dets(sym, N)
    return float(np.sum(a * a))


def sigma_n_q_walsh(sym: Symbol, N: int, q: int) -> float:
    """Brute-force sum over q-tuples of subsets weighted by the parity
    coefficient; oracle-grade only (cost 2^((q-1)N) tuple folds)."""
    q = require_int(q, 2, None, "sigma_n_q_walsh: need integer q >= 2")
    if q * N > WALSH_CAP_BITS:
        raise SizeCapError(f"sigma_n_q_walsh: 2^(q*N) exceeds 2^{WALSH_CAP_BITS}")
    a = subset_dets(sym, N)
    masks = np.arange(2 ** N, dtype=np.int64)
    # fold the tuple sum one subset at a time; the parity coefficient is 1
    # exactly when the running xor of the masks closes to the empty set
    acc = a.copy()
    xor = np.bitwise_xor.outer(masks, masks)
    for _ in range(q - 2):
        acc = np.bincount(xor.ravel(), weights=(acc[:, None] * a[None, :]).ravel(), minlength=2 ** N)
    return float(np.sum(acc * a))


# -- dimension estimates ------------------------------------------------------


@dataclass(frozen=True)
class SNQTable:
    """Per-N moment sums and raw dimension estimates."""

    q: float
    N: np.ndarray
    log2_S_N: np.ndarray
    estimate_N: np.ndarray


@dataclass(frozen=True)
class DimensionEstimate:
    """Finite-N dimension estimates from the moment sums, with a
    Fekete-certified lower bound.

    ``certified`` is True when the symbol is one-sided around 1/2 and q is
    an integer >= 2, the regime where sub-multiplicativity makes
    ``fekete_lower`` a true lower bound.  The quadrature bounds on the
    correlation dimension depend on the symbol alone and are their own
    calls, ``corr_dim_szego_lower`` and ``corr_dim_szego_upper``.
    """

    q: float
    table: SNQTable
    fekete_lower: float
    last_estimate: float
    certified: bool


def dim_q_estimate(sym: Symbol, q: float, n_max: int) -> DimensionEstimate:
    log2s = s_n_q_table(sym, n_max, q)
    ns = np.arange(1, n_max + 1)
    est = -log2s / ((q - 1.0) * ns)
    return DimensionEstimate(
        q=q,
        table=SNQTable(q, ns, log2s, est),
        fekete_lower=float(est.max()),
        last_estimate=float(est[-1]),
        certified=one_sidedness(sym) != 0 and q >= 2 and float(q).is_integer(),
    )


# -- quadrature bounds on the correlation dimension ---------------------------


def _g_on_szego_grid(sym: Symbol) -> np.ndarray:
    """g = 2f - 1 at the quadrature nodes; the range gate of the pointwise route."""
    require_range(sym)
    return 2.0 * sym.values_on_grid(toeplitz.SZEGO_GRID) - 1.0


def corr_dim_szego_lower(sym: Symbol) -> float:
    """(1/log 2) * integral of log(2 / (1 + g^2)), g = 2f - 1; always <= 1."""
    g = _g_on_szego_grid(sym)
    return toeplitz.szego_log_integral(2.0 / (1.0 + g * g)).value / LOG2


def _upper_bound_at_beta(g: np.ndarray, beta: float) -> tuple[float, bool]:
    integral, clamped = toeplitz.szego_log_integral((1.0 + beta * g) ** 2 / (1.0 + beta * beta))
    return 1.0 - integral / LOG2, clamped


def corr_dim_szego_upper(sym: Symbol) -> float:
    """min over beta in [-1,1] of 1 - (1/log 2) integral log((1+beta*g)^2/(1+beta^2)).

    Every beta yields a valid upper bound; betas whose integrand needed
    clamping count as +inf (clamping would spoil validity), and beta = 0
    gives exactly 1.  The objective is convex in beta where it is finite
    (log(1+beta*g)^2 and -log(1+beta^2) are concave on [-1, 1]).  A node
    clamps only where |1+beta*g| < sqrt(SZEGO_CLAMP (1+beta^2)), within about
    1.5e-7 of beta = -1/g, and the range gate keeps |1/g| >= 1 - 2e-10; so the
    clamped betas form two intervals touching -1 and 1, the objective is
    unimodal on [-1, 1], and one golden-section search over it finds the minimum.
    """
    g = _g_on_szego_grid(sym)

    def objective(beta: float) -> float:
        val, clamped = _upper_bound_at_beta(g, beta)
        return math.inf if clamped else val

    a, b = -1.0, 1.0
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > BETA_XATOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = objective(d)
    return min(1.0, fc, fd)
