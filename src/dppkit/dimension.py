"""Moment sums S_N^(q) = sum over length-N words of mu([word])^q, the
subset-determinant and parity-tuple sums Sigma_N that cross-check them
(sigma_n_2, sigma_n_q_walsh), Fekete-certified dimension lower bounds, and
quadrature bounds on the correlation dimension.

For one-sided symbols (f >= 1/2 or f <= 1/2) S_N is sub-multiplicative, so
-log2 S_N is superadditive and every finite-N estimate

    estimate_N = -log2(S_N) / ((q-1) N)

is a certified lower bound on the limiting dimension; the supremum over
computed N is reported as ``fekete_lower``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import toeplitz
from .errors import SizeCapError
from .measure import PrefixState, word_bits
from .symbol import Symbol, g_coeff_fn, one_sidedness, require_range

SNQ_CAP = 22
SIGMA_CAP = 18
WALSH_CAP_BITS = 20
DEFAULT_BETA_POINTS = 41

LOG2 = math.log(2.0)


# -- S_N^{(q)} via depth-first prefix-tree traversal -------------------------


def _dfs_accumulate(state: PrefixState, n_max: int, q: float, sums: np.ndarray, comp: np.ndarray) -> None:
    """Add exp(q * log mu) for every descendant prefix, Kahan-compensated per level."""
    for bit in (0, 1):
        child = state.extend(bit)
        level = child.length - 1
        term = math.exp(q * child.log_prob)
        y = term - comp[level]
        t = sums[level] + y
        comp[level] = (t - sums[level]) - y
        sums[level] = t
        if child.length < n_max:
            _dfs_accumulate(child, n_max, q, sums, comp)


def s_n_q_table(sym: Symbol, n_max: int, q: float) -> np.ndarray:
    """log2 S_N^(q) for N = 1..n_max, in one traversal of the prefix tree."""
    if not (1 <= n_max <= SNQ_CAP):
        error = ValueError if n_max < 1 else SizeCapError
        raise error(f"s_n_q_table: need 1 <= n_max <= {SNQ_CAP}")
    if q <= 1:
        raise ValueError("s_n_q_table: need q > 1")
    sums = np.zeros(n_max)
    comp = np.zeros(n_max)
    _dfs_accumulate(PrefixState.root(sym, n_max), n_max, q, sums, comp)
    return np.log2(sums)


# -- subset-determinant and parity-tuple oracles -----------------------------


def subset_dets(sym: Symbol, N: int) -> np.ndarray:
    """det T_J(g) for every J subset of [N], indexed by bitmask.

    Entries lie in [-1, 1] since the spectrum of every window of g is
    contained in [-1, 1]; the empty subset contributes 1.
    """
    if not (1 <= N <= SIGMA_CAP):
        raise SizeCapError(f"subset determinants: need 1 <= N <= {SIGMA_CAP}")
    tg = toeplitz.build_T(g_coeff_fn(sym), np.arange(1, N + 1))
    bits = word_bits(N)
    popcount = bits.sum(axis=1)
    out = np.empty(2 ** N)
    out[0] = 1.0  # empty subset convention
    for size in range(1, N + 1):
        group = np.nonzero(popcount == size)[0]
        stack = np.empty((group.size, size, size), dtype=tg.dtype)
        for row, m in enumerate(group):
            ix = np.nonzero(bits[m])[0]
            stack[row] = tg[np.ix_(ix, ix)]
        dets = np.linalg.det(stack)
        out[group] = dets.real if np.iscomplexobj(dets) else dets
    return out


def sigma_n_2(sym: Symbol, N: int) -> float:
    """Sum over subsets J of [N] of det^2 T_J(g); equals 2^N S_N^(2)."""
    a = subset_dets(sym, N)
    return float(np.sum(a * a))


def sigma_n_q_walsh(sym: Symbol, N: int, q: int) -> float:
    """Brute-force sum over q-tuples of subsets weighted by the parity
    coefficient; oracle-grade only (cost 2^((q-1)N) tuple folds)."""
    if q < 2 or int(q) != q:
        raise ValueError("sigma_n_q_walsh: need integer q >= 2")
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
    """Finite-N dimension estimates with a Fekete-certified lower bound.

    ``certified`` is True when the symbol is one-sided around 1/2 and q is
    an integer >= 2, the regime where sub-multiplicativity makes
    ``fekete_lower`` a true lower bound.  Quadrature bounds on the
    correlation dimension are attached for q = 2; ``beta_grid`` tunes the
    upper one, so it is refused at any other q.
    """

    q: float
    table: SNQTable
    fekete_lower: float
    last_estimate: float
    certified: bool
    szego_lower: float | None
    szego_upper: float | None


def dim_q_estimate(sym: Symbol, q: float, n_max: int, beta_grid=None) -> DimensionEstimate:
    if beta_grid is not None and q != 2:
        raise ValueError(f"beta grid applies only to q = 2, got q = {q:g}")
    log2s = s_n_q_table(sym, n_max, q)
    ns = np.arange(1, n_max + 1)
    est = -log2s / ((q - 1.0) * ns)
    table = SNQTable(q, ns, log2s, est)
    certified = one_sidedness(sym) != 0 and q >= 2 and float(q).is_integer()
    lower = None
    upper = None
    if q == 2:
        lower = corr_dim_szego_lower(sym)
        upper = corr_dim_szego_upper(sym, beta_grid)
    return DimensionEstimate(
        q=q,
        table=table,
        fekete_lower=float(est.max()),
        last_estimate=float(est[-1]),
        certified=certified,
        szego_lower=lower,
        szego_upper=upper,
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


def corr_dim_szego_upper(sym: Symbol, beta_grid=None) -> float:
    """min over beta in [-1,1] of 1 - (1/log 2) integral log((1+beta*g)^2/(1+beta^2)).

    Every beta yields a valid upper bound; a grid scan plus bounded scalar
    refinement returns a near-optimal one.  Betas whose integrand needed
    clamping are skipped (clamping would spoil validity); beta = 0 always
    gives the safe value 1.
    """
    g = _g_on_szego_grid(sym)
    if beta_grid is None:
        beta_grid = np.linspace(-1.0, 1.0, DEFAULT_BETA_POINTS)
    betas = np.asarray(beta_grid, dtype=float)
    if betas.size == 0 or np.any(np.abs(betas) > 1.0):
        raise ValueError("beta grid must be non-empty within [-1, 1]")
    best = 1.0  # beta = 0
    best_beta = 0.0
    for beta in betas:
        val, clamped = _upper_bound_at_beta(g, float(beta))
        if not clamped and val < best:
            best, best_beta = val, float(beta)
    lo = max(-1.0, best_beta - 0.1)
    hi = min(1.0, best_beta + 0.1)

    def objective(beta: float) -> float:
        val, clamped = _upper_bound_at_beta(g, beta)
        return math.inf if clamped else val

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    if res.fun < best:
        best = float(res.fun)
    return best
