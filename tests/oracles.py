"""Reference routes the tests compare the library against.

Each computes a quantity the library also computes, by a slower or more
literal route: the direct cylinder determinant, moment sums from one
batched determinant per word, the parity coefficient of the Walsh tuple
sum, the complement symbol 1 - f, the per-pair deviation and trace-norm
grids of the finite-window search, and the closed-form Hilbert-Schmidt
norm of the coupling block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dppkit import toeplitz
from dppkit.errors import NumericsError, SymbolSpecError
from dppkit.measure import IMAG_TOL, _parse_word, cylinder_log_probs_direct
from dppkit.mixing import _coupling_stacks, _log_ratio_grid
from dppkit.symbol import Symbol, require_range


def cylinder_prob_direct(sym: Symbol, word) -> float:
    """mu([word]) from det(D(2 eps - 1) T_N(f) + D(1 - eps))."""
    require_range(sym)
    eps = _parse_word(word)
    t = toeplitz.build_T_window(sym, eps.size)
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


def finite_window_details(sym: Symbol, ell: int, N: int) -> FiniteWindowDetails:
    """Deviation and trace-norm grids for every word pair at window N, gap ell."""
    p, q = _coupling_stacks(sym, ell, N)
    dev = np.abs(np.expm1(_log_ratio_grid(p, q)))
    hnorm = np.linalg.svd(q[None, :] @ p[:, None], compute_uv=False).sum(axis=-1)
    return FiniteWindowDetails(dev, hnorm, hs_norm_sq_lambda(sym, N, ell))
