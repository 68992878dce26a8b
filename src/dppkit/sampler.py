"""Exact sequential sampling of process prefixes by chain-rule conditionals.

Bit k is drawn by comparing one uniform variate against the conditional
P(x_k = 1 | x_0..x_{k-1}) produced by the incremental prefix factorization,
so a prefix of length n consumes exactly n uniforms from a PCG64 stream
seeded with the trajectory seed.  Multi-trajectory runs give trajectory i
the stream seed ^ i.

The automatic window is the symbol's exact bandwidth, or None (the full
state) when it has none, so automatic sampling is always exact.  A poisson
symbol, or one of bandwidth <= 1, has a one-number state there (see
``measure.PrefixState``): O(1) per bit.  A band-limited symbol keeps a
trailing window of the inverse as wide as its bandwidth; any other symbol
runs with the full state.  Either corner, min(n, bandwidth) or n wide,
costs quadratic time per bit, so the automatic window caps its width at
EXACT_LENGTH_CAP; poisson is exempt.  An explicit window chosen by the
caller truncates the coefficients beyond it and is never capped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, SizeCapError, require_int
from .measure import PrefixState, _word_str, cylinder_log_probs_direct
from .symbol import Symbol

EXACT_LENGTH_CAP = 2048


@dataclass(frozen=True)
class BinarySequence:
    """A sampled prefix with its RNG provenance."""

    bits: np.ndarray
    seed: int
    symbol_fingerprint: str

    def __len__(self) -> int:
        return self.bits.size

    def to01(self) -> str:
        return _word_str(self.bits)

    def to_hex(self) -> str:
        return np.packbits(self.bits).tobytes().hex()


def _auto_window(sym: Symbol, n: int) -> int | None:
    bw = sym.bandwidth
    width = n if bw is None else min(n, bw)  # the inverse corner's width
    if sym.geometric is None and width > EXACT_LENGTH_CAP:
        raise SizeCapError(
            f"exact sampling caps the corner width at {EXACT_LENGTH_CAP}, got {width}; "
            "pass an explicit window for approximate sampling"
        )
    return bw


def sample_prefix(sym: Symbol, n: int, seed: int, window: "int | None | str" = "auto") -> BinarySequence:
    """Sample the first n coordinates of the one-sided process.

    Same (seed, symbol, n) always yields identical bits; trajectories are
    strictly sequential internally.  ``window`` is "auto", None (the full
    state) or an int >= 0 (see ``measure.PrefixState``).
    """
    n = require_int(n, 1, None, "sample_prefix: need n >= 1")
    seed = require_int(seed, 0, None, "sample_prefix: need seed >= 0")
    if window == "auto":
        window = _auto_window(sym, n)
    state = PrefixState.root(sym, window=window)  # the range gate, also for the i.i.d. path
    rng = np.random.Generator(np.random.PCG64(seed))
    uni = rng.random(n)
    bits = np.empty(n, dtype=np.uint8)
    if window == 0:
        # conditionals are constant: i.i.d. Bernoulli(fhat(0)) fast path
        np.less(uni, state.conditional_one(), out=bits.view(bool))
    else:
        for k in range(n):
            p1 = state.conditional_one()
            bit = 1 if uni[k] < p1 else 0
            bits[k] = bit
            state = state.extend(bit)
    return BinarySequence(bits, seed, sym.fingerprint)


def sample_many(sym: Symbol, n: int, count: int, seed: int) -> list[BinarySequence]:
    """Independent trajectories; trajectory i uses stream seed ^ i."""
    count = require_int(count, 1, None, "sample_many: need count >= 1")
    seed = require_int(seed, 0, None, "sample_many: need seed >= 0")
    return [sample_prefix(sym, n, seed ^ i) for i in range(count)]


def _chi2_sf_odd(x: float, dof: int) -> float:
    """P(chi^2_dof > x) for odd dof (Abramowitz-Stegun 26.4.4):
    erfc(sqrt(x/2)) plus the positive terms sqrt(2/pi) e^(-x/2) x^(r-1/2) / (2r-1)!!
    for r = 1 .. (dof-1)/2.  Past x of about 1400 the factor e^(-x/2) is
    subnormal, so the value loses digits and then reads 0.0; the true value
    there is below 1e-250."""
    total = math.erfc(math.sqrt(0.5 * x))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)
    for r in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return total


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
    p_value = _chi2_sf_odd(statistic, dof)
    return CylinderFitReport(word_len, n_samples, statistic, dof, p_value, counts, expected)
