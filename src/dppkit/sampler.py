"""Exact sequential sampling of process prefixes by chain-rule conditionals.

Bit k is drawn by comparing one uniform variate against the conditional
P(x_k = 1 | x_0..x_{k-1}) produced by the incremental prefix factorization,
so a prefix of length n consumes exactly n uniforms from a PCG64 stream
seeded with the trajectory seed.  Multi-trajectory runs give trajectory i
the stream seed ^ i.

The automatic window is the symbol's exact bandwidth, or None (the full
state) when it has none, so automatic sampling is always exact.  A poisson
symbol, or one of bandwidth <= 1, has a one-number state there (see
``measure.PrefixState``): O(1) per bit.  Any other symbol's window,
min(n, bandwidth) or n wide, costs quadratic time per bit, so the
automatic window caps its width at EXACT_LENGTH_CAP; poisson is exempt.
An explicit window chosen by the caller truncates the coefficients beyond
it and is never capped.  The chain loop is ``measure._sampled_bits``, and
what its chain keeps per bit is ``measure._SchurChain``'s.

The selftest replays sampled prefixes exactly against ratios of cylinder
determinants; the chi-square fit of word frequencies is a test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError, require_int
from .measure import _sampled_bits, _word_str
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
    width = n if bw is None else min(n, bw)  # the window's width
    if sym.geometric is None and width > EXACT_LENGTH_CAP:
        raise SizeCapError(
            f"exact sampling caps the window width at {EXACT_LENGTH_CAP}, got {width}; "
            "pass an explicit window for approximate sampling"
        )
    return bw


def sample_prefix(sym: Symbol, n: int, seed: int, window: "int | None | str" = "auto") -> BinarySequence:
    """Sample the first n coordinates of the one-sided process.

    Same (seed, symbol, n) always yields identical bits; trajectories are
    strictly sequential internally.  ``window`` is "auto" (the exact
    bandwidth, or None when the symbol has none), None (the full state: no
    coefficient is dropped) or an int w >= 0 (the coefficients past w are
    dropped: exact when w covers the bandwidth, a truncation otherwise, and
    i.i.d. Bernoulli(fhat(0)) bits at w = 0).
    """
    n = require_int(n, 1, 2 ** 62, "sample_prefix: need 1 <= n <= 2^62")
    seed = require_int(seed, 0, None, "sample_prefix: need seed >= 0")
    if window == "auto":
        window = _auto_window(sym, n)
    bits = _sampled_bits(sym, window, n, np.random.Generator(np.random.PCG64(seed)))
    return BinarySequence(bits, seed, sym.fingerprint)


def sample_many(sym: Symbol, n: int, count: int, seed: int) -> list[BinarySequence]:
    """Independent trajectories; trajectory i uses stream seed ^ i."""
    count = require_int(count, 1, None, "sample_many: need count >= 1")
    seed = require_int(seed, 0, None, "sample_many: need seed >= 0")
    return [sample_prefix(sym, n, seed ^ i) for i in range(count)]
