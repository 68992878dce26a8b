"""Longest common substring of two sampled prefixes and the growth-rate
experiment that tracks mean M_n / ln(n) against (2/ln 2) / dim2.

M_n is computed exactly from packed window codes.  Every length-64 window
of each prefix becomes one uint64, most significant bit first, and two
windows share as many leading bits as their XOR has leading zeros.  Both
prefixes' codes are written into one buffer, the full windows of x tagged
by a cleared last bit and those of y by a set one, and this tagged union is
sorted in place.  For sorted a <= b <= c the common prefix of a and c is no
longer than that of a and b or of b and c, so some adjacent pair of the
union from different prefixes matches as long as the best pair, and one
pass over adjacent XORs finds it.  The last 63 windows of each prefix run
past its end; one of own length L has the cap bit 1 << (63 - L), which
leaves any XOR at most L leading zeros.  A tail meets the other prefix's
full windows through its two union neighbours and its tails pair by pair,
and every candidate feeds one running minimum whose bit length gives M_n.
The tag costs the last bit, so the result is exact whenever M_n < 63.  A
longer one is refined from the same codes by prefix doubling of the runs
both prefixes share, then a descent to the exact length (``_lcs_doubling``).
A quadratic dynamic-programming oracle checks both steps on small inputs.

The experiment reports both normalizations, mean M_n / ln(n) and
log(M_n) / log(n); the former is the one with a finite limiting target,
the latter is kept for reference output.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import dimension, sampler
from .errors import require_bits, require_int
from .symbol import Symbol

LOG2 = math.log(2.0)
WINDOW = 64  # bits per packed window code
CHUNK = 8192  # union entries per pass of the adjacent-XOR minimum
DIM2_NMAX = 12  # depth of the moment sums behind a default dim2
_N_CAP = 2 ** 31 - 1  # the largest n whose ``_lcs_doubling`` keys fit int64


def _prefixes(x, y, n: int | None, need: str, cap: int | None = None) -> tuple[int, np.ndarray, np.ndarray]:
    """n (by default the shorter length) with x[:n] and y[:n] as uint8 arrays, after
    checking n in [1, cap] (``need`` is its message) and that x and y are binary."""
    if n is None:
        n = min(len(x), len(y))
    n = require_int(n, 1, cap, need)
    xs, ys = (require_bits(s.bits if isinstance(s, sampler.BinarySequence) else s, "lcs sequence")
              for s in (x, y))
    for bits in (xs, ys):
        if bits.size < n:
            raise ValueError(f"sequence of length {bits.size} shorter than n = {n}")
    return n, xs[:n], ys[:n]


def _window_codes(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the uint64 code of the WINDOW bits starting at each position,
    most significant bit first, into out[:n] and return that view; windows
    running past the end are padded with 0s.  out needs 8 * ceil(n / 8)
    entries, and the ones past n are overwritten too."""
    n = bits.size
    nbytes = -(-n // 8)
    packed = np.zeros(nbytes + 9, dtype=np.uint64)
    packed[:nbytes] = np.packbits(bits)
    # big-endian word at every byte offset, then 8 bit-offset shifts of it
    words = np.zeros(nbytes, dtype=np.uint64)
    for j in range(8):
        words |= packed[j:j + nbytes] << np.uint64(56 - 8 * j)
    spill = packed[8:8 + nbytes]
    codes = out[:8 * nbytes].reshape(nbytes, 8)
    codes[:, 0] = words
    for r in range(1, 8):
        codes[:, r] = (words << np.uint64(r)) | (spill >> np.uint64(8 - r))
    return out[:n]


def _tail_xor(union: np.ndarray, tails: np.ndarray, tag: int) -> np.ndarray:
    """Smallest XOR of each tail code with its two neighbours in the sorted
    union that carry ``tag``, i.e. are full windows of the other prefix
    (all ones where neither does).

    Only those two can matter.  Past a neighbour e of the tail's own prefix,
    every code s of the other lies beyond e, and for t <= e <= s the common
    prefix of t and s is no longer than that of e and s, a cross pair of
    full windows that the adjacent-XOR minimum has already counted.
    """
    idx = np.searchsorted(union, tails)
    # clipped at either end to the one neighbour there is
    near = np.take(union, np.stack((idx - 1, idx)), mode="clip")
    mine = (near & np.uint64(1)) == tag
    near ^= tails
    near[~mine] = ~np.uint64(0)
    return near.min(axis=0)


def lcs_length(x, y, n: int | None = None) -> int:
    """Exact length of the longest common substring of x[:n] and y[:n].

    Answers below WINDOW - 1 come from sorted window codes; one of WINDOW - 1
    or more is refined from the same codes by prefix doubling, for n < 2^31.
    """
    n, xs, ys = _prefixes(x, y, n, "lcs_length: need n >= 1 and n < 2^31", _N_CAP)
    full = max(n - WINDOW + 1, 0)  # windows lying wholly inside
    # a tail window of own length L (n - full .. 1) has the cap bit
    # 1 << (63 - L): any XOR v has min(lz(v), L) leading zeros once it is set
    cap = np.uint64(1) << np.arange(WINDOW - 1 - n + full, WINDOW - 1, dtype=np.uint64)
    # x's codes at buf[0:], then y's at buf[full:] over x's tail and padding
    buf = np.empty(full + 8 * -(-n // 8), dtype=np.uint64)
    tx = _window_codes(xs, buf)[full:].copy()
    np.bitwise_and(buf[:full], ~np.uint64(1), out=buf[:full])
    ty = _window_codes(ys, buf[full:])[full:].copy()
    union = buf[:2 * full]
    np.bitwise_or(union[full:], np.uint64(1), out=union[full:])
    # the tail pairs start the one running minimum that every candidate feeds
    low = ((tx[:, None] ^ ty[None, :]) | cap[:, None] | cap[None, :]).min()
    if full:
        union.sort()
        # an odd XOR of adjacent codes comes from a cross pair; each even
        # one is lifted past 2^63 (d | ~d << 63), so the minimum is the best
        # cross pair's whenever that has a leading zero, and has none exactly
        # when that has none.  The run is read CHUNK entries at a time.
        d = np.empty(min(CHUNK, 2 * full), dtype=np.uint64)
        lifted = np.empty_like(d)
        for start in range(0, 2 * full - 1, CHUNK):
            run = union[start:start + CHUNK + 1]
            m = run.size - 1
            np.bitwise_xor(run[1:], run[:-1], out=d[:m])
            np.invert(d[:m], out=lifted[:m])
            lifted[:m] <<= np.uint64(WINDOW - 1)
            lifted[:m] |= d[:m]
            low = min(low, lifted[:m].min())
        # the cap of L = 63 is the tag bit, so the tag cannot matter, and a
        # tail window's union neighbours give its best match
        for tail, tag in ((ty, 0), (tx, 1)):
            low = min(low, (_tail_xor(union, tail, tag) | cap).min())
    best = WINDOW - int(low).bit_length()
    if best >= WINDOW - 1:
        return _lcs_doubling(xs, ys)
    return best


def _lcs_doubling(xs: np.ndarray, ys: np.ndarray) -> int:
    """M_n, given that it is WINDOW - 1 or more, by prefix doubling (Karp,
    Miller & Rosenberg 1972; Manber & Myers 1993): group the runs of 63 * 2^k
    bits for k = 0, 1, ... until no cross group, one holding runs of both
    prefixes, is left, then descend through the kept levels and 32, ..., 1 bits."""
    n = xs.size  # x's windows at positions 0..n-1, y's at n..2n-1
    codes = np.concatenate([_window_codes(b, np.empty(8 * -(-n // 8), dtype=np.uint64))
                            for b in (xs, ys)])

    def grow(pos, gid, cur, step, table, shift, base):
        # the cross groups of the runs of cur + step bits lying inside at pos,
        # keyed by gid, the group of their first cur bits, and table[pos +
        # cur] >> shift, the id below base of the next step bits (-1 for
        # none).  A group holds two of the 2n windows, so gid < n fits the
        # int32 rank tables and a key below n * max(n, 2^32) fits int64 for
        # any n < 2^31, past which the window codes alone fill 32 GiB.
        nxt = (table.take(pos + cur, mode="clip") >> shift).astype(np.intp)
        keep = (pos % n <= n - cur - step) & (nxt >= 0)
        pos, key = pos[keep], gid[keep] * base + nxt[keep]
        run = np.unique(key, return_inverse=True)[1]
        in_y = np.bincount(run, pos >= n)
        cross = (in_y > 0) & (in_y < np.bincount(run))
        keep = cross[run]
        return pos[keep], (np.cumsum(cross) - 1)[run[keep]]

    # every window lies in the empty run, so the first keys are 63-bit codes,
    # and the fast route has found a cross pair of them
    grown = grow(np.arange(2 * n), np.zeros(2 * n, dtype=np.intp), 0, WINDOW - 1, codes, 1, 0)
    levels = []  # (63 * 2^k, each position's cross group of that length or -1, 0, groups)
    while grown[1].size:
        (pos, gid), cur = grown, (WINDOW - 1) << len(levels)
        rank = np.full(2 * n, -1, dtype=np.int32)
        rank[pos] = gid
        levels.append((cur, rank, 0, int(gid.max()) + 1))
        grown = grow(pos, gid, cur, *levels[-1])
    # cur <= M_n < 2 cur; the steps below sum to cur, each at most 1 more
    # than all later ones together, so keeping each step that fits ends at M_n
    bits = [(b, codes, WINDOW - b, 1 << b) for b in (32, 16, 8, 4, 2, 1)]
    for step, *lookup in levels[-2::-1] + bits:
        grown = grow(pos, gid, cur, step, *lookup)
        if grown[1].size:
            (pos, gid), cur = grown, cur + step
    return cur


def lcs_length_dp(x, y, n: int | None = None) -> int:
    """Quadratic dynamic-programming oracle for lcs_length."""
    n, xs, ys = _prefixes(x, y, n, "lcs_length_dp: need n >= 1")
    matches = (ys == 0, ys == 1)
    prev = np.zeros(n + 1, dtype=np.int32)  # entry 0 stays 0 in both rows
    cur = np.zeros(n + 1, dtype=np.int32)
    best = np.zeros(n, dtype=np.int32)  # the longest run ending at each position of y
    for xi in xs:
        np.add(prev[:-1], 1, out=cur[1:])
        cur[1:] *= matches[xi]
        np.maximum(best, cur[1:], out=best)
        prev, cur = cur, prev
    return int(best.max())


@dataclass(frozen=True)
class LcsExperimentRow:
    """Monte Carlo summary of M_n at one prefix length."""

    n: int
    trials: int
    mean_Mn: float
    std_Mn: float
    ratio: float            # mean_Mn / ln(n)
    ratio_loglog: float     # mean over trials of log(M_n) / log(n)
    target: float           # (2/ln 2) / dim2
    # dim2 was given, or it is a certified Fekete lower bound on D2, so that
    # target is an upper bound on the limit of M_n / ln n
    target_certified: bool


def _trial_seeds(seed: int, n_index: int, trial: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(entropy=seed & (2 ** 64 - 1),
                                spawn_key=(n_index, trial))
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def rate_experiment(sym: Symbol, n_grid, trials: int, seed: int,
                    dim2: float | None = None) -> list[LcsExperimentRow]:
    """Mean growth of M_n over independent sampled pairs, per n in n_grid.

    The target column divides 2/ln 2 by ``dim2``.  When ``dim2`` is not
    supplied it is the ``fekete_lower`` of the dimension module up to
    N = DIM2_NMAX, and ``target_certified`` says whether that is a certified
    lower bound on D2 (it is not for two-sided symbols); the target is then an
    upper bound on the limit of M_n / ln n.  A given ``dim2`` is a real number
    in (0, 1], ``seed`` an int in [0, 2^64), each n one in [2, 2^31).  Trial
    t of row j derives its two sampling seeds from SeedSequence((seed, (j, t))).
    """
    need = "rate_experiment: n_grid must contain integers >= 2 and < 2^31"
    ns = [require_int(v, 2, _N_CAP, need) for v in n_grid]
    if not ns:
        raise ValueError(need)
    trials = require_int(trials, 1, None, "rate_experiment: need trials >= 1")
    seed = require_int(seed, 0, None, "rate_experiment: need seed >= 0")
    if seed >= 2 ** 64:  # _trial_seeds keeps the low 64 bits
        raise ValueError("rate_experiment: need seed < 2^64")
    certified = True
    if dim2 is None:
        est = dimension.dim_q_estimate(sym, 2, DIM2_NMAX)
        dim2, certified = est.fekete_lower, est.certified
    elif isinstance(dim2, bool) or not isinstance(dim2, numbers.Real) or not 0.0 < dim2 <= 1.0:
        raise ValueError(f"rate_experiment: need dim2 in (0, 1], got {dim2!r}")
    target = (2.0 / LOG2) / dim2

    def one_trial(n_index: int, n: int, trial: int) -> int:
        sx, sy = _trial_seeds(seed, n_index, trial)
        x = sampler.sample_prefix(sym, n, sx)
        y = sampler.sample_prefix(sym, n, sy)
        return lcs_length(x.bits, y.bits, n)

    rows = []
    for j, n in enumerate(ns):
        values = np.array([one_trial(j, n, t) for t in range(trials)], dtype=float)
        logs = np.log(np.maximum(values, 1.0)) / math.log(n)
        rows.append(
            LcsExperimentRow(
                n=n,
                trials=trials,
                mean_Mn=float(values.mean()),
                std_Mn=float(values.std(ddof=1)) if trials > 1 else 0.0,
                ratio=float(values.mean() / math.log(n)),
                ratio_loglog=float(logs.mean()),
                target=target,
                target_certified=certified,
            )
        )
    return rows
