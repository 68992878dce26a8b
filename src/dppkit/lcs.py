"""Longest common substring of two sampled prefixes and the growth-rate
experiment that tracks mean M_n / ln(n) against (2/ln 2) / dim2.

M_n is computed exactly from packed window codes.  Every length-64 window
of each prefix becomes one uint64, most significant bit first, and the
full windows of each prefix are sorted in place.  Two windows share as many
leading bits as their XOR has leading zeros.  The two sorted sets are merged
into one run, x's codes tagged by a cleared last bit and y's by a set one.
For sorted a <= b <= c the common prefix of a and c is no longer than that
of a and b or of b and c, so some adjacent pair of the run from different
prefixes matches as long as the best pair, and one pass over adjacent XORs
finds it.  The last 63 windows of each prefix, which run past its end, are
capped at their own length: against the other prefix's full windows
through their searchsorted neighbours, and against its tail windows pair
by pair.  The tag costs the last bit, so the result is exact whenever
M_n < 63.  An answer of 63 or more falls back to a suffix automaton over
x's prefix scanned with y's prefix (linear time, pure Python).  A
quadratic dynamic-programming oracle validates both routes on small inputs.

The experiment reports both normalizations, mean M_n / ln(n) and
log(M_n) / log(n); the former is the one with a finite limiting target,
the latter is kept for reference output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dimension, sampler
from .errors import require_bits, require_int
from .symbol import Symbol

LOG2 = math.log(2.0)
WINDOW = 64  # bits per packed window code
DIM2_NMAX = 12  # depth of the moment sums behind a default dim2


def _prefixes(x, y, n: int | None, need: str) -> tuple[int, np.ndarray, np.ndarray]:
    """n (by default the shorter length) with x[:n] and y[:n] as uint8 arrays,
    after checking n (``need`` is its message) and that all of x and y is binary."""
    if n is None:
        n = min(len(x), len(y))
    n = require_int(n, 1, None, need)
    xs, ys = (require_bits(s.bits if isinstance(s, sampler.BinarySequence) else s, "lcs sequence")
              for s in (x, y))
    for bits in (xs, ys):
        if bits.size < n:
            raise ValueError(f"sequence of length {bits.size} shorter than n = {n}")
    return n, xs[:n], ys[:n]


def _window_codes(bits: np.ndarray) -> np.ndarray:
    """uint64 code of the WINDOW bits starting at each position, most
    significant bit first; windows running past the end are padded with 0s."""
    n = bits.size
    nbytes = -(-n // 8)
    packed = np.zeros(nbytes + 9, dtype=np.uint64)
    packed[:nbytes] = np.packbits(bits)
    # big-endian word at every byte offset, then 8 bit-offset shifts of it
    words = np.zeros(nbytes, dtype=np.uint64)
    for j in range(8):
        words |= packed[j:j + nbytes] << np.uint64(56 - 8 * j)
    spill = packed[8:8 + nbytes]
    codes = np.empty((nbytes, 8), dtype=np.uint64)
    codes[:, 0] = words
    for r in range(1, 8):
        codes[:, r] = (words << np.uint64(r)) | (spill >> np.uint64(8 - r))
    return codes.ravel()[:n]


def _leading_zeros(v: np.ndarray) -> np.ndarray:
    """Leading zero bits of each uint64 (WINDOW for 0)."""
    v = v.copy()
    for s in (1, 2, 4, 8, 16, 32):  # smear the highest set bit rightwards
        v |= v >> np.uint64(s)
    return WINDOW - np.bitwise_count(v).astype(np.int64)


def _nearest_xor(sorted_codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Smallest XOR of each query with any of the sorted codes.

    The smallest XOR has the most leading zeros, i.e. the longest common
    leading bits, and over a sorted set it sits at one of the query's two
    searchsorted neighbours.  Only the 63 tail windows of a prefix are
    queried this way; the full windows meet in _cross_min_xor.
    """
    idx = np.searchsorted(sorted_codes, queries)
    above = np.take(sorted_codes, idx, mode="clip")  # clipped to the last code
    above ^= queries
    idx -= 1
    below = np.take(sorted_codes, idx, mode="clip")  # clipped to the first code
    below ^= queries
    return np.minimum(above, below, out=above)


def _cross_min_xor(sx: np.ndarray, sy: np.ndarray) -> int:
    """Smallest XOR of a code of sorted sx with one of sorted sy, each with
    its last bit replaced by the side's tag, so the result is odd.

    x's codes with the last bit cleared and y's with it set stay sorted, and
    a stable sort of the two runs is one linear merge.  An odd XOR of
    adjacent codes comes from a cross pair; each even one is lifted past
    2^63, so the minimum is the best cross pair's whenever that has a
    leading zero, and has no leading zero exactly when that has none.
    """
    buf = np.empty(sx.size + sy.size, dtype=np.uint64)
    np.bitwise_and(sx, ~np.uint64(1), out=buf[:sx.size])
    np.bitwise_or(sy, np.uint64(1), out=buf[sx.size:])
    buf.sort(kind="stable")
    d = buf[1:] ^ buf[:-1]
    lifted = np.bitwise_and(d, np.uint64(1), out=buf[:-1])
    lifted ^= np.uint64(1)
    lifted <<= np.uint64(WINDOW - 1)
    lifted |= d
    return int(lifted.min())


def lcs_length(x, y, n: int | None = None) -> int:
    """Exact length of the longest common substring of x[:n] and y[:n].

    Answers below WINDOW - 1 come from sorted window codes; an answer of
    WINDOW - 1 or more is recomputed by the suffix automaton.
    """
    n, xs, ys = _prefixes(x, y, n, "lcs_length: need n >= 1")
    cx = _window_codes(xs)
    cy = _window_codes(ys)
    full = max(n - WINDOW + 1, 0)          # windows lying wholly inside
    tail_len = np.arange(n - full, 0, -1)  # own lengths of the tail windows
    best = 0
    if full:
        sx, sy = cx[:full], cy[:full]
        sx.sort()
        sy.sort()
        best = WINDOW - _cross_min_xor(sx, sy).bit_length()
        # a tail window's own length caps every candidate alike, so the
        # nearest neighbour still gives its best match
        for sorted_full, tail in ((sx, cy[full:]), (sy, cx[full:])):
            common = np.minimum(_leading_zeros(_nearest_xor(sorted_full, tail)), tail_len)
            best = max(best, int(common.max()))
    common = _leading_zeros(cx[full:, None] ^ cy[None, full:])
    common = np.minimum(common, np.minimum(tail_len[:, None], tail_len[None, :]))
    best = max(best, int(common.max()))
    if best >= WINDOW - 1:
        return _lcs_automaton(xs.tolist(), ys.tolist())
    return best


def _lcs_automaton(xs: list[int], ys: list[int]) -> int:
    """Longest common substring by a suffix automaton of xs scanned with ys."""
    # suffix automaton of xs over the binary alphabet
    sa_len = [0]
    sa_link = [-1]
    sa_next = [[-1, -1]]
    last = 0
    for ch in xs:
        cur = len(sa_len)
        sa_len.append(sa_len[last] + 1)
        sa_link.append(-1)
        sa_next.append([-1, -1])
        p = last
        while p != -1 and sa_next[p][ch] == -1:
            sa_next[p][ch] = cur
            p = sa_link[p]
        if p == -1:
            sa_link[cur] = 0
        else:
            q = sa_next[p][ch]
            if sa_len[p] + 1 == sa_len[q]:
                sa_link[cur] = q
            else:
                clone = len(sa_len)
                sa_len.append(sa_len[p] + 1)
                sa_link.append(sa_link[q])
                sa_next.append(sa_next[q].copy())
                while p != -1 and sa_next[p][ch] == q:
                    sa_next[p][ch] = clone
                    p = sa_link[p]
                sa_link[q] = clone
                sa_link[cur] = clone
        last = cur

    # scan ys, tracking the longest suffix of the scanned part that occurs in xs
    v = 0
    length = 0
    best = 0
    for ch in ys:
        while v and sa_next[v][ch] == -1:
            v = sa_link[v]
            length = sa_len[v]
        if sa_next[v][ch] != -1:
            v = sa_next[v][ch]
            length += 1
            if length > best:
                best = length
        else:
            v = 0
            length = 0
    return best


def lcs_length_dp(x, y, n: int | None = None) -> int:
    """Quadratic dynamic-programming oracle for lcs_length."""
    n, xs, ys = _prefixes(x, y, n, "lcs_length_dp: need n >= 1")
    prev = np.zeros(n + 1, dtype=np.int32)
    cur = np.zeros(n + 1, dtype=np.int32)
    best = 0
    for xi in xs:
        cur[0] = 0
        np.add(prev[:-1], 1, out=cur[1:])
        cur[1:] *= ys == xi
        best = max(best, int(cur.max()))
        prev, cur = cur, prev
    return best


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
    upper bound on the limit of M_n / ln n.  ``seed`` is an int in [0, 2^64).
    Trial t of row j derives its two sampling seeds from
    SeedSequence((seed, (j, t))).
    """
    need = "rate_experiment: n_grid must contain integers >= 2"
    ns = [require_int(v, 2, None, need) for v in n_grid]
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
