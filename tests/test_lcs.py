import math
import tracemalloc

import numpy as np
import pytest

from dppkit import Symbol, lcs, lcs_length, lcs_length_dp, rate_experiment, sample_prefix


def test_examples():
    assert lcs_length("1010", "1010", 4) == 4      # identical prefixes
    assert lcs_length("0000", "1111", 4) == 0      # disjoint alphabets
    assert lcs_length("0110", "1001", 4) == 2      # "01" and "10" but nothing longer


def test_prefix_restriction():
    x = "0001111"
    y = "1111000"
    assert lcs_length(x, y, 3) == 0   # "000" vs "111"
    assert lcs_length(x, y, 7) == 4   # both contain "1111"


def test_input_validation(fair):
    with pytest.raises(ValueError):
        lcs_length("01", "0101", 3)
    with pytest.raises(ValueError):
        lcs_length("012", "010", 3)
    short = sample_prefix(fair, 10, seed=3)
    with pytest.raises(ValueError):
        lcs_length(short, short, 11)
    with pytest.raises(ValueError, match="n_grid must contain integers >= 2"):
        rate_experiment(fair, [], 1, 1, dim2=1.0)


def _planted(rng, n, length, i, j, x=None):
    """Random x (or the given one), y of length n sharing the same `length`
    bits at x[i:] and y[j:], with the bits on either side of the match made
    to differ."""
    x = rng.integers(0, 2, n) if x is None else x
    y = rng.integers(0, 2, n)
    word = rng.integers(0, 2, length)
    x[i:i + length] = word
    y[j:j + length] = word
    if i and j:
        y[j - 1] = 1 - x[i - 1]
    if i + length < n and j + length < n:
        y[j + length] = 1 - x[i + length]
    return x, y


def _oracle_cases(rng):
    """(x, y, n) pairs covering both sides of the 63-bit fast route."""
    for _ in range(200):
        n = max(1, int(np.exp(rng.uniform(0, math.log(2000)))))
        yield rng.integers(0, 2, n), rng.integers(0, 2, n), n
    for n in range(1, 131):  # every tail / full-window split
        yield rng.integers(0, 2, n), rng.integers(0, 2, n), n
    for bias in (0.02, 0.98):  # long runs of one symbol
        for n in (50, 200, 1000):
            yield (rng.random(n) < bias).astype(int), (rng.random(n) < bias).astype(int), n
    for length in (61, 62, 63, 64, 65):  # a planted common substring either side of 63
        for n in (length, 100, 700):
            i, j = rng.integers(0, n - length + 1, 2)
            yield *_planted(rng, n, length, i, j), n
    for length in range(1, 65):  # a match ending on the last bit of x, of y, of both
        for n in (length, 100, 700) if length in (5, 40, 62, 63, 64) else (100,):
            i, j = rng.integers(0, n - length + 1, 2)
            for a, b in ((n - length, j), (i, n - length), (n - length, n - length)):
                yield *_planted(rng, n, length, a, b), n
    n = 2 ** 12  # many equal windows on each side
    for bx, by in ((0.98, 0.98), (0.98, 0.02)):
        yield (rng.random(n) < bx).astype(int), (rng.random(n) < by).astype(int), n
    yield np.arange(n) % 2, rng.integers(0, 2, n), n  # two distinct windows in x
    for n in (1, 63, 64, 65, 300):
        zeros = np.zeros(n, dtype=int)
        yield zeros, zeros.copy(), n
    # M_n = 100 >= 63, and y's ones, which x lacks, reset the automaton scan
    yield np.zeros(130, dtype=int), np.r_[np.zeros(100, dtype=int), np.ones(30, dtype=int)], 130


def test_oracle_agreement_random_pairs():
    rng = np.random.default_rng(55)
    for x, y, n in _oracle_cases(rng):
        assert lcs_length(x, y, n) == lcs_length_dp(x, y, n), n


def test_lcs_needs_no_bitwise_count(monkeypatch):
    # every candidate is scored by the bit length of one running minimum,
    # so numpy's popcount (new in 2.0) is never called
    monkeypatch.delattr(np, "bitwise_count")
    rng = np.random.default_rng(55)
    for x, y, n in _oracle_cases(rng):
        assert lcs_length(x, y, n) == lcs_length_dp(x, y, n), n


def test_automaton_only_from_63(monkeypatch):
    # 62 is the longest answer the window codes give; 63 or more is recomputed
    rng = np.random.default_rng(58)
    n = 700
    cases = []
    for length in (62, 63):
        # full windows; a match ending on x's last bit; on y's; on both
        for i, j in ((100, 400), (n - length, 300), (250, n - length), (n - length, n - length)):
            x, y = _planted(rng, n, length, i, j)
            assert lcs_length_dp(x, y, n) == length
            cases.append((length, x, y))

    def refuse(xs, ys):
        raise RuntimeError("suffix automaton reached")

    monkeypatch.setattr(lcs, "_lcs_automaton", refuse)
    for length, x, y in cases:
        if length == 62:
            assert lcs_length(x, y, n) == 62
        else:
            with pytest.raises(RuntimeError, match="suffix automaton reached"):
                lcs_length(x, y, n)


def test_tail_route_finds_a_match_ending_on_the_last_bit(monkeypatch):
    # such a match starts in a tail window of that prefix, which no full
    # window of it holds, so only the tail neighbours in the union find it
    rng = np.random.default_rng(60)
    n = 2 ** 12
    cases = []
    for length in (40, 62):
        for i, j in ((n - length, 1000), (1000, n - length)):
            x, y = _planted(rng, n, length, i, j)
            assert lcs_length_dp(x, y, n) == length
            cases.append((length, x, y))
    for length, x, y in cases:
        assert lcs_length(x, y, n) == length
    monkeypatch.setattr(lcs, "_tail_xor", lambda union, tails, tag: np.full(tails.size, ~np.uint64(0)))
    for length, x, y in cases:
        assert lcs_length(x, y, n) < length


def test_tails_beside_their_own_prefix_in_the_union(monkeypatch):
    # long runs of one code leave a tail window with no neighbour from the
    # other prefix; the union's cross pairs then bound its every match
    rng = np.random.default_rng(61)
    n = 2 ** 12
    cases = [
        (np.zeros(n, dtype=int), rng.integers(0, 2, n), None),
        ((rng.random(n) < 0.999).astype(int), (rng.random(n) < 0.999).astype(int), None),
    ]
    for length in (40, 62):  # x all zeros but the planted word, ended by y's bits
        for i, j in ((n - length, 1000), (1000, n - length), (n - length, n - length)):
            cases.append((*_planted(rng, n, length, i, j, x=np.zeros(n, dtype=int)), length))
    unmatched = []
    tail_xor = lcs._tail_xor

    def counted(union, tails, tag):
        best = tail_xor(union, tails, tag)
        unmatched.append(int(np.count_nonzero(best == ~np.uint64(0))))
        return best

    monkeypatch.setattr(lcs, "_tail_xor", counted)
    for x, y, length in cases:
        unmatched.clear()
        expect = lcs_length_dp(x, y, n)
        assert length in (None, expect)
        assert lcs_length(x, y, n) == expect
        assert sum(unmatched) > 0
    assert lcs_length_dp(*cases[0][:2], n) < 63  # the window codes' answer, not the automaton's


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_adjacent_minimum_across_chunks(monkeypatch, chunk):
    # the best adjacent pair may straddle two chunks of the sorted union
    monkeypatch.setattr(lcs, "CHUNK", chunk)
    rng = np.random.default_rng(62)
    for n in (64, 65, 66, 130, 300):
        for _ in range(4):
            x, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
            assert lcs_length(x, y, n) == lcs_length_dp(x, y, n), n
        x, y = _planted(rng, n, 40, *rng.integers(0, n - 39, 2))
        assert lcs_length(x, y, n) == lcs_length_dp(x, y, n) >= 40


def test_one_call_peak_memory(fair):
    # both prefixes' codes share one buffer of about 2n uint64s, sorted in place
    n = 2 ** 16
    x = sample_prefix(fair, n, seed=1).bits
    y = sample_prefix(fair, n, seed=2).bits
    lcs_length(x, y, 64)
    tracemalloc.start()
    try:
        lcs_length(x, y, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n


def test_inputs_left_unchanged(fair):
    # the window codes are sorted in place; the caller's bits must not be
    rng = np.random.default_rng(59)
    x = rng.integers(0, 2, 500).astype(np.uint8)
    y = rng.integers(0, 2, 500).astype(np.uint8)
    sx = sample_prefix(fair, 500, seed=1)
    sy = sample_prefix(fair, 500, seed=2)
    before = [a.copy() for a in (x, y, sx.bits, sy.bits)]
    lcs_length(x, y, 400)
    lcs_length(x, y)
    lcs_length(sx, sy, 500)
    for a, b in zip((x, y, sx.bits, sy.bits), before):
        assert a.dtype == np.uint8
        assert np.array_equal(a, b)


def test_monotone_in_n():
    rng = np.random.default_rng(56)
    x = rng.integers(0, 2, 400)
    y = rng.integers(0, 2, 400)
    vals = [lcs_length(x, y, n) for n in (50, 100, 200, 400)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_symmetry():
    rng = np.random.default_rng(57)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        x = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        assert lcs_length(x, y, n) == lcs_length(y, x, n)


def test_accepts_binary_sequences(fair):
    x = sample_prefix(fair, 100, seed=1)
    y = sample_prefix(fair, 100, seed=2)
    assert lcs_length(x, y, 100) == lcs_length(x.bits, y.bits, 100)


def test_rate_experiment_rows(fair):
    rows = rate_experiment(fair, [256, 1024], trials=8, seed=99, dim2=1.0)
    assert [r.n for r in rows] == [256, 1024]
    for row in rows:
        assert row.trials == 8
        assert 0 < row.mean_Mn < row.n
        assert row.ratio == pytest.approx(row.mean_Mn / math.log(row.n))
        assert row.target == pytest.approx(2.0 / math.log(2.0))
        assert 0 < row.ratio_loglog < 1.0
        assert row.target_certified


def test_rate_experiment_default_dim2(fair):
    rows = rate_experiment(fair, [128], trials=2, seed=1)
    assert rows[0].target == pytest.approx(2.0 / math.log(2.0), abs=1e-9)
    assert rows[0].target_certified


def test_rate_experiment_flags_uncertified_target():
    # two-sided symbol: fekete_lower is an estimate, not a certified bound
    rows = rate_experiment(Symbol.raised_cosine(0.5, 0.25), [128], trials=2, seed=1)
    assert not rows[0].target_certified


def test_rate_experiment_refuses_a_seed_past_64_bits(fair):
    # the trial seeds keep the seed's low 64 bits, so 2^64 would rerun seed 0
    with pytest.raises(ValueError, match=r"^rate_experiment: need seed < 2\^64$") as info:
        rate_experiment(fair, [16], 1, 2 ** 64, dim2=1.0)
    assert info.type is ValueError
    rows = rate_experiment(fair, [16], 1, 2 ** 64 - 1, dim2=1.0)
    assert [r.n for r in rows] == [16]


def test_identical_pair_guard():
    # degenerate harness self-check: x = y gives M_n = n, ratio n/ln n
    x = "01" * 64
    n = 128
    assert lcs_length(x, x, n) == n
