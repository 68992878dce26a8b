import math

import numpy as np
import pytest

from dppkit import Symbol, lcs_length, lcs_length_dp, rate_experiment, sample_prefix


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


def _oracle_cases(rng):
    """(x, y, n) pairs covering both sides of the 64-bit window code."""
    for _ in range(200):
        n = max(1, int(np.exp(rng.uniform(0, math.log(2000)))))
        yield rng.integers(0, 2, n), rng.integers(0, 2, n), n
    for n in range(1, 131):  # every tail / full-window split
        yield rng.integers(0, 2, n), rng.integers(0, 2, n), n
    for bias in (0.02, 0.98):  # long runs of one symbol
        for n in (50, 200, 1000):
            yield (rng.random(n) < bias).astype(int), (rng.random(n) < bias).astype(int), n
    for length in (63, 64, 65):  # a planted common substring either side of 64
        for n in (length, 100, 700):
            x = rng.integers(0, 2, n)
            y = rng.integers(0, 2, n)
            word = rng.integers(0, 2, length)
            i, j = rng.integers(0, n - length + 1, 2)
            x[i:i + length] = word
            y[j:j + length] = word
            yield x, y, n
    for n in (1, 63, 64, 65, 300):
        zeros = np.zeros(n, dtype=int)
        yield zeros, zeros.copy(), n
    # M_n = 100 >= 64, and y's ones, which x lacks, reset the automaton scan
    yield np.zeros(130, dtype=int), np.r_[np.zeros(100, dtype=int), np.ones(30, dtype=int)], 130


def test_oracle_agreement_random_pairs():
    rng = np.random.default_rng(55)
    for x, y, n in _oracle_cases(rng):
        assert lcs_length(x, y, n) == lcs_length_dp(x, y, n), n


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
