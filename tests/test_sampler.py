import math
import tracemalloc

import numpy as np
import pytest

from dppkit import (
    Symbol,
    cylinder_prob,
    sample_many,
    sample_prefix,
)
from dppkit.errors import ConditioningError
from dppkit.mixing import SizeCapError
from dppkit.sampler import EXACT_LENGTH_CAP, _auto_window
from dppkit.symbol import require_range

from oracles import EagerPrefixState, conditional_next, empirical_cylinder_test


def test_reproducibility(poi_half):
    a = sample_prefix(poi_half, 500, seed=7)
    b = sample_prefix(poi_half, 500, seed=7)
    assert np.array_equal(a.bits, b.bits)
    assert a.symbol_fingerprint == poi_half.fingerprint
    c = sample_prefix(poi_half, 500, seed=8)
    assert not np.array_equal(a.bits, c.bits)


def test_windowed_matches_full_state(rc_half):
    # band-limited symbol: the trailing-window state is exact, so the
    # sampled bits agree with the full-state path draw for draw
    auto = sample_prefix(rc_half, 300, seed=11)           # window = bandwidth
    full = sample_prefix(rc_half, 300, seed=11, window=None)
    assert np.array_equal(auto.bits, full.bits)


def test_fast_path_matches_loop(fair):
    fast = sample_prefix(fair, 200, seed=3)               # bandwidth-0 fast path
    loop = sample_prefix(fair, 200, seed=3, window=None)
    assert np.array_equal(fast.bits, loop.bits)


def test_fair_coin_mean(fair):
    n = 10_000
    for seed in (1, 2, 3):
        seq = sample_prefix(fair, n, seed=seed)
        assert abs(seq.bits.mean() - 0.5) <= 3.0 / (2.0 * math.sqrt(n))


def test_one_point_intensity_frequency(poi_half):
    n = 100_000
    seq = sample_prefix(poi_half, n, seed=12345)
    se = math.sqrt(poi_half.fhat0 * (1 - poi_half.fhat0) / n)
    assert abs(seq.bits.mean() - poi_half.fhat0) <= 4 * se


def test_adjacent_pair_frequency(rc_half):
    # P(11 adjacent) = 3/16 over disjoint 2-windows
    n_windows = 10_000
    seq = sample_prefix(rc_half, 2 * n_windows, seed=2718)
    pairs = seq.bits.reshape(n_windows, 2)
    freq = np.mean((pairs[:, 0] == 1) & (pairs[:, 1] == 1))
    p = cylinder_prob(rc_half, "11")
    assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n_windows)


def test_sampler_conditionals_match_measure(poi_half):
    # the sampler's internal conditionals are the measure module's
    from dppkit.measure import PrefixState

    seq = sample_prefix(poi_half, 12, seed=99)
    for k in range(1, 9):
        word = "".join(str(int(b)) for b in seq.bits[:k])
        state = PrefixState.root(poi_half)
        for b in seq.bits[:k]:
            state = state.extend(int(b))
        assert state.conditional_one() == pytest.approx(conditional_next(poi_half, word), abs=1e-12)


def test_three_cylinder_frequencies_within_four_se(poi_half):
    n_samples = 100_000
    rep = empirical_cylinder_test(poi_half, 3, n_samples, seed=20260810)
    freq = rep.counts / n_samples
    pexp = rep.expected / n_samples
    se = np.sqrt(pexp * (1 - pexp) / n_samples)
    assert np.all(np.abs(freq - pexp) <= 4 * se)


def test_chi_square_pass_and_negative_control(poi_half, fair):
    rep = empirical_cylinder_test(poi_half, 2, 30_000, seed=5)
    assert rep.p_value > 1e-3
    neg = empirical_cylinder_test(poi_half, 3, 30_000, seed=5, model=fair)
    assert neg.p_value < 1e-6


def test_stream_independence(poi_half):
    seqs = sample_many(poi_half, 300, count=4, seed=1000)
    assert len({s.to01() for s in seqs}) == 4
    again = sample_many(poi_half, 300, count=4, seed=1000)
    for a, b in zip(seqs, again):
        assert np.array_equal(a.bits, b.bits)
    # trajectory i is the single trajectory with stream seed ^ i
    direct = sample_prefix(poi_half, 300, seed=1000 ^ 2)
    assert np.array_equal(seqs[2].bits, direct.bits)


def test_encodings(fair):
    seq = sample_prefix(fair, 16, seed=0)
    assert len(seq.to01()) == 16
    assert len(seq.to_hex()) == 4
    assert seq.to01() == format(int(seq.to_hex(), 16), "016b")


def _eager_bits(sym, n, seed, window):
    """The sampler's bits drawn by the chain rule on the eager corner route,
    from the same n uniforms of the trajectory's PCG64 stream."""
    uni = np.random.Generator(np.random.PCG64(seed)).random(n)
    state, bits = EagerPrefixState.root(sym, window=window), np.empty(n, dtype=np.uint8)
    for k in range(n):
        bits[k] = uni[k] < state.conditional_one()
        state = state.extend(int(bits[k]))
    return bits


@pytest.mark.parametrize("sym", [
    Symbol.poisson(0.5, 0.25), Symbol.poisson(0.75, 0.125), Symbol.poisson(0.4, 0.4),
    Symbol.poisson(0.5, -0.3), Symbol.raised_cosine(0.55, 0.3), Symbol.trig_poly([0.5, 0.1 + 0.1j]),
], ids=["poisson(0.5,0.25)", "poisson(0.75,0.125)", "poisson(0.4,0.4)", "poisson(0.5,-0.3)",
        "raised_cosine(0.55,0.3)", "trig_poly(complex,B=1)"])
def test_one_number_samples_match_eager_oracle(sym):
    # the one-number state draws the bits of the eager corner route.  At
    # 2,048 bits the eager full state costs about 30 s a trajectory, so it
    # runs at a window: the bandwidth for raised_cosine and the complex
    # trig_poly (exact), and for poisson the last n with |fhat(n)| > 1e-16,
    # so that it drops only coefficients below that (the full state is
    # compared on 512 bits below)
    if sym.geometric is None:
        window = sym.bandwidth
    else:
        c, r = map(abs, sym.geometric)
        window = math.ceil(math.log(1e-16 / c) / math.log(r))
        assert abs(sym.coeff(window + 1)) <= 1e-16 < abs(sym.coeff(window - 1))
    for seed in range(5):
        fast = sample_prefix(sym, 2048, seed)
        assert np.array_equal(fast.bits, _eager_bits(sym, 2048, seed, window))


def test_complex_bandwidth_one_sample_is_pinned():
    # drawn by the 1 x 1 corner route before this symbol's state was one number
    seq = sample_prefix(Symbol.trig_poly([0.5, 0.1 + 0.1j]), 200, 11)
    assert seq.to_hex() == "9b2645a5b5e3acfb65eb9de02c7795cbd84a174aa6d82b050a"


def test_poisson_without_usable_decay_samples_past_the_cap():
    # |fhat(n)| stays above 1e-16 up to n = 6,000: the one-number state is
    # exact at O(1) per bit, so the length cap of the matrix states does not
    # apply
    sym = Symbol.poisson(0.002, 0.995)
    assert abs(sym.coeff(6000)) > 1e-16
    seq = sample_prefix(sym, 4096, 1)
    assert seq.bits.shape == (4096,)
    assert np.array_equal(seq.bits[:512], _eager_bits(sym, 512, 1, None))


@pytest.mark.parametrize("window", [-1, -3, 2.5, True, False, 0.0, "3"])
@pytest.mark.parametrize("sym", [Symbol.raised_cosine(0.5, 0.25), Symbol.power_decay(0.5, 0.1, 2, 64)],
                         ids=["raised_cosine", "power_decay"])
def test_window_must_be_none_or_an_int_at_least_0(sym, window):
    # PrefixState.root refuses it, before the i.i.d. path at window 0 too
    with pytest.raises(ValueError, match="window must be None or an int >= 0"):
        sample_prefix(sym, 40, 1, window=window)
    assert np.array_equal(sample_prefix(sym, 40, 1, window=np.int64(2)).bits,
                          sample_prefix(sym, 40, 1, window=2).bits)


def test_no_decay_needs_cap_or_window():
    arc = Symbol.arc_indicator(0.1, 0.9)
    with pytest.raises(SizeCapError):
        sample_prefix(arc, 5000, seed=1)
    short = sample_prefix(arc, 64, seed=1)  # full-state exact path
    assert short.bits.shape == (64,)


def test_cap_keys_on_the_corner_width():
    # a band-limited symbol as wide as n keeps the same n x n corner as a
    # symbol with no bandwidth, so it meets the same cap
    wide = Symbol.power_decay(0.5, 0.01, 2, 1_000_000)
    with pytest.raises(SizeCapError, match="got 4096"):
        sample_prefix(wide, 4096, seed=1)
    with pytest.raises(SizeCapError, match="got 4096"):
        sample_prefix(Symbol.arc_indicator(0.1, 0.9), 4096, seed=1)
    # the width is min(n, bandwidth)
    table = np.zeros(3001, dtype=complex)
    table[0], table[3000] = 0.5, 0.01
    with pytest.raises(SizeCapError, match="got 3000"):
        _auto_window(Symbol.trig_poly(table), 4096)
    assert _auto_window(wide, EXACT_LENGTH_CAP) == 1_000_000
    assert _auto_window(Symbol.poisson(0.5, 0.25), 10 * EXACT_LENGTH_CAP) is None
    # an explicit window is never capped
    assert len(sample_prefix(wide, 4096, seed=1, window=2)) == 4096


def test_short_sample_of_a_wide_symbol_reads_only_its_coefficients():
    # the automatic window is the cutoff, 10^6, but 100 bits need a 99-wide corner
    wide = Symbol.power_decay(0.5, 0.01, 2, 1_000_000)
    require_range(wide)  # its 4,096-point range grid is not the sampler's
    tracemalloc.start()
    try:
        auto = sample_prefix(wide, 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    assert np.array_equal(auto.bits, sample_prefix(wide, 100, seed=1, window=None).bits)


def test_empirical_word_distribution_small(rc_half):
    # every 2-cylinder frequency near its exact value
    rep = empirical_cylinder_test(rc_half, 2, 50_000, seed=77)
    freq = rep.counts / rep.n_samples
    pexp = rep.expected / rep.n_samples
    assert np.all(np.abs(freq - pexp) <= 4 * np.sqrt(pexp * (1 - pexp) / rep.n_samples))


def test_cylinder_test_refuses_sparse_cells(poi_half):
    with pytest.raises(ConditioningError, match="^expected cell counts below 5; increase n_samples$"):
        empirical_cylinder_test(poi_half, 6, 100, seed=1)
