import math
import re
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
from dppkit.measure import PrefixState, _GData, _SchurChain, _chain_root
from dppkit.mixing import SizeCapError
from dppkit.sampler import EXACT_LENGTH_CAP, _auto_window
from dppkit.symbol import require_range

from oracles import (EagerPrefixState, conditional_alphas_mp, conditional_next, empirical_cylinder_test,
                     sliced_schur_step)


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
    seq = sample_prefix(poi_half, 12, seed=99)
    for k in range(1, 9):
        word = "".join(str(int(b)) for b in seq.bits[:k])
        state = _chain_root(poi_half, None, k + 1)
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


@pytest.mark.parametrize("name,window", [("trig_poly(complex,B=3)", 3), ("power_decay(0.5,0.1,2,64)", 64)])
def test_sample_many_on_a_matrix_state(name, window):
    # trajectory i of a Schur chain is the single trajectory with stream
    # seed ^ i, at a length past the buffer's first move
    sym = SCHUR_SYMBOLS[name]
    assert _auto_window(sym, 10 ** 3) == window
    n = len(_SchurChain(_GData(sym), window, 10 ** 6).rows) + window + 2
    seqs = sample_many(sym, n, count=3, seed=1000)
    assert len({s.to01() for s in seqs}) == 3
    for i, seq in enumerate(seqs):
        assert seq.seed == 1000 ^ i
        assert np.array_equal(seq.bits, sample_prefix(sym, n, seed=1000 ^ i).bits)


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


SCHUR_SYMBOLS = {
    "power_decay(0.5,0.1,2,64)": Symbol.power_decay(0.5, 0.1, 2, 64),
    "trig_poly(complex,B=3)": Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]),
    "trig_poly(trig-sample,B=2)": Symbol.trig_poly([0.5, 0.1 + 0.12j, -0.05 + 0.07j]),
    "arc_indicator(0.3,0.7)": Symbol.arc_indicator(0.3, 0.7),
}


def _drawn(route):
    """The bits a route draws, or the class and position of its error (a
    value in the message may differ in its last digits between routes)."""
    try:
        return route().tolist()
    except ConditioningError as exc:
        return type(exc).__name__, re.search(r"at position (\d+)", str(exc)).group(1)


@pytest.mark.parametrize("name,window", [(name, w) for name, sym in SCHUR_SYMBOLS.items()
                                         for w in sorted({1, 2, sym.bandwidth or 1}) + [None]])
def test_schur_chain_bits_match_the_eager_route(name, window):
    # the sampler's Schur chain draws the bits of the eager corner route, or
    # fails at the same position (arc_indicator at windows 1 and 2, which
    # truncate it).  n = w and w + 1 fit in one window, and w + 2 does not.
    # A long chain's buffer holds `rows` columns, and its last w move back
    # to the start to form position rows, and again to form position
    # 2 rows - w.  At windows 3 and 64 (rows = 296 and 129) n runs just
    # before, at and after both moves; at windows 1 and 2 (rows = 412 to
    # 1,367) 1,500 bits pass the first move
    sym = SCHUR_SYMBOLS[name]
    ns = [1, 2, 3, 300] if window is None else [1, 2, window, window + 1, window + 2, 300, 1500]
    if window in (3, 64):
        rows = len(_SchurChain(_GData(sym), window, 10 ** 6).rows)
        ns += [k + dk for k in (rows, 2 * rows - window) for dk in range(3)]
    for n in ns:
        for seed in range(5):
            fast = _drawn(lambda: sample_prefix(sym, n, seed, window=window).bits)
            assert fast == _drawn(lambda: _eager_bits(sym, n, seed, window)), (n, seed)


@pytest.mark.parametrize("sym,window,n", [
    (Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]), 3, 40),
    (Symbol.arc_indicator(0.1, 0.45), None, 40),
    (Symbol.power_decay(0.5, 0.1, 2, 64), 64, 40),
    (Symbol.arc_indicator(0.1, 0.45), None, 120),
], ids=["trig_poly(complex,B=3)-w3", "arc_indicator(0.1,0.45)-None", "power_decay(0.5,0.1,2,64)-w64",
        "arc_indicator(0.1,0.45)-None-n120"])
def test_schur_chain_alphas_match_mpmath(monkeypatch, sym, window, n):
    # every alpha the sampler reads off its pivot lies within 1e-14 of the
    # 40-digit conditional of the bits before it: at most 1.4e-17, 7.8e-16,
    # 1.4e-17 and 1.0e-15 here (the corner route: 1.4e-17, 3.3e-16,
    # 1.4e-17 and 5.7e-16)
    bits, alphas = _sampled_alphas(monkeypatch, sym, n, 2, window)
    assert 0 < sum(bits) < n
    for got, want in zip(alphas, conditional_alphas_mp(sym, bits), strict=True):
        assert abs(got - complex(want)) <= 1e-14


@pytest.mark.parametrize("name,window", [("trig_poly(complex,B=3)", 3), ("power_decay(0.5,0.1,2,64)", 64)])
def test_schur_chain_alphas_hold_across_buffer_moves(monkeypatch, name, window):
    # the bits alone can miss a slip in the buffer's move: columns moved one
    # row off, or d left behind, shift the next alphas by 1e-3 to 1e-2, and
    # the bits of the test above held at window 64 for both.  Through two
    # moves every alpha lies within 1e-13 of the eager corner route's
    # (at most 2.1e-17 here)
    sym = SCHUR_SYMBOLS[name]
    rows = len(_SchurChain(_GData(sym), window, 10 ** 6).rows)
    bits, alphas = _sampled_alphas(monkeypatch, sym, 2 * rows - window + 3, 5, window)
    monkeypatch.undo()
    state = EagerPrefixState.root(sym, window=window)
    for got, bit in zip(alphas, bits, strict=True):
        assert abs(got - state._extension()[2]) <= 1e-13
        state = state.extend(bit)


@pytest.mark.parametrize("window", [1, 2, 3, 64])
@pytest.mark.parametrize("name", ["power_decay(0.5,0.1,2,64)", "trig_poly(complex,B=3)"])
def test_schur_step_on_formed_views_matches_the_sliced_step(name, window):
    # a buffer that moves steps rows reach .. rows - 1 on views it formed
    # once; every alpha is == the step that slices them on every bit
    # (the same arrays, with the same strides, into the same gemv).  The
    # lengths hold no move, or end just before, at and after the first and
    # second moves (the points the bit test above reads off the chain), with
    # the last reach bits, sliced again, on either side of a move
    sym = SCHUR_SYMBOLS[name]
    gd = _GData(sym)
    rows = len(_SchurChain(gd, window, 10 ** 6).rows)
    ns = [window + 2, rows] + [m + dk for m in (rows, 2 * rows - window)
                               for dk in (1, 2, window, window + 1, window + 2, window + 3)]
    rng = np.random.default_rng(3)
    for n in ns:
        chain, oracle = _SchurChain(gd, window, n), _SchurChain(gd, window, n)
        assert bool(chain.views) == (n > rows)
        for k in range(n):
            alpha = chain.alphas[0]
            assert alpha == oracle.alphas[0], (n, k)
            tp = 1.0 if rng.random() < 0.5 * (1.0 + alpha.real) else -1.0
            s = 1.0 + tp * alpha
            chain.step(tp, s)
            sliced_schur_step(oracle, tp, s)


def _sampled_alphas(monkeypatch, sym, n, seed, window):
    """The bits of a sampled prefix and the alpha its chain read for each."""
    read = PrefixState.conditional_one
    alphas = []

    def recording(state):
        alphas.append(state._stack.alphas[0])
        return read(state)

    monkeypatch.setattr(PrefixState, "conditional_one", recording)
    return sample_prefix(sym, n, seed, window=window).bits.tolist(), alphas


def test_out_of_range_conditional_names_a_plain_float():
    # window 8 truncates arc_indicator: the conditional leaves [0, 1] at
    # bit 1,249, on the sampler's chain and on the eager corner route alike
    sym = Symbol.arc_indicator(0.1, 0.45)
    message = r"^conditional probability -0\.00164795862436\d* out of range at position 1249$"
    with pytest.raises(ConditioningError, match=message):
        sample_prefix(sym, 4096, 0, window=8)
    with pytest.raises(ConditioningError, match=message):
        _eager_bits(sym, 4096, 0, 8)


@pytest.mark.parametrize("window", [-1, -3, 2.5, True, False, 0.0, "3"])
@pytest.mark.parametrize("sym", [Symbol.raised_cosine(0.5, 0.25), Symbol.power_decay(0.5, 0.1, 2, 64)],
                         ids=["raised_cosine", "power_decay"])
def test_window_must_be_none_or_an_int_at_least_0(sym, window):
    # the window gate refuses it, before the i.i.d. path at window 0 too
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
