import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from dppkit import (
    ConditioningError,
    HypothesisError,
    NumericsError,
    Symbol,
    contraction_margin,
    correlation_ratio,
    cylinder_log_prob,
    cylinder_prob,
    dimension,
    measure,
    s_n_q_table,
    sample_prefix,
)
from dppkit.measure import (COEFF_BLOCK, PrefixState, _log_probs, _one_number,
                            cylinder_log_probs_direct)
from dppkit.symbol import g_coeff_fn
from dppkit.toeplitz import build_T

from conftest import random_interior_symbol
from oracles import (EagerPrefixState, build_T_window, build_lambda, complement, conditional_next,
                     cylinder_prob_direct, hs_norm_sq_lambda, joint_cylinder_log_prob,
                     s_n_q_table_dfs)


def _all_words(n):
    return ["".join("1" if (m >> k) & 1 else "0" for k in range(n)) for m in range(2 ** n)]


def joint_cylinder_prob(sym, word, word_prime, gap_ell):
    return math.exp(joint_cylinder_log_prob(sym, word, word_prime, gap_ell))


def test_cylinder_prob_product_measure(fair):
    for n in (1, 3, 7):
        for word in ("1" * n, "0" * n, "10" * (n // 2) + "1" * (n % 2)):
            assert cylinder_prob(fair, word) == pytest.approx(2.0 ** -n, rel=1e-13)


def test_cylinder_prob_hand_determinants(rc_half):
    assert cylinder_prob(rc_half, "11") == pytest.approx(3.0 / 16.0, rel=1e-13)
    assert cylinder_prob(rc_half, "10") == pytest.approx(5.0 / 16.0, rel=1e-13)
    # additivity back to mu([1]) = fhat(0)
    assert cylinder_prob(rc_half, "11") + cylinder_prob(rc_half, "10") == pytest.approx(0.5)


def test_single_point_intensity():
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.6, 0.3), Symbol.constant(0.75)):
        assert cylinder_prob(sym, "1") == pytest.approx(sym.fhat0, abs=1e-12)


def test_signed_and_direct_forms_agree():
    rng = np.random.default_rng(21)
    for _ in range(25):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 8))
        word = "".join(rng.choice(["0", "1"], n))
        assert cylinder_prob(sym, word) == pytest.approx(cylinder_prob_direct(sym, word), rel=1e-11)


def test_range_violation_raises():
    bad = Symbol.raised_cosine(0.5, 0.7)
    with pytest.raises(HypothesisError):
        cylinder_prob(bad, "01")


def test_normalization(poi_half, rc_half):
    for sym, n in ((poi_half, 10), (rc_half, 10), (Symbol.poisson(0.75, 0.125), 12)):
        logs = cylinder_log_probs_direct(sym, n)
        assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-10)


def test_kolmogorov_consistency():
    rng = np.random.default_rng(22)
    for _ in range(15):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 7))
        word = "".join(rng.choice(["0", "1"], n))
        assert cylinder_prob(sym, word + "0") + cylinder_prob(sym, word + "1") == pytest.approx(
            cylinder_prob(sym, word), abs=1e-10
        )


def test_complement_symmetry():
    for sym in (Symbol.raised_cosine(0.6, 0.25), Symbol.poisson(0.5, 0.25), Symbol.constant(0.3)):
        comp = complement(sym)
        for word in ("1", "10", "0110", "11100"):
            flipped = "".join("1" if ch == "0" else "0" for ch in word)
            assert cylinder_prob(sym, word) == pytest.approx(
                cylinder_prob(comp, flipped), abs=1e-10
            )


def test_window_shift_invariance(poi_half):
    # stationarity: the same word over the window {k+1..k+N} has the same mass
    word = "1011"
    eps = np.array([1, 0, 1, 1], dtype=float)
    theta = 2 * eps - 1
    base = cylinder_log_prob(poi_half, word)
    gh = g_coeff_fn(poi_half)
    for anchor in (5, 17):
        j = np.arange(anchor, anchor + 4)
        m = theta[:, None] * build_T(gh, j) + np.eye(4)
        shifted = np.linalg.slogdet(m)[1] - 4 * math.log(2)
        assert shifted == pytest.approx(base, abs=1e-12)


def test_joint_examples(fair, rc_half, poi_half):
    assert joint_cylinder_prob(fair, "1", "1", 3) == pytest.approx(0.25, rel=1e-13)
    # bandwidth-1 symbol: coupling block vanishes at any gap >= 1
    assert joint_cylinder_prob(rc_half, "1", "1", 1) == pytest.approx(0.25, rel=1e-13)
    assert joint_cylinder_prob(poi_half, "1", "1", 1) == pytest.approx(
        0.25 - 1.0 / 1024.0, rel=1e-13
    )


def test_joint_marginalization(poi_half):
    for word in ("01", "11"):
        total = sum(
            joint_cylinder_prob(poi_half, word, w2, 2) for w2 in _all_words(len(word))
        )
        assert total == pytest.approx(cylinder_prob(poi_half, word), abs=1e-10)


def test_joint_refinement_identity(poi_half):
    # growing both windows outward (prepend left, append right) keeps the gap
    # and partitions the coarse event into four one-longer configurations
    eps, eps_p, ell = "10", "01", 2
    coarse = joint_cylinder_prob(poi_half, eps, eps_p, ell)
    fine = sum(
        joint_cylinder_prob(poi_half, b + eps, eps_p + c, ell)
        for b in "01"
        for c in "01"
    )
    assert fine == pytest.approx(coarse, abs=1e-12)


def test_correlation_ratio_reports(fair, rc_half, poi_half):
    rep = correlation_ratio(fair, "101", "110", 2)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.h_trace_norm == pytest.approx(0.0, abs=1e-14)
    rep = correlation_ratio(rc_half, "10", "01", 1)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    rep = correlation_ratio(poi_half, "1", "1", 1)
    assert rep.ratio == pytest.approx(1.0 - 1.0 / 256.0, rel=1e-12)


def test_ratio_identity_and_simon_bound_randomized():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 7))
        ell = int(rng.integers(1, 6))
        w1 = "".join(rng.choice(["0", "1"], n))
        w2 = "".join(rng.choice(["0", "1"], n))
        rep = correlation_ratio(sym, w1, w2, ell)  # raises if the routes disagree
        assert abs(rep.ratio - 1.0) <= rep.simon_bound + 1e-9


def test_trace_norm_bound_by_hs_over_tau():
    rng = np.random.default_rng(24)
    for _ in range(25):
        sym = random_interior_symbol(rng)
        tau = contraction_margin(sym)
        assert tau > 0
        n = int(rng.integers(1, 6))
        ell = int(rng.integers(1, 5))
        w1 = "".join(rng.choice(["0", "1"], n))
        w2 = "".join(rng.choice(["0", "1"], n))
        rep = correlation_ratio(sym, w1, w2, ell)
        assert rep.h_trace_norm <= hs_norm_sq_lambda(sym, n, ell) / tau ** 2 + 1e-12


def test_conditional_next_examples(fair, rc_half):
    assert conditional_next(fair, "") == pytest.approx(0.5)
    assert conditional_next(fair, "0110") == pytest.approx(0.5, abs=1e-13)
    assert conditional_next(rc_half, "1") == pytest.approx(3.0 / 8.0, rel=1e-13)
    assert conditional_next(rc_half, "0") == pytest.approx(5.0 / 8.0, rel=1e-13)


def test_conditional_next_matches_determinant_ratio():
    rng = np.random.default_rng(25)
    for _ in range(20):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 9))
        word = "".join(rng.choice(["0", "1"], n))
        cond = conditional_next(sym, word)
        full = cylinder_prob(sym, word + "1") / cylinder_prob(sym, word)
        assert cond == pytest.approx(full, abs=1e-9)


def test_prefix_state_log_prob_matches_direct():
    rng = np.random.default_rng(26)
    for _ in range(15):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 10))
        bits = rng.integers(0, 2, n)
        state = PrefixState.root(sym)
        for b in bits:
            state = state.extend(int(b))
        word = "".join(str(int(b)) for b in bits)
        assert state.log_prob == pytest.approx(cylinder_log_prob(sym, word), abs=1e-11)


def test_windowed_prefix_state_exact_for_band_limited():
    sym = Symbol.raised_cosine(0.55, 0.3)
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2, 60)
    full = PrefixState.root(sym)
    windowed = PrefixState.root(sym, window=sym.bandwidth)
    for b in bits:
        assert windowed.conditional_one() == pytest.approx(full.conditional_one(), abs=1e-13)
        full = full.extend(int(b))
        windowed = windowed.extend(int(b))
    assert windowed.log_prob == pytest.approx(full.log_prob, abs=1e-11)


LAZY_SYMBOLS = {
    "poisson": Symbol.poisson(0.75, 0.125),
    "raised_cosine": Symbol.raised_cosine(0.55, 0.3),
    "power_decay": Symbol.power_decay(0.5, 0.1, 2.0, 64),
    "trig_poly-complex": Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]),
    "arc_indicator": Symbol.arc_indicator(0.3, 0.7),
}


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _outcome(call):
    try:
        return call()
    except ConditioningError as exc:
        return str(exc)


@pytest.mark.parametrize("window", [None, *range(13)])
@pytest.mark.parametrize("name", sorted(LAZY_SYMBOLS))
def test_lazy_prefix_state_matches_eager_oracle(name, window):
    # log_prob, conditional_one, corner and theta equal the eager route bit
    # for bit along random paths; each step first touches the lazy child
    # through a different entry point, and some children are never queried.
    # Every window width up to 12 is covered: numpy may round a complex
    # product in a short row unlike one in a longer row, and a trimmed
    # corner must still match the untrimmed one entry for entry.  Where the
    # state is one number (poisson at window None, raised_cosine at windows
    # >= 1) there is no corner, and the number is checked against the eager
    # route instead
    sym = LAZY_SYMBOLS[name]
    if _one_number(sym, window):
        ulps = None if sym.bandwidth is not None else WELL_CONDITIONED_ULPS
        _check_one_number_paths(sym, window, ulps, paths=3, bits=24)
        return
    rng = np.random.default_rng(61)
    for _ in range(3):
        lazy = PrefixState.root(sym, window=window)
        eager = EagerPrefixState.root(sym, window=window)
        for _ in range(24):
            first = rng.integers(0, 4)
            if first == 1:
                assert _same(lazy.corner, eager.corner)
            elif first == 2:
                assert _same(lazy.theta, eager.theta)
            if first != 3:
                p1 = _outcome(lazy.conditional_one)
                assert p1 == _outcome(eager.conditional_one)
                if isinstance(p1, str):  # a truncated window can leave [0, 1]
                    break
            if rng.integers(0, 2):
                assert _same(lazy.corner, eager.corner) and _same(lazy.theta, eager.theta)
            bit = int(rng.integers(0, 2))
            lazy, eager = _outcome(lambda: lazy.extend(bit)), _outcome(lambda: eager.extend(bit))
            if isinstance(lazy, str):
                assert lazy == eager
                break
            assert lazy.log_prob == eager.log_prob
        else:
            assert _same(lazy.corner, eager.corner) and _same(lazy.theta, eager.theta)
            if window is not None:
                assert lazy.corner.shape == (window, window)


def test_prefix_state_parent_is_keyword_only():
    # a state is built only by root and extend: the old positional
    # constructor form (gd, window, length, theta, corner, log_prob) fails at
    # once instead of building a wrong state
    root = PrefixState.root(LAZY_SYMBOLS["power_decay"])
    with pytest.raises(TypeError):
        PrefixState(root.gd, None, 0, root.theta, root.corner, 0.0)


def test_lazy_child_drops_its_parent():
    # a child's stack keeps its parent's arrays until its corners are formed
    state = PrefixState.root(LAZY_SYMBOLS["power_decay"]).extend(1)
    assert state._stack.source is not None
    state.conditional_one()
    assert state._stack.source is None


@pytest.mark.parametrize("name", ["power_decay", "trig_poly-complex"])
def test_full_state_chain_outgrows_its_coefficient_cache(name):
    # root(sym) sizes its g-coefficients itself: a full-state chain runs
    # past the first block and past its doubling, and log_prob follows the
    # direct determinant; the eager oracle grows its cache the same way and
    # matches the lazy state bit for bit
    sym = LAZY_SYMBOLS[name]
    bits = np.random.default_rng(64).integers(0, 2, 2 * COEFF_BLOCK + 20)
    lazy, eager = PrefixState.root(sym), EagerPrefixState.root(sym)
    for k, bit in enumerate(bits, start=1):
        assert lazy.conditional_one() == eager.conditional_one()
        lazy, eager = lazy.extend(int(bit)), eager.extend(int(bit))
        assert lazy.log_prob == eager.log_prob
        if k in (40, COEFF_BLOCK + 1, len(bits)):
            word = "".join(map(str, bits[:k]))
            assert lazy.log_prob == pytest.approx(cylinder_log_prob(sym, word), rel=1e-11)
    assert lazy.gd.gpos.size == eager.gd.gpos.size == 4 * COEFF_BLOCK


# symbols whose prefix state is one number at window None, by name
ONE_NUMBER_SYMBOLS = {
    "poisson(0.002,0.995)": Symbol.poisson(0.002, 0.995),
    "poisson(0.4,0.4)": Symbol.poisson(0.4, 0.4),
    "poisson(0.5,-0.3)": Symbol.poisson(0.5, -0.3),
    "poisson(0.75,0.125)": Symbol.poisson(0.75, 0.125),
    "raised_cosine(0.55,0.3)": Symbol.raised_cosine(0.55, 0.3),
    "raised_cosine(0.75,0.25)": Symbol.raised_cosine(0.75, 0.25),
    "constant(0.3)": Symbol.constant(0.3),
    "trig_poly(real,B=1)": Symbol.trig_poly([0.4, -0.2]),
    "power_decay(cutoff=1)": Symbol.power_decay(0.5, 0.2, 3.0, 1),
    "poisson(0.5,0)": Symbol.poisson(0.5, 0.0),
}
# tolerances against the eager route and a 50-digit determinant, in units
# of u = 2^-53: (conditional_one absolute, log_prob relative).  The symbol
# of poisson(0.002,0.995) dips to f = 5e-6, so its extension factors
# s = 1 + tp alpha come near 1e-5 and lose digits in either route: on a
# 14-bit word the eager route is 1,027 u from the 50-digit value
ULPS = {"poisson(0.002,0.995)": (32, 8192)}
WELL_CONDITIONED_ULPS = (8, 16)
U = 2.0 ** -53


def _check_one_number_paths(sym, window, ulps, paths, bits, seed=62):
    """log_prob and conditional_one of the one-number state against the
    eager corner route along random paths: equal when ulps is None
    (bandwidth <= 1 rounds the same), else within the given ulps."""
    rng = np.random.default_rng(seed)
    for _ in range(paths):
        state = PrefixState.root(sym, window=window)
        eager = EagerPrefixState.root(sym, window=window)
        for bit in rng.integers(0, 2, bits):
            p1, want = state.conditional_one(), eager.conditional_one()
            assert p1 == want if ulps is None else abs(p1 - want) <= ulps[0] * U
            state, eager = state.extend(int(bit)), eager.extend(int(bit))
            if ulps is None:
                assert state.log_prob == eager.log_prob
            else:
                assert abs(state.log_prob - eager.log_prob) <= ulps[1] * U * abs(eager.log_prob)


def test_one_number_choice():
    # a geometric symbol at window None, a bandwidth <= 1 symbol, complex
    # too, at window None or one that covers the bandwidth; every other
    # symbol or window keeps the corner (an explicit window truncates a
    # geometric symbol, however wide)
    poi = Symbol.poisson(0.5, 0.25)
    assert _one_number(poi, None) and not _one_number(poi, 27) and not _one_number(poi, 4096)
    rc = Symbol.raised_cosine(0.55, 0.3)
    assert _one_number(rc, None) and _one_number(rc, 1) and not _one_number(rc, 0)
    assert _one_number(Symbol.constant(0.3), 0)
    for name in ("power_decay", "trig_poly-complex", "arc_indicator"):
        assert not _one_number(LAZY_SYMBOLS[name], None)
    assert not _one_number(Symbol.trig_poly([0.5, 0.1, 0.05]), None)  # real, bandwidth 2
    cx = Symbol.trig_poly([0.5, 0.1j])                                 # complex, bandwidth 1
    assert _one_number(cx, None) and _one_number(cx, 1) and not _one_number(cx, 0)


@pytest.mark.parametrize("name", sorted(ONE_NUMBER_SYMBOLS))
def test_one_number_state_matches_eager_oracle(name):
    sym = ONE_NUMBER_SYMBOLS[name]
    assert _one_number(sym, None)
    ulps = None if sym.bandwidth is not None else ULPS.get(name, WELL_CONDITIONED_ULPS)
    _check_one_number_paths(sym, None, ulps, paths=4, bits=160)


def test_complex_bandwidth_one_state_matches_eager_oracle():
    # x <- (tp/s) ghat(-1) and alpha = g0 - ghat(1) x: bit for bit the eager
    # route's 1 x 1 corner at window 1, and within an ulp of its full state
    sym = Symbol.trig_poly([0.5, 0.1 + 0.1j])
    _check_one_number_paths(sym, 1, None, paths=4, bits=400)
    _check_one_number_paths(sym, None, (1, 2), paths=2, bits=160)


def test_one_number_state_has_no_corner():
    # no src caller reads corner or theta; on a one-number state they raise
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.55, 0.3)):
        state = PrefixState.root(sym)
        for st in (state, state.extend(1)):
            for attr in ("corner", "theta"):
                with pytest.raises(AttributeError, match="one-number prefix state has no inverse"):
                    getattr(st, attr)


def _mp_log_prob(sym, word):
    """log mu([word]) = log det(D(theta) T_N(g) + I) - N log 2, at 50 digits."""
    n = len(word)
    ghat = g_coeff_fn(sym)
    g = {d: mpmath.mpf(float(v.real)) for d, v in zip(range(-n, n + 1), ghat(np.arange(-n, n + 1)))}
    with mpmath.workdps(50):
        m = mpmath.matrix(n, n)
        for i in range(n):
            t = 1 if word[i] == "1" else -1
            for j in range(n):
                m[i, j] = t * g[i - j] + (1 if i == j else 0)
        return mpmath.log(mpmath.det(m)) - n * mpmath.log(2)


@pytest.mark.parametrize("name", sorted(ONE_NUMBER_SYMBOLS))
def test_one_number_log_prob_matches_mpmath(name):
    sym = ONE_NUMBER_SYMBOLS[name]
    rng = np.random.default_rng(63)
    words = ["1" * 14, "0" * 14, "10" * 7] + ["".join(rng.choice(["0", "1"], 14)) for _ in range(3)]
    for word in words:
        state = PrefixState.root(sym)
        for ch in word:
            state = state.extend(int(ch))
        want = _mp_log_prob(sym, word)
        assert abs(state.log_prob - want) <= ULPS.get(name, WELL_CONDITIONED_ULPS)[1] * U * abs(want)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["poisson", "raised_cosine", "trig_poly-complex"])
def test_moment_sums_match_eager_oracle_walk(name, q):
    sym = LAZY_SYMBOLS[name]
    assert s_n_q_table(sym, 10, q).tobytes() == s_n_q_table_dfs(sym, 10, q).tobytes()


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", sorted(ONE_NUMBER_SYMBOLS))
def test_one_number_moment_sums_match_eager_oracle_walk(name, q):
    sym = ONE_NUMBER_SYMBOLS[name]
    assert np.max(np.abs(s_n_q_table(sym, 10, q) - s_n_q_table_dfs(sym, 10, q))) <= 1e-14


@pytest.mark.parametrize("route", [PrefixState, EagerPrefixState])
def test_lazy_extend_raises_where_eager_does(route):
    # the same ConditioningError at the same bit: an imaginary residue on a
    # tree walk (the library's level-order walk, and the depth-first walk
    # of the eager route), and a vanishing factor on a chain
    walk = s_n_q_table if route is PrefixState else s_n_q_table_dfs
    with pytest.raises(ConditioningError, match=r"^prefix mass 3\.62e-19 too small to resolve "
                       r"at position 9: \|s\| = 2, imaginary residue -6\.36e-10$"):
        walk(Symbol.arc_indicator(0.1, 0.45), 10, 2)
    state = route.root(Symbol.constant(1.0)).extend(1)
    with pytest.raises(ConditioningError,
                       match="^prefix probability vanishes extending with bit 0 at position 1$"):
        state.extend(0)


@pytest.mark.parametrize("route", [PrefixState, EagerPrefixState])
def test_conditional_one_refuses_an_imaginary_residue(route):
    # alpha itself, not an extension factor, carries the residue here
    state = route.root(Symbol.arc_indicator(0.1, 0.45))
    for bit in "111111110":
        state = state.extend(int(bit))
    with pytest.raises(ConditioningError, match=r"^prefix mass 3\.62e-19 too small to resolve at "
                       r"position 9: \|s\| = 0\.00135, imaginary residue 6\.36e-10$"):
        state.conditional_one()
    if route is PrefixState:
        with pytest.raises(ConditioningError, match=r"^prefix mass 3\.62e-19 .* residue 6\.36e-10$"):
            conditional_next(Symbol.arc_indicator(0.1, 0.45), "111111110")


def test_log_probs_negative_determinant_boundary():
    # a negative determinant is mass 0 only below log|det| = -200
    with pytest.raises(NumericsError, match="^cylinder determinant is negative$"):
        _log_probs(np.array([[[-1e-80]]]))
    assert _log_probs(np.array([[[-1e-90]]])).tolist() == [-math.inf]


def test_zero_determinant_is_mass_0_without_a_warning():
    # slogdet of an exactly singular window divides by zero; the module's rule
    # reads it as mass 0, so under filterwarnings = error no warning may escape
    sym = Symbol.poisson(1e-300, -1e-12)
    assert cylinder_log_prob(sym, "10") == -math.inf


def test_correlation_ratio_refuses_a_vanishing_marginal():
    with pytest.raises(ConditioningError, match="^marginal cylinder probability vanishes$"):
        correlation_ratio(Symbol.constant(1.0), "0", "0", 1)


def _first_subtree_depth(sym) -> int:
    """How many levels the level-order walk takes before it first cuts a
    level into runs: every level whose corner stack fits in STACK_BYTES,
    and the leaves below the deepest one (leaves form no corners)."""
    itemsize = 8 if sym.has_real_coeffs else 16
    return 1 + max(d for d in range(1, 23) if 2 ** d * d * d * itemsize <= dimension.STACK_BYTES)


QS = (2, 3, 2.5)
# the deepest oracle walk per symbol: arc_indicator(0.3,0.7) meets a
# vanishing extension factor on a 15-bit prefix
ORACLE_DEPTH = {"power_decay": 16, "trig_poly-complex": 16, "arc_indicator": 14}


@pytest.fixture(scope="module")
def dfs_oracle():
    """The depth-first eager walk of each symbol to its oracle depth, on first use."""
    return {}


@pytest.mark.parametrize("n_max", ["h-1", "h", "h+1", 16])
@pytest.mark.parametrize("name", sorted(ORACLE_DEPTH))
def test_level_order_moment_sums_match_dfs_oracle(dfs_oracle, name, n_max):
    # byte for byte, for every q: one whole subtree (h - 1 and h levels),
    # the first cut into runs (h + 1), and a tree of many runs (16 levels).
    # A level's sum does not depend on n_max, so one depth-first walk of
    # the eager route, at the library's window = bandwidth, is the oracle
    # of every n_max up to its depth
    sym = LAZY_SYMBOLS[name]
    h = _first_subtree_depth(sym)
    n = n_max if isinstance(n_max, int) else h + {"h-1": -1, "h": 0, "h+1": 1}[n_max]
    depth = ORACLE_DEPTH[name]
    if n > depth:
        # past it both walks raise the same error
        want = _outcome(lambda: s_n_q_table_dfs(sym, n, QS, window=sym.bandwidth))
        assert isinstance(want, str)
        assert all(_outcome(lambda: s_n_q_table(sym, n, q)) == want for q in QS)
        return
    if name not in dfs_oracle:
        dfs_oracle[name] = s_n_q_table_dfs(sym, depth, QS, window=sym.bandwidth)
    for q, want in zip(QS, dfs_oracle[name]):
        assert s_n_q_table(sym, n, q).tobytes() == want[:n].tobytes()


def test_level_order_walk_visits_each_level_in_lexicographic_order(monkeypatch):
    # Kahan sums are close to order-free, so byte-equal sums alone would
    # not show a run walked out of turn: compare each level's sequence of
    # log-probabilities with the depth-first walk's, across cuts into runs
    sym = LAZY_SYMBOLS["power_decay"]
    n_max = _first_subtree_depth(sym) + 3
    seen = {}
    for route in (PrefixState, EagerPrefixState):
        extend = route.extend

        def recording(self, bit, extend=extend, route=route):
            child = extend(self, bit)
            seen.setdefault(route, {}).setdefault(child.length, []).append(child.log_prob)
            return child

        monkeypatch.setattr(route, "extend", recording)
    s_n_q_table(sym, n_max, 2)
    s_n_q_table_dfs(sym, n_max, 2)
    assert seen[PrefixState] == seen[EagerPrefixState]
    assert [len(seen[PrefixState][n]) for n in range(1, n_max + 1)] == [2 ** n for n in range(1, n_max + 1)]


def test_level_order_walk_holds_no_whole_level():
    # the deepest level at n_max 16 holds 2^15 corners of 15 x 15 (59 MB);
    # the walk holds a few stacks of at most STACK_BYTES each
    sym = LAZY_SYMBOLS["power_decay"]
    s_n_q_table(sym, 4, 2)
    tracemalloc.start()
    try:
        s_n_q_table(sym, 16, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * dimension.STACK_BYTES


def _traced_peak(route):
    route()  # warm-up: coefficient caches and numpy's first-call allocations
    tracemalloc.start()
    try:
        route()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [256, 269])
@pytest.mark.parametrize("sym", [Symbol.arc_indicator(0.1, 0.45), LAZY_SYMBOLS["power_decay"]],
                         ids=["arc_indicator-complex", "power_decay-real"])
def test_full_state_chain_holds_one_corner(sym, n):
    # the sampler's Schur chain holds one n x n array, the pivot column of
    # each position in a row, and forms each column by one gemv against the
    # rows before it: this reads 1.03-1.04 corners, the array and the
    # vectors of one step
    peak = _traced_peak(lambda: sample_prefix(sym, n, 3, window=None))
    assert peak < 1.3 * n * n * (8 if sym.has_real_coeffs else 16)


@pytest.mark.parametrize("n", [256, 269])
@pytest.mark.parametrize("sym", [Symbol.arc_indicator(0.1, 0.45), LAZY_SYMBOLS["power_decay"]],
                         ids=["arc_indicator-complex", "power_decay-real"])
def test_callers_full_state_chain_holds_two_corners(sym, n):
    # a caller's chain that drops each state forms each child beside its
    # parent, a chunk of rows at a time, and keeps a lone child's (1, k, k)
    # corner as a view of the formed one: this reads 2.25-2.27 corners, a
    # copy of each lone child 3.02-3.03
    bits = sample_prefix(sym, n, 3, window=None).bits.tolist()

    def chain():
        state = PrefixState.root(sym)
        for bit in bits:
            state = state.extend(bit)
        assert state.corner.shape == (n, n)

    assert _traced_peak(chain) < 2.5 * n * n * (8 if sym.has_real_coeffs else 16)


def _eager_chain_check(lazy, eager):
    assert lazy.log_prob == eager.log_prob
    assert _same(lazy.corner, eager.corner) and _same(lazy.theta, eager.theta)


# ways a caller can keep an old chain state's arrays without the state
HOLD = {
    "corner-and-theta": lambda state: (state.corner, state.theta),
    "view-of-corner": lambda state: (state.corner[1:, ::2],),
}


@pytest.mark.parametrize("hold", sorted(HOLD))
def test_held_chain_arrays_keep_their_values(hold):
    # a caller's chain forms each child beside its parent, never in the
    # parent's memory: arrays kept from the states of 20 and 21 bits keep
    # their values 50 steps on, and every state has the eager bytes
    sym = LAZY_SYMBOLS["trig_poly-complex"]
    lazy, eager = PrefixState.root(sym), EagerPrefixState.root(sym)
    held = []
    for k, bit in enumerate(sample_prefix(sym, 72, 65, window=None).bits.tolist()):
        if k in (20, 21):
            arrays = HOLD[hold](lazy)
            held.append((arrays, [a.copy() for a in arrays]))
        lazy, eager = lazy.extend(bit), eager.extend(bit)
        _eager_chain_check(lazy, eager)
    for arrays, copies in held:
        assert all(_same(a, c) for a, c in zip(arrays, copies))


def test_sibling_of_a_formed_chain_child_has_the_eager_bytes():
    # the first child forms beside its parent; the parent, extended again
    # once that stack is formed, starts a second stack of one, and the
    # second child forms beside the parent too, also after the parent is
    # dropped: both keep the eager bytes
    sym = LAZY_SYMBOLS["arc_indicator"]
    parent, eager = PrefixState.root(sym), EagerPrefixState.root(sym)
    for bit in (1, 0, 1, 1, 0, 0, 1, 0):
        parent, eager = parent.extend(bit), eager.extend(bit)
    first = parent.extend(0)
    first.conditional_one()
    second = parent.extend(1)
    del parent
    _eager_chain_check(second, eager.extend(1))
    _eager_chain_check(first, eager.extend(0))
    _eager_chain_check(first.extend(1), eager.extend(0).extend(1))


@pytest.mark.parametrize("name,window", [("trig_poly-complex", 3), ("power_decay", 64), ("power_decay", None),
                                         ("arc_indicator", None)])
def test_sampler_forms_no_corner(monkeypatch, name, window):
    # the sampler draws each bit from its Schur chain: no chain step and no
    # stacked level forms an inverse corner
    def refused(*args):
        raise AssertionError("the sampler formed an inverse corner")

    monkeypatch.setattr(measure, "_chain_child", refused)
    monkeypatch.setattr(measure, "_bordered", refused)
    assert len(sample_prefix(LAZY_SYMBOLS[name], 150, 12, window=window)) == 150


def test_callers_chain_never_forms_in_place(monkeypatch):
    # a caller's full-state walk that drops every state still forms each
    # child beside its parent, with the eager bytes
    sym = Symbol.arc_indicator(0.1, 0.45)
    bits = sample_prefix(sym, 300, 12, window=None).bits.tolist()
    form = measure._chain_child

    def refused(*args):
        corner, theta = form(*args)
        if corner.base is not None:
            raise AssertionError("a caller's chain formed a child in its parent's memory")
        return corner, theta

    monkeypatch.setattr(measure, "_chain_child", refused)
    lazy, eager = PrefixState.root(sym), EagerPrefixState.root(sym)
    for bit in bits:
        lazy, eager = lazy.extend(bit), eager.extend(bit)
        _eager_chain_check(lazy, eager)


@pytest.mark.parametrize("sym", [LAZY_SYMBOLS["trig_poly-complex"], Symbol.poisson(0.5, 0.25)],
                         ids=["trig_poly-complex", "poisson-real"])
def test_direct_enumeration_holds_one_window_stack(sym):
    # the identity is added to the (2^N, N, N) stack of signed windows in
    # place: this reads 1.07-1.11 stacks, a second stack 2.06-2.10
    N = 12
    peak = _traced_peak(lambda: cylinder_log_probs_direct(sym, N))
    assert peak < 1.5 * 2 ** N * N * N * (8 if sym.has_real_coeffs else 16)


# band-limited symbols whose corners the window = bandwidth walk trims:
# complex B = 3 and B = 1 (one number at window 1), and real B = 4 and B = 2
WINDOWED_SYMBOLS = {
    "trig_poly-complex": LAZY_SYMBOLS["trig_poly-complex"],
    "trig_poly(complex,B=1)": Symbol.trig_poly([0.5, 0.1 + 0.1j]),
    "power_decay(0.5,0.1,2,4)": Symbol.power_decay(0.5, 0.1, 2.0, 4),
    "trig_poly(real,B=2)": Symbol.trig_poly([0.5, 0.15, -0.1]),
}


def _within_ulps(got, want, ulps=2):
    return np.all(np.abs(np.asarray(got) - want) <= ulps * np.spacing(np.abs(want)))


@pytest.mark.parametrize("name", sorted(WINDOWED_SYMBOLS))
def test_windowed_moment_sums_match_the_full_state_walk(name):
    # the library walks at window = bandwidth, exact in exact arithmetic;
    # against the full-state route it replaced only rounding may differ.
    # Two values move, by 1 ulp each: S_8^(2.5) of the complex symbol (see
    # the next test) and S_10^(2) of the B = 2 one, both toward 50 digits
    sym = WINDOWED_SYMBOLS[name]
    full = s_n_q_table_dfs(sym, 12, QS)
    for q, want in zip(QS, full):
        assert _within_ulps(s_n_q_table(sym, 12, q), want)


def test_windowed_moment_sum_that_moves_is_nearer_mpmath():
    # S_8^(2.5) of the complex trig_poly from its 256 word determinants at
    # 50 digits: the window = bandwidth walk is nearer than the full state
    sym, n, q = LAZY_SYMBOLS["trig_poly-complex"], 8, 2.5
    ghat = dict(zip(range(-n, n + 1), g_coeff_fn(sym)(np.arange(-n, n + 1)).tolist()))
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for word in _all_words(n):
            m = mpmath.matrix(n, n)
            for i in range(n):
                t = 1 if word[i] == "1" else -1
                for j in range(n):
                    m[i, j] = t * mpmath.mpc(ghat[i - j]) + (1 if i == j else 0)
            total += (mpmath.re(mpmath.det(m)) / 2 ** n) ** q
        want = mpmath.log(total, 2)
        new = abs(s_n_q_table(sym, n, q)[-1] - want)
        old = abs(s_n_q_table_dfs(sym, n, q)[-1] - want)
    assert new < old


def test_moment_sum_walk_extends_once_per_node(monkeypatch):
    # one PrefixState.extend call per tree node, 2^(n+1) - 2 in all, for a
    # one-number state, a corner trimmed to the bandwidth and a full corner
    calls = []
    extend = PrefixState.extend

    def counting(self, bit):
        calls.append(bit)
        return extend(self, bit)

    monkeypatch.setattr(PrefixState, "extend", counting)
    for name in ("poisson", "trig_poly-complex", "arc_indicator"):
        for n in (1, 5, 9):
            calls.clear()
            s_n_q_table(LAZY_SYMBOLS[name], n, 2)
            assert len(calls) == 2 ** (n + 1) - 2


@pytest.mark.parametrize("name", sorted(WINDOWED_SYMBOLS))
def test_conditional_next_matches_the_full_state(name):
    sym = WINDOWED_SYMBOLS[name]
    rng = np.random.default_rng(64)
    for _ in range(20):
        word = "".join(rng.choice(["0", "1"], int(rng.integers(0, 13))))
        state = PrefixState.root(sym)
        for bit in word:
            state = state.extend(int(bit))
        assert _within_ulps(conditional_next(sym, word), state.conditional_one())


def test_conditional_next_holds_a_bandwidth_corner():
    # a 600-bit word: the full state would hold corners of 600 x 600
    # complex entries (5.8 MB each)
    sym = LAZY_SYMBOLS["trig_poly-complex"]
    word = "".join(np.random.default_rng(5).choice(["0", "1"], 600))
    conditional_next(sym, "1")
    tracemalloc.start()
    try:
        conditional_next(sym, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_joint_log_prob_direct_block_form(poi_half):
    # the 2N x 2N signed window determinant equals the assembled block form
    n, ell = 3, 1
    eps = np.array([1, 0, 1])
    eps_p = np.array([0, 1, 1])
    t = build_T_window(poi_half, n)
    lam = build_lambda(poi_half, n, ell)
    big = np.block([[t, lam], [lam.conj().T, t]])
    d_theta = np.diag(np.concatenate([2 * eps - 1.0, 2 * eps_p - 1.0]))
    d_rest = np.diag(np.concatenate([1.0 - eps, 1.0 - eps_p]))
    direct = np.linalg.det(d_theta @ big + d_rest)
    packaged = math.exp(
        joint_cylinder_log_prob(poi_half, "".join(map(str, eps)), "".join(map(str, eps_p)), ell)
    )
    assert packaged == pytest.approx(float(direct.real), rel=1e-12)


TREE_LEVELS = 9


@pytest.mark.parametrize("window", [None, 2, 3])
@pytest.mark.parametrize("name", ["power_decay", "trig_poly-complex"])
def test_tree_level_corners_match_eager_oracle(name, window):
    # every node of a prefix tree, extended level by level as s_n_q_table
    # extends it, has the eager route's corner, theta and log_prob.  Moment
    # sums alone would not show a wrong corner: on the complex symbol,
    # forming the children of 1 x 1 corners in one stacked update (numpy's
    # SIMD loop, with a fused multiply-add) leaves an imaginary residue of
    # -3.2e-18 where the eager route has 0, and every later level inherits
    # it, while every log_prob and moment sum stays byte-equal
    sym = LAZY_SYMBOLS[name]
    lazy, eager = [PrefixState.root(sym, window=window)], [EagerPrefixState.root(sym, window=window)]
    for _ in range(TREE_LEVELS):
        lazy = [state.extend(bit) for state in lazy for bit in (0, 1)]
        eager = [state.extend(bit) for state in eager for bit in (0, 1)]
        for a, b in zip(lazy, eager):
            assert a.log_prob == b.log_prob
            assert _same(a.corner, b.corner) and _same(a.theta, b.theta)


def test_tree_level_corners_match_eager_oracle_up_to_the_first_error():
    # arc_indicator(0.3,0.7) meets a vanishing extension factor on a 15-bit
    # prefix: every node above it matches, and both routes raise there alike
    sym = LAZY_SYMBOLS["arc_indicator"]
    lazy, eager = [PrefixState.root(sym)], [EagerPrefixState.root(sym)]
    while True:
        got = _outcome(lambda: [state.extend(bit) for state in lazy for bit in (0, 1)])
        want = _outcome(lambda: [state.extend(bit) for state in eager for bit in (0, 1)])
        if isinstance(want, str):
            assert got == want
            break
        lazy, eager = got, want
        for a, b in zip(lazy, eager):
            assert a.log_prob == b.log_prob
            assert _same(a.corner, b.corner) and _same(a.theta, b.theta)
    assert lazy[0].length == ORACLE_DEPTH["arc_indicator"]
