import math
import re
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
from dppkit.measure import (IMAG_TOL, PrefixState, _chain_root, _log_probs, _moment_root, _one_number,
                            cylinder_log_probs_direct)
from dppkit.symbol import g_coeff_fn
from dppkit.toeplitz import build_T

from conftest import random_interior_symbol
from oracles import (EagerPrefixState, EagerSchurState, build_T_window, build_lambda, complement,
                     conditional_alphas_mp, conditional_next, cylinder_prob_direct, hs_norm_sq_lambda,
                     joint_cylinder_log_prob, s_n_q_mp, s_n_q_table_dfs)


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
        state = _chain_root(sym, None, n)
        for b in bits:
            state = state.extend(int(b))
        word = "".join(str(int(b)) for b in bits)
        assert state.log_prob == pytest.approx(cylinder_log_prob(sym, word), abs=1e-11)


def test_windowed_prefix_state_exact_for_band_limited():
    sym = Symbol.raised_cosine(0.55, 0.3)
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2, 60)
    full = _chain_root(sym, None, 60)
    windowed = _chain_root(sym, sym.bandwidth, 60)
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


def _error_at(exc):
    """The class of an error and the position it names (a value in the
    message may differ in its last digits between two eliminations)."""
    return type(exc).__name__, re.search(r"at position (\d+)", str(exc)).group(1)


@pytest.mark.parametrize("window", [None, *range(13)])
@pytest.mark.parametrize("name", sorted(LAZY_SYMBOLS))
def test_lazy_prefix_state_matches_eager_oracle(name, window):
    # a chain of prefix states (``_chain_root``, the sampler's Schur chain)
    # along random paths, every window width up to 12: against the eager
    # corner route, each conditional_one within 1e-14 and each log_prob
    # within 1e-13 relative (two eliminations of one matrix), or the same
    # error at the same bit (a truncated window can leave [0, 1]).  At
    # window None, against the 40-digit conditionals instead: on these
    # paths of arc_indicator, of mass down to 1e-18, the chain is within
    # 2.7e-12 of them and the corner route 1.7e-10.  Where the state is one
    # number (poisson at window None, raised_cosine at windows >= 1) the
    # number is checked against the eager route
    sym = LAZY_SYMBOLS[name]
    if _one_number(sym, window):
        ulps = None if sym.bandwidth is not None else WELL_CONDITIONED_ULPS
        _check_one_number_paths(sym, window, ulps, paths=3, bits=24)
        return
    rng = np.random.default_rng(61)
    for _ in range(3):
        bits = rng.integers(0, 2, 24).tolist()
        chain, eager = _chain_root(sym, window, 24), EagerPrefixState.root(sym, window=window)
        exact = None if window is not None else conditional_alphas_mp(sym, bits)
        log_mu = 0.0
        for k, bit in enumerate(bits):
            try:
                p1 = chain.conditional_one()
                chain = chain.extend(bit)
            except ConditioningError as exc:
                with pytest.raises(ConditioningError) as want:
                    eager.conditional_one()
                    eager.extend(bit)
                assert _error_at(exc) == _error_at(want.value)
                break
            if exact is None:
                assert abs(p1 - eager.conditional_one()) <= 1e-14
                eager = eager.extend(bit)
                assert abs(chain.log_prob - eager.log_prob) <= 1e-13 * abs(eager.log_prob)
            else:
                alpha = float(exact[k].real)
                assert abs(p1 - 0.5 * (1.0 + alpha)) <= 1e-11
                log_mu += math.log(0.5 * (1.0 + (2 * bit - 1) * alpha))
                assert abs(chain.log_prob - log_mu) <= 1e-9 * abs(log_mu)


def test_prefix_state_parent_is_keyword_only():
    # a state is built only by the two roots and extend: the old positional
    # constructor form (gd, window, length, theta, corner, log_prob) fails
    # at once instead of building a wrong state
    root = _chain_root(LAZY_SYMBOLS["poisson"], None, 4)
    with pytest.raises(TypeError):
        PrefixState(root.gd, None, 0, None, None, 0.0)


@pytest.mark.parametrize("window", [True, 1.5, -1])
def test_chain_root_refuses_a_bad_window_before_reading_a_coefficient(monkeypatch, window):
    # the window gate runs in ``_chain_root``, the only root a caller's window
    # reaches, before the range gate reads the symbol
    def refused(self, ns):
        raise AssertionError("a coefficient was read")

    monkeypatch.setattr(Symbol, "coeffs", refused)
    with pytest.raises(ValueError, match=r"^prefix state window must be None or an int >= 0(; got .*)?$"):
        _chain_root(Symbol.poisson(0.5, 0.25), window, 8)


@pytest.mark.parametrize("name", sorted(LAZY_SYMBOLS) + ["arc_indicator(0.1,0.45)"])
def test_every_root_answers_conditional_one(name):
    # a one-number root, and a matrix root with its stack, from either root:
    # P(x_1 = 1) = fhat(0) at every window, and a walk of two bits or more
    # answers for its second bit too
    sym = LAZY_SYMBOLS.get(name) or Symbol.arc_indicator(0.1, 0.45)
    roots = [(n, _moment_root(sym, n)) for n in (1, 2, 9)]
    roots += [(n, _chain_root(sym, window, n)) for window in (None, 0, 1, 2, 3, sym.bandwidth) for n in (1, 2, 9)]
    for n, root in roots:
        assert (root._x is None) == (root._stack is not None)
        assert root.conditional_one() == pytest.approx(sym.fhat0, abs=1e-15)
        assert n == 1 or 0.0 <= root.extend(1).conditional_one() <= 1.0


def test_lazy_child_drops_its_parent():
    # a child's stack keeps its parent's Schur blocks until its own are formed
    state = _moment_root(LAZY_SYMBOLS["power_decay"], 8).extend(1)
    assert state._stack.source is not None
    state.conditional_one()
    assert state._stack.source is None


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
        state = _chain_root(sym, window, bits)
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
    # no prefix state keeps an inverse corner: a one-number state, a chain's
    # and a moment-sum walk's have no corner or theta
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.55, 0.3), LAZY_SYMBOLS["power_decay"]):
        for root in (_chain_root(sym, None, 4), _moment_root(sym, 4)):
            for st in (root, root.extend(1)):
                assert not hasattr(st, "corner") and not hasattr(st, "theta")


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
        state = _chain_root(sym, None, len(word))
        for ch in word:
            state = state.extend(int(ch))
        want = _mp_log_prob(sym, word)
        assert abs(state.log_prob - want) <= ULPS.get(name, WELL_CONDITIONED_ULPS)[1] * U * abs(want)


def _schur_walk(sym, n_max, q):
    """The depth-first walk of the eager Schur route at window = bandwidth."""
    return s_n_q_table_dfs(sym, n_max, q, route=EagerSchurState, window=sym.bandwidth)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["poisson", "raised_cosine", "trig_poly-complex"])
def test_moment_sums_match_eager_oracle_walk(name, q):
    # the one-number states walk as the eager corner route does, byte for
    # byte.  The complex symbol's Schur blocks match the eager Schur route
    # within COMPLEX_ULPS (numpy may round a complex product of a stack
    # unlike one of a single block), and the eager corner route, a
    # different elimination, within one ulp; where a sum moves off the
    # corner route it is within one ulp of 50 digits
    sym = LAZY_SYMBOLS[name]
    got, corner = s_n_q_table(sym, 10, q), s_n_q_table_dfs(sym, 10, q)
    if name != "trig_poly-complex":
        assert got.tobytes() == corner.tobytes()
        return
    assert _within_ulps(got, _schur_walk(sym, 10, q), COMPLEX_ULPS)
    assert _within_ulps(got, corner, 1)
    moved = np.nonzero(got != corner)[0]  # natively 2 of 10 sums at q = 2, 1 at q = 3
    want = np.array([float(v) for v in s_n_q_mp(sym, 10, q)])
    assert _within_ulps(got[moved], want[moved], 1)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", sorted(ONE_NUMBER_SYMBOLS))
def test_one_number_moment_sums_match_eager_oracle_walk(name, q):
    sym = ONE_NUMBER_SYMBOLS[name]
    assert np.max(np.abs(s_n_q_table(sym, 10, q) - s_n_q_table_dfs(sym, 10, q))) <= 1e-14


@pytest.mark.parametrize("route", [PrefixState, EagerPrefixState])
def test_lazy_extend_raises_where_eager_does(route):
    # the same ConditioningError at the same bit: an imaginary residue on a
    # tree walk (the library's level-order walk on Schur blocks, and the
    # depth-first walk of the eager Schur route; n_max 11 is the first
    # they refuse), and a vanishing factor on a chain of ``route`` states
    walk = s_n_q_table if route is PrefixState else _schur_walk
    with pytest.raises(ConditioningError, match=r"^prefix mass 5\.66e-24 too small to resolve "
                       r"at position 10: \|s\| = 2, imaginary residue 1\.11e-10$"):
        walk(Symbol.arc_indicator(0.1, 0.45), 11, 2)
    one = Symbol.constant(1.0)
    state = (_chain_root(one, None, 2) if route is PrefixState else route.root(one)).extend(1)
    with pytest.raises(ConditioningError,
                       match="^prefix probability vanishes extending with bit 0 at position 1$"):
        state.extend(0)


@pytest.mark.parametrize("route", [PrefixState, EagerPrefixState])
def test_conditional_one_refuses_an_imaginary_residue(route):
    # alpha itself, not an extension factor, carries the residue here.  The
    # full-state chain (``_chain_root``) meets one after eight 1s, the eager
    # corner route after 111111110 (its alphas before that pass), as
    # conditional_next, which walks it, does too.  The residue is rounding
    # noise of a prefix of mass 3.6e-19, whose digits move with the CPU's
    # BLAS kernel (6.36e-10 on one, -3.05e-10 on another, for the corner
    # route), so only its size against IMAG_TOL is checked
    sym = Symbol.arc_indicator(0.1, 0.45)
    if route is PrefixState:
        state, word = _chain_root(sym, None, 10), "11111111"
        at = r"position 8: \|s\| = 3\.13e-05"
    else:
        state, word = route.root(sym), "111111110"
        at = r"position 9: \|s\| = 0\.00135"
    for bit in word:
        state = state.extend(int(bit))
    message = rf"^prefix mass 3\.62e-19 too small to resolve at {at}, imaginary residue (\S+)$"
    calls = [state.conditional_one]
    if route is EagerPrefixState:
        calls.append(lambda: conditional_next(sym, word))
    for call in calls:
        with pytest.raises(ConditioningError, match=message) as err:
            call()
        assert abs(float(re.match(message, str(err.value)).group(1))) > IMAG_TOL


def test_log_probs_negative_determinant_boundary():
    # a negative determinant is mass 0 only below log|det| = -200
    with pytest.raises(NumericsError, match="^cylinder determinant is negative$"):
        _log_probs(np.array([[[-1e-80]]]))
    assert _log_probs(np.array([[[-1e-90]]])).tolist() == [-math.inf]


def test_zero_determinant_is_mass_0_without_a_warning():
    # slogdet of an exactly singular window divides by zero; the module's rule
    # reads it as mass 0, so under filterwarnings = error no warning may escape.
    # At f = 1 the word "0" has the window [2 (1 - fhat(0))] = [0]
    assert cylinder_log_prob(Symbol.constant(1.0), "0") == -math.inf
    assert cylinder_log_probs_direct(Symbol.constant(1.0), 2).tolist() == [-math.inf] * 3 + [0.0]


def test_signed_window_diagonal_resolves_a_tiny_mass():
    # mu([10]) = fhat(0) (1 - fhat(0)) + |fhat(1)|^2 = 1e-300 here (fhat(1)^2
    # underflows): a diagonal 1 + theta g0 from the rounded g0 = 2e-300 - 1
    # would read 1 - 1 = 0 and give mass 0
    sym = Symbol.poisson(1e-300, -1e-12)
    assert cylinder_log_prob(sym, "10") == pytest.approx(math.log(1e-300), rel=1e-14)


def test_correlation_ratio_refuses_a_vanishing_marginal():
    with pytest.raises(ConditioningError, match="^marginal cylinder probability vanishes$"):
        correlation_ratio(Symbol.constant(1.0), "0", "0", 1)


def _first_subtree_depth(sym) -> int:
    """The deepest tree the level-order walk takes whole, with no cut into
    runs: every level that forms blocks (all but the leaves) fits."""
    return max(n for n in range(1, 23)
               if all(2 ** k <= dimension._stack_rows(_moment_root(sym, n), k, n)
                      for k in range(2, n)))


@pytest.mark.parametrize("window", [None, 2, 3])
@pytest.mark.parametrize("name", sorted(LAZY_SYMBOLS))
def test_stack_rows_sizes_each_level_from_its_schur_blocks(name, window):
    # a level's rows are sized by its stack's edge alone: the same as from
    # the window and the coefficients' dtype, at every length of every walk
    sym = LAZY_SYMBOLS[name]
    for n_max in range(1, 23):
        root = _schur_root(sym, window, n_max)
        states = [root] if n_max == 1 else [root, root.extend(1)]
        for length in range(n_max):
            if _one_number(sym, window):
                want = dimension.STACK_ROWS
            else:
                m = n_max - length if window is None else min(window + 1, n_max - length)
                want = min(dimension.STACK_ROWS,
                           dimension.STACK_BYTES // (m * m * (8 if sym.has_real_coeffs else 16)))
            assert all(dimension._stack_rows(state, length, n_max) == want for state in states)


QS = (2, 3, 2.5)
# the symbols whose moment sums the eager Schur route checks to 16 levels
ORACLE_SYMBOLS = ("arc_indicator", "power_decay", "trig_poly-complex")
# how far apart numpy may round a complex product of a stack of Schur blocks
# and one of a single block, in ulps of a moment sum (0 on the machines measured)
COMPLEX_ULPS = 2


@pytest.fixture(scope="module")
def dfs_oracle():
    """The depth-first eager Schur walk of each symbol to 16 levels, on first use."""
    return {}


@pytest.mark.parametrize("n_max", ["h-1", "h", "h+1", 16])
@pytest.mark.parametrize("name", ORACLE_SYMBOLS)
def test_level_order_moment_sums_match_dfs_oracle(dfs_oracle, name, n_max):
    # for every q: one whole subtree (h - 1 and h levels), the first cut
    # into runs (h + 1), and a tree of many runs (16 levels), against the
    # depth-first walk of the eager Schur route at the library's window =
    # bandwidth: byte for byte on the real symbols, within COMPLEX_ULPS on
    # the complex one.  A level's sum does not depend on n_max (no entry of
    # a block does), so one 16-level walk is the oracle of every n_max
    sym = LAZY_SYMBOLS[name]
    h = _first_subtree_depth(sym)
    n = n_max if isinstance(n_max, int) else h + {"h-1": -1, "h": 0, "h+1": 1}[n_max]
    if name not in dfs_oracle:
        dfs_oracle[name] = s_n_q_table_dfs(sym, 16, QS, route=EagerSchurState, window=sym.bandwidth)
    for q, want in zip(QS, dfs_oracle[name]):
        got = s_n_q_table(sym, n, q)
        if sym.has_real_coeffs:
            assert got.tobytes() == want[:n].tobytes()
        else:
            assert _within_ulps(got, want[:n], COMPLEX_ULPS)


def test_level_order_walk_visits_each_level_in_lexicographic_order(monkeypatch):
    # Kahan sums are close to order-free, so byte-equal sums alone would
    # not show a run walked out of turn: compare each level's sequence of
    # log-probabilities with the depth-first walk's, across cuts into runs
    sym = LAZY_SYMBOLS["power_decay"]
    n_max = _first_subtree_depth(sym) + 3
    seen = {}
    for route in (PrefixState, EagerSchurState):
        extend = route.extend

        def recording(self, bit, extend=extend, route=route):
            child = extend(self, bit)
            seen.setdefault(route, {}).setdefault(child.length, []).append(child.log_prob)
            return child

        monkeypatch.setattr(route, "extend", recording)
    s_n_q_table(sym, n_max, 2)
    _schur_walk(sym, n_max, 2)
    assert seen[PrefixState] == seen[EagerSchurState]
    assert [len(seen[PrefixState][n]) for n in range(1, n_max + 1)] == [2 ** n for n in range(1, n_max + 1)]


def test_level_order_walk_holds_no_whole_level():
    # at n_max 16 a whole level holds up to 2^15 states (some MB) and 2^13
    # Schur blocks of 3 x 3 (0.6 MB); the walk holds a few levels of at most
    # STACK_ROWS states whose blocks fit in STACK_BYTES: this reads 3.2
    # STACK_BYTES
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


def _same_blocks(lazy, eager, ulps=0):
    """Equal log_prob, and a lazy tree state's Schur block byte for byte the
    eager one's, or within ``ulps`` of its largest entry."""
    lazy.conditional_one()  # forms a pending stack's blocks
    block, want = lazy._stack.block[lazy._row], eager.block
    if ulps:
        close = block.shape == want.shape and np.all(np.abs(block - want) <= ulps * np.spacing(np.abs(want).max()))
    else:
        close = _same(block, want)
    return lazy.log_prob == eager.log_prob and close


def test_sibling_of_a_formed_chain_child_has_the_eager_bytes():
    # the first child of a tree state forms its pending stack; the parent,
    # extended again once that stack is formed, starts a second stack of
    # one, and the second child forms from the parent's block too, also
    # after the parent is dropped: both keep the eager Schur route's bytes
    sym = LAZY_SYMBOLS["power_decay"]
    parent, eager = _moment_root(sym, 12), EagerSchurState.root(sym, window=sym.bandwidth, n_max=12)
    for bit in (1, 0, 1, 1, 0, 0, 1, 0):
        parent, eager = parent.extend(bit), eager.extend(bit)
    first = parent.extend(0)
    first.conditional_one()
    second = parent.extend(1)
    assert second._stack is not first._stack
    del parent
    assert _same_blocks(second, eager.extend(1))
    assert _same_blocks(first, eager.extend(0))
    assert _same_blocks(first.extend(1), eager.extend(0).extend(1))


@pytest.mark.parametrize("name,window", [("trig_poly-complex", 3), ("power_decay", 64), ("power_decay", None),
                                         ("arc_indicator", None)])
def test_sampler_forms_no_corner(monkeypatch, name, window):
    # the sampler draws each bit from its one Schur chain, stepped once per
    # bit: it forms no Schur block and solves no system
    steps = []
    step = measure._SchurChain.step

    def counting(self, tp, s):
        steps.append(tp)
        step(self, tp, s)

    def refused(*args):
        raise AssertionError("the sampler formed a matrix beside its chain")

    monkeypatch.setattr(measure._SchurChain, "step", counting)
    for target, attr in ((measure._SchurBlocks, "_form"), (np.linalg, "inv"), (np.linalg, "solve")):
        monkeypatch.setattr(target, attr, refused)
    assert len(sample_prefix(LAZY_SYMBOLS[name], 150, 12, window=window)) == 150
    assert len(steps) == 150


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
    # the library walks Schur blocks at window = bandwidth, exact in exact
    # arithmetic; against the full-state corner route only rounding may
    # differ (the next test checks each sum that moves against 50 digits)
    sym = WINDOWED_SYMBOLS[name]
    full = s_n_q_table_dfs(sym, 12, QS)
    for q, want in zip(QS, full):
        assert _within_ulps(s_n_q_table(sym, 12, q), want)


def test_windowed_moment_sums_that_move_are_within_an_ulp_of_mpmath():
    # every sum of the window = bandwidth Schur walk that moves off the
    # full-state corner route is within one ulp of its 50-digit value (eight
    # sums move natively, on all but the B = 1 symbol, each by one ulp; six
    # with numpy's AVX2 loops off)
    moved = 0
    for sym in WINDOWED_SYMBOLS.values():
        for q, full in zip(QS, s_n_q_table_dfs(sym, 12, QS)):
            got = s_n_q_table(sym, 12, q)
            n = np.nonzero(got != full)[0]
            if n.size:
                want = np.array([float(v) for v in s_n_q_mp(sym, 12, q)])
                assert _within_ulps(got[n], want[n], 1)
                moved += n.size
    assert moved  # the test sees a moved sum


# a symbol whose bandwidth passes every n_max the walk takes
WIDE_BAND = Symbol.power_decay(0.5, 0.01, 2, 10 ** 6)


def test_moment_sum_walk_extends_once_per_node(monkeypatch):
    # one PrefixState.extend call per tree node, 2^(n+1) - 2 in all, for a
    # one-number state, a block trimmed to the bandwidth, a full block and
    # the block of a bandwidth past n_max
    calls = []
    extend = PrefixState.extend

    def counting(self, bit):
        calls.append(bit)
        return extend(self, bit)

    monkeypatch.setattr(PrefixState, "extend", counting)
    for sym in (*(LAZY_SYMBOLS[name] for name in ("poisson", "trig_poly-complex", "arc_indicator")),
                WIDE_BAND):
        for n in (1, 5, 9):
            calls.clear()
            s_n_q_table(sym, n, 2)
            assert len(calls) == 2 ** (n + 1) - 2


@pytest.mark.parametrize("sym", [LAZY_SYMBOLS["trig_poly-complex"], WINDOWED_SYMBOLS["trig_poly(real,B=2)"],
                                 LAZY_SYMBOLS["arc_indicator"], WIDE_BAND],
                         ids=["B=3", "B=2", "full-state", "B-past-n_max"])
def test_moment_sum_blocks_reach_no_further_than_the_walk(monkeypatch, sym):
    # every Schur block the walk forms, at every depth of the tree, has
    # min(B + 1, n_max - depth) rows: the positions the prefix has still to
    # draw within the bandwidth's reach, and none past n_max.  A block
    # sized B + 1 from the root would hold a wide band's 10^6 + 1 rows
    form, seen = measure._SchurBlocks._form, []

    def recording(self):
        form(self)
        seen.append((self.left, self.block.shape))

    monkeypatch.setattr(measure._SchurBlocks, "_form", recording)
    n_max = 9
    s_n_q_table(sym, n_max, 2)
    reach = n_max if sym.bandwidth is None else sym.bandwidth + 1
    m = min(reach, n_max)
    assert measure._moment_root(sym, n_max)._stack.block.shape == (1, m, m)
    assert sorted({left for left, _ in seen}) == list(range(1, n_max))  # every depth
    for left, shape in seen:
        m = min(reach, left)
        assert shape[1:] == (m, m)
@pytest.mark.parametrize("name", sorted(WINDOWED_SYMBOLS))
def test_conditional_next_matches_the_full_state(name):
    sym = WINDOWED_SYMBOLS[name]
    rng = np.random.default_rng(64)
    for _ in range(20):
        word = "".join(rng.choice(["0", "1"], int(rng.integers(0, 13))))
        state = _chain_root(sym, None, len(word) + 1)
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


def _schur_root(sym, window, n_max):
    """The moment-sum walk's root at ``window`` (``_moment_root`` takes the bandwidth)."""
    return measure._root(sym, window, n_max, measure._SchurBlocks.root)


@pytest.mark.parametrize("window", [None, 2, 3])
@pytest.mark.parametrize("name", ["power_decay", "trig_poly-complex"])
def test_tree_level_corners_match_eager_oracle(name, window):
    # every node of a prefix tree, extended level by level as s_n_q_table
    # extends it, has the eager Schur route's log_prob and block: byte for
    # byte on the real symbol, and within 4 ulps of the largest entry on the
    # complex one (2.01 at most, on the last level's 1 x 1 blocks, whose
    # imaginary residue near 1e-18 a stack's complex product, numpy's SIMD
    # loop, rounds unlike one block's).  Moment sums alone would not show a
    # wrong block: a residue left in its imaginary part can leave every sum
    # byte-equal
    sym = LAZY_SYMBOLS[name]
    ulps = 0 if sym.has_real_coeffs else 4
    lazy = [_schur_root(sym, window, TREE_LEVELS + 1)]
    eager = [EagerSchurState.root(sym, window=window, n_max=TREE_LEVELS + 1)]
    for _ in range(TREE_LEVELS):
        lazy = [state.extend(bit) for state in lazy for bit in (0, 1)]
        eager = [state.extend(bit) for state in eager for bit in (0, 1)]
        assert all(_same_blocks(a, b, ulps) for a, b in zip(lazy, eager))


def test_tree_level_corners_match_eager_oracle_up_to_the_first_error():
    # arc_indicator(0.1,0.45) meets an imaginary residue extending a 10-bit
    # prefix at n_max 11: every node above it has the eager Schur route's
    # log_prob, and both routes raise there alike
    sym = Symbol.arc_indicator(0.1, 0.45)
    lazy, eager = [_moment_root(sym, 11)], [EagerSchurState.root(sym, n_max=11)]
    while True:
        got = _outcome(lambda: [state.extend(bit) for state in lazy for bit in (0, 1)])
        want = _outcome(lambda: [state.extend(bit) for state in eager for bit in (0, 1)])
        if isinstance(want, str):
            assert got == want
            break
        lazy, eager = got, want
        assert [a.log_prob for a in lazy] == [b.log_prob for b in eager]
    assert lazy[0].length == 10
