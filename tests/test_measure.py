import math

import numpy as np
import pytest

from dppkit import (
    ConditioningError,
    HypothesisError,
    Symbol,
    conditional_next,
    contraction_margin,
    correlation_ratio,
    cylinder_log_prob,
    cylinder_prob,
    dimension,
    s_n_q_table,
)
from dppkit.measure import PrefixState, cylinder_log_probs_direct
from dppkit import build_T, joint_cylinder_log_prob
from dppkit.symbol import g_coeff_fn

from conftest import random_interior_symbol
from oracles import (EagerPrefixState, build_T_window, build_lambda, complement,
                     cylinder_prob_direct, hs_norm_sq_lambda)


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
        state = PrefixState.root(sym, n)
        for b in bits:
            state = state.extend(int(b))
        word = "".join(str(int(b)) for b in bits)
        assert state.log_prob == pytest.approx(cylinder_log_prob(sym, word), abs=1e-11)


def test_windowed_prefix_state_exact_for_band_limited():
    sym = Symbol.raised_cosine(0.55, 0.3)
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2, 60)
    full = PrefixState.root(sym, 60)
    windowed = PrefixState.root(sym, 60, window=sym.bandwidth)
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
    # corner must still match the untrimmed one entry for entry
    sym = LAZY_SYMBOLS[name]
    rng = np.random.default_rng(61)
    for _ in range(3):
        lazy = PrefixState.root(sym, 24, window=window)
        eager = EagerPrefixState.root(sym, 24, window=window)
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
    # the constructor's old positional form (gd, window, length, theta,
    # corner, log_prob) fails at once instead of building a wrong state
    root = PrefixState.root(Symbol.poisson(0.5, 0.25), 8)
    with pytest.raises(TypeError):
        PrefixState(root.gd, None, 0, root.theta, root.corner, 0.0)


def test_lazy_child_drops_its_parent():
    state = PrefixState.root(Symbol.poisson(0.5, 0.25), 8).extend(1)
    assert state._parent is not None
    state.conditional_one()
    assert state._parent is None


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["poisson", "raised_cosine", "trig_poly-complex"])
def test_moment_sums_match_eager_oracle_walk(monkeypatch, name, q):
    sym = LAZY_SYMBOLS[name]
    lazy = s_n_q_table(sym, 10, q)
    monkeypatch.setattr(dimension, "PrefixState", EagerPrefixState)
    assert lazy.tobytes() == s_n_q_table(sym, 10, q).tobytes()


@pytest.mark.parametrize("route", [PrefixState, EagerPrefixState])
def test_lazy_extend_raises_where_eager_does(monkeypatch, route):
    # the same ConditioningError at the same bit: an imaginary residue on a
    # tree walk, and a vanishing factor on a chain
    monkeypatch.setattr(dimension, "PrefixState", route)
    with pytest.raises(ConditioningError, match=r"^prefix mass 3\.62e-19 too small to resolve "
                       r"at position 9: \|s\| = 2, imaginary residue -6\.36e-10$"):
        s_n_q_table(Symbol.arc_indicator(0.1, 0.45), 10, 2)
    state = route.root(Symbol.constant(1.0), 3).extend(1)
    with pytest.raises(ConditioningError,
                       match="^prefix probability vanishes extending with bit 0 at position 1$"):
        state.extend(0)


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
