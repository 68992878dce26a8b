import math

import mpmath
import numpy as np
import pytest

from dppkit import (
    Symbol,
    allones_lower_witness,
    contraction_margin,
    psi_bound_report,
    psi_finite_window,
    toeplitz,
)
from dppkit.measure import word_bits
from dppkit.mixing import SizeCapError
from dppkit.symbol import HypothesisError, g_coeff_fn

from conftest import random_interior_symbol
from oracles import _coupling_stacks, _log_ratio_grid, finite_window_details

COMPLEX_TRIG = Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j])  # bandwidth 3


def _poisson_tail(c, r, ell, nmax=400):
    ns = np.arange(ell + 1, nmax + 1)
    return float(np.sum(ns * (c * r ** ns) ** 2))


def test_psi_lower_bound_zero_for_band_limited(fair, rc_half):
    assert psi_bound_report(fair, 1).lower_bound == 0.0
    assert psi_bound_report(rc_half, 1).lower_bound == 0.0


def test_psi_lower_bound_poisson_geometric(poi_half):
    # independent geometric-sum oracle for the tail
    tail = _poisson_tail(0.5, 0.25, ell=1)
    want = 1.0 - math.exp(-tail / 2.0)
    assert psi_bound_report(poi_half, 1).lower_bound == pytest.approx(want, rel=1e-12)
    # truncating the tail keeps the bound on the certified (low) side
    assert psi_bound_report(poi_half, 1, truncation=3).lower_bound <= want


def test_psi_upper_bound_values(fair, poi_half):
    assert psi_bound_report(fair, 1).upper_bound == 0.0
    assert psi_bound_report(Symbol.arc_indicator(0.0, 0.5), 1).upper_bound is None
    tail = _poisson_tail(0.5, 0.25, ell=2)
    x = tail / (1.0 / 6.0) ** 2
    assert psi_bound_report(poi_half, 2).upper_bound == pytest.approx(x * math.exp(1.0 + x), rel=1e-9)


def test_psi_upper_bound_remainder_keeps_validity(poi_half):
    # heavily truncated report stays above the well-resolved bound
    coarse = psi_bound_report(poi_half, 1, truncation=3)
    fine = psi_bound_report(poi_half, 1, truncation=500)
    assert not coarse.upper_approximate
    assert coarse.upper_bound >= fine.upper_bound - 1e-15


def test_psi_bound_report_fields(poi_half):
    rep = psi_bound_report(poi_half, 3)
    assert rep.ell == 3
    assert rep.tau == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert rep.lower_bound == pytest.approx(
        1.0 - math.exp(-rep.tail.value / 4.0), rel=1e-12
    )
    assert 0.0 <= rep.lower_bound < 1.0


def test_finite_window_product_measure(fair):
    for ell in (1, 3):
        for n in (1, 3):
            assert psi_finite_window(fair, ell, n).value == pytest.approx(0.0, abs=1e-12)


def test_finite_window_band_limited_zero(rc_half):
    assert psi_finite_window(rc_half, 1, 4).value == pytest.approx(0.0, abs=1e-12)


def test_finite_window_poisson_hand_enumeration(poi_half):
    # N=1, ell=1: occupied positions {1, 3}; all four ratios deviate by
    # (fhat(2)/fhat(0))^2 = (1/32 / (1/2))^2 = 1/256 at most
    got = psi_finite_window(poi_half, 1, 1)
    assert got.value == pytest.approx(1.0 / 256.0, rel=1e-10)


def test_finite_window_monotone_in_N(poi_half):
    vals = [psi_finite_window(poi_half, 1, n).value for n in range(1, 6)]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_finite_window_cap():
    with pytest.raises(SizeCapError):
        psi_finite_window(Symbol.constant(0.5), 1, 8)


def test_band_limited_exact_independence():
    # at gaps past the bandwidth the coupling block is exactly zero, so R = 1
    # holds in floating point too
    for sym in (Symbol.trig_poly([0.5, 0.08, 0.05, 0.02]), COMPLEX_TRIG):  # bandwidth 3
        for ell in (3, 4, 6):
            for n in (3, 5):
                assert psi_finite_window(sym, ell, n).value == 0.0
        assert psi_finite_window(sym, 2, 2).value > 1e-6


def test_allones_witness_values(fair, rc_half, poi_half):
    assert allones_lower_witness(fair, 1, 3) == 0.0
    assert allones_lower_witness(rc_half, 1, 3) == pytest.approx(0.0, abs=1e-14)
    assert allones_lower_witness(poi_half, 1, 1) == pytest.approx(1.0 / 256.0, rel=1e-12)


def test_witness_hs_chain(poi_high):
    # witness >= 1 - exp(-sum_{k<=N} k |fhat(ell+k)|^2)
    for ell in (1, 2):
        for n in (1, 2, 4):
            floor = 1.0 - math.exp(
                -sum(k * abs(poi_high.coeff(ell + k)) ** 2 for k in range(1, n + 1))
            )
            assert allones_lower_witness(poi_high, ell, n) >= floor - 1e-10


def test_sandwich_small(poi_half, poi_high):
    for sym in (poi_half, poi_high):
        for ell in (1, 2, 3):
            upper = psi_bound_report(sym, ell).upper_bound
            for n in (1, 2, 3, 4):
                wit = allones_lower_witness(sym, ell, n)
                fin = psi_finite_window(sym, ell, n).value
                assert wit <= fin + 1e-12
                assert fin <= upper + 1e-9


def test_upper_bound_monotone_in_ell(poi_half):
    ups = [psi_bound_report(poi_half, ell).upper_bound for ell in range(1, 7)]
    assert all(b <= a + 1e-15 for a, b in zip(ups, ups[1:]))


def test_details_grid_consistency(poi_half):
    det = finite_window_details(poi_half, 1, 2)
    packaged = psi_finite_window(poi_half, 1, 2)
    assert det.deviation.max() == pytest.approx(packaged.value, rel=1e-12)
    tau = contraction_margin(poi_half)
    assert det.h_trace_norm.max() <= det.hs_norm_sq / tau ** 2 + 1e-12


def test_details_match_per_pair_reports(poi_half):
    from dppkit import correlation_ratio

    n, ell = 2, 1
    det = finite_window_details(poi_half, ell, n)
    for i in range(4):
        for j in range(4):
            w1 = "".join("1" if (i >> k) & 1 else "0" for k in range(n))
            w2 = "".join("1" if (j >> k) & 1 else "0" for k in range(n))
            rep = correlation_ratio(poi_half, w1, w2, ell)
            assert det.deviation[i, j] == pytest.approx(abs(rep.ratio - 1.0), abs=1e-12)
            assert det.h_trace_norm[i, j] == pytest.approx(rep.h_trace_norm, abs=1e-12)


def test_finite_window_randomized_matches_reports():
    from dppkit import correlation_ratio

    rng = np.random.default_rng(31)
    for _ in range(5):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 4))
        got = psi_finite_window(sym, ell, n)
        brute = 0.0
        for i in range(2 ** n):
            for j in range(2 ** n):
                w1 = "".join("1" if (i >> k) & 1 else "0" for k in range(n))
                w2 = "".join("1" if (j >> k) & 1 else "0" for k in range(n))
                brute = max(brute, abs(correlation_ratio(sym, w1, w2, ell).ratio - 1.0))
        assert got.value == pytest.approx(brute, abs=1e-11)


def _joint_slogdet_log_ratio(sym, ell, n):
    """log R over all word pairs from batched 2N x 2N joint determinants
    minus both marginal log-determinants (the route the Schur complement
    replaced)."""
    base = toeplitz.build_T(g_coeff_fn(sym), toeplitz.joint_index_set(n, ell))
    theta = 2.0 * word_bits(n) - 1.0
    _, logp = np.linalg.slogdet(theta[:, :, None] * base[:n, :n] + np.eye(n))
    pair_theta = np.concatenate(
        [np.repeat(theta, 2 ** n, axis=0), np.tile(theta, (2 ** n, 1))], axis=1
    )
    sign, logj = np.linalg.slogdet(pair_theta[:, :, None] * base + np.eye(2 * n))
    assert np.all(np.real(sign) > 0)
    return logj.reshape(2 ** n, 2 ** n) - logp[:, None] - logp[None, :]


def test_finite_window_matches_joint_determinant_oracle():
    rng = np.random.default_rng(7)
    symbols = [random_interior_symbol(rng) for _ in range(6)] + [COMPLEX_TRIG]
    assert any(not sym.has_real_coeffs for sym in symbols)
    for sym in symbols:
        for n in range(1, 6):
            for ell in range(1, 5):
                want = np.abs(np.expm1(_joint_slogdet_log_ratio(sym, ell, n)))
                det = finite_window_details(sym, ell, n)
                np.testing.assert_allclose(det.deviation, want, rtol=0, atol=1e-12)
                got = psi_finite_window(sym, ell, n).value
                assert got == pytest.approx(want.max(), abs=1e-12)


def test_finite_window_poisson_rank_one_oracle():
    # fhat(n) = c r^|n| makes Lambda_g = u v^T of rank one, so
    # |R - 1| = |u^T A(eps)^-1 D(theta) u| |v^T A(eps')^-1 D(theta') v|
    # with no cancellation
    n = 4
    theta = 2.0 * word_bits(n) - 1.0
    for c, r in ((0.5, 0.25), (0.75, 0.125)):
        sym = Symbol.poisson(c, r)
        t = toeplitz.build_T(g_coeff_fn(sym), np.arange(1, n + 1))
        for ell in range(1, 9):
            u = r ** np.arange(n - 1, -1, -1)
            v = 2.0 * c * r ** np.arange(ell + 1, ell + n + 1)
            a = np.array([u @ np.linalg.solve(th[:, None] * t + np.eye(n), th * u) for th in theta])
            b = np.array([v @ np.linalg.solve(th[:, None] * t + np.eye(n), th * v) for th in theta])
            want = np.abs(np.outer(a, b))
            assert psi_finite_window(sym, ell, n).value == pytest.approx(want.max(), rel=1e-14, abs=0)
            np.testing.assert_allclose(finite_window_details(sym, ell, n).deviation, want,
                                       rtol=0, atol=1e-15)


# (symbol, whether Lambda_g has full rank N at every N and ell tested, so
# that the factored route runs the oracle's arithmetic)
FACTOR_CASES = {
    "poisson": (Symbol.poisson(0.5, 0.25), False),
    "poisson-negative-r": (Symbol.poisson(0.5, -0.25), False),
    "poisson-zero-r": (Symbol.poisson(0.5, 0.0), False),
    "constant": (Symbol.constant(0.3), False),
    "raised_cosine": (Symbol.raised_cosine(0.5, 0.25), False),
    "trig-complex": (COMPLEX_TRIG, False),  # ell = 1, 2 < B = 3 <= ell = 3, 4
    "power_decay": (Symbol.power_decay(0.5, 0.05, 1.5, 64), True),
    "arc_indicator": (Symbol.arc_indicator(0.1, 0.45), True),
}


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_finite_window_matches_full_window_oracle(name):
    # the r x r Sylvester route against the N x N P/Q route it replaced
    sym, full_rank = FACTOR_CASES[name]
    for n in range(1, 6):
        for ell in range(1, 5):
            dev = np.abs(np.expm1(_log_ratio_grid(*_coupling_stacks(sym, ell, n))))
            got = psi_finite_window(sym, ell, n)
            pair = int(got.argmax_word[::-1], 2), int(got.argmax_word_prime[::-1], 2)
            if full_rank and n >= 2:
                assert pair == np.unravel_index(int(np.argmax(dev)), dev.shape)
                assert got.value == dev[pair]
                continue
            # the same pair, up to pairs the oracle cannot tell apart from the
            # maximum (at N = 1 with ghat(0) = 0 all four pairs tie exactly)
            tol = max(1e-12 * dev.max(), 1e-15)
            assert dev.max() - dev[pair] <= tol
            assert abs(got.value - dev.max()) <= tol


def _mp_deviation(sym, ell, word, word_prime):
    """|R - 1| = |det(joint) / (det(A(eps)) det(A(eps'))) - 1| for one pair,
    from the signed windows D(theta) T_J(g) + I at the working precision."""
    c, r = mpmath.mpf(sym.params["c"]), mpmath.mpf(sym.params["r"])
    n = len(word)
    theta = [2 * int(b) - 1 for b in word + word_prime]
    pos = list(range(n)) + list(range(n + ell, 2 * n + ell))

    def signed_det(idx):
        return mpmath.det(mpmath.matrix(
            [[theta[a] * (2 * c * r ** abs(pos[a] - pos[b]) - (a == b)) + (a == b) for b in idx]
             for a in idx]))

    joint = signed_det(range(2 * n))
    return abs(joint / (signed_det(range(n)) * signed_det(range(n, 2 * n))) - 1)


@pytest.mark.parametrize("c,r", [(0.5, 0.25), (0.75, 0.125)])
def test_finite_window_poisson_matches_mpmath(c, r):
    # |R - 1| falls to 1e-15 by ell = 8, where 1 - det(I - Q P) kept no digits
    sym = Symbol.poisson(c, r)
    with mpmath.workdps(50):
        for ell in range(1, 9):
            got = psi_finite_window(sym, ell, 4)
            want = _mp_deviation(sym, ell, got.argmax_word, got.argmax_word_prime)
            assert abs(got.value - want) <= 1e-14 * want


def test_details_checks_range():
    sym = Symbol.raised_cosine(0.5, 0.9)  # range [-0.4, 1.4]
    with pytest.raises(HypothesisError):
        psi_finite_window(sym, 1, 2)
    with pytest.raises(HypothesisError):
        finite_window_details(sym, 1, 2)


def test_details_cap_message_names_binding_cap():
    with pytest.raises(SizeCapError, match="exceeds cap 7"):
        finite_window_details(Symbol.constant(0.5), 1, 8)


def test_details_rejects_zero_gap():
    with pytest.raises(ValueError, match="need ell >= 1") as info:
        finite_window_details(Symbol.constant(0.5), 0, 2)
    assert "build_lambda" not in str(info.value)
