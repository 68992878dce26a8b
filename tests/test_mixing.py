import math

import mpmath
import numpy as np
import pytest

from dppkit import (
    Symbol,
    allones_lower_witness,
    contraction_margin,
    correlation_ratio,
    cylinder_log_prob,
    mixing,
    psi_bound_report,
    psi_finite_window,
    toeplitz,
)
from dppkit.errors import ConditioningError
from dppkit.measure import word_bits
from dppkit.mixing import SizeCapError, _deviation_grid
from dppkit.symbol import HypothesisError, g_coeff_fn
from dppkit.toeplitz import trace_norm

from conftest import random_interior_symbol
from oracles import (_coupling_stacks, _log_ratio_grid, allones_witness, finite_window_details,
                     joint_cylinder_log_prob, ratio_h)

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


@pytest.mark.parametrize("c, r, ell", [(0.5, 0.25, 268), (0.75, 0.125, 179), (0.5, 0.25, 400)])
def test_psi_upper_bound_survives_tail_underflow(c, r, ell):
    # the poisson tail's closed form underflows to 0.0 at these gaps, and
    # the bound read 0.0 (certified); from the tail's logarithm, rounded up,
    # it is positive and never below the 50-digit value, which at ell = 400
    # is itself below the least subnormal
    rep = psi_bound_report(Symbol.poisson(c, r), ell)
    with mpmath.workdps(50):
        x2 = mpmath.mpf(r) ** 2
        tail = mpmath.mpf(c) ** 2 * x2 ** (ell + 1) * (1 + ell * (1 - x2)) / (1 - x2) ** 2
        x = tail / mpmath.mpf(rep.tau) ** 2
        want = x * mpmath.exp(1 + x)
        assert 0.0 < rep.upper_bound and want <= rep.upper_bound
        assert rep.upper_bound <= max(want * (1 + 1e-8), want + 2 * 5e-324)
    assert not rep.upper_approximate


def _mp_tail(sym, ell, hi):
    """sum_{ell < n <= hi} n |fhat(n)|^2 at the working precision, from each
    coefficient's exact formula (the lookup underflows for power_decay)."""
    if sym.family == "power_decay":
        c, p = mpmath.mpf(sym.params["c"]), mpmath.mpf(sym.params["p"])
        return mpmath.fsum(n * (c / mpmath.mpf(n) ** p) ** 2 for n in range(ell + 1, hi + 1))
    return mpmath.fsum(n * mpmath.mpf(abs(complex(sym.table[n]))) ** 2 for n in range(ell + 1, hi + 1))


@pytest.mark.parametrize("sym, ells", [
    (Symbol.trig_poly([0.5, 0.1, 1e-170]), [1]),
    (Symbol.power_decay(0.5, 0.1, 300.0, 1000), [3, 11, 12, 998, 999]),
], ids=["trig_poly", "power_decay"])
def test_psi_upper_bound_survives_coefficient_underflow(sym, ells):
    # |fhat(n)|^2, or the power_decay lookup fhat(n) itself, underflows, so
    # the linear tail reads 0.0 and the bound read a certified 0.0 although
    # psi(ell) > 0; from the log-coefficients it is positive and never below
    # the 50-digit value.  0.0 stays for ell >= the bandwidth
    for ell in ells:
        rep = psi_bound_report(sym, ell)
        assert rep.tail.value == 0.0 and not rep.upper_approximate
        with mpmath.workdps(50):
            x = _mp_tail(sym, ell, sym.bandwidth) / mpmath.mpf(rep.tau) ** 2
            want = x * mpmath.exp(1 + x)
            assert 0.0 < rep.upper_bound and want <= rep.upper_bound
            assert rep.upper_bound <= max(want * (1 + 1e-8), want + 2 * 5e-324)
    assert psi_bound_report(sym, sym.bandwidth).upper_bound == 0.0


def test_psi_upper_bound_from_log_keeps_the_remainder():
    # the tail over 1 < n <= 10 underflows, and the remainder bound
    # c^2 10^(2-2p) / (2p - 2) past the truncation is 15% of the total; the
    # bound covers the partial sum plus that remainder
    sym = Symbol.power_decay(0.5, 1e-170, 1.5, 10 ** 6)
    rep = psi_bound_report(sym, 1, truncation=10)
    assert rep.tail.value == 0.0 and not rep.upper_approximate
    with mpmath.workdps(50):
        c = mpmath.mpf(1e-170)
        total = _mp_tail(sym, 1, 10) + c ** 2 * mpmath.mpf(10) ** -1
        x = total / mpmath.mpf(rep.tau) ** 2
        want = x * mpmath.exp(1 + x)
        assert want <= rep.upper_bound <= max(want * (1 + 1e-8), want + 2 * 5e-324)


def test_psi_upper_bound_with_zero_coefficients_takes_the_linear_route():
    # every coefficient over 1 < n <= 3 is exactly 0, so the tail is an exact
    # 0.0 and has no log; the bound read nan from log terms that are all -inf
    rep = psi_bound_report(Symbol.trig_poly([0.5, 0.1, 0.0, 0.0, 0.01]), 1, truncation=3)
    assert rep.tail.value == 0.0 and rep.tail.log_total is None
    assert rep.upper_bound == math.nextafter(0.0, 1.0) and rep.upper_approximate


@pytest.mark.parametrize("sym", [
    Symbol.trig_poly([0.5, 0.2, 0.0499]), Symbol.poisson(1e-170, 1 - 1e-15),
], ids=["linear", "log"])
def test_psi_upper_bound_past_float_range_is_inf(sym):
    # tau > 0 (2e-4 and 5e-186), so the hypothesis holds, but the bound's
    # exponential overflows, from the linear tail and from its log; inf is
    # never below the exact value
    rep = psi_bound_report(sym, 1)
    assert rep.tau > 0.0 and rep.upper_bound == math.inf and not rep.upper_approximate


@pytest.mark.parametrize("sym, ells", [
    (Symbol.poisson(0.5, 0.25), range(1, 40)),
    (Symbol.poisson(0.75, 0.125), range(1, 30)),
    (Symbol.trig_poly([0.5, 0.1 + 0.12j, -0.05 + 0.07j]), [1]),
], ids=["poisson(0.5,0.25)", "poisson(0.75,0.125)", "trig_poly"])
def test_psi_upper_bound_rounds_up(sym, ells):
    # in the normal range the bound is never below the 50-digit value of
    # x exp(1 + x) from the same float tail and tau, and at most
    # (16 + 8x) u above it; round to nearest was below it at 31 of the 39
    # poisson(0.5,0.25) gaps
    u = 2.0 ** -53
    for ell in ells:
        rep = psi_bound_report(sym, ell)
        with mpmath.workdps(50):
            x = mpmath.mpf(rep.tail.certified_total) / mpmath.mpf(rep.tau) ** 2
            want = x * mpmath.exp(1 + x)
            assert want <= rep.upper_bound <= want * (1 + (16 + 8 * x) * u), ell


def test_psi_upper_bound_zero_past_bandwidth_at_any_tau():
    # raised_cosine(0.75, 0.25) has bandwidth 1 and range [0.5, 1], so tau =
    # 0; psi(ell) = 0 for every ell >= 1, and the bound is 0.0, not None
    sym = Symbol.raised_cosine(0.75, 0.25)
    words = ["".join(str(b) for b in w) for w in word_bits(2)]
    for ell in (1, 2):
        rep = psi_bound_report(sym, ell)
        assert rep.tau == 0.0 and rep.upper_bound == 0.0 and not rep.upper_approximate
        assert psi_finite_window(sym, ell, 2).value == 0.0
        with mpmath.workdps(50):
            assert max(_mp_deviation(sym, ell, w1, w2) for w1 in words for w2 in words) < 1e-45


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


def test_finite_window_rank_zero_needs_no_solve(monkeypatch):
    # past the bandwidth the coupling rank is 0: the grid is exact zeros, so
    # the value is 0.0 at the first pair, and no linear solve is made
    def no_solve(*args):
        raise AssertionError("linear solve at coupling rank 0")

    def no_grid(*args):
        raise AssertionError("deviation grid at coupling rank 0")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(mixing, "_deviation_grid", no_grid)
    for sym in (Symbol.trig_poly([0.5, 0.08, 0.05, 0.02]), COMPLEX_TRIG):  # bandwidth 3
        for ell in (3, 4, 8):
            for n in (1, 4, 7):
                got = psi_finite_window(sym, ell, n)
                assert (got.value, got.argmax_word, got.argmax_word_prime) == (0.0, "0" * n, "0" * n)
    # the marginal check still runs: f = 1 gives the word "0" mass 0
    with pytest.raises(ConditioningError, match="^vanishing marginal in finite-window enumeration$"):
        psi_finite_window(Symbol.constant(1.0), 1, 3)


@pytest.mark.parametrize("pair, n", [
    ((Symbol.poisson(0.75, 0.125), COMPLEX_TRIG), 5),
    ((Symbol.power_decay(0.5, 0.1, 2, 8), Symbol.arc_indicator(0.1, 0.45)), 5),  # r >= 3, r = N
], ids=["poisson-trig", "power_decay-arc"])
def test_finite_window_shared_marginals_match_cold_route(pair, n):
    # gaps 1..8 of two symbols in a fixed shuffled order, so the one-entry
    # marginal cache both hits and evicts; each result must equal, field for
    # field, the one computed with the cache emptied just before
    order = [(sym, ell) for sym in pair for ell in range(1, 9)]
    np.random.default_rng(11).shuffle(order)
    mixing._marginal_stack.cache_clear()
    shared = [psi_finite_window(sym, ell, n) for sym, ell in order]
    info = mixing._marginal_stack.cache_info()
    assert info.hits > 0 and info.misses > len(pair)
    for (sym, ell), got in zip(order, shared):
        mixing._marginal_stack.cache_clear()
        assert got == psi_finite_window(sym, ell, n)


def test_marginal_stack_is_read_only():
    theta, a = mixing._marginal_stack(COMPLEX_TRIG, 3)
    assert mixing._marginal_stack(COMPLEX_TRIG, 3)[1] is a
    with pytest.raises(ValueError, match="read-only"):
        theta[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0, 0] = 1.0


def test_vanishing_marginal_is_not_cached(poi_half):
    # f = 1 gives the word "0" mass 0: a failed check raises on every call,
    # also after a passing call on another symbol
    one = Symbol.constant(1.0)

    def vanishing():
        with pytest.raises(ConditioningError,
                           match="^vanishing marginal in finite-window enumeration$"):
            psi_finite_window(one, 1, 3)

    vanishing()
    vanishing()
    psi_finite_window(poi_half, 1, 3)
    vanishing()


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
            if full_rank and n >= 3:
                assert pair == np.unravel_index(int(np.argmax(dev)), dev.shape)
                assert got.value == dev[pair]
                continue
            if full_rank:
                # r = n <= 2 takes the closed form, which is closer to the
                # 50-digit grid than the oracle (up to 3.9e-10 relative off
                # at n = 2 on power_decay)
                words = ["".join(str(b) for b in w) for w in word_bits(n)]
                with mpmath.workdps(50):
                    want = [[_mp_deviation(sym, ell, w1, w2) for w2 in words] for w1 in words]
                best = max(map(max, want))
                assert abs(got.value - want[pair[0]][pair[1]]) <= 1e-15 * best
                assert best - want[pair[0]][pair[1]] <= 1e-15 * best
                continue
            # the same pair, up to pairs the oracle cannot tell apart from the
            # maximum (at N = 1 with ghat(0) = 0 all four pairs tie exactly)
            tol = max(1e-12 * dev.max(), 1e-15)
            assert dev.max() - dev[pair] <= tol
            assert abs(got.value - dev.max()) <= tol


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_correlation_ratio_matches_f_route_oracle(name):
    # the report read off one signed joint window: the three logs and the
    # ratio exactly as the cylinder routes give them, H as the f-route gives it
    sym = FACTOR_CASES[name][0]
    rng = np.random.default_rng(17)
    for n in range(1, 8):
        for ell in range(1, 9):
            for _ in range(3):
                w1, w2 = ("".join(rng.choice(["0", "1"], n)) for _ in range(2))
                rep = correlation_ratio(sym, w1, w2, ell)
                log_p, log_p2 = cylinder_log_prob(sym, w1), cylinder_log_prob(sym, w2)
                log_joint = joint_cylinder_log_prob(sym, w1, w2, ell)
                assert (rep.log_p_eps, rep.log_p_eps_prime, rep.log_joint) == (log_p, log_p2, log_joint)
                assert rep.ratio == math.exp(log_joint - log_p - log_p2)
                hnorm = trace_norm(ratio_h(sym, w1, w2, ell))
                assert abs(rep.h_trace_norm - hnorm) <= 1e-12 * hnorm
                bound = hnorm * math.exp(hnorm + 1.0)
                assert abs(rep.simon_bound - bound) <= 1e-12 * bound
    with pytest.raises(ValueError, match="^joint cylinder words must have equal length$"):
        correlation_ratio(sym, "10", "1", 1)
    with pytest.raises(ValueError, match="^gap ell must be >= 1$"):
        correlation_ratio(sym, "1", "1", 0)


def _mp_deviation(sym, ell, word, word_prime):
    """|R - 1| = |det(joint) / (det(A(eps)) det(A(eps'))) - 1| for one pair,
    from the signed windows D(theta) T_J(g) + I at the working precision.
    ghat(n) = 2 fhat(n) - [n = 0] takes fhat = c r^|n| from the parameters
    for poisson, else from the coefficient lookup, whose values are exact
    doubles."""
    n = len(word)
    theta = [2 * int(b) - 1 for b in word + word_prime]
    pos = list(range(n)) + list(range(n + ell, 2 * n + ell))
    gaps = range(-(2 * n + ell), 2 * n + ell + 1)
    if sym.family == "poisson":
        c, r = mpmath.mpf(sym.params["c"]), mpmath.mpf(sym.params["r"])
        fhat = {d: c * r ** abs(d) for d in gaps}
    else:
        fhat = {d: mpmath.mpmathify(complex(f)) for d, f in zip(gaps, sym.coeffs(np.array(gaps)))}

    def signed_det(idx):
        return mpmath.det(mpmath.matrix(
            [[theta[a] * (2 * fhat[pos[a] - pos[b]] - (a == b)) + (a == b) for b in idx]
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


# coupling rank r = 2: COMPLEX_TRIG at ell = 1 (B - ell = 2) for N >= 2, and
# full-block symbols at N = 2
RANK_TWO_CASES = [(COMPLEX_TRIG, 1, n) for n in range(1, 8)] + [
    (sym, ell, 2) for sym in (Symbol.power_decay(0.5, 0.05, 1.5, 64), Symbol.arc_indicator(0.1, 0.45))
    for ell in range(1, 9)]


@pytest.mark.parametrize("sym,ell,n", RANK_TWO_CASES,
                         ids=[f"{s.family}-ell{ell}-N{n}" for s, ell, n in RANK_TWO_CASES])
def test_finite_window_rank_two_matches_mpmath(sym, ell, n):
    # -tr K + det Y det X keeps the digits that expm1(log|det(I - K)|) loses
    got = psi_finite_window(sym, ell, n)
    with mpmath.workdps(50):
        want = _mp_deviation(sym, ell, got.argmax_word, got.argmax_word_prime)
    assert abs(got.value - want) <= 1e-15 * want


def test_deviation_grid_rank_zero_is_exact_zero():
    for dtype in (float, complex):
        x = np.zeros((8, 0, 0), dtype=dtype)
        got = _deviation_grid(x, x)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.zeros((8, 8)))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("dtype", [float, complex])
def test_deviation_grid_closed_form_matches_slogdet(r, dtype):
    # -tr K + det Y det X against R from one slogdet of I - K per pair (R is
    # complex for random complex stacks, so the phase is kept)
    rng = np.random.default_rng(r)
    for scale in (0.3, 0.05):
        x, y = (scale * rng.standard_normal((16, r, r)) for _ in range(2))
        if dtype is complex:
            x = x + 1j * scale * rng.standard_normal((16, r, r))
            y = y + 1j * scale * rng.standard_normal((16, r, r))
        sign, logabs = np.linalg.slogdet(np.eye(r) - y[None, :] @ x[:, None])
        want = np.abs(sign * np.exp(logabs) - 1.0)
        np.testing.assert_allclose(_deviation_grid(x, y), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("k11", [1.0, 2.0])
def test_deviation_grid_vanishing_joint_raises(r, k11):
    # K = diag(k11, 0, ...) on one pair gives R = 1 - k11 <= 0
    x = np.zeros((4, r, r))
    y = np.zeros((4, r, r))
    y[1, 0, 0] = 1.0
    assert np.all(_deviation_grid(x, y) == 0.0)
    x[2, 0, 0] = k11
    with pytest.raises(ConditioningError, match="^vanishing joint in finite-window enumeration$"):
        _deviation_grid(x, y)


def test_finite_window_argmax_is_first_in_row_major_order(monkeypatch, poi_half):
    # ghat(0) = 0 at N = 1: all four pairs tie exactly
    dev = _deviation_grid(*mixing._coupling_stacks(poi_half, 1, 1))
    assert np.all(dev == dev.max())
    got = psi_finite_window(poi_half, 1, 1)
    assert (got.argmax_word, got.argmax_word_prime) == ("0", "0")
    # a planted grid whose maximum first appears at (1, 2); index m holds bit k as (m >> k) & 1
    planted = np.zeros((4, 4))
    planted[1, 2] = planted[2, 1] = planted[3, 0] = 0.5
    monkeypatch.setattr(mixing, "_deviation_grid", lambda x, y: planted)
    got = psi_finite_window(poi_half, 1, 2)
    assert (got.value, got.argmax_word, got.argmax_word_prime) == (0.5, "10", "01")


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


def test_allones_witness_poisson_matches_mpmath(poi_high):
    # the witness is 1 - R for the all-ones pair; by ell = 8 it is 5.6e-17,
    # below the last digit of 1 - det(I - K)
    with mpmath.workdps(50):
        for ell in range(1, 9):
            want = _mp_deviation(poi_high, ell, "1111", "1111")
            assert abs(allones_lower_witness(poi_high, ell, 4) - want) <= 1e-14 * want


@pytest.mark.parametrize("sym", [COMPLEX_TRIG, Symbol.arc_indicator(0.1, 0.45),
                                 Symbol.power_decay(0.5, 0.05, 1.5, 64),
                                 Symbol.raised_cosine(0.5, 0.25)], ids=lambda s: s.family)
def test_allones_witness_matches_f_route_oracle(sym):
    # the oracle forms 1 - det(I - K), so it is good to a few ulps of 1 only
    for n in range(1, 8):
        for ell in range(1, 9):
            want = allones_witness(sym, ell, n)
            assert allones_lower_witness(sym, ell, n) == pytest.approx(want, rel=1e-12, abs=1e-15)
