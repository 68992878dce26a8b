import math

import numpy as np
import pytest

from dppkit import (
    ConditioningError,
    HypothesisError,
    Symbol,
    corr_dim_szego_lower,
    corr_dim_szego_upper,
    dim_q_estimate,
    s_n_q_table,
    sigma_n_2,
    sigma_n_q_walsh,
)
from dppkit.dimension import subset_dets
from dppkit.measure import cylinder_log_probs_direct
from dppkit.mixing import SizeCapError
from dppkit.symbol import g_coeff_fn
from dppkit.toeplitz import build_T, log_det
from dppkit import dimension, rate_experiment

from conftest import random_interior_symbol
from oracles import (POISSON_D2, POISSON_D2_CONTROL_A, build_T_window, corr_dim_szego_upper_brent,
                     corr_dim_szego_upper_grid, s_n_q_direct, walsh_tuple_coefficient)

LOG2 = math.log(2.0)
IID_34_DIM2 = -math.log2(5.0 / 8.0)  # i.i.d. Bernoulli(3/4) correlation dimension


def test_s_n_q_product_measure(fair):
    assert s_n_q_table(fair, 3, 2)[-1] == pytest.approx(-3.0, abs=1e-12)
    assert s_n_q_table(fair, 5, 3)[-1] == pytest.approx(-10.0, abs=1e-12)


def test_s_n_q_hand_values(rc_half):
    assert 2.0 ** s_n_q_table(rc_half, 1, 2)[-1] == pytest.approx(0.5, rel=1e-12)
    assert 2.0 ** s_n_q_table(rc_half, 2, 2)[-1] == pytest.approx(17.0 / 64.0, rel=1e-12)


def test_s_n_q_matches_direct_oracle():
    rng = np.random.default_rng(41)
    for _ in range(8):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 11))
        q = int(rng.integers(2, 4))
        assert s_n_q_table(sym, n, q)[-1] == pytest.approx(s_n_q_direct(sym, n, q), abs=1e-9)


def test_s_n_q_table_is_consistent(poi_high):
    tab = s_n_q_table(poi_high, 8, 2)
    for n in (1, 4, 8):
        assert tab[n - 1] == pytest.approx(s_n_q_table(poi_high, n, 2)[-1], abs=1e-12)


def test_sigma_n_2_values(fair, rc_half):
    assert sigma_n_2(fair, 4) == pytest.approx(1.0, rel=1e-13)  # g = 0
    assert sigma_n_2(rc_half, 2) == pytest.approx(17.0 / 16.0, rel=1e-13)
    # N=1: subsets {} and {1} give 1 + ghat(0)^2
    sym = Symbol.constant(0.7)
    assert sigma_n_2(sym, 1) == pytest.approx(1.0 + 0.4 ** 2, rel=1e-13)


def test_sigma_matches_moment_sum():
    rng = np.random.default_rng(42)
    for _ in range(6):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 11))
        assert math.log2(sigma_n_2(sym, n)) - n == pytest.approx(s_n_q_table(sym, n, 2)[-1], abs=1e-9)


def test_walsh_examples(fair, rc_half):
    assert sigma_n_q_walsh(fair, 2, 3) == pytest.approx(1.0, rel=1e-13)
    assert sigma_n_q_walsh(rc_half, 1, 2) == pytest.approx(1.0, rel=1e-13)
    assert sigma_n_q_walsh(rc_half, 2, 2) == pytest.approx(17.0 / 16.0, rel=1e-13)


def test_walsh_matches_other_routes():
    rng = np.random.default_rng(43)
    for _ in range(5):
        sym = random_interior_symbol(rng)
        for n, q in ((2, 2), (4, 2), (3, 3), (5, 3)):
            walsh = sigma_n_q_walsh(sym, n, q)
            assert math.log2(walsh) == pytest.approx(
                (q - 1) * n + s_n_q_table(sym, n, q)[-1], abs=1e-8
            )
            if q == 2:
                assert walsh == pytest.approx(sigma_n_2(sym, n), rel=1e-11)


def test_walsh_coefficient_literal_sum():
    # parity-coefficient definition vs the folded implementation
    sym = Symbol.poisson(0.6, 0.2)
    a = subset_dets(sym, 3)
    literal = sum(
        walsh_tuple_coefficient([j1, j2, j3], 3) * a[j1] * a[j2] * a[j3]
        for j1 in range(8)
        for j2 in range(8)
        for j3 in range(8)
    )
    assert sigma_n_q_walsh(sym, 3, 3) == pytest.approx(literal, rel=1e-12)


def test_walsh_cap():
    with pytest.raises(SizeCapError):
        sigma_n_q_walsh(Symbol.constant(0.5), 11, 2)


def test_dim_q_estimate_product_measures(fair):
    for q in (2, 3):
        est = dim_q_estimate(fair, q, 10)
        assert np.allclose(est.table.estimate_N, 1.0, atol=1e-12)
        assert est.fekete_lower == pytest.approx(1.0, abs=1e-12)
        assert est.certified
    biased = dim_q_estimate(Symbol.constant(0.75), 2, 10)
    assert np.allclose(biased.table.estimate_N, IID_34_DIM2, atol=1e-12)


def test_dim_q_estimate_poisson_increases(poi_high):
    est = dim_q_estimate(poi_high, 2, 12)
    diffs = np.diff(est.table.estimate_N)
    assert np.all(diffs >= -1e-10)
    assert est.certified
    assert est.fekete_lower == pytest.approx(est.table.estimate_N.max())
    assert 0.0 <= est.fekete_lower <= 1.0 + 1e-9


def test_dim_q_estimate_uncertified_for_two_sided(poi_half):
    est = dim_q_estimate(poi_half, 2, 6)
    assert not est.certified


def test_increment_matches_the_transfer_operator_d2():
    # the q = 2 increment of log2 S_N converges geometrically to D2
    log2s = s_n_q_table(Symbol.poisson(0.75, 0.125), 14, 2)
    assert abs(-(log2s[13] - log2s[12]) - POISSON_D2) <= 1e-10
    a = POISSON_D2_CONTROL_A
    assert abs(-math.log2(a * a + (1.0 - a) ** 2) - POISSON_D2) <= 1e-15


def test_fekete_monotone_in_nmax(poi_high):
    vals = [dim_q_estimate(poi_high, 2, n).fekete_lower for n in (4, 6, 8, 10)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


GRID_T = np.arange(dimension.SZEGO_GRID) / dimension.SZEGO_GRID


def test_szego_examples():
    value, clamped = dimension._szego_log_integral(np.ones(dimension.SZEGO_GRID))
    assert value == pytest.approx(0.0, abs=1e-14)
    assert not clamped
    value, _ = dimension._szego_log_integral(np.full(dimension.SZEGO_GRID, 0.5))
    assert value == pytest.approx(math.log(0.5), rel=1e-14)


def test_szego_fejer_against_finite_window_determinant(rc_half):
    quad, _ = dimension._szego_log_integral(rc_half.eval(GRID_T))
    assert quad == pytest.approx(-2.0 * math.log(2.0), abs=1e-2)
    finite = log_det(build_T_window(rc_half, 256))[0] / 256.0
    # first-order agreement; the finite-window correction at N=256 is ~0.022
    assert quad == pytest.approx(finite, abs=0.05)


def test_szego_clamp_flag():
    assert dimension._szego_log_integral(Symbol.arc_indicator(0.0, 0.5).eval(GRID_T))[1]


def test_corr_dim_szego_lower_values(fair):
    assert corr_dim_szego_lower(fair) == pytest.approx(1.0, abs=1e-12)
    assert corr_dim_szego_lower(Symbol.constant(0.75)) == pytest.approx(IID_34_DIM2, rel=1e-12)


def test_corr_dim_szego_upper_values(fair):
    assert corr_dim_szego_upper(fair) == pytest.approx(1.0, abs=1e-12)
    got = corr_dim_szego_upper(Symbol.constant(0.75))
    assert got == pytest.approx(IID_34_DIM2, abs=1e-9)


SZEGO_CASES = [random_interior_symbol(np.random.default_rng(seed)) for seed in range(16)] + [
    Symbol.arc_indicator(0.0, 0.5), Symbol.arc_indicator(0.1, 0.45),
    # the benchmark workload symbols
    Symbol.poisson(0.75, 0.125), Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.75, 0.25),
    Symbol.raised_cosine(0.5, 0.25), Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]),
    Symbol.power_decay(0.5, 0.1, 2, 64), Symbol.constant(0.5), Symbol.constant(0.75),
]


@pytest.mark.parametrize("sym", SZEGO_CASES,
                         ids=[f"{sym.family}{i}" for i, sym in enumerate(SZEGO_CASES)])
def test_corr_dim_szego_upper_matches_brent_and_fine_grid(sym):
    # the objective is convex in beta, so the golden-section search lands
    # where scipy's bounded Brent search did, and no point of a 2001-point
    # grid beats it
    got = corr_dim_szego_upper(sym)
    assert abs(got - corr_dim_szego_upper_brent(sym)) <= 1e-15
    assert got <= corr_dim_szego_upper_grid(sym, 2001) + 1e-15


@pytest.mark.parametrize("bound", [corr_dim_szego_lower, corr_dim_szego_upper])
def test_corr_dim_szego_bounds_check_range(bound):
    # range [-0.4, 1.4]: a quadrature over it is no bound on any dimension
    with pytest.raises(HypothesisError):
        bound(Symbol.raised_cosine(0.5, 0.9))


def test_corr_dim_bounds_bracket_one_sided_symbols(poi_high):
    for sym in (Symbol.constant(0.75), poi_high, Symbol.raised_cosine(0.75, 0.25)):
        est = dim_q_estimate(sym, 2, 12)
        assert corr_dim_szego_lower(sym) - 1e-6 <= est.fekete_lower
        assert est.last_estimate <= corr_dim_szego_upper(sym) + 1e-6


def test_estimate_computes_no_quadrature_bound(monkeypatch):
    # the Szego bounds depend on the symbol alone; neither the estimator nor
    # rate_experiment's default dim2 computes them
    def planted(sym):
        raise AssertionError("quadrature bound computed")

    monkeypatch.setattr(dimension, "corr_dim_szego_lower", planted)
    monkeypatch.setattr(dimension, "corr_dim_szego_upper", planted)
    sym = Symbol.poisson(0.75, 0.125)
    assert dim_q_estimate(sym, 2, 6).table.N.size == 6
    assert len(rate_experiment(sym, [16], 1, 1)) == 1


def test_submult_margins_from_s_n_q_table(poi_high):
    # margin log2 S_M + log2 S_N - log2 S_{M+N} >= 0 for one-sided symbols,
    # exactly 0 for the fair coin (S_N = 2^-N)
    tab = s_n_q_table(poi_high, 10, 2)
    for m, n in [(2, 2), (3, 4), (5, 5)]:
        assert tab[m - 1] + tab[n - 1] - tab[m + n - 1] >= -1e-9
    fair = s_n_q_table(Symbol.constant(0.5), 5, 2)
    assert fair[1] + fair[2] - fair[4] == pytest.approx(0.0, abs=1e-12)


def test_moment_sum_bounded_by_squared_average_window(poi_high):
    # route through the window of (1 + g^2)/2: log2 S_N <= log2 det T_N((1+g^2)/2)
    gh = g_coeff_fn(poi_high)
    b = 80
    gc = gh(np.arange(-b, b + 1))
    conv = np.convolve(gc, gc).real
    mid = 2 * b

    def hcoef(ns):
        ns = np.asarray(ns)
        picked = conv[np.clip(mid + ns, 0, 4 * b)]
        return np.where(np.abs(ns) <= 2 * b, picked, 0.0) / 2.0 + 0.5 * (ns == 0)

    for n in (3, 6, 9):
        lhs = s_n_q_table(poi_high, n, 2)[-1]
        rhs = np.linalg.slogdet(build_T(hcoef, np.arange(1, n + 1)))[1] / LOG2
        assert lhs <= rhs + 1e-9


def test_cauchy_schwarz_floor(poi_high):
    # Sigma_N^(2)(g) >= det^2 T_N((1 + beta g)/sqrt(1+beta^2)) at beta in {-1,0,1}
    gh = g_coeff_fn(poi_high)
    n = 6
    sig = sigma_n_2(poi_high, n)
    for beta in (-1.0, 0.0, 1.0):

        def bcoef(ns, beta=beta):
            ns = np.asarray(ns)
            return (beta * gh(ns) + (ns == 0)) / math.sqrt(1.0 + beta * beta)

        d = np.linalg.det(build_T(bcoef, np.arange(1, n + 1)))
        assert sig >= float(np.real(d)) ** 2 - 1e-9


def test_non_integer_q_is_uncertified(poi_high):
    # raw moment sums are exposed for real q > 1 but never carry certification
    est = dim_q_estimate(poi_high, 2.5, 6)
    assert not est.certified
    assert np.all(np.isfinite(est.table.estimate_N))
    with pytest.raises(ValueError):
        s_n_q_table(poi_high, 4, 1.0)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_q_is_rejected(poi_high, q):
    # nan <= 1 is False, so a bare q > 1 check would let nan through to NaN rows
    with pytest.raises(ValueError, match="need finite q > 1"):
        s_n_q_table(poi_high, 4, q)
    with pytest.raises(ValueError, match="need finite q > 1"):
        dim_q_estimate(poi_high, q, 4)


def test_moment_sum_underflow_raises():
    # at q = 200 the N = 12 sum is subnormal and N = 13, 14 round to 0.0;
    # the first N with log2 S_N < N - 1022 is named, with q
    sym = Symbol.poisson(0.75, 0.125)
    with pytest.raises(ConditioningError, match=r"^moment sum S_N\^\(q\) underflows at N = 12, "
                       r"q = 200: log2 S_N = -1046\.07 < N - 1022 = -1010$"):
        s_n_q_table(sym, 14, 200)
    # up to N = 11 every sum is normal, and the table is returned
    table = s_n_q_table(sym, 11, 200)
    assert np.all(table >= np.arange(1, 12) - 1022)
    assert table[-1] == pytest.approx(-958.5226514136235, rel=1e-12)


def test_s_n_q_cap():
    with pytest.raises(SizeCapError):
        s_n_q_table(Symbol.constant(0.5), 23, 2)


def test_direct_enumeration_cap():
    sym = Symbol.poisson(0.5, 0.25)
    with pytest.raises(SizeCapError):
        s_n_q_direct(sym, 15, 2)
    with pytest.raises(SizeCapError):
        cylinder_log_probs_direct(sym, 15)
    # a count below 1 is a usage error, not a size cap, on every enumeration
    for enumerate_zero in (lambda: cylinder_log_probs_direct(sym, 0), lambda: subset_dets(sym, 0),
                           lambda: sigma_n_2(sym, 0), lambda: sigma_n_q_walsh(sym, 0, 2)):
        with pytest.raises(ValueError) as info:
            enumerate_zero()
        assert not isinstance(info.value, SizeCapError)

