import functools
import itertools
import math
import operator

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
from dppkit.errors import ConditioningError, HypothesisError, SizeCapError
from dppkit.measure import word_bits
from dppkit.mixing import _deviation_grid
from dppkit.symbol import DEFAULT_TRUNCATION, g_coeff_fn
from dppkit.toeplitz import trace_norm

from conftest import _table_test, random_interior_symbol
from oracles import (allones_witness, build_lambda, deviation_mp, finite_window_details, hs_norm_sq_lambda,
                     joint_cylinder_log_prob, ratio_h, tail_mp)

COMPLEX_TRIG = Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j])  # bandwidth 3


def test_psi_lower_bound_zero_for_band_limited(fair, rc_half):
    assert psi_bound_report(fair, 1).lower_bound == 0.0
    assert psi_bound_report(rc_half, 1).lower_bound == 0.0


def test_psi_lower_bound_poisson_geometric(poi_half):
    # the tail's closed form at 50 digits
    with mpmath.workdps(50):
        want = float(-mpmath.expm1(-tail_mp(poi_half, 1) / 2))
    assert psi_bound_report(poi_half, 1).lower_bound == pytest.approx(want, rel=1e-12)
    # truncating the tail keeps the bound on the certified (low) side
    assert psi_bound_report(poi_half, 1, truncation=3).lower_bound <= want


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


def test_finite_window_monotone_in_N(poi_half):
    vals = [psi_finite_window(poi_half, 1, n).value for n in range(1, 6)]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_finite_window_cap():
    with pytest.raises(SizeCapError):
        psi_finite_window(Symbol.constant(0.5), 1, 8)


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


def test_upper_bound_monotone_in_ell(poi_half):
    ups = [psi_bound_report(poi_half, ell).upper_bound for ell in range(1, 7)]
    assert all(b <= a + 1e-15 for a, b in zip(ups, ups[1:]))


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


INTERIOR_ZERO_TRIGS = {
    "trig-interior-zeros": Symbol.trig_poly([0.5, 0, 0, 0.1]),
    "trig-long-interior-zeros": Symbol.trig_poly([0.5, 0.1, 0, 0, 0, 0, 0, 0, 0.01]),
}


@pytest.mark.parametrize("name", sorted(FACTOR_CASES) + sorted(INTERIOR_ZERO_TRIGS))
def test_coupling_factors_rebuild_the_oracle_block(name):
    # Lambda_g = 2 Lambda_f, since the gap block holds no fhat(0); away from
    # poisson U and V are columns of I, so U M V^T places each entry exactly,
    # and r counts the nonzero columns of the block
    sym = FACTOR_CASES[name][0] if name in FACTOR_CASES else INTERIOR_ZERO_TRIGS[name]
    for n in range(1, 8):
        for ell in (1, 2, 3, 5, 8):
            u, m, v = mixing._coupling_factors(sym, ell, n)
            want = 2 * build_lambda(sym, n, ell)
            got = u @ m @ v.T
            if sym.family == "poisson":
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
            else:
                assert np.array_equal(got, want)
                assert m.shape[1] == np.count_nonzero(np.any(want != 0, axis=0))


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
    with pytest.raises(HypothesisError):
        psi_finite_window(Symbol.raised_cosine(0.5, 0.9), 1, 2)  # range [-0.4, 1.4]


def _read(route, field):
    """(sym, ell, n) -> ``field`` of route(sym, ell, n)."""
    read = operator.attrgetter(field)
    return lambda sym, ell, n: read(route(sym, ell, n))


VALUE = _read(psi_finite_window, "value")
# each oracle grid and report is formed once for all the rows that read it
DETAILS, REPORT = functools.cache(finite_window_details), functools.cache(psi_bound_report)
# the oracle's N x N P/Q route: |R - 1| and ||H||_1 by word pair, rows eps, columns eps'
DEVIATIONS, TRACE_NORMS = (_read(DETAILS, field) for field in ["deviation", "h_trace_norm"])
# a report's N is its truncation
UPPER, TAU, APPROXIMATE, FLOAT_TAIL, CERTIFIED_TAIL = (
    _read(REPORT, field) for field in ["upper_bound", "tau", "upper_approximate", "tail.value", "tail.certified_total"])


def _largest(reference):
    return lambda sym, ell, n: reference(sym, ell, n).max()


def _words(n):
    return ["".join(map(str, w)) for w in word_bits(n).tolist()]


def _per_pair(read):
    """A grid of ``read`` of correlation_ratio's report for each word pair."""
    return lambda sym, ell, n: np.array([[read(correlation_ratio(sym, w1, w2, ell)) for w2 in _words(n)]
                                         for w1 in _words(n)])


REPORT_DEVIATIONS = _per_pair(lambda rep: abs(rep.ratio - 1.0))


def _mp_deviations(sym, ell, n):
    return np.array([[deviation_mp(sym, ell, w1, w2) for w2 in _words(n)] for w1 in _words(n)], dtype=object)


def _mp_at_argmax(sym, ell, n):
    """The 50-digit |R - 1| of the pair psi_finite_window picks."""
    got = psi_finite_window(sym, ell, n)
    return deviation_mp(sym, ell, got.argmax_word, got.argmax_word_prime)


def _joint_determinants(sym, ell, n):
    """|R - 1| by word pair from batched 2N x 2N joint determinants minus
    both marginal log-determinants (the route the Schur complement
    replaced)."""
    base = toeplitz.build_T(g_coeff_fn(sym), toeplitz.joint_index_set(n, ell))
    theta = 2.0 * word_bits(n) - 1.0
    _, logp = np.linalg.slogdet(theta[:, :, None] * base[:n, :n] + np.eye(n))
    pair_theta = np.concatenate([np.repeat(theta, 2 ** n, axis=0), np.tile(theta, (2 ** n, 1))], axis=1)
    sign, logj = np.linalg.slogdet(pair_theta[:, :, None] * base + np.eye(2 * n))
    assert np.all(np.real(sign) > 0)
    return np.abs(np.expm1(logj.reshape(2 ** n, 2 ** n) - logp[:, None] - logp[None, :]))


def _rank_one(sym, ell, n):
    """fhat(n) = c r^|n| makes Lambda_g = u v^T of rank one, so |R - 1| =
    |u^T A(eps)^-1 D(theta) u| |v^T A(eps')^-1 D(theta') v| with no
    cancellation."""
    c, r = sym.params["c"], sym.params["r"]
    t = toeplitz.build_T(g_coeff_fn(sym), np.arange(1, n + 1))
    u = r ** np.arange(n - 1, -1, -1)
    v = 2.0 * c * r ** np.arange(ell + 1, ell + n + 1)
    a, b = ([w @ np.linalg.solve(th[:, None] * t + np.eye(n), th * w) for th in 2.0 * word_bits(n) - 1.0]
            for w in (u, v))
    return np.abs(np.outer(a, b))


def _random_symbols(seed, count):
    rng = np.random.default_rng(seed)
    return [random_interior_symbol(rng) for _ in range(count)]


def _randomized_rows():
    rng = np.random.default_rng(31)
    for _ in range(5):
        sym = random_interior_symbol(rng)
        n, ell = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        yield "randomized", None, VALUE, [sym], [ell], [n], _largest(REPORT_DEVIATIONS), (0, 1e-11)


U = 2.0 ** -53


def _bound_mp(tail, tau=None, widened=False):
    """x exp(1 + x) at 50 digits, x = tail(sym, ell, truncation) / tau^2,
    tau the report's unless given; widened by 1 + (16 + 8x) u, the most a
    bound rounded up from the same float tail and tau may exceed it."""
    def reference(sym, ell, truncation):
        x = mpmath.mpf(tail(sym, ell, truncation)) / mpmath.mpf(tau or TAU(sym, ell, truncation)) ** 2
        return x * mpmath.exp(1 + x) * (1 + (16 + 8 * x) * U if widened else 1)

    return reference


def _exact_tail(sym, ell, truncation):
    return tail_mp(sym, ell)


def _underflow_checks(tail):
    """The float tail underflows to 0.0, and the bound read a certified 0.0;
    from the log, rounded up, it is positive and never below the 50-digit
    value, and within 1e-8 of it or 2 subnormals above."""
    bound = _bound_mp(tail)
    return [(FLOAT_TAIL, 0.0, None), (APPROXIMATE, False, None), (UPPER, 0.0, (">", 0, 0)),
            (UPPER, bound, (">=", 0, 0)), (UPPER, bound, ("<=", 1e-8, 2 * 5e-324))]


FAIR, RC_HALF = Symbol.constant(0.5), Symbol.raised_cosine(0.5, 0.5)
POI_HALF, POI_HIGH = Symbol.poisson(0.5, 0.25), Symbol.poisson(0.75, 0.125)
BAND3 = [Symbol.trig_poly([0.5, 0.08, 0.05, 0.02]), COMPLEX_TRIG]
JOINT_SYMBOLS = _random_symbols(7, 6) + [COMPLEX_TRIG]
# where Lambda_g has full rank N the factored route runs the oracle's
# arithmetic at N >= 3, and at r = N <= 2 takes the closed form, which is
# closer to 50 digits than the oracle (up to 3.9e-10 relative off at N = 2
# on power_decay); elsewhere the pair is the oracle's up to pairs it cannot
# tell apart from the maximum (at N = 1 with ghat(0) = 0 all four tie exactly)
FULL_WINDOW_CHECKS = {True: [(range(3, 6), DEVIATIONS, None), ((1, 2), _mp_deviations, (1e-15, 0))],
                      False: [(range(1, 6), DEVIATIONS, (1e-12, 1e-15))]}
# coupling rank r = 2: COMPLEX_TRIG at ell = 1 (B - ell = 2) for N >= 2, and
# full-block symbols at N = 2
RANK_TWO_CASES = [(COMPLEX_TRIG, 1, n) for n in range(1, 8)] + [
    (sym, ell, 2) for sym in (Symbol.power_decay(0.5, 0.05, 1.5, 64), Symbol.arc_indicator(0.1, 0.45))
    for ell in range(1, 9)]
DEFAULT = [DEFAULT_TRUNCATION]
COEFFICIENT_UNDERFLOW = [(Symbol.trig_poly([0.5, 0.1, 1e-170]), [1]),
                         (Symbol.power_decay(0.5, 0.1, 300.0, 1000), [3, 11, 12, 998, 999])]
POWER_DECAY_P1 = Symbol.power_decay(0.5, 0.01, 1.0, 10 ** 6)  # no remainder bound: the approximate route
TINY_POWER_DECAY = Symbol.power_decay(0.5, 1e-170, 1.5, 10 ** 6)

# The psi table: a quantity at every symbol, gap ell and N of a row beside a
# reference.  A row: its test, its id, the quantity (a function of (sym,
# ell, N)), the symbols, the gaps, the N, the reference (a number, or a
# function of (sym, ell, N)) and the tolerance (see ``_close``).  The
# quantity psi_finite_window is its value and argmax pair against a grid of
# |R - 1| by word pair: at tolerance None the pair is the grid's first
# maximum and the value its entry; at (rel, abs) the value is within
# max(rel * top, abs) of the pair's entry and of the grid's top, and so is
# the entry of the top
PSI_ROWS = [
    # -- finite-window psi.  By hand: the product measure and a band-limited
    # symbol give 0, and at N = 1, ell = 1 (positions {1, 3}) poisson(0.5,
    # 0.25) deviates by (fhat(2)/fhat(0))^2 = (1/32 / (1/2))^2 = 1/256 at most
    ("product", None, VALUE, [FAIR], (1, 3), (1, 3), 0.0, (0, 1e-12)),
    ("band-zero", None, VALUE, [RC_HALF], [1], [4], 0.0, (0, 1e-12)),
    ("hand", None, VALUE, [POI_HALF], [1], [1], 1 / 256, (1e-10, 0)),
    # past the bandwidth 3 the coupling block is exactly zero, so R = 1 holds
    # in floating point too; below it, not
    ("band-exact", None, VALUE, BAND3, (3, 4, 6), (3, 5), 0.0, None),
    ("band-exact", None, VALUE, BAND3, [2], [2], 1e-6, (">", 0, 0)),
    # the P/Q route's grid: its largest entry, its trace norms within
    # ||Lambda||_HS^2 / tau^2, each pair as correlation_ratio reports it
    ("details-grid", None, _largest(DEVIATIONS), [POI_HALF], [1], [2], VALUE, (1e-12, 0)),
    ("details-grid", None, TRACE_NORMS, [POI_HALF], [1], [2],
     lambda sym, ell, n: hs_norm_sq_lambda(sym, n, ell) / contraction_margin(sym) ** 2, ("<=", 0, 1e-12)),
    ("details-reports", None, DEVIATIONS, [POI_HALF], [1], [2], REPORT_DEVIATIONS, (0, 1e-12)),
    ("details-reports", None, TRACE_NORMS, [POI_HALF], [1], [2], _per_pair(operator.attrgetter("h_trace_norm")),
     (0, 1e-12)),
    *_randomized_rows(),
    ("joint", None, DEVIATIONS, JOINT_SYMBOLS, range(1, 5), range(1, 6), _joint_determinants, (0, 1e-12)),
    ("joint", None, VALUE, JOINT_SYMBOLS, range(1, 5), range(1, 6), _largest(_joint_determinants), (0, 1e-12)),
    ("rank-one", None, VALUE, [POI_HALF, POI_HIGH], range(1, 9), [4], _largest(_rank_one), (1e-14, 0)),
    ("rank-one", None, DEVIATIONS, [POI_HALF, POI_HIGH], range(1, 9), [4], _rank_one, (0, 1e-15)),
    # the r x r Sylvester route against the N x N P/Q route it replaced
    *(("full-window", name, psi_finite_window, [sym], range(1, 5), ns, reference, tol)
      for name, (sym, full_rank) in sorted(FACTOR_CASES.items())
      for ns, reference, tol in FULL_WINDOW_CHECKS[full_rank]),
    # |R - 1| falls to 1e-15 by ell = 8 on poisson, where 1 - det(I - Q P)
    # kept no digits; at rank two -tr K + det Y det X keeps the digits that
    # expm1(log|det(I - K)|) loses
    *(("poisson-mp", f"{sym.params['c']}-{sym.params['r']}", VALUE, [sym], range(1, 9), [4], _mp_at_argmax,
       (1e-14, 0)) for sym in (POI_HALF, POI_HIGH)),
    *(("rank-two-mp", f"{sym.family}-ell{ell}-N{n}", VALUE, [sym], [ell], [n], _mp_at_argmax, (1e-15, 0))
      for sym, ell, n in RANK_TWO_CASES),
    # -- the upper bound against the 50-digit x exp(1 + x), x = tail / tau^2
    ("upper-values", None, UPPER, [FAIR], [1], DEFAULT, 0.0, None),
    ("upper-values", None, UPPER, [Symbol.arc_indicator(0.0, 0.5)], [1], DEFAULT, None, None),
    ("upper-values", None, UPPER, [POI_HALF], [2], DEFAULT, _bound_mp(_exact_tail, tau=1 / 6), (1e-9, 0)),
    # poisson's closed-form tail underflows at these gaps; at ell = 400 the
    # 50-digit bound is itself below the least subnormal
    *(("tail-underflow", f"{sym.params['c']}-{sym.params['r']}-{ell}", what, [sym], [ell], DEFAULT, reference, tol)
      for sym, ell in [(POI_HALF, 268), (POI_HIGH, 179), (POI_HALF, 400)]
      for what, reference, tol in _underflow_checks(_exact_tail)),
    # |fhat(n)|^2, or the power_decay lookup fhat(n) itself, underflows,
    # although psi(ell) > 0; 0.0 stays for ell >= the bandwidth
    *(("coefficient-underflow", sym.family, what, [sym], ells, DEFAULT, reference, tol)
      for sym, ells in COEFFICIENT_UNDERFLOW for what, reference, tol in _underflow_checks(_exact_tail)),
    *(("coefficient-underflow", sym.family, UPPER, [sym], [sym.bandwidth], DEFAULT, 0.0, None)
      for sym, _ in COEFFICIENT_UNDERFLOW),
    # the tail over 1 < n <= 10 underflows, and the remainder bound
    # c^2 10^(2-2p) / (2p - 2) past the truncation is 15% of the total
    *(("remainder", None, what, [TINY_POWER_DECAY], [1], [10], reference, tol)
      for what, reference, tol in _underflow_checks(
          lambda sym, ell, n: tail_mp(sym, ell, 10) + mpmath.mpf(1e-170) ** 2 * mpmath.mpf(10) ** -1)),
    # in the normal range the bound is never below the 50-digit value from
    # the same float tail and tau, and at most (16 + 8x) u above it; round to
    # nearest was below it at 31 of the 39 poisson(0.5,0.25) gaps
    *(("rounds-up", name, UPPER, [sym], ells, DEFAULT, _bound_mp(tail, widened=widened), tol)
      for name, sym, ells, tail in [
          ("poisson(0.5,0.25)", POI_HALF, range(1, 40), CERTIFIED_TAIL),
          ("poisson(0.75,0.125)", POI_HIGH, range(1, 30), CERTIFIED_TAIL),
          ("trig_poly", Symbol.trig_poly([0.5, 0.1 + 0.12j, -0.05 + 0.07j]), [1], CERTIFIED_TAIL),
          ("power_decay(p=1)", POWER_DECAY_P1, (1, 2, 3, 10), FLOAT_TAIL)]
      for widened, tol in [(False, (">=", 0, 0)), (True, ("<=", 0, 0))]),
    ("rounds-up", "power_decay(p=1)", APPROXIMATE, [POWER_DECAY_P1], (1, 2, 3, 10), DEFAULT, True, None),
    # raised_cosine(0.75, 0.25) has bandwidth 1 and range [0.5, 1], so tau =
    # 0; psi(ell) = 0 for every ell >= 1 (at 50 digits, below 1e-45), and the
    # bound is 0.0, not None
    *(("zero-past-bandwidth", None, what, [Symbol.raised_cosine(0.75, 0.25)], (1, 2), ns, reference, tol)
      for what, ns, reference, tol in [
          (TAU, DEFAULT, 0.0, None), (UPPER, DEFAULT, 0.0, None), (APPROXIMATE, DEFAULT, False, None),
          (VALUE, [2], 0.0, None), (VALUE, [2], _largest(_mp_deviations), (">", 0, 1e-45))]),
    # -- the all-ones witness: at least 1 - exp(-sum_{k<=N} k |fhat(ell+k)|^2);
    # 1 - R of the all-ones pair, 5.6e-17 by ell = 8 on poisson(0.75,0.125),
    # below the last digit of 1 - det(I - K), which the f-route oracle forms
    # (so it is good to a few ulps of 1 only); below psi_N, below the bound
    ("witness-values", None, allones_lower_witness, [FAIR], [1], [3], 0.0, None),
    ("witness-values", None, allones_lower_witness, [RC_HALF], [1], [3], 0.0, (0, 1e-14)),
    ("witness-values", None, allones_lower_witness, [POI_HALF], [1], [1], 1 / 256, (1e-12, 0)),
    ("hs-chain", None, allones_lower_witness, [POI_HIGH], (1, 2), (1, 2, 4),
     lambda sym, ell, n: 1.0 - math.exp(-sum(k * abs(sym.coeff(ell + k)) ** 2 for k in range(1, n + 1))),
     (">=", 0, 1e-10)),
    ("witness-mp", None, allones_lower_witness, [POI_HIGH], range(1, 9), [4],
     lambda sym, ell, n: deviation_mp(sym, ell, "1" * n, "1" * n), (1e-14, 0)),
    *(("f-route", sym.family, allones_lower_witness, [sym], range(1, 9), range(1, 8), allones_witness,
       (1e-12, 1e-15)) for sym in [COMPLEX_TRIG, Symbol.arc_indicator(0.1, 0.45),
                                   Symbol.power_decay(0.5, 0.05, 1.5, 64), Symbol.raised_cosine(0.5, 0.25)]),
    ("sandwich", None, allones_lower_witness, [POI_HALF, POI_HIGH], (1, 2, 3), (1, 2, 3, 4), VALUE,
     ("<=", 0, 1e-12)),
    ("sandwich", None, VALUE, [POI_HALF, POI_HIGH], (1, 2, 3), (1, 2, 3, 4),
     lambda sym, ell, n: UPPER(sym, ell, DEFAULT_TRUNCATION), ("<=", 0, 1e-9)),
]
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _close(have, want, tol):
    """have == want at tol None; within max(rel |want|, abs) of want at tol
    (rel, abs); at tol (op, rel, abs), have op want, want moved by that much
    the way that loosens the comparison.  Elementwise on grids."""
    if tol is None:
        return np.array_equal(have, want)
    *op, rel, tiny = tol
    slack = np.maximum(rel * np.abs(want), tiny)
    if not op:
        return np.shape(have) == np.shape(want) and np.all(np.abs(have - want) <= slack)
    return np.all(COMPARE[op[0]](have, want + slack if op[0][0] == "<" else want - slack))


def _check(what, syms, ells, ns, reference, tol):
    """One row at 50 digits: what(sym, ell, N) against the reference."""
    for sym, ell, n in itertools.product(syms, ells, ns):
        with mpmath.workdps(50):
            want = reference(sym, ell, n) if callable(reference) else reference
            if what is not psi_finite_window:
                assert _close(what(sym, ell, n), want, tol), (sym, ell, n)
                continue
            got = psi_finite_window(sym, ell, n)
            pair = int(got.argmax_word[::-1], 2), int(got.argmax_word_prime[::-1], 2)
            if tol is None:
                assert pair == np.unravel_index(int(np.argmax(want)), want.shape) and got.value == want[pair], ell
            else:
                top, slack = want.max(), max(tol[0] * want.max(), tol[1])
                assert max(top - want[pair], abs(got.value - want[pair]), abs(got.value - top)) <= slack, (ell, n)


test_finite_window_product_measure = _table_test(_check, PSI_ROWS, "product")
test_finite_window_band_limited_zero = _table_test(_check, PSI_ROWS, "band-zero")
test_finite_window_poisson_hand_enumeration = _table_test(_check, PSI_ROWS, "hand")
test_band_limited_exact_independence = _table_test(_check, PSI_ROWS, "band-exact")
test_details_grid_consistency = _table_test(_check, PSI_ROWS, "details-grid")
test_details_match_per_pair_reports = _table_test(_check, PSI_ROWS, "details-reports")
test_finite_window_randomized_matches_reports = _table_test(_check, PSI_ROWS, "randomized")
test_finite_window_matches_joint_determinant_oracle = _table_test(_check, PSI_ROWS, "joint")
test_finite_window_poisson_rank_one_oracle = _table_test(_check, PSI_ROWS, "rank-one")
test_finite_window_matches_full_window_oracle = _table_test(_check, PSI_ROWS, "full-window")
test_finite_window_poisson_matches_mpmath = _table_test(_check, PSI_ROWS, "poisson-mp")
test_finite_window_rank_two_matches_mpmath = _table_test(_check, PSI_ROWS, "rank-two-mp")
test_psi_upper_bound_values = _table_test(_check, PSI_ROWS, "upper-values")
test_psi_upper_bound_survives_tail_underflow = _table_test(_check, PSI_ROWS, "tail-underflow")
test_psi_upper_bound_survives_coefficient_underflow = _table_test(_check, PSI_ROWS, "coefficient-underflow")
test_psi_upper_bound_from_log_keeps_the_remainder = _table_test(_check, PSI_ROWS, "remainder")
test_psi_upper_bound_rounds_up = _table_test(_check, PSI_ROWS, "rounds-up")
test_psi_upper_bound_zero_past_bandwidth_at_any_tau = _table_test(_check, PSI_ROWS, "zero-past-bandwidth")
test_allones_witness_values = _table_test(_check, PSI_ROWS, "witness-values")
test_witness_hs_chain = _table_test(_check, PSI_ROWS, "hs-chain")
test_allones_witness_poisson_matches_mpmath = _table_test(_check, PSI_ROWS, "witness-mp")
test_allones_witness_matches_f_route_oracle = _table_test(_check, PSI_ROWS, "f-route")
test_sandwich_small = _table_test(_check, PSI_ROWS, "sandwich")
