import json
import math

import mpmath
import numpy as np
import pytest

from dppkit import (
    Symbol,
    SymbolSpecError,
    contraction_margin,
    one_sidedness,
    symbol_from_json,
    tail_sum,
)

from oracles import complement


def test_eval_closed_forms(fair, rc_half, poi_half):
    assert fair.eval(0.3) == 0.5
    assert rc_half.eval(0.0) == pytest.approx(1.0, abs=1e-15)
    # direct Poisson-kernel evaluation: (1/2)(1-1/16)/(1-1/2+1/16)
    assert poi_half.eval(0.0) == pytest.approx(5.0 / 6.0, rel=1e-14)


def test_fourier_coeff_closed_forms(fair, rc_half, poi_half):
    assert fair.coeff(0) == 0.5
    assert fair.coeff(3) == 0.0
    assert rc_half.coeff(1) == pytest.approx(0.25)
    assert rc_half.coeff(-1) == pytest.approx(0.25)
    # geometric coefficients of the Poisson kernel
    assert poi_half.coeff(2) == pytest.approx(1.0 / 32.0, rel=1e-14)


def test_arc_indicator_coeffs_match_quadrature():
    from scipy.integrate import quad

    alpha, beta = 0.1, 0.55
    arc = Symbol.arc_indicator(alpha, beta)
    for n in (0, 1, 2, 5, 11):
        re = quad(lambda t: math.cos(2 * math.pi * n * t), alpha, beta, epsabs=1e-13)[0]
        im = quad(lambda t: -math.sin(2 * math.pi * n * t), alpha, beta, epsabs=1e-13)[0]
        assert arc.coeff(n) == pytest.approx(complex(re, im), abs=1e-12)


@pytest.mark.parametrize(
    "sym",
    [
        Symbol.constant(0.5),
        Symbol.raised_cosine(0.6, 0.2),
        Symbol.poisson(0.5, 0.25),
        Symbol.power_decay(0.5, 0.1, 2.0, 100),
        Symbol.arc_indicator(0.2, 0.7),
        Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j]),
    ],
)
def test_hermitian_symmetry(sym):
    ns = np.arange(1, 51)
    assert np.allclose(sym.coeffs(-ns), np.conj(sym.coeffs(ns)), atol=1e-12)


@pytest.mark.parametrize(
    "sym",
    [
        Symbol.raised_cosine(0.6, 0.2),
        Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j]),
        Symbol.power_decay(0.4, 0.05, 1.5, 30),
    ],
)
def test_parseval_chain(sym):
    b = sym.bandwidth
    ns = np.arange(-b, b + 1)
    coeff_energy = float(np.sum(np.abs(sym.coeffs(ns)) ** 2))
    vals = sym.values_on_grid(2 ** 13)
    int_f2 = float(np.mean(vals ** 2))
    int_f = float(np.mean(vals))
    assert coeff_energy == pytest.approx(int_f2, abs=1e-8)
    assert int_f2 <= int_f + 1e-8
    assert int_f <= 1.0 + 1e-8


def test_values_on_grid_matches_eval():
    sym = Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.0, 0.03j])
    m = 64
    grid = sym.values_on_grid(m)
    direct = sym.eval(np.arange(m) / m)
    assert np.allclose(grid, direct, atol=1e-12)


def test_tail_sum_values(fair, rc_half, poi_half):
    assert tail_sum(rc_half, 1).value == 0.0
    assert tail_sum(fair, 0).value == 0.0
    # geometric series: sum_{n>=1} n (1/2)^2 (1/16)^n = 4/225
    got = tail_sum(poi_half, 0, truncation=100)
    assert got.value == pytest.approx(4.0 / 225.0, rel=1e-12)
    assert got.remainder_bound is not None and got.remainder_bound < 1e-100


@pytest.mark.parametrize("c, r", [(0.5, 0.25), (0.75, 0.125), (0.3, -0.6), (0.5, 0.9)])
def test_poisson_tail_sum_matches_mpmath(c, r):
    # sum_{n > t} n c^2 x^n = c^2 x^{t+1} ((t+1) - t x) / (1-x)^2, x = r^2, at 50 digits
    with mpmath.workdps(50):
        x = mpmath.mpf(r) ** 2

        def tail(t):
            return mpmath.mpf(c) ** 2 * x ** (t + 1) * ((t + 1) - t * x) / (1 - x) ** 2

        sym = Symbol.poisson(c, r)
        for ell in range(13):
            for truncation in (ell + 1, ell + 7, 200, 100_000):
                got = tail_sum(sym, ell, truncation)
                want = tail(ell) - tail(truncation)
                assert abs(got.value - want) <= 1e-15 * want
                rem = tail(truncation)  # below the double range it rounds to 0
                assert abs(got.remainder_bound - rem) <= 1e-15 * rem + 1e-300


def test_tail_sum_monotone_and_bandlimited(rc_half, poi_half):
    vals = [tail_sum(poi_half, ell, 200).value for ell in range(8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert tail_sum(rc_half, 1, 50).value == 0.0
    assert tail_sum(rc_half, 1, 50).remainder_bound == 0.0


def test_poisson_remainder_is_a_true_bound(poi_half):
    short = tail_sum(poi_half, 1, truncation=5)
    long = tail_sum(poi_half, 1, truncation=500)
    dropped = long.value - short.value
    assert 0.0 <= dropped <= short.remainder_bound


def test_contraction_margin(fair, poi_half):
    assert contraction_margin(fair) == pytest.approx(0.5)
    assert contraction_margin(poi_half) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert contraction_margin(Symbol.arc_indicator(0.0, 0.5)) == 0.0


def test_one_sidedness():
    assert one_sidedness(Symbol.constant(0.75)) == 1
    assert one_sidedness(Symbol.constant(0.25)) == -1
    assert one_sidedness(Symbol.poisson(0.5, 0.25)) == 0
    assert one_sidedness(Symbol.raised_cosine(0.75, 0.25)) == 1


def test_complement_symbols():
    rc = Symbol.raised_cosine(0.6, 0.2)
    comp = complement(rc)
    t = np.linspace(0, 1, 17, endpoint=False)
    assert np.allclose(comp.eval(t), 1.0 - rc.eval(t), atol=1e-12)
    poi = Symbol.poisson(0.5, 0.25)
    comp = complement(poi)
    assert np.allclose(comp.eval(t), 1.0 - poi.eval(t), atol=1e-12)


def test_effective_bandwidth():
    assert Symbol.constant(0.5).effective_bandwidth() == 0
    assert Symbol.raised_cosine(0.5, 0.25).effective_bandwidth() == 1
    poi = Symbol.poisson(0.5, 0.25)
    b = poi.effective_bandwidth()
    assert b is not None
    assert abs(poi.coeff(b + 1)) <= 1e-16 < abs(poi.coeff(b - 1))
    assert Symbol.arc_indicator(0.1, 0.4).effective_bandwidth() is None


def test_json_roundtrip():
    spec = {"family": "poisson", "params": {"c": 0.5, "r": 0.25}}
    sym = symbol_from_json(json.dumps(spec))
    assert sym.family == "poisson"
    assert sym.spec_dict() == spec
    tp = symbol_from_json(
        {"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5, "im": 0.0}, {"n": 2, "re": 0.1, "im": -0.05}]}
    )
    assert tp.coeff(2) == pytest.approx(0.1 - 0.05j)
    assert tp.coeff(-2) == pytest.approx(0.1 + 0.05j)
    assert tp.coeff(1) == 0.0


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "gaussian", "params": {}},
        {"family": "constant", "params": {"a": 0.5}, "extra": 1},
        {"family": "constant", "params": {"a": 0.5, "b": 1.0}},
        {"family": "poisson", "params": {"c": 0.5, "r": 1.5}},
        {"family": "trig_poly", "coeffs": [{"n": -1, "re": 0.1, "im": 0.0}]},
        {"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5, "im": 0.1}]},
        {"family": "trig_poly", "coeffs": [{"n": 1, "re": 0.1, "im": 0.0}, {"n": 1, "re": 0.2, "im": 0.0}]},
        {"family": "arc_indicator", "params": {"alpha": 0.7, "beta": 0.2}},
        {"family": "constant", "params": {"a": "half"}},
    ],
)
def test_json_rejects_bad_specs(spec):
    with pytest.raises(SymbolSpecError):
        symbol_from_json(spec)


def test_range_information():
    assert Symbol.raised_cosine(0.5, 0.6).range_ok is False
    assert Symbol.raised_cosine(0.5, 0.5).range_ok is True
    assert Symbol.arc_indicator(0.0, 0.5).range_ok is True


def test_fingerprint_distinguishes_symbols():
    a = Symbol.poisson(0.5, 0.25)
    b = Symbol.poisson(0.5, 0.2500001)
    assert a.fingerprint != b.fingerprint
    assert a.fingerprint == Symbol.poisson(0.5, 0.25).fingerprint
