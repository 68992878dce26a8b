import json
import math

import mpmath
import numpy as np
import pytest

from dppkit import (
    SizeCapError,
    Symbol,
    SymbolSpecError,
    contraction_margin,
    one_sidedness,
    symbol_from_json,
    tail_sum,
)

from dppkit.symbol import g_coeff_fn
from dppkit.toeplitz import build_T

from conftest import traced_peak
from oracles import complement, tail_mp


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
    # against the closed form of the tail at 50 digits
    sym = Symbol.poisson(c, r)
    with mpmath.workdps(50):
        for ell in range(13):
            for truncation in (ell + 1, ell + 7, 200, 100_000):
                got = tail_sum(sym, ell, truncation)
                want = tail_mp(sym, ell, truncation)
                assert abs(got.value - want) <= 1e-15 * want
                rem = tail_mp(sym, truncation)  # below the double range it rounds to 0
                assert abs(got.remainder_bound - rem) <= 1e-15 * rem + 1e-300


def test_tail_sum_monotone_and_bandlimited(rc_half, poi_half):
    vals = [tail_sum(poi_half, ell, 200).value for ell in range(8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert tail_sum(rc_half, 1, 50).value == 0.0
    assert tail_sum(rc_half, 1, 50).remainder_bound == 0.0


def test_tail_sum_refuses_ell_at_truncation(poi_half):
    # truncation is an argument, not a size cap: a plain ValueError
    with pytest.raises(ValueError, match="^tail_sum: need 0 <= ell < truncation$") as info:
        tail_sum(poi_half, 10, 10)
    assert type(info.value) is ValueError


def test_summed_tail_past_2_62_is_a_size_cap(poi_half, rc_half):
    # only a tail that is summed term by term forms an array of the truncation's size
    arc = Symbol.arc_indicator(0.1, 0.45)
    with pytest.raises(SizeCapError, match=r"^tail_sum: a summed truncation must be at most 2\^62, "
                                           r"got 10000000000000000000$"):
        tail_sum(arc, 1, 10 ** 19)
    assert tail_sum(poi_half, 1, 10 ** 20).value == tail_sum(poi_half, 1).value  # closed form
    assert tail_sum(rc_half, 0, 10 ** 20).value == tail_sum(rc_half, 0, 2).value  # band-limited


def test_tail_without_decay_has_no_certified_total():
    assert tail_sum(Symbol.arc_indicator(0.3, 0.7), 1).certified_total is None


def test_poisson_remainder_is_a_true_bound(poi_half):
    short = tail_sum(poi_half, 1, truncation=5)
    long = tail_sum(poi_half, 1, truncation=500)
    dropped = long.value - short.value
    assert 0.0 <= dropped <= short.remainder_bound


def test_tail_log_total_matches_mpmath():
    # the log of value + remainder_bound where that total underflows, at 50
    # digits.  For power_decay the remainder c^2 10^(2-2p) / (2p - 2) = c^2/10
    # reads 0.0 in linear form, but the log total keeps it
    cases = [
        (Symbol.power_decay(0.5, 1e-170, 1.5, 10 ** 6), 10,
         lambda sym: tail_mp(sym, 1, 10) + mpmath.mpf(1e-170) ** 2 / 10),
        (Symbol.poisson(1e-160, 0.5), 100_000, lambda sym: tail_mp(sym, 1)),
    ]
    for sym, truncation, total in cases:
        got = tail_sum(sym, 1, truncation)
        assert got.value + got.remainder_bound < 2.3e-308
        with mpmath.workdps(50):
            want = mpmath.log(total(sym))
            assert abs(got.log_total - want) <= 1e-15 * abs(want)
    assert tail_sum(Symbol.poisson(0.5, 0.25), 1).log_total is None


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


def test_bandwidth_and_geometric():
    # the exact bandwidth (None for poisson and arc_indicator), and (c, r)
    # for a poisson symbol exactly when it has none
    cases = [
        (Symbol.constant(0.5), 0, None), (Symbol.raised_cosine(0.5, 0.25), 1, None),
        (Symbol.raised_cosine(0.5, 0.0), 0, None), (Symbol.power_decay(0.5, 0.1, 2.0, 64), 64, None),
        (Symbol.trig_poly([0.5, 0.1, 0.05j, 0.0]), 2, None), (Symbol.poisson(0.5, 0.0), 0, None),
        (Symbol.poisson(0.0, 0.5), 0, None), (Symbol.poisson(0.5, 0.25), None, (0.5, 0.25)),
        (Symbol.poisson(0.5, -0.3), None, (0.5, -0.3)), (Symbol.arc_indicator(0.1, 0.4), None, None),
    ]
    for sym, bandwidth, geometric in cases:
        assert sym.bandwidth == bandwidth and sym.geometric == geometric


DTYPE_CASES = {
    "constant": (Symbol.constant(0.5), True),
    "raised_cosine": (Symbol.raised_cosine(0.5, 0.25), True),
    "poisson": (Symbol.poisson(0.5, 0.25), True),
    "power_decay": (Symbol.power_decay(0.5, 0.1, 2.0, 64), True),
    "trig_poly-real": (Symbol.trig_poly([0.5, 0.1, 0.05]), True),
    "trig_poly-complex": (Symbol.trig_poly([0.5, 0.1, 0.05j]), False),
    "arc_indicator": (Symbol.arc_indicator(0.1, 0.4), False),
}


@pytest.mark.parametrize("name", sorted(DTYPE_CASES))
def test_coefficient_dtype_follows_has_real_coeffs(name):
    # coeffs, and every window built from them, are float64 exactly when
    # has_real_coeffs holds; coeff(n) is complex either way.  The complex
    # trig_poly's window over gaps 0..1 holds only real values, and stays
    # complex
    sym, real = DTYPE_CASES[name]
    assert sym.has_real_coeffs == real
    want = np.float64 if real else np.complex128
    assert sym.coeffs(np.arange(-5, 6)).dtype == want
    assert build_T(g_coeff_fn(sym), [1, 2]).dtype == want
    assert type(sym.coeff(2)) is complex
    # an empty window too, from either coefficient function
    assert build_T(sym.coeffs, []).dtype == build_T(g_coeff_fn(sym), []).dtype == want


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
        {"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5}, {"n": 1, "re": True}]},
        "[1]",
        # an index past 2^62 once reached numpy's "Maximum allowed dimension exceeded"
        {"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5}, {"n": 2 ** 62 + 1, "re": 0.01}]},
        {"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5}, {"n": 10 ** 20, "re": 0.01}]},
    ],
)
def test_json_rejects_bad_specs(spec):
    with pytest.raises(SymbolSpecError):
        symbol_from_json(spec)


def test_range_information():
    assert Symbol.raised_cosine(0.5, 0.6).range_ok is False
    assert Symbol.raised_cosine(0.5, 0.5).range_ok is True
    assert Symbol.arc_indicator(0.0, 0.5).range_ok is True


@pytest.mark.parametrize("sym", [Symbol.trig_poly([0.5, 0.1 + 0.12j]), Symbol.power_decay(0.5, 0.2, 3.0, 1)],
                         ids=["trig_poly", "power_decay"])
def test_bandwidth_one_range_is_exact(sym):
    # f = fhat(0) + 2 |fhat(1)| cos(2 pi t + phase), so its range is closed form;
    # the 4,096-point grid can only miss the extremum, never pass it
    c1 = sym.coeff(1)
    with mpmath.workdps(50):
        amp = 2 * abs(mpmath.mpc(c1.real, c1.imag))
        for got, want in zip((sym.f_min, sym.f_max), (sym.fhat0 - amp, sym.fhat0 + amp)):
            assert abs(mpmath.mpf(got) - want) <= 2 * np.spacing(got)
    grid = sym.values_on_grid()
    assert grid.min() >= sym.f_min and grid.max() <= sym.f_max


def test_unknown_family_has_no_coefficients():
    with pytest.raises(SymbolSpecError, match="^unknown family 'foo'$"):
        Symbol("foo").coeffs([0])


def test_trig_poly_spec_dict_round_trip():
    # a complex trig_poly through spec_dict and back keeps its table and fingerprint
    sym = Symbol.trig_poly([0.5, 0.1 + 0.12j, -0.05 + 0.07j])
    back = symbol_from_json(json.dumps(sym.spec_dict()))
    assert back.table.dtype == sym.table.dtype and np.array_equal(back.table, sym.table)
    assert back.fingerprint == sym.fingerprint


def test_fingerprint_distinguishes_symbols():
    a = Symbol.poisson(0.5, 0.25)
    b = Symbol.poisson(0.5, 0.2500001)
    assert a.fingerprint != b.fingerprint
    assert a.fingerprint == Symbol.poisson(0.5, 0.25).fingerprint


# signed zeros among the parameters: the closed forms below read +0.0 for
# raised_cosine wherever the sum of their two terms is zero
SIGNED_A = (0.5, 0.0, -0.0, 0.3)
SIGNED_B = (0.25, 0.0, -0.0, -0.2)
FAR_NS = np.concatenate([np.arange(-70, 71), [10 ** 6 + 1, -(10 ** 6 + 1), 2 ** 40, -(2 ** 40)]])


def _same_coeff_bytes(sym, want):
    got = sym.coeffs(FAR_NS)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for k in (0, 69, 70, 71, 141):  # a scalar n reads the same entry
        assert sym.coeffs(FAR_NS[k]).tobytes() == want[k].tobytes()


@pytest.mark.parametrize("a", SIGNED_A, ids=repr)
def test_constant_table_matches_closed_form(a):
    sym = Symbol.constant(a)
    _same_coeff_bytes(sym, np.where(FAR_NS == 0, a, 0.0))
    assert sym.bandwidth == 0 and sym.has_real_coeffs


@pytest.mark.parametrize("b", SIGNED_B, ids=repr)
@pytest.mark.parametrize("a", SIGNED_A, ids=repr)
def test_raised_cosine_table_matches_closed_form(a, b):
    sym = Symbol.raised_cosine(a, b)
    _same_coeff_bytes(sym, np.where(FAR_NS == 0, a, 0.0) + np.where(np.abs(FAR_NS) == 1, b / 2.0, 0.0))
    assert sym.bandwidth == (0 if b == 0.0 else 1) and sym.has_real_coeffs


@pytest.mark.parametrize("sym, spec, fingerprint", [
    (Symbol.constant(0.5), {"family": "constant", "params": {"a": 0.5}}, "48a33150038d2579"),
    (Symbol.raised_cosine(0.5, 0.25), {"family": "raised_cosine", "params": {"a": 0.5, "b": 0.25}},
     "dde65a58afea7646"),
    (Symbol.poisson(0.5, 0.25), {"family": "poisson", "params": {"c": 0.5, "r": 0.25}},
     "cddc716d59b69a7a"),
    (Symbol.trig_poly([0.5, 0.1 + 0.12j, 0.0, 0.05]),
     {"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5, "im": 0.0}, {"n": 1, "re": 0.1, "im": 0.12},
                                        {"n": 2, "re": 0.0, "im": 0.0}, {"n": 3, "re": 0.05, "im": 0.0}]},
     "c7ac2efbfaf470b3"),
    (Symbol.power_decay(0.5, 0.1, 2.0, 8),
     {"family": "power_decay", "params": {"a": 0.5, "c": 0.1, "p": 2.0, "cutoff": 8}}, "f74d0aac68e1df39"),
    (Symbol.arc_indicator(0.25, 0.75), {"family": "arc_indicator", "params": {"alpha": 0.25, "beta": 0.75}},
     "87948b3ee3397492"),
], ids=["constant", "raised_cosine", "poisson", "trig_poly", "power_decay", "arc_indicator"])
def test_spec_dict_and_fingerprint_are_pinned(sym, spec, fingerprint):
    # the coefficient table is not part of the spec: constant and
    # raised_cosine keep their parameter specs, so their fingerprints hold
    assert sym.spec_dict() == spec and sym.fingerprint == fingerprint


# each parameter family with arguments that it accepts
GOOD_PARAMS = {
    "constant": {"a": 0.5},
    "raised_cosine": {"a": 0.5, "b": 0.25},
    "poisson": {"c": 0.5, "r": 0.25},
    "power_decay": {"a": 0.5, "c": 0.1, "p": 2.0, "cutoff": 8},
    "arc_indicator": {"alpha": 0.25, "beta": 0.75},
}
NOT_NUMBERS = [True, np.True_, "0.5", None]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("family", sorted(GOOD_PARAMS))
def test_constructor_refuses_a_parameter_that_is_not_a_number(family, bad):
    # the constructor is the one gate for parameter values, from Python as from JSON
    for name in GOOD_PARAMS[family]:
        params = dict(GOOD_PARAMS[family], **{name: bad})
        with pytest.raises(SymbolSpecError, match=f"^{family}: (parameter )?{name} must be"):
            getattr(Symbol, family)(**params)


@pytest.mark.parametrize("bad", [1j, math.inf, -math.nan, np.float32("inf"), 10 ** 400], ids=repr)
def test_constructor_refuses_a_non_finite_or_non_real_parameter(bad):
    with pytest.raises(SymbolSpecError, match="^poisson: parameter c must be a finite number$"):
        Symbol.poisson(bad, 0.25)


def test_constructor_reads_numpy_numbers_as_floats():
    sym = Symbol.power_decay(np.float32(0.5), np.int64(0), 2, np.int64(8))
    assert sym.params == {"a": 0.5, "c": 0.0, "p": 2.0, "cutoff": 8}
    assert all(type(v) is float for k, v in sym.params.items() if k != "cutoff")


@pytest.mark.parametrize("coeffs", [["0.5"], [True, 0.1], [0.5, np.True_], np.array([True]), [None],
                                    np.array([0.5, True], dtype=object)], ids=repr)
def test_trig_poly_refuses_coefficients_that_are_not_numbers(coeffs):
    with pytest.raises(SymbolSpecError, match="^trig_poly: coefficients must be numbers$"):
        Symbol.trig_poly(coeffs)


def test_json_trig_poly_table_is_read_by_its_dtype():
    # symbol_from_json checks each entry and hands trig_poly a complex table,
    # which was checked again one Python object at a time: 4.5 times the
    # table's bytes at peak and 2.6 s here; now the table and its copy
    n = 10 ** 6
    sym, peak = traced_peak(
        lambda: symbol_from_json({"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5}, {"n": n, "re": 0.01}]}))
    assert sym.bandwidth == n and sym.coeff(n) == 0.01
    assert peak <= 2.5 * 16 * (n + 1)


@pytest.mark.parametrize("coeffs", [[math.inf], [0.5, complex(0.1, math.nan)], [0.5, 10 ** 400]],
                         ids=["inf", "nan-imag", "10^400"])
def test_trig_poly_refuses_a_non_finite_coefficient(coeffs):
    # an int past the float range is refused as a non-finite one, not as an OverflowError
    with pytest.raises(SymbolSpecError, match="^trig_poly: non-finite coefficient$"):
        Symbol.trig_poly(coeffs)


def test_json_text_that_is_not_json_is_a_plain_value_error():
    # the CLI prints this message as it is, with no "invalid symbol spec" prefix
    with pytest.raises(ValueError) as info:
        symbol_from_json("{oops")
    assert type(info.value) is ValueError
    assert str(info.value) == ("malformed symbol JSON at line 1 column 2: "
                               "Expecting property name enclosed in double quotes")


def test_whole_arc_has_the_table_of_constant_one():
    arc, one = Symbol.arc_indicator(0.0, 1.0), Symbol.constant(1.0)
    assert arc.table.tobytes() == one.table.tobytes()
    _same_coeff_bytes(arc, one.coeffs(FAR_NS))
    assert arc.bandwidth == 0 and arc.has_real_coeffs and arc.range_ok
    assert (arc.f_min, arc.f_max) == (1.0, 1.0)
    assert arc.spec_dict() == {"family": "arc_indicator", "params": {"alpha": 0.0, "beta": 1.0}}
    assert arc.fingerprint == "e532292d10d1e0bf"
    with pytest.raises(SymbolSpecError, match="^arc_indicator: parameter alpha must be a finite number$"):
        Symbol.arc_indicator(False, True)
