"""Built-in invariant battery behind the `dppkit selftest` subcommand.

Each check is a small, fast version of a module invariant; the full
randomized suites live in the test tree.
"""
from __future__ import annotations

import math

import numpy as np

from . import dimension, lcs, measure, mixing, sampler
from .symbol import Symbol, contraction_margin, tail_sum


def _require(ok, what: str) -> None:
    """Fail a check; unlike ``assert`` this still runs under ``python -O``."""
    if not ok:
        raise AssertionError(what)


def _check_symbol_values() -> None:
    poi = Symbol.poisson(0.5, 0.25)
    _require(math.isclose(poi.eval(0.0), 5.0 / 6.0, rel_tol=1e-12), "poisson f(0)")
    _require(math.isclose(poi.coeff(2).real, 1.0 / 32.0, rel_tol=1e-13), "poisson fhat(2)")
    _require(math.isclose(contraction_margin(poi), 1.0 / 6.0, rel_tol=1e-12), "poisson margin")
    _require(tail_sum(Symbol.raised_cosine(0.5, 0.5), 1).value == 0.0, "raised-cosine tail")


def _check_cylinder_values() -> None:
    rc = Symbol.raised_cosine(0.5, 0.5)
    _require(math.isclose(measure.cylinder_prob(rc, "11"), 3.0 / 16.0, rel_tol=1e-12), "P[11]")
    _require(math.isclose(measure.cylinder_prob(rc, "10"), 5.0 / 16.0, rel_tol=1e-12), "P[10]")
    _require(math.isclose(measure.conditional_next(rc, "1"), 3.0 / 8.0, rel_tol=1e-12),
             "P[1 | 1]")


def _check_normalization() -> None:
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.5, 0.25)):
        logs = measure.cylinder_log_probs_direct(sym, 8)
        _require(abs(np.exp(logs).sum() - 1.0) < 1e-10, "cylinder sum")


def _check_one_number_state() -> None:
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.5, 0.25)):
        _require(measure._one_number(sym, None), "one-number state chosen")
        direct = measure.cylinder_log_probs_direct(sym, 8)
        root = measure.PrefixState.root(sym)
        for m in range(2 ** 8):
            state = root
            for k in range(8):
                state = state.extend((m >> k) & 1)
            _require(abs(state.log_prob - direct[m]) <= 1e-12, f"log mu of word {m}")


def _check_ratio_identity() -> None:
    rng = np.random.default_rng(1729)
    sym = Symbol.poisson(0.5, 0.3)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        ell = int(rng.integers(1, 4))
        w1 = "".join(rng.choice(["0", "1"], n))
        w2 = "".join(rng.choice(["0", "1"], n))
        rep = measure.correlation_ratio(sym, w1, w2, ell)
        _require(abs(rep.ratio - 1.0) <= rep.simon_bound + 1e-9, "Simon bound")


def _check_determinant_identities() -> None:
    rng = np.random.default_rng(99)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    b = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    lhs = np.linalg.det(np.eye(4) - a @ b)
    rhs = np.linalg.det(np.eye(6) - b @ a)
    _require(abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), "Sylvester identity")
    m = rng.standard_normal((5, 5))
    total = sum(
        np.linalg.det(m[np.ix_(ix, ix)]) if (ix := [k for k in range(5) if (j >> k) & 1]) else 1.0
        for j in range(32)
    )
    _require(abs(np.linalg.det(np.eye(5) + m) - total) <= 1e-9, "principal-minor expansion")


def _check_dimension_oracles() -> None:
    # two one-number states, and a complex band-limited symbol whose moment
    # sums take the stacked inverse-corner route
    for sym in (Symbol.raised_cosine(0.5, 0.5), Symbol.poisson(0.75, 0.125),
                Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j])):
        s = dimension.s_n_q_table(sym, 6, 2)[-1]
        sig = dimension.sigma_n_2(sym, 6)
        _require(abs(s - (math.log2(sig) - 6)) < 1e-9, f"S_6 vs sigma_6 of {sym.family}")
    est = dimension.dim_q_estimate(Symbol.constant(0.5), 2, 6)
    _require(np.allclose(est.table.estimate_N, 1.0, atol=1e-12), "fair-coin dimension")


def _check_psi_sandwich() -> None:
    sym = Symbol.poisson(0.5, 0.25)
    for ell in (1, 2):
        upper = mixing.psi_bound_report(sym, ell).upper_bound
        for n in (1, 2, 3):
            wit = mixing.allones_lower_witness(sym, ell, n)
            fin = mixing.psi_finite_window(sym, ell, n).value
            _require(wit <= fin + 1e-12 and fin <= upper + 1e-9, "psi sandwich")


def _check_finite_window_grid() -> None:
    words = [measure._word_str(bits) for bits in measure.word_bits(2)]
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j])):
        for ell in (1, 2):
            brute = max(abs(measure.correlation_ratio(sym, w1, w2, ell).ratio - 1.0)
                        for w1 in words for w2 in words)
            fin = mixing.psi_finite_window(sym, ell, 2).value
            _require(abs(fin - brute) <= 1e-12, f"finite-window grid at ell = {ell}")


def _check_sampler_fit() -> None:
    rep = sampler.empirical_cylinder_test(Symbol.poisson(0.5, 0.25), 2, 20_000, seed=2024)
    _require(rep.p_value > 1e-3, "fit p-value")
    neg = sampler.empirical_cylinder_test(
        Symbol.poisson(0.5, 0.25), 3, 20_000, seed=2024, model=Symbol.constant(0.5)
    )
    _require(neg.p_value < 1e-6, "misfit p-value")


def _check_lcs() -> None:
    rng = np.random.default_rng(5)
    ns = [int(rng.integers(2, 120)) for _ in range(20)] + [63, 64, 65, 130]
    for n in ns:
        x = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        _require(lcs.lcs_length(x, y, n) == lcs.lcs_length_dp(x, y, n), f"n = {n}")
    for length in (62, 63):  # the longest fast-route answer, the shortest fallback
        x = rng.integers(0, 2, 300)
        y = rng.integers(0, 2, 300)
        y[200:200 + length] = x[50:50 + length]
        y[199], y[200 + length] = 1 - x[49], 1 - x[50 + length]  # ends the match
        _require(lcs.lcs_length(x, y, 300) == lcs.lcs_length_dp(x, y, 300) == length,
                 f"planted M_n = {length}")
    z = rng.integers(0, 2, 130)
    _require(lcs.lcs_length(z, z, 130) == 130, "identical pair")  # automaton fallback
    _require(lcs.lcs_length("0110", "1001", 4) == 2, "0110 vs 1001")
    # runs of one code, so some tail windows sit beside their own prefix's
    # codes in the sorted union
    x = np.zeros(300, dtype=int)
    y = rng.integers(0, 2, 300)
    x[-40:] = y[100:140]  # a planted match ending on x's last bit
    _require(lcs.lcs_length(x, y, 300) == lcs.lcs_length_dp(x, y, 300) >= 40, "zeros vs random")


CHECKS = [
    ("symbol closed-form values", _check_symbol_values),
    ("cylinder hand values", _check_cylinder_values),
    ("cylinder normalization", _check_normalization),
    ("one-number prefix state vs determinants", _check_one_number_state),
    ("ratio identity and Simon bound", _check_ratio_identity),
    ("determinant identities", _check_determinant_identities),
    ("dimension oracle equivalence", _check_dimension_oracles),
    ("psi sandwich", _check_psi_sandwich),
    ("finite-window grid vs per-pair ratios", _check_finite_window_grid),
    ("sampler goodness of fit", _check_sampler_fit),
    ("lcs packed codes and automaton vs dp", _check_lcs),
]


def run_selftest() -> bool:
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # keep going; report all failures
            ok = False
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"PASS {name}")
    return ok
