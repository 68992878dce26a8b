"""Built-in invariant battery behind the `dppkit selftest` subcommand.

Each check is a small, fast version of a module invariant; the full
randomized suites live in the test tree.  No check is statistical: the
sampler's replays sampled bits against ratios of cylinder determinants, and
the finite-window psi that `dppkit psi` prints is recomputed from the
cylinder enumeration that `dppkit cylinder --N` prints, summed over the gap.
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
    p = measure.PrefixState.root(rc, window=rc.bandwidth).extend(1).conditional_one()
    _require(math.isclose(p, 3.0 / 8.0, rel_tol=1e-12), "P[1 | 1]")


def _check_one_number_state() -> None:
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.5, 0.25)):
        _require(measure._one_number(sym, None), "one-number state chosen")
        direct = measure.cylinder_log_probs_direct(sym, 8)
        _require(abs(np.exp(direct).sum() - 1.0) < 1e-10, "cylinder sum")
        root = measure.PrefixState.root(sym)
        for m in range(2 ** 8):
            state = root
            for k in range(8):
                state = state.extend((m >> k) & 1)
            _require(abs(state.log_prob - direct[m]) <= 1e-12, f"log mu of word {m}")


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
        direct = np.logaddexp.reduce(2.0 * measure.cylinder_log_probs_direct(sym, 6)) / math.log(2)
        _require(abs(s - direct) < 1e-9, f"S_6 vs determinants of {sym.family}")
    est = dimension.dim_q_estimate(Symbol.constant(0.5), 2, 6)
    _require(np.allclose(est.table.estimate_N, 1.0, atol=1e-12), "fair-coin dimension")


def _check_finite_window_psi() -> None:
    # R(eps, eps') = sum over gap words gamma of mu[eps gamma eps'] / (mu[eps] mu[eps']),
    # every mu from the enumeration `cylinder --N` prints; the symbols give
    # r = 1, r = 2 then 1, and r = N (a per-pair slogdet)
    N = 3
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]),
                Symbol.arc_indicator(0.1, 0.45)):
        marginal = measure.cylinder_log_probs_direct(sym, N)
        for ell in (1, 2):
            # word index m holds bit k at (m >> k) & 1, so axis 0 is eps', axis 2 is eps
            words = measure.cylinder_log_probs_direct(sym, 2 * N + ell).reshape(2 ** N, 2 ** ell, 2 ** N)
            joint = np.logaddexp.reduce(words, axis=1)
            sums = np.abs(np.expm1(joint - marginal[:, None] - marginal[None, :])).max()
            fin = mixing.psi_finite_window(sym, ell, N).value
            _require(abs(fin - sums) <= 1e-12, f"psi_{N}({ell}) of {sym.family}")
            if contraction_margin(sym) > 0.0:  # else there is no upper bound
                upper = mixing.psi_bound_report(sym, ell).upper_bound
                _require(fin <= upper + 1e-9, f"psi_{N}({ell}) of {sym.family} under the upper bound")


def _check_sampler_replay() -> None:
    # a one-number state, a trimmed corner chain (window 3) and a full-state chain;
    # the replay forms each corner beside its parent, the sampler in its parent's memory
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]),
                Symbol.arc_indicator(0.1, 0.45)):
        for seed in (2024, 7):
            uni = np.random.Generator(np.random.PCG64(seed)).random(24)
            state, word, log_w = measure.PrefixState.root(sym, window=sym.bandwidth), "", 0.0
            for k, bit in enumerate(sampler.sample_prefix(sym, 24, seed).bits.tolist()):
                p = state.conditional_one()
                exact = math.exp(measure.cylinder_log_prob(sym, word + "1") - log_w)
                _require(abs(p - exact) <= 1e-12, f"P[1 | {word!r}] of {sym.family}")
                _require(bit == (uni[k] < p), f"bit {k} of {sym.family} at seed {seed}")
                state, word = state.extend(bit), word + str(bit)
                log_w = measure.cylinder_log_prob(sym, word)


def _check_lcs() -> None:
    rng = np.random.default_rng(5)
    ns = [int(rng.integers(2, 120)) for _ in range(20)] + [63, 64, 65, 130]
    for n in ns:
        x = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        _require(lcs.lcs_length(x, y, n) == lcs.lcs_length_dp(x, y, n), f"n = {n}")
    for length, n in ((62, 300), (63, 300), (200, 500)):  # fast route; refined; all phases
        x = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        y[200:200 + length] = x[50:50 + length]
        y[199], y[200 + length] = 1 - x[49], 1 - x[50 + length]  # ends the match
        _require(lcs.lcs_length(x, y, n) == lcs.lcs_length_dp(x, y, n) == length,
                 f"planted M_n = {length}")
    z = rng.integers(0, 2, 130)
    _require(lcs.lcs_length(z, z, 130) == 130, "identical pair")  # refined by doubling
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
    ("one-number prefix state vs determinants", _check_one_number_state),
    ("determinant identities", _check_determinant_identities),
    ("dimension oracle equivalence", _check_dimension_oracles),
    ("finite-window psi vs cylinder sums", _check_finite_window_psi),
    ("sampled chain replay vs cylinder determinants", _check_sampler_replay),
    ("lcs packed codes and prefix doubling vs dp", _check_lcs),
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
