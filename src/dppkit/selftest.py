"""Built-in invariant battery behind the `dppkit selftest` subcommand.

Each check is a small, fast version of a module invariant; the full
randomized suites live in the test tree.  No check is statistical: every
kind of prefix state, walked as the moment-sum tree and as the sampler's
chain, is held to the cylinder determinants word by word, bit by bit, and
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
    p = measure._chain_root(rc, rc.bandwidth, 2).extend(1).conditional_one()
    _require(math.isclose(p, 3.0 / 8.0, rel_tol=1e-12), "P[1 | 1]")


def _check_prefix_states() -> None:
    # one-number states (reach None: geometric, then bandwidth 1), then the Schur blocks and
    # chains of a complex band-limited symbol (reach 3), of one with no bandwidth (every position)
    # and of one at reach 64, whose 140-bit chain reads the formed views of its 129-row buffer
    # (bits 64 .. 75) and moves it (bit 129)
    for sym, reach in ((Symbol.poisson(0.5, 0.25), None), (Symbol.raised_cosine(0.5, 0.5), None),
                       (Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]), 3),
                       (Symbol.arc_indicator(0.1, 0.45), math.inf),
                       (Symbol.power_decay(0.5, 0.1, 2, 64), 64)):
        root, chain = measure._moment_root(sym, 8), measure._chain_root(sym, sym.bandwidth, 24)
        kinds = (root._stack and root._stack.edge[0], chain._stack and chain._stack.reach)
        _require(kinds == ((None, None) if reach is None else (min(reach, 7), min(reach, 23))),
                 f"state kinds of {sym.family}")
        direct = measure.cylinder_log_probs_direct(sym, 8)
        _require(abs(np.exp(direct).sum() - 1.0) < 1e-10, f"cylinder sum of {sym.family}")
        s = dimension.s_n_q_table(sym, 8, 2)[-1]
        _require(abs(s - np.logaddexp.reduce(2.0 * direct) / math.log(2)) < 1e-9,
                 f"S_8 vs determinants of {sym.family}")
        todo = [(root, 0, 1), (root, 0, 0)]
        while todo:  # depth first, so each stack forms one child, as a word-by-word walk does
            state, m, bit = todo.pop()
            m, state = m | bit << state.length, state.extend(bit)
            if state.length < 8:
                todo += [(state, m, 1), (state, m, 0)]
            else:
                tol = 1e-12 if reach is None else 1e-10 * abs(direct[m])
                _require(abs(state.log_prob - direct[m]) <= tol, f"log mu of word {m} of {sym.family}")
        # the sampler's chain: each conditional against a ratio of cylinder
        # determinants, and each sampled bit against its uniform
        for seed, n in ((2024, 24), (7, 24)) if reach != 64 else ((2024, 140),):  # 140 bits once: 0.1 s
            uni = np.random.Generator(np.random.PCG64(seed)).random(n)
            state, word, log_w = measure._chain_root(sym, sym.bandwidth, n), "", 0.0
            for u, bit in zip(uni, sampler.sample_prefix(sym, n, seed).bits.tolist()):
                p, log_1 = state.conditional_one(), measure.cylinder_log_prob(sym, word + "1")
                exact = math.exp(log_1 - log_w)
                _require(abs(p - exact) <= 1e-12, f"P[1 | {word!r}] of {sym.family}")
                _require(bit == (u < p), f"bit {len(word)} of {sym.family} at seed {seed}")
                state, word = state.extend(bit), word + str(bit)
                log_w = log_1 if bit else measure.cylinder_log_prob(sym, word)
    est = dimension.dim_q_estimate(Symbol.constant(0.5), 2, 6)
    _require(np.allclose(est.table.estimate_N, 1.0, atol=1e-12), "fair-coin dimension")


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
    ("prefix states vs cylinder determinants", _check_prefix_states),
    ("determinant identities", _check_determinant_identities),
    ("finite-window psi vs cylinder sums", _check_finite_window_psi),
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
