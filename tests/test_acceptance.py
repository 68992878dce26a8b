"""Acceptance gate: one test per criterion, at the stated tolerances and
runtime budgets.  Each test prints a PASS line with its headline numbers
(run pytest -s to see them)."""
import math
import time

import numpy as np
import pytest

from dppkit import (
    Symbol,
    allones_lower_witness,
    contraction_margin,
    corr_dim_szego_lower,
    corr_dim_szego_upper,
    correlation_ratio,
    cylinder_prob,
    dim_q_estimate,
    psi_bound_report,
    psi_finite_window,
    rate_experiment,
    s_n_q_table,
    sigma_n_2,
    sigma_n_q_walsh,
)
from dppkit.measure import cylinder_log_probs_direct

from conftest import random_interior_symbol
from oracles import POISSON_D2, POISSON_D2_CONTROL_A, empirical_cylinder_test, finite_window_details

IID_34_DIM2 = -math.log2(5.0 / 8.0)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.name} [{self.elapsed:.1f}s / budget {self.seconds:.0f}s]")
            assert self.elapsed <= self.seconds, f"{self.name} exceeded runtime budget"
        return False


def test_criterion_01_product_measure_exactness():
    with _Budget("criterion 1: product-measure exactness", 10.0):
        fair = Symbol.constant(0.5)
        for n in range(1, 13):
            probs = np.exp(cylinder_log_probs_direct(fair, n))
            assert np.max(np.abs(probs - 2.0 ** -n)) <= 1e-12
        for ell in (1, 2, 3):
            assert psi_bound_report(fair, ell).lower_bound == 0.0
            assert psi_bound_report(fair, ell).upper_bound == 0.0
            for n in (1, 3, 5):
                assert psi_finite_window(fair, ell, n).value <= 1e-12
        for q in (2, 3):
            est = dim_q_estimate(fair, q, 10)
            assert np.max(np.abs(est.table.estimate_N - 1.0)) <= 1e-12
            assert est.fekete_lower == pytest.approx(1.0, abs=1e-12)


def test_criterion_02_hand_derived_determinants():
    with _Budget("criterion 2: hand-derived determinants", 1.0):
        rc = Symbol.raised_cosine(0.5, 0.5)
        assert cylinder_prob(rc, "11") == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert cylinder_prob(rc, "10") == pytest.approx(5.0 / 16.0, abs=1e-12)
        assert 2.0 ** s_n_q_table(rc, 2, 2)[-1] == pytest.approx(17.0 / 64.0, abs=1e-12)
        assert sigma_n_2(rc, 2) == pytest.approx(17.0 / 16.0, abs=1e-12)


def test_criterion_03_ratio_identity_suite():
    with _Budget("criterion 3: ratio identity over 120 randomized cases", 30.0):
        rng = np.random.default_rng(20260403)
        for _ in range(120):
            sym = random_interior_symbol(rng)
            n = int(rng.integers(1, 9))
            ell = int(rng.integers(1, 6))
            w1 = "".join(rng.choice(["0", "1"], n))
            w2 = "".join(rng.choice(["0", "1"], n))
            # correlation_ratio raises if joint/(p p') and det(I-H) differ
            # beyond 1e-8 relative
            rep = correlation_ratio(sym, w1, w2, ell)
            assert abs(rep.ratio - 1.0) <= rep.simon_bound + 1e-12


def test_criterion_04_psi_sandwich():
    with _Budget("criterion 4: psi sandwich and trace-norm bound", 120.0):
        for sym in (Symbol.poisson(0.5, 0.25), Symbol.poisson(0.75, 0.125)):
            tau = contraction_margin(sym)
            for ell in range(1, 7):
                upper = psi_bound_report(sym, ell).upper_bound
                for n in range(1, 7):
                    details = finite_window_details(sym, ell, n)
                    witness = allones_lower_witness(sym, ell, n)
                    finite = float(details.deviation.max())
                    assert witness <= finite + 1e-12
                    assert finite <= upper + 1e-9
                    assert float(details.h_trace_norm.max()) <= details.hs_norm_sq / tau ** 2 + 1e-12


def test_criterion_05_dimension_oracle_equivalence():
    with _Budget("criterion 5: moment-sum oracle equivalence", 60.0):
        symbols = [
            Symbol.constant(0.5),
            Symbol.constant(0.75),
            Symbol.raised_cosine(0.5, 0.5),
            Symbol.poisson(0.5, 0.25),
            Symbol.poisson(0.75, 0.125),
        ]
        for sym in symbols:
            tab = s_n_q_table(sym, 12, 2)
            for n in range(1, 13):
                assert tab[n - 1] == pytest.approx(
                    math.log2(sigma_n_2(sym, n)) - n, abs=1e-9
                )
            for n in range(1, 7):
                for q in (2, 3):
                    walsh = sigma_n_q_walsh(sym, n, q)
                    assert math.log2(walsh) == pytest.approx(
                        (q - 1) * n + s_n_q_table(sym, n, q)[-1], abs=1e-8
                    )


def test_criterion_06_submultiplicativity():
    with _Budget("criterion 6: sub-multiplicativity and Fekete monotonicity", 120.0):
        symbols = [
            Symbol.constant(0.75),
            Symbol.poisson(0.75, 0.125),
            Symbol.raised_cosine(0.75, 0.25),
        ]
        for sym in symbols:
            tab = s_n_q_table(sym, 16, 2)
            for m in range(1, 16):
                for n in range(m, 17 - m):
                    assert tab[m + n - 1] <= tab[m - 1] + tab[n - 1] + 1e-9
            estimates = -tab / (np.arange(1, 17))
            fekete = np.maximum.accumulate(estimates)
            assert np.all(np.diff(fekete) >= -1e-12)


def test_criterion_07_szego_bracketing():
    with _Budget("criterion 7: quadrature bounds bracket the i.i.d. value", 60.0):
        sym = Symbol.constant(0.75)
        lower = corr_dim_szego_lower(sym)
        upper = corr_dim_szego_upper(sym)
        assert lower == pytest.approx(IID_34_DIM2, abs=1e-6)
        assert upper == pytest.approx(IID_34_DIM2, abs=1e-6)
        est = dim_q_estimate(sym, 2, 12)
        inside = (est.table.estimate_N >= lower - 1e-6) & (est.table.estimate_N <= upper + 1e-6)
        assert np.all(inside[-1:])  # converged into the bracket by N = 12
        assert inside.all()         # (for the i.i.d. symbol, at every N)


def test_criterion_08_sampler_fidelity():
    with _Budget("criterion 8: sampler goodness of fit", 60.0):
        seed = 20260810
        for sym in (
            Symbol.constant(0.5),
            Symbol.poisson(0.5, 0.25),
            Symbol.raised_cosine(0.5, 0.25),
        ):
            rep = empirical_cylinder_test(sym, 3, 100_000, seed=seed)
            assert rep.p_value > 1e-3
        negative = empirical_cylinder_test(
            Symbol.poisson(0.5, 0.25), 3, 100_000, seed=seed, model=Symbol.constant(0.5)
        )
        assert negative.p_value < 1e-6


def test_criterion_09_lcs_growth_law():
    with _Budget("criterion 9: longest-common-substring growth law", 600.0):
        n = 2 ** 16
        rows = rate_experiment(Symbol.constant(0.5), [n], trials=50, seed=31415, dim2=1.0)
        target = 2.0 / math.log(2.0)
        assert abs(rows[0].ratio - target) <= 0.15 * target
        rows = rate_experiment(
            Symbol.constant(0.75), [n], trials=50, seed=27182, dim2=IID_34_DIM2
        )
        target = (2.0 / math.log(2.0)) / IID_34_DIM2
        assert abs(rows[0].ratio - target) <= 0.20 * target


def test_criterion_10_determinant_identity_suite():
    import test_toeplitz as tt

    with _Budget("criterion 10: determinant identity property suite", 30.0):
        tt.test_sylvester_identity()
        tt.test_det_one_plus_L_expansion()
        tt.test_fischer_inequality()
        tt.test_det_one_minus_A_vs_exp_trace()
        tt.test_schur_block_determinant_ratio()
        tt.test_window_of_square_dominates_square_of_window()
        tt.test_coupling_contraction()


def test_criterion_11_lcs_growth_law_on_a_dependent_process():
    with _Budget("criterion 11: LCS growth law on a dependent process", 60.0):
        n, trials, seed = 2 ** 14, 50, 20261019
        dep = rate_experiment(Symbol.poisson(0.75, 0.125), [n], trials, seed, dim2=POISSON_D2)[0]
        target = (2.0 / math.log(2.0)) / POISSON_D2
        assert abs(dep.ratio - target) <= 0.15 * target
        # paired with the i.i.d. symbol of the same D2 on the same seed: the
        # finite-n bias is shared, so the means differ only by the dependence
        ctl = rate_experiment(Symbol.constant(POISSON_D2_CONTROL_A), [n], trials, seed,
                              dim2=POISSON_D2)[0]
        se = math.sqrt((dep.std_Mn ** 2 + ctl.std_Mn ** 2) / trials)
        assert abs(dep.mean_Mn - ctl.mean_Mn) <= 4.0 * se
        print(f"ratio {dep.ratio:.4f} vs target {target:.4f}; mean M_n {dep.mean_Mn:.2f} vs "
              f"control {ctl.mean_Mn:.2f} ({(dep.mean_Mn - ctl.mean_Mn) / se:+.2f} SE)")
