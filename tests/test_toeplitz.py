import math

import numpy as np
import pytest

from dppkit import Symbol, tail_sum
from dppkit.toeplitz import build_T, joint_index_set, log_det, trace_norm

from conftest import random_interior_symbol
from oracles import build_T_window, build_lambda, hs_norm_sq_lambda


# -- builders ----------------------------------------------------------------


def test_build_T_examples(fair, rc_half):
    assert np.allclose(build_T(fair.coeffs, [1, 2, 3]), 0.5 * np.eye(3))
    assert np.allclose(build_T(rc_half.coeffs, [1, 2]), [[0.5, 0.25], [0.25, 0.5]])
    # a gap of 2 kills the off-diagonal for a bandwidth-1 symbol
    assert np.allclose(build_T(rc_half.coeffs, [1, 3]), 0.5 * np.eye(2))


def test_build_T_validation(rc_half):
    with pytest.raises(ValueError):
        build_T(rc_half.coeffs, [3, 1])
    empty = build_T(rc_half.coeffs, [])
    assert empty.shape == (0, 0)
    assert log_det(empty) == (0.0, 1.0)  # det convention for the empty window


def test_build_T_is_hermitian():
    sym = Symbol.trig_poly([0.5, 0.1 + 0.07j, 0.02j])
    t = build_T(sym.coeffs, [2, 3, 5, 8])
    assert np.max(np.abs(t - t.conj().T)) <= 1e-14


def test_build_lambda_values(rc_half, poi_half):
    assert np.allclose(build_lambda(rc_half, 2, 1), np.zeros((2, 2)))
    # N=1, ell=1: single entry fhat(1 - (1+1+1)) = fhat(-2) = c r^2
    assert build_lambda(poi_half, 1, 1)[0, 0] == pytest.approx(1.0 / 32.0)


def test_build_lambda_entry_formula():
    sym = Symbol.trig_poly([0.5, 0.1 + 0.07j, 0.02, 0.01j])
    n, ell = 4, 2
    lam = build_lambda(sym, n, ell)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert lam[i - 1, j - 1] == pytest.approx(sym.coeff(i - j - n - ell), abs=1e-15)


def test_joint_window_block_structure(poi_half):
    n, ell = 3, 2
    block = build_T(poi_half.coeffs, joint_index_set(n, ell))
    t = build_T_window(poi_half, n)
    lam = build_lambda(poi_half, n, ell)
    assert np.allclose(block[:n, :n], t)
    assert np.allclose(block[n:, n:], t)
    assert np.allclose(block[:n, n:], lam)
    assert np.allclose(block[n:, :n], lam.conj().T)


# -- kernels -----------------------------------------------------------------


def test_log_det_examples():
    assert log_det(np.eye(3)) == (0.0, 1.0)
    la, phase = log_det(np.array([[0.5, 0.25], [0.25, 0.5]]))
    assert la == pytest.approx(math.log(3.0 / 16.0))
    assert phase == 1.0
    la, phase = log_det(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert la == pytest.approx(0.0)
    assert phase == -1.0
    la, phase = log_det(np.zeros((2, 2)))
    assert la == -math.inf and phase == 0.0


def test_trace_norm_examples():
    assert trace_norm(np.diag([1.0, -2.0, 3.0])) == pytest.approx(6.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)
    # numpy sums the empty singular-value array of a 0 x 0 matrix to 0.0
    empty = trace_norm(np.zeros((0, 0)))
    assert empty == 0.0 and type(empty) is float


@pytest.mark.parametrize("kernel, m, need", [
    (log_det, np.eye(2, 3), "^log_det: need a square matrix$"),
    (trace_norm, np.ones(3), "^trace_norm: need a square matrix$"),
], ids=["log_det", "trace_norm"])
def test_kernels_refuse_bad_shapes(kernel, m, need):
    with pytest.raises(ValueError, match=need):
        kernel(m)


def test_hs_norm_closed_form(rc_half, poi_half):
    assert hs_norm_sq_lambda(rc_half, 2, 1) == 0.0
    assert hs_norm_sq_lambda(poi_half, 1, 1) == pytest.approx(1.0 / 1024.0)


def test_hs_norm_matches_frobenius_and_brackets():
    rng = np.random.default_rng(42)
    for _ in range(20):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 7))
        ell = int(rng.integers(1, 6))
        closed = hs_norm_sq_lambda(sym, n, ell)
        frob = float(np.sum(np.abs(build_lambda(sym, n, ell)) ** 2))
        assert closed == pytest.approx(frob, abs=1e-12)
        # bracket: sum_{k<=N} k |fhat(ell+k)|^2 <= ||Lambda||_HS^2 <= full tail
        lower = float(sum(k * abs(sym.coeff(ell + k)) ** 2 for k in range(1, n + 1)))
        upper = tail_sum(sym, ell).value
        assert lower - 1e-15 <= closed <= upper + 1e-12


# -- determinant identity property suite --------------------------------------


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_sylvester_identity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, m = rng.integers(1, 7, size=2)
        a = _random_complex(rng, (n, m))
        b = _random_complex(rng, (m, n))
        lhs = np.linalg.det(np.eye(n) - a @ b)
        rhs = np.linalg.det(np.eye(m) - b @ a)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_det_one_plus_L_expansion():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        l = _random_complex(rng, (n, n))
        total = 0.0 + 0.0j
        for mask in range(2 ** n):
            ix = [k for k in range(n) if (mask >> k) & 1]
            total += np.linalg.det(l[np.ix_(ix, ix)]) if ix else 1.0
        lhs = np.linalg.det(np.eye(n) + l)
        assert abs(lhs - total) <= 1e-10 * max(1.0, abs(lhs))


def test_fischer_inequality():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        x = _random_complex(rng, (n, n))
        m = x @ x.conj().T
        k = int(rng.integers(1, n))
        det_m = np.linalg.det(m).real
        det_a = np.linalg.det(m[:k, :k]).real
        det_c = np.linalg.det(m[k:, k:]).real
        assert det_m <= det_a * det_c + 1e-12


def test_det_one_minus_A_vs_exp_trace():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        q, _ = np.linalg.qr(_random_complex(rng, (n, n)))
        spec = rng.uniform(0.0, 1.0, n)
        a = (q * spec) @ q.conj().T
        assert np.linalg.det(np.eye(n) - a).real <= math.exp(-np.trace(a).real) + 1e-12


def test_schur_block_determinant_ratio():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = _random_complex(rng, (n, n)) + 3.0 * np.eye(n)
        d = _random_complex(rng, (n, n)) + 3.0 * np.eye(n)
        b = _random_complex(rng, (n, n))
        c = _random_complex(rng, (n, n))
        big = np.block([[a, b], [c, d]])
        lhs = np.linalg.det(big) / (np.linalg.det(a) * np.linalg.det(d))
        rhs = np.linalg.det(np.eye(n) - np.linalg.solve(d, c) @ np.linalg.solve(a, b))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_window_of_square_dominates_square_of_window():
    # min eig of T_J(phi^2) - T_J(phi)^2 >= -tol for real phi and sparse J
    rng = np.random.default_rng(12)
    for _ in range(15):
        bw = int(rng.integers(0, 4))
        raw = rng.uniform(-0.3, 0.3, bw + 1)
        phi_c = np.concatenate([raw[:1] + 0.6, raw[1:]])

        def coeff_phi(ns, c=phi_c):
            ns = np.asarray(ns)
            out = np.zeros(ns.shape, dtype=float)
            mask = np.abs(ns) <= bw
            out[mask] = c[np.abs(ns[mask])]
            return out

        # coefficients of phi^2 by convolution of the full coefficient line
        full = np.concatenate([phi_c[:0:-1], phi_c])
        conv = np.convolve(full, full)
        mid = len(conv) // 2

        def coeff_phi2(ns, conv=conv, mid=mid):
            ns = np.asarray(ns)
            out = np.zeros(ns.shape, dtype=float)
            mask = np.abs(ns) <= 2 * bw
            out[mask] = conv[mid + ns[mask]]
            return out

        size = int(rng.integers(1, 9))
        j = np.sort(rng.choice(np.arange(-10, 11), size=size, replace=False))
        diff = build_T(coeff_phi2, j) - build_T(coeff_phi, j) @ build_T(coeff_phi, j)
        assert np.linalg.eigvalsh((diff + diff.conj().T) / 2).min() >= -1e-10


def test_coupling_contraction():
    # eigenvalues of T^-1/2 Lambda* T^-1 Lambda T^-1/2 lie in [0, 1]
    rng = np.random.default_rng(13)
    for _ in range(20):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 7))
        ell = int(rng.integers(1, 5))
        t = build_T_window(sym, n)
        lam = build_lambda(sym, n, ell)
        w, v = np.linalg.eigh(t)
        t_inv_half = (v / np.sqrt(w)) @ v.conj().T
        t_inv = (v / w) @ v.conj().T
        k = t_inv_half @ lam.conj().T @ t_inv @ lam @ t_inv_half
        eigs = np.linalg.eigvalsh((k + k.conj().T) / 2)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1.0 + 1e-10
