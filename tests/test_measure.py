import functools
import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from dppkit import (
    ConditioningError,
    HypothesisError,
    NumericsError,
    Symbol,
    contraction_margin,
    correlation_ratio,
    cylinder_log_prob,
    cylinder_prob,
    dimension,
    measure,
    s_n_q_table,
    sample_prefix,
)
from dppkit.measure import (IMAG_TOL, PrefixState, _chain_root, _log_probs, _moment_root, _one_number,
                            cylinder_log_probs_direct)
from dppkit.symbol import g_coeff_fn
from dppkit.toeplitz import build_T

from conftest import _table_test, random_interior_symbol, traced_peak
from oracles import (EagerPrefixState, EagerSchurState, build_T_window, build_lambda, complement,
                     conditional_alphas_mp, conditional_next, cylinder_det_mp, cylinder_prob_direct,
                     hs_norm_sq_lambda, joint_cylinder_log_prob, s_n_q_mp, s_n_q_table_dfs, walk)


def _all_words(n):
    return ["".join("1" if (m >> k) & 1 else "0" for k in range(n)) for m in range(2 ** n)]


def joint_cylinder_prob(sym, word, word_prime, gap_ell):
    return math.exp(joint_cylinder_log_prob(sym, word, word_prime, gap_ell))


def test_cylinder_prob_product_measure(fair):
    for n in (1, 3, 7):
        for word in ("1" * n, "0" * n, "10" * (n // 2) + "1" * (n % 2)):
            assert cylinder_prob(fair, word) == pytest.approx(2.0 ** -n, rel=1e-13)


def test_cylinder_prob_hand_determinants(rc_half):
    assert cylinder_prob(rc_half, "11") == pytest.approx(3.0 / 16.0, rel=1e-13)
    assert cylinder_prob(rc_half, "10") == pytest.approx(5.0 / 16.0, rel=1e-13)
    # additivity back to mu([1]) = fhat(0)
    assert cylinder_prob(rc_half, "11") + cylinder_prob(rc_half, "10") == pytest.approx(0.5)


def test_single_point_intensity():
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.6, 0.3), Symbol.constant(0.75)):
        assert cylinder_prob(sym, "1") == pytest.approx(sym.fhat0, abs=1e-12)


def test_signed_and_direct_forms_agree():
    rng = np.random.default_rng(21)
    for _ in range(25):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 8))
        word = "".join(rng.choice(["0", "1"], n))
        assert cylinder_prob(sym, word) == pytest.approx(cylinder_prob_direct(sym, word), rel=1e-11)


def test_range_violation_raises():
    bad = Symbol.raised_cosine(0.5, 0.7)
    with pytest.raises(HypothesisError):
        cylinder_prob(bad, "01")


def test_normalization(poi_half, rc_half):
    for sym, n in ((poi_half, 10), (rc_half, 10), (Symbol.poisson(0.75, 0.125), 12)):
        logs = cylinder_log_probs_direct(sym, n)
        assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-10)


def test_kolmogorov_consistency():
    rng = np.random.default_rng(22)
    for _ in range(15):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 7))
        word = "".join(rng.choice(["0", "1"], n))
        assert cylinder_prob(sym, word + "0") + cylinder_prob(sym, word + "1") == pytest.approx(
            cylinder_prob(sym, word), abs=1e-10
        )


def test_complement_symmetry():
    for sym in (Symbol.raised_cosine(0.6, 0.25), Symbol.poisson(0.5, 0.25), Symbol.constant(0.3)):
        comp = complement(sym)
        for word in ("1", "10", "0110", "11100"):
            flipped = "".join("1" if ch == "0" else "0" for ch in word)
            assert cylinder_prob(sym, word) == pytest.approx(
                cylinder_prob(comp, flipped), abs=1e-10
            )


def test_window_shift_invariance(poi_half):
    # stationarity: the same word over the window {k+1..k+N} has the same mass
    word = "1011"
    eps = np.array([1, 0, 1, 1], dtype=float)
    theta = 2 * eps - 1
    base = cylinder_log_prob(poi_half, word)
    gh = g_coeff_fn(poi_half)
    for anchor in (5, 17):
        j = np.arange(anchor, anchor + 4)
        m = theta[:, None] * build_T(gh, j) + np.eye(4)
        shifted = np.linalg.slogdet(m)[1] - 4 * math.log(2)
        assert shifted == pytest.approx(base, abs=1e-12)


def test_joint_examples(fair, rc_half, poi_half):
    assert joint_cylinder_prob(fair, "1", "1", 3) == pytest.approx(0.25, rel=1e-13)
    # bandwidth-1 symbol: coupling block vanishes at any gap >= 1
    assert joint_cylinder_prob(rc_half, "1", "1", 1) == pytest.approx(0.25, rel=1e-13)
    assert joint_cylinder_prob(poi_half, "1", "1", 1) == pytest.approx(
        0.25 - 1.0 / 1024.0, rel=1e-13
    )


def test_joint_marginalization(poi_half):
    for word in ("01", "11"):
        total = sum(
            joint_cylinder_prob(poi_half, word, w2, 2) for w2 in _all_words(len(word))
        )
        assert total == pytest.approx(cylinder_prob(poi_half, word), abs=1e-10)


def test_joint_refinement_identity(poi_half):
    # growing both windows outward (prepend left, append right) keeps the gap
    # and partitions the coarse event into four one-longer configurations
    eps, eps_p, ell = "10", "01", 2
    coarse = joint_cylinder_prob(poi_half, eps, eps_p, ell)
    fine = sum(
        joint_cylinder_prob(poi_half, b + eps, eps_p + c, ell)
        for b in "01"
        for c in "01"
    )
    assert fine == pytest.approx(coarse, abs=1e-12)


def test_correlation_ratio_reports(fair, rc_half, poi_half):
    rep = correlation_ratio(fair, "101", "110", 2)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.h_trace_norm == pytest.approx(0.0, abs=1e-14)
    rep = correlation_ratio(rc_half, "10", "01", 1)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    rep = correlation_ratio(poi_half, "1", "1", 1)
    assert rep.ratio == pytest.approx(1.0 - 1.0 / 256.0, rel=1e-12)


def test_ratio_identity_and_simon_bound_randomized():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 7))
        ell = int(rng.integers(1, 6))
        w1 = "".join(rng.choice(["0", "1"], n))
        w2 = "".join(rng.choice(["0", "1"], n))
        rep = correlation_ratio(sym, w1, w2, ell)  # raises if the routes disagree
        assert abs(rep.ratio - 1.0) <= rep.simon_bound + 1e-9


def test_trace_norm_bound_by_hs_over_tau():
    rng = np.random.default_rng(24)
    for _ in range(25):
        sym = random_interior_symbol(rng)
        tau = contraction_margin(sym)
        assert tau > 0
        n = int(rng.integers(1, 6))
        ell = int(rng.integers(1, 5))
        w1 = "".join(rng.choice(["0", "1"], n))
        w2 = "".join(rng.choice(["0", "1"], n))
        rep = correlation_ratio(sym, w1, w2, ell)
        assert rep.h_trace_norm <= hs_norm_sq_lambda(sym, n, ell) / tau ** 2 + 1e-12


def test_conditional_next_examples(fair, rc_half):
    assert conditional_next(fair, "") == pytest.approx(0.5)
    assert conditional_next(fair, "0110") == pytest.approx(0.5, abs=1e-13)
    assert conditional_next(rc_half, "1") == pytest.approx(3.0 / 8.0, rel=1e-13)
    assert conditional_next(rc_half, "0") == pytest.approx(5.0 / 8.0, rel=1e-13)


def test_conditional_next_matches_determinant_ratio():
    rng = np.random.default_rng(25)
    for _ in range(20):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 9))
        word = "".join(rng.choice(["0", "1"], n))
        cond = conditional_next(sym, word)
        full = cylinder_prob(sym, word + "1") / cylinder_prob(sym, word)
        assert cond == pytest.approx(full, abs=1e-9)


def test_prefix_state_log_prob_matches_direct():
    rng = np.random.default_rng(26)
    for _ in range(15):
        sym = random_interior_symbol(rng)
        n = int(rng.integers(1, 10))
        bits = rng.integers(0, 2, n)
        *_, error, state = walk(_chain_root(sym, None, n), bits)
        word = "".join(str(int(b)) for b in bits)
        assert error is None and state.log_prob == pytest.approx(cylinder_log_prob(sym, word), abs=1e-11)


LAZY_SYMBOLS = {
    "poisson": Symbol.poisson(0.75, 0.125),
    "raised_cosine": Symbol.raised_cosine(0.55, 0.3),
    "power_decay": Symbol.power_decay(0.5, 0.1, 2.0, 64),
    "trig_poly-complex": Symbol.trig_poly([0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j]),
    "arc_indicator": Symbol.arc_indicator(0.3, 0.7),
}


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _outcome(call):
    try:
        return call()
    except ConditioningError as exc:
        return str(exc)


def _error_at(exc):
    """The class of an error and the position it names (a value in the
    message may differ in its last digits between two eliminations), or
    None for no error."""
    return None if exc is None else (type(exc).__name__, re.search(r"at position (\d+)", str(exc)).group(1))


def _within_ulps(got, want, ulps=2):
    return np.all(np.abs(np.asarray(got) - want) <= ulps * np.spacing(np.abs(want)))


# symbols whose prefix state is one number at window None, by name
ONE_NUMBER_SYMBOLS = {
    "poisson(0.002,0.995)": Symbol.poisson(0.002, 0.995),
    "poisson(0.4,0.4)": Symbol.poisson(0.4, 0.4),
    "poisson(0.5,-0.3)": Symbol.poisson(0.5, -0.3),
    "poisson(0.75,0.125)": Symbol.poisson(0.75, 0.125),
    "raised_cosine(0.55,0.3)": Symbol.raised_cosine(0.55, 0.3),
    "raised_cosine(0.75,0.25)": Symbol.raised_cosine(0.75, 0.25),
    "constant(0.3)": Symbol.constant(0.3),
    "trig_poly(real,B=1)": Symbol.trig_poly([0.4, -0.2]),
    "power_decay(cutoff=1)": Symbol.power_decay(0.5, 0.2, 3.0, 1),
    "poisson(0.5,0)": Symbol.poisson(0.5, 0.0),
}
# tolerances against the eager route and a 50-digit determinant, in units
# of u = 2^-53: (conditional_one absolute, log_prob relative).  The symbol
# of poisson(0.002,0.995) dips to f = 5e-6, so its extension factors
# s = 1 + tp alpha come near 1e-5 and lose digits in either route: on a
# 14-bit word the eager route is 1,027 u from the 50-digit value
ULPS = {"poisson(0.002,0.995)": (32, 8192)}
WELL_CONDITIONED_ULPS = (8, 16)
U = 2.0 ** -53
# band-limited symbols whose corners the window = bandwidth walk trims:
# complex B = 3 and B = 1 (one number at window 1), and real B = 4 and B = 2
WINDOWED_SYMBOLS = {
    "trig_poly-complex": LAZY_SYMBOLS["trig_poly-complex"],
    "trig_poly(complex,B=1)": Symbol.trig_poly([0.5, 0.1 + 0.1j]),
    "power_decay(0.5,0.1,2,4)": Symbol.power_decay(0.5, 0.1, 2.0, 4),
    "trig_poly(real,B=2)": Symbol.trig_poly([0.5, 0.15, -0.1]),
}
QS = (2, 3, 2.5)
# how far apart numpy may round a complex product of a stack of Schur blocks
# and one of a single block, in ulps of a moment sum (0 on the machines measured)
COMPLEX_ULPS = 2


def _paths(seed, count, n):
    """``count`` random paths of n bits from one Generator seeded ``seed``."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, n).tolist() for _ in range(count)]


# The chain table: a chain of prefix states from ``_chain_root`` walked
# along each path beside an oracle.  A row: its test, its id, the symbol,
# the window, whether the state is one number, the paths, the oracle
# (EAGER: the eager corner route at the same window; FULL: the chain at
# window None; MP: the 40-digit conditionals) and the tolerances of each
# conditional_one (absolute) and log_prob (relative), None for ==
EAGER, FULL, MP = "eager", "full", "mp"


def _one_number_tol(name, sym):
    """== at bandwidth <= 1 (the one number rounds as the eager route), else ULPS."""
    return None if sym.bandwidth is not None else tuple(k * U for k in ULPS.get(name, WELL_CONDITIONED_ULPS))


def _lazy_row(name, window):
    # every window up to 12 against the eager corner route: 1e-14 and 1e-13
    # (two eliminations of one matrix), or the same error at the same bit
    # (a truncated window can leave [0, 1]).  At window None against 40
    # digits: on these paths of arc_indicator, of mass down to 1e-18, the
    # chain is within 2.7e-12 of them and the corner route 1.7e-10.  A
    # one-number state (poisson at window None, raised_cosine at windows
    # >= 1) is checked as in the one-number rows
    sym = LAZY_SYMBOLS[name]
    if _one_number(sym, window):
        return "lazy", f"{name}-{window}", sym, window, True, _paths(62, 3, 24), EAGER, _one_number_tol(name, sym)
    oracle, tol = (MP, (1e-11, 1e-9)) if window is None else (EAGER, (1e-14, 1e-13))
    return "lazy", f"{name}-{window}", sym, window, False, _paths(61, 3, 24), oracle, tol


COMPLEX_B1 = WINDOWED_SYMBOLS["trig_poly(complex,B=1)"]
CHAIN_ROWS = [
    *(_lazy_row(name, window) for name in sorted(LAZY_SYMBOLS) for window in [None, *range(13)]),
    *(("one-number", name, sym, None, True, _paths(62, 4, 160), EAGER, _one_number_tol(name, sym))
      for name, sym in sorted(ONE_NUMBER_SYMBOLS.items())),
    # x <- (tp/s) ghat(-1) and alpha = g0 - ghat(1) x: bit for bit the eager
    # route's 1 x 1 corner at window 1, and within an ulp of its full state
    ("one-number", "trig_poly(complex,B=1)-w1", COMPLEX_B1, 1, True, _paths(62, 4, 400), EAGER, None),
    ("one-number", "trig_poly(complex,B=1)-None", COMPLEX_B1, None, True, _paths(62, 2, 160), EAGER, (U, 2 * U)),
    # the conditionals of the sampler's own bits are the measure's
    ("one-number", "sampled-poisson(0.5,0.25)", Symbol.poisson(0.5, 0.25), None, True,
     [sample_prefix(Symbol.poisson(0.5, 0.25), 12, seed=99).bits[:9].tolist()], EAGER, (1e-12, 1e-12)),
    # a band-limited Schur chain is exact at window = bandwidth
    *(("windowed", name, WINDOWED_SYMBOLS[name], WINDOWED_SYMBOLS[name].bandwidth, False, _paths(27, 1, 60),
       FULL, (1e-13, 1e-13)) for name in ("trig_poly(real,B=2)", "trig_poly-complex")),
]


def _check_chain(sym, window, one_number, paths, oracle, tol):
    """The state's kind, then along each path: the chain stops at the
    oracle's error (class and position) or neither stops, and each
    conditional_one and log_prob that both read agree within ``tol``."""
    assert _one_number(sym, window) == one_number
    one_tol, log_tol = tol or (None, None)
    for bits in paths:
        ones, logs, error, _ = walk(_chain_root(sym, window, len(bits)), bits)
        if oracle == MP:
            alphas = [float(alpha.real) for alpha in conditional_alphas_mp(sym, bits)]
            want_ones, want_error = [0.5 * (1.0 + alpha) for alpha in alphas], None
            want_logs = itertools.accumulate(math.log(0.5 * (1.0 + (2 * b - 1) * a)) for a, b in zip(alphas, bits))
        else:
            root = EagerPrefixState.root(sym, window=window) if oracle == EAGER else _chain_root(sym, None, len(bits))
            want_ones, want_logs, want_error, _ = walk(root, bits)
        assert _error_at(error) == _error_at(want_error)
        for got, want in zip(ones, want_ones):
            assert got == want if one_tol is None else abs(got - want) <= one_tol
        for got, want in zip(logs, want_logs):
            assert got == want if log_tol is None else abs(got - want) <= log_tol * abs(want)


test_lazy_prefix_state_matches_eager_oracle = _table_test(_check_chain, CHAIN_ROWS, "lazy")
test_one_number_state_matches_eager_oracle = _table_test(_check_chain, CHAIN_ROWS, "one-number")
test_windowed_prefix_state_exact_for_band_limited = _table_test(_check_chain, CHAIN_ROWS, "windowed")


def test_prefix_state_parent_is_keyword_only():
    # a state is built only by the two roots and extend: the old positional
    # constructor form (gd, window, length, theta, corner, log_prob) fails
    # at once instead of building a wrong state
    root = _chain_root(LAZY_SYMBOLS["poisson"], None, 4)
    with pytest.raises(TypeError):
        PrefixState(root.gd, None, 0, None, None, 0.0)


@pytest.mark.parametrize("window", [True, 1.5, -1])
def test_chain_root_refuses_a_bad_window_before_reading_a_coefficient(monkeypatch, window):
    # the window gate runs in ``_chain_root``, the only root a caller's window
    # reaches, before the range gate reads the symbol
    def refused(self, ns):
        raise AssertionError("a coefficient was read")

    monkeypatch.setattr(Symbol, "coeffs", refused)
    with pytest.raises(ValueError, match=r"^prefix state window must be None or an int >= 0(; got .*)?$"):
        _chain_root(Symbol.poisson(0.5, 0.25), window, 8)


@pytest.mark.parametrize("name", sorted(LAZY_SYMBOLS) + ["arc_indicator(0.1,0.45)"])
def test_every_root_answers_conditional_one(name):
    # a one-number root, and a matrix root with its stack, from either root:
    # P(x_1 = 1) = fhat(0) at every window, and a walk of two bits or more
    # answers for its second bit too
    sym = LAZY_SYMBOLS.get(name) or Symbol.arc_indicator(0.1, 0.45)
    roots = [(n, _moment_root(sym, n)) for n in (1, 2, 9)]
    roots += [(n, _chain_root(sym, window, n)) for window in (None, 0, 1, 2, 3, sym.bandwidth) for n in (1, 2, 9)]
    for n, root in roots:
        assert (root._x is None) == (root._stack is not None)
        assert root.conditional_one() == pytest.approx(sym.fhat0, abs=1e-15)
        assert n == 1 or 0.0 <= root.extend(1).conditional_one() <= 1.0


def test_lazy_child_drops_its_parent():
    # a child's stack keeps its parent's Schur blocks until its own are formed
    state = _moment_root(LAZY_SYMBOLS["power_decay"], 8).extend(1)
    assert state._stack.source is not None
    state.conditional_one()
    assert state._stack.source is None


def test_one_number_choice():
    # a geometric symbol at window None, a bandwidth <= 1 symbol, complex
    # too, at window None or one that covers the bandwidth; every other
    # symbol or window keeps the corner (an explicit window truncates a
    # geometric symbol, however wide)
    poi = Symbol.poisson(0.5, 0.25)
    assert _one_number(poi, None) and not _one_number(poi, 27) and not _one_number(poi, 4096)
    rc = Symbol.raised_cosine(0.55, 0.3)
    assert _one_number(rc, None) and _one_number(rc, 1) and not _one_number(rc, 0)
    assert _one_number(Symbol.constant(0.3), 0)
    for name in ("power_decay", "trig_poly-complex", "arc_indicator"):
        assert not _one_number(LAZY_SYMBOLS[name], None)
    assert not _one_number(Symbol.trig_poly([0.5, 0.1, 0.05]), None)  # real, bandwidth 2
    cx = Symbol.trig_poly([0.5, 0.1j])                                 # complex, bandwidth 1
    assert _one_number(cx, None) and _one_number(cx, 1) and not _one_number(cx, 0)


def test_one_number_state_has_no_corner():
    # no prefix state keeps an inverse corner: a one-number state, a chain's
    # and a moment-sum walk's have no corner or theta
    for sym in (Symbol.poisson(0.5, 0.25), Symbol.raised_cosine(0.55, 0.3), LAZY_SYMBOLS["power_decay"]):
        for root in (_chain_root(sym, None, 4), _moment_root(sym, 4)):
            for st in (root, root.extend(1)):
                assert not hasattr(st, "corner") and not hasattr(st, "theta")


@pytest.mark.parametrize("name", sorted(ONE_NUMBER_SYMBOLS))
def test_one_number_log_prob_matches_mpmath(name):
    sym = ONE_NUMBER_SYMBOLS[name]
    rng = np.random.default_rng(63)
    words = ["1" * 14, "0" * 14, "10" * 7] + ["".join(rng.choice(["0", "1"], 14)) for _ in range(3)]
    ghat = g_coeff_fn(sym)(np.arange(-14, 15)).real.tolist()
    with mpmath.workdps(50):  # fhat = (ghat + delta_0) / 2 from the doubles ghat, exactly
        fhat = {n: (mpmath.mpf(g) + (n == 0)) / 2 for n, g in zip(range(-14, 15), ghat)}
    for word in words:
        *_, error, state = walk(_chain_root(sym, None, len(word)), word)
        with mpmath.workdps(50):
            want = mpmath.log(cylinder_det_mp(fhat, range(14), [int(b) for b in word]))
        assert error is None and abs(state.log_prob - want) <= ULPS.get(name, WELL_CONDITIONED_ULPS)[1] * U * abs(want)


def _first_subtree_depth(sym) -> int:
    """The deepest tree the level-order walk takes whole, with no cut into
    runs: every level that forms blocks (all but the leaves) fits."""
    return max(n for n in range(1, 23)
               if all(2 ** k <= dimension._stack_rows(_moment_root(sym, n), k, n)
                      for k in range(2, n)))


@functools.cache
def _oracle_sums(sym, route, depth):
    """log2 S_N^(q) for N = 1..depth, by q in QS, from one depth-first walk
    of ``route``: CORNER, the eager corner route at window None, or SCHUR,
    the eager Schur route at the library's window = bandwidth."""
    window = sym.bandwidth if route is SCHUR else None
    return dict(zip(QS, s_n_q_table_dfs(sym, depth, QS, route=route, window=window)))


def _check_moment_sums(sym, n_max, qs, checks, mp):
    """s_n_q_table(sym, n_max, q) for each q against each check's oracle,
    walked to its depth: byte for byte at tolerance None, else within an
    int of ulps or a float absolute.  With ``mp`` each sum that moves off
    the corner route at n_max is within one ulp of 50 digits; returns how
    many moved."""
    moved = 0
    for q in qs:
        got = s_n_q_table(sym, n_max, q)
        for route, depth, tol in checks:
            want = _oracle_sums(sym, route, depth)[q][:n_max]
            if tol is None:
                assert got.tobytes() == want.tobytes()
            else:
                assert _within_ulps(got, want, tol) if isinstance(tol, int) else np.max(np.abs(got - want)) <= tol
        if mp:
            n = np.nonzero(got != _oracle_sums(sym, CORNER, n_max)[q])[0]
            if n.size:
                assert _within_ulps(got[n], np.array([float(v) for v in s_n_q_mp(sym, n_max, q)])[n], 1)
            moved += n.size
    return moved


def _level_order_row(name, n_max):
    # against the eager Schur route to 16 levels: one whole subtree (h - 1
    # and h levels), the first cut into runs (h + 1) and a tree of many
    # runs (16).  A level's sum does not depend on n_max (no entry of a
    # block does): one 16-level walk is the oracle of every n_max
    sym = LAZY_SYMBOLS[name]
    n = n_max if isinstance(n_max, int) else _first_subtree_depth(sym) + {"h-1": -1, "h": 0, "h+1": 1}[n_max]
    tol = None if sym.has_real_coeffs else COMPLEX_ULPS
    return "level-order", f"{name}-{n_max}", sym, n, QS, ((SCHUR, 16, tol),), False


# The moment-sum table: s_n_q_table against depth-first oracle walks.  A
# row: its test, its id, the symbol, n_max, the qs, its checks (an oracle
# route, the depth it walks to, a tolerance) and whether each sum that
# moves off the corner route is checked at 50 digits
CORNER, SCHUR = EagerPrefixState, EagerSchurState
MOMENT_SUM_ROWS = [
    # the one-number states walk as the eager corner route does, byte for
    # byte; the complex symbol's Schur blocks match the eager Schur route
    # within COMPLEX_ULPS, and the corner route, a different elimination,
    # within one ulp (natively 2 of 10 sums move at q = 2, 1 at q = 3)
    *(("eager-walk", f"{name}-{q}", LAZY_SYMBOLS[name], 10, (q,), ((CORNER, 10, None),), False)
      for name in ("poisson", "raised_cosine") for q in (2, 3)),
    *(("eager-walk", f"trig_poly-complex-{q}", LAZY_SYMBOLS["trig_poly-complex"], 10, (q,),
       ((SCHUR, 10, COMPLEX_ULPS), (CORNER, 10, 1)), True) for q in (2, 3)),
    *(("one-number", f"{name}-{q}", sym, 10, (q,), ((CORNER, 10, 1e-14),), False)
      for name, sym in sorted(ONE_NUMBER_SYMBOLS.items()) for q in (2, 3)),
    # Schur blocks at window = bandwidth are exact in exact arithmetic:
    # against the full-state corner route only rounding may differ
    *(("windowed", name, sym, 12, QS, ((CORNER, 12, 2),), False) for name, sym in sorted(WINDOWED_SYMBOLS.items())),
    *(_level_order_row(name, n_max) for name in ("arc_indicator", "power_decay", "trig_poly-complex")
      for n_max in ("h-1", "h", "h+1", 16)),
]
test_moment_sums_match_eager_oracle_walk = _table_test(_check_moment_sums, MOMENT_SUM_ROWS, "eager-walk")
test_one_number_moment_sums_match_eager_oracle_walk = _table_test(_check_moment_sums, MOMENT_SUM_ROWS, "one-number")
test_windowed_moment_sums_match_the_full_state_walk = _table_test(_check_moment_sums, MOMENT_SUM_ROWS, "windowed")
test_level_order_moment_sums_match_dfs_oracle = _table_test(_check_moment_sums, MOMENT_SUM_ROWS, "level-order")


def test_windowed_moment_sums_that_move_are_within_an_ulp_of_mpmath():
    # the windowed rows, each sum that moves off the corner route within one
    # ulp of 50 digits: eight move natively, on all but the B = 1 symbol,
    # each by one ulp; six with numpy's AVX2 loops off.  Some sum moves
    assert sum(_check_moment_sums(*row[2:-1], True) for row in MOMENT_SUM_ROWS if row[0] == "windowed")


def _schur_walk(sym, n_max, q):
    """The depth-first walk of the eager Schur route at window = bandwidth."""
    return s_n_q_table_dfs(sym, n_max, q, route=EagerSchurState, window=sym.bandwidth)


@pytest.mark.parametrize("route", [PrefixState, EagerPrefixState])
def test_lazy_extend_raises_where_eager_does(route):
    # the same ConditioningError at the same bit: an imaginary residue on a
    # tree walk (the library's level-order walk on Schur blocks, and the
    # depth-first walk of the eager Schur route; n_max 11 is the first
    # they refuse), and a vanishing factor on a chain of ``route`` states
    sums = s_n_q_table if route is PrefixState else _schur_walk
    with pytest.raises(ConditioningError, match=r"^prefix mass 5\.66e-24 too small to resolve "
                       r"at position 10: \|s\| = 2, imaginary residue 1\.11e-10$"):
        sums(Symbol.arc_indicator(0.1, 0.45), 11, 2)
    one = Symbol.constant(1.0)
    state = (_chain_root(one, None, 2) if route is PrefixState else route.root(one)).extend(1)
    with pytest.raises(ConditioningError,
                       match="^prefix probability vanishes extending with bit 0 at position 1$"):
        state.extend(0)


@pytest.mark.parametrize("route", [PrefixState, EagerPrefixState])
def test_conditional_one_refuses_an_imaginary_residue(route):
    # alpha itself, not an extension factor, carries the residue here.  The
    # full-state chain (``_chain_root``) meets one after eight 1s, the eager
    # corner route after 111111110 (its alphas before that pass), as
    # conditional_next, which walks it, does too.  The residue is rounding
    # noise of a prefix of mass 3.6e-19, whose digits move with the CPU's
    # BLAS kernel (6.36e-10 on one, -3.05e-10 on another, for the corner
    # route), so only its size against IMAG_TOL is checked
    sym = Symbol.arc_indicator(0.1, 0.45)
    if route is PrefixState:
        state, word = _chain_root(sym, None, 10), "11111111"
        at = r"position 8: \|s\| = 3\.13e-05"
    else:
        state, word = route.root(sym), "111111110"
        at = r"position 9: \|s\| = 0\.00135"
    *_, error, state = walk(state, word)
    assert error is None
    message = rf"^prefix mass 3\.62e-19 too small to resolve at {at}, imaginary residue (\S+)$"
    calls = [state.conditional_one]
    if route is EagerPrefixState:
        calls.append(lambda: conditional_next(sym, word))
    for call in calls:
        with pytest.raises(ConditioningError, match=message) as err:
            call()
        assert abs(float(re.match(message, str(err.value)).group(1))) > IMAG_TOL


def test_log_probs_negative_determinant_boundary():
    # a negative determinant is mass 0 only below log|det| = -200
    with pytest.raises(NumericsError, match="^cylinder determinant is negative$"):
        _log_probs(np.array([[[-1e-80]]]))
    assert _log_probs(np.array([[[-1e-90]]])).tolist() == [-math.inf]


def test_zero_determinant_is_mass_0_without_a_warning():
    # slogdet of an exactly singular window divides by zero; the module's rule
    # reads it as mass 0, so under filterwarnings = error no warning may escape.
    # At f = 1 the word "0" has the window [2 (1 - fhat(0))] = [0]
    assert cylinder_log_prob(Symbol.constant(1.0), "0") == -math.inf
    assert cylinder_log_probs_direct(Symbol.constant(1.0), 2).tolist() == [-math.inf] * 3 + [0.0]


def test_signed_window_diagonal_resolves_a_tiny_mass():
    # mu([10]) = fhat(0) (1 - fhat(0)) + |fhat(1)|^2 = 1e-300 here (fhat(1)^2
    # underflows): a diagonal 1 + theta g0 from the rounded g0 = 2e-300 - 1
    # would read 1 - 1 = 0 and give mass 0
    sym = Symbol.poisson(1e-300, -1e-12)
    assert cylinder_log_prob(sym, "10") == pytest.approx(math.log(1e-300), rel=1e-14)


def test_correlation_ratio_refuses_a_vanishing_marginal():
    with pytest.raises(ConditioningError, match="^marginal cylinder probability vanishes$"):
        correlation_ratio(Symbol.constant(1.0), "0", "0", 1)


@pytest.mark.parametrize("window", [None, 2, 3])
@pytest.mark.parametrize("name", sorted(LAZY_SYMBOLS))
def test_stack_rows_sizes_each_level_from_its_schur_blocks(name, window):
    # a level's rows are sized by its stack's edge alone: the same as from
    # the window and the coefficients' dtype, at every length of every walk
    sym = LAZY_SYMBOLS[name]
    for n_max in range(1, 23):
        root = _schur_root(sym, window, n_max)
        states = [root] if n_max == 1 else [root, root.extend(1)]
        for length in range(n_max):
            if _one_number(sym, window):
                want = dimension.STACK_ROWS
            else:
                m = n_max - length if window is None else min(window + 1, n_max - length)
                want = min(dimension.STACK_ROWS,
                           dimension.STACK_BYTES // (m * m * (8 if sym.has_real_coeffs else 16)))
            assert all(dimension._stack_rows(state, length, n_max) == want for state in states)


def test_level_order_walk_visits_each_level_in_lexicographic_order(monkeypatch):
    # Kahan sums are close to order-free, so byte-equal sums alone would
    # not show a run walked out of turn: compare each level's sequence of
    # log-probabilities with the depth-first walk's, across cuts into runs
    sym = LAZY_SYMBOLS["power_decay"]
    n_max = _first_subtree_depth(sym) + 3
    seen = {}
    for route in (PrefixState, EagerSchurState):
        extend = route.extend

        def recording(self, bit, extend=extend, route=route):
            child = extend(self, bit)
            seen.setdefault(route, {}).setdefault(child.length, []).append(child.log_prob)
            return child

        monkeypatch.setattr(route, "extend", recording)
    s_n_q_table(sym, n_max, 2)
    _schur_walk(sym, n_max, 2)
    assert seen[PrefixState] == seen[EagerSchurState]
    assert [len(seen[PrefixState][n]) for n in range(1, n_max + 1)] == [2 ** n for n in range(1, n_max + 1)]


def test_level_order_walk_holds_no_whole_level():
    # at n_max 16 a whole level holds up to 2^15 states (some MB) and 2^13
    # Schur blocks of 3 x 3 (0.6 MB); the walk holds a few levels of at most
    # STACK_ROWS states whose blocks fit in STACK_BYTES: this reads 3.2
    # STACK_BYTES
    sym = LAZY_SYMBOLS["power_decay"]
    s_n_q_table(sym, 4, 2)
    assert traced_peak(lambda: s_n_q_table(sym, 16, 2))[1] <= 8 * dimension.STACK_BYTES


def _traced_peak(route):
    route()  # warm-up: coefficient caches and numpy's first-call allocations
    return traced_peak(route)[1]


@pytest.mark.parametrize("n", [256, 269])
@pytest.mark.parametrize("sym", [Symbol.arc_indicator(0.1, 0.45), LAZY_SYMBOLS["power_decay"]],
                         ids=["arc_indicator-complex", "power_decay-real"])
def test_full_state_chain_holds_one_corner(sym, n):
    # the sampler's Schur chain holds one n x n array, the pivot column of
    # each position in a row, and forms each column by one gemv against the
    # rows before it: this reads 1.03-1.04 corners, the array and the
    # vectors of one step
    peak = _traced_peak(lambda: sample_prefix(sym, n, 3, window=None))
    assert peak < 1.3 * n * n * (8 if sym.has_real_coeffs else 16)


def _same_blocks(lazy, eager, ulps=0):
    """Equal log_prob, and a lazy tree state's Schur block byte for byte the
    eager one's, or within ``ulps`` of its largest entry."""
    lazy.conditional_one()  # forms a pending stack's blocks
    block, want = lazy._stack.block[lazy._row], eager.block
    if ulps:
        close = block.shape == want.shape and np.all(np.abs(block - want) <= ulps * np.spacing(np.abs(want).max()))
    else:
        close = _same(block, want)
    return lazy.log_prob == eager.log_prob and close


def test_sibling_of_a_formed_chain_child_has_the_eager_bytes():
    # the first child of a tree state forms its pending stack; the parent,
    # extended again once that stack is formed, starts a second stack of
    # one, and the second child forms from the parent's block too, also
    # after the parent is dropped: both keep the eager Schur route's bytes
    sym = LAZY_SYMBOLS["power_decay"]
    path = (1, 0, 1, 1, 0, 0, 1, 0)
    parent = walk(_moment_root(sym, 12), path)[3]
    eager = walk(EagerSchurState.root(sym, window=sym.bandwidth, n_max=12), path)[3]
    first = parent.extend(0)
    first.conditional_one()
    second = parent.extend(1)
    assert second._stack is not first._stack
    del parent
    assert _same_blocks(second, eager.extend(1))
    assert _same_blocks(first, eager.extend(0))
    assert _same_blocks(first.extend(1), eager.extend(0).extend(1))


@pytest.mark.parametrize("name,window", [("trig_poly-complex", 3), ("power_decay", 64), ("power_decay", None),
                                         ("arc_indicator", None)])
def test_sampler_forms_no_corner(monkeypatch, name, window):
    # the sampler draws each bit from its one Schur chain, stepped once per
    # bit: it forms no Schur block and solves no system
    steps = []
    step = measure._SchurChain.step

    def counting(self, tp, s):
        steps.append(tp)
        step(self, tp, s)

    def refused(*args):
        raise AssertionError("the sampler formed a matrix beside its chain")

    monkeypatch.setattr(measure._SchurChain, "step", counting)
    for target, attr in ((measure._SchurBlocks, "_form"), (np.linalg, "inv"), (np.linalg, "solve")):
        monkeypatch.setattr(target, attr, refused)
    assert len(sample_prefix(LAZY_SYMBOLS[name], 150, 12, window=window)) == 150
    assert len(steps) == 150


@pytest.mark.parametrize("sym", [LAZY_SYMBOLS["trig_poly-complex"], Symbol.poisson(0.5, 0.25)],
                         ids=["trig_poly-complex", "poisson-real"])
def test_direct_enumeration_holds_one_window_stack(sym):
    # the identity is added to the (2^N, N, N) stack of signed windows in
    # place: this reads 1.07-1.11 stacks, a second stack 2.06-2.10
    N = 12
    peak = _traced_peak(lambda: cylinder_log_probs_direct(sym, N))
    assert peak < 1.5 * 2 ** N * N * N * (8 if sym.has_real_coeffs else 16)


# a symbol whose bandwidth passes every n_max the walk takes
WIDE_BAND = Symbol.power_decay(0.5, 0.01, 2, 10 ** 6)


def test_moment_sum_walk_extends_once_per_node(monkeypatch):
    # one PrefixState.extend call per tree node, 2^(n+1) - 2 in all, for a
    # one-number state, a block trimmed to the bandwidth, a full block and
    # the block of a bandwidth past n_max
    calls = []
    extend = PrefixState.extend

    def counting(self, bit):
        calls.append(bit)
        return extend(self, bit)

    monkeypatch.setattr(PrefixState, "extend", counting)
    for sym in (*(LAZY_SYMBOLS[name] for name in ("poisson", "trig_poly-complex", "arc_indicator")),
                WIDE_BAND):
        for n in (1, 5, 9):
            calls.clear()
            s_n_q_table(sym, n, 2)
            assert len(calls) == 2 ** (n + 1) - 2


@pytest.mark.parametrize("sym", [LAZY_SYMBOLS["trig_poly-complex"], WINDOWED_SYMBOLS["trig_poly(real,B=2)"],
                                 LAZY_SYMBOLS["arc_indicator"], WIDE_BAND],
                         ids=["B=3", "B=2", "full-state", "B-past-n_max"])
def test_moment_sum_blocks_reach_no_further_than_the_walk(monkeypatch, sym):
    # every Schur block the walk forms, at every depth of the tree, has
    # min(B + 1, n_max - depth) rows: the positions the prefix has still to
    # draw within the bandwidth's reach, and none past n_max.  A block
    # sized B + 1 from the root would hold a wide band's 10^6 + 1 rows
    form, seen = measure._SchurBlocks._form, []

    def recording(self):
        form(self)
        seen.append((self.left, self.block.shape))

    monkeypatch.setattr(measure._SchurBlocks, "_form", recording)
    n_max = 9
    s_n_q_table(sym, n_max, 2)
    reach = n_max if sym.bandwidth is None else sym.bandwidth + 1
    m = min(reach, n_max)
    assert measure._moment_root(sym, n_max)._stack.block.shape == (1, m, m)
    assert sorted({left for left, _ in seen}) == list(range(1, n_max))  # every depth
    for left, shape in seen:
        m = min(reach, left)
        assert shape[1:] == (m, m)


@pytest.mark.parametrize("name", sorted(WINDOWED_SYMBOLS))
def test_conditional_next_matches_the_full_state(name):
    sym = WINDOWED_SYMBOLS[name]
    rng = np.random.default_rng(64)
    for _ in range(20):
        word = "".join(rng.choice(["0", "1"], int(rng.integers(0, 13))))
        *_, error, state = walk(_chain_root(sym, None, len(word) + 1), word)
        assert error is None and _within_ulps(conditional_next(sym, word), state.conditional_one())


def test_conditional_next_holds_a_bandwidth_corner():
    # a 600-bit word: the full state would hold corners of 600 x 600
    # complex entries (5.8 MB each)
    sym = LAZY_SYMBOLS["trig_poly-complex"]
    word = "".join(np.random.default_rng(5).choice(["0", "1"], 600))
    conditional_next(sym, "1")
    assert traced_peak(lambda: conditional_next(sym, word))[1] <= 256 * 1024


def test_joint_log_prob_direct_block_form(poi_half):
    # the 2N x 2N signed window determinant equals the assembled block form
    n, ell = 3, 1
    eps = np.array([1, 0, 1])
    eps_p = np.array([0, 1, 1])
    t = build_T_window(poi_half, n)
    lam = build_lambda(poi_half, n, ell)
    big = np.block([[t, lam], [lam.conj().T, t]])
    d_theta = np.diag(np.concatenate([2 * eps - 1.0, 2 * eps_p - 1.0]))
    d_rest = np.diag(np.concatenate([1.0 - eps, 1.0 - eps_p]))
    direct = np.linalg.det(d_theta @ big + d_rest)
    packaged = math.exp(
        joint_cylinder_log_prob(poi_half, "".join(map(str, eps)), "".join(map(str, eps_p)), ell)
    )
    assert packaged == pytest.approx(float(direct.real), rel=1e-12)


TREE_LEVELS = 9


def _schur_root(sym, window, n_max):
    """The moment-sum walk's root at ``window`` (``_moment_root`` takes the bandwidth)."""
    return measure._root(sym, window, n_max, measure._SchurBlocks.root)


@pytest.mark.parametrize("window", [None, 2, 3])
@pytest.mark.parametrize("name", ["power_decay", "trig_poly-complex"])
def test_tree_level_corners_match_eager_oracle(name, window):
    # every node of a prefix tree, extended level by level as s_n_q_table
    # extends it, has the eager Schur route's log_prob and block: byte for
    # byte on the real symbol, and within 4 ulps of the largest entry on the
    # complex one (2.01 at most, on the last level's 1 x 1 blocks, whose
    # imaginary residue near 1e-18 a stack's complex product, numpy's SIMD
    # loop, rounds unlike one block's).  Moment sums alone would not show a
    # wrong block: a residue left in its imaginary part can leave every sum
    # byte-equal
    sym = LAZY_SYMBOLS[name]
    ulps = 0 if sym.has_real_coeffs else 4
    lazy = [_schur_root(sym, window, TREE_LEVELS + 1)]
    eager = [EagerSchurState.root(sym, window=window, n_max=TREE_LEVELS + 1)]
    for _ in range(TREE_LEVELS):
        lazy = [state.extend(bit) for state in lazy for bit in (0, 1)]
        eager = [state.extend(bit) for state in eager for bit in (0, 1)]
        assert all(_same_blocks(a, b, ulps) for a, b in zip(lazy, eager))


def test_tree_level_corners_match_eager_oracle_up_to_the_first_error():
    # arc_indicator(0.1,0.45) meets an imaginary residue extending a 10-bit
    # prefix at n_max 11: every node above it has the eager Schur route's
    # log_prob, and both routes raise there alike
    sym = Symbol.arc_indicator(0.1, 0.45)
    lazy, eager = [_moment_root(sym, 11)], [EagerSchurState.root(sym, n_max=11)]
    while True:
        got = _outcome(lambda: [state.extend(bit) for state in lazy for bit in (0, 1)])
        want = _outcome(lambda: [state.extend(bit) for state in eager for bit in (0, 1)])
        if isinstance(want, str):
            assert got == want
            break
        lazy, eager = got, want
        assert [a.log_prob for a in lazy] == [b.log_prob for b in eager]
    assert lazy[0].length == 10
