"""Every public entry point reads its counts through ``errors.require_int``
and its 0/1 words through ``errors.require_bits``: a non-integer count or a
non-binary bit is a ValueError, never a number, while numpy integers and
numpy 0/1 arrays keep working."""
import numpy as np
import pytest

from dppkit import (
    PrefixState,
    SizeCapError,
    Symbol,
    SymbolSpecError,
    allones_lower_witness,
    correlation_ratio,
    cylinder_log_prob,
    lcs_length,
    lcs_length_dp,
    psi_bound_report,
    psi_finite_window,
    rate_experiment,
    s_n_q_table,
    sample_many,
    sample_prefix,
    sigma_n_q_walsh,
    tail_sum,
)
from dppkit.dimension import subset_dets
from dppkit.errors import require_bits, require_int
from dppkit.measure import cylinder_log_probs_direct
from dppkit.toeplitz import build_T

from oracles import conditional_next, empirical_cylinder_test, joint_cylinder_log_prob

SYM = Symbol.poisson(0.5, 0.25)
X = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
Y = np.array([1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)

# each call with one count replaced by v, and a valid v; the other arguments are valid
COUNT_CALLS = {
    "s_n_q_table.n_max": (lambda v: s_n_q_table(SYM, v, 2), 2),
    "subset_dets.N": (lambda v: subset_dets(SYM, v), 2),
    "sigma_n_q_walsh.q": (lambda v: sigma_n_q_walsh(SYM, 2, v), 2),
    "joint_cylinder_log_prob.gap": (lambda v: joint_cylinder_log_prob(SYM, "1", "0", v), 2),
    "correlation_ratio.gap": (lambda v: correlation_ratio(SYM, "1", "1", v), 2),
    "cylinder_log_probs_direct.N": (lambda v: cylinder_log_probs_direct(SYM, v), 2),
    "PrefixState.root.window": (lambda v: PrefixState.root(SYM, window=v).window, 2),
    "power_decay.cutoff": (lambda v: Symbol.power_decay(0.5, 0.1, 2, v), 2),
    "psi_bound_report.ell": (lambda v: psi_bound_report(SYM, v), 2),
    "psi_finite_window.ell": (lambda v: psi_finite_window(SYM, v, 2), 2),
    "psi_finite_window.N": (lambda v: psi_finite_window(SYM, 1, v), 2),
    "allones_lower_witness.ell": (lambda v: allones_lower_witness(SYM, v, 2), 2),
    "allones_lower_witness.N": (lambda v: allones_lower_witness(SYM, 1, v), 2),
    "sample_prefix.n": (lambda v: sample_prefix(SYM, v, 1), 2),
    "sample_prefix.seed": (lambda v: sample_prefix(SYM, 8, v), 2),
    "sample_many.count": (lambda v: sample_many(SYM, 8, v, 1), 2),
    "sample_many.seed": (lambda v: sample_many(SYM, 8, 2, v), 2),
    "empirical_cylinder_test.word_len": (lambda v: empirical_cylinder_test(SYM, v, 100, 1), 2),
    "empirical_cylinder_test.n_samples": (lambda v: empirical_cylinder_test(SYM, 2, v, 1), 100),
    "lcs_length.n": (lambda v: lcs_length(X, Y, v), 2),
    "lcs_length_dp.n": (lambda v: lcs_length_dp(X, Y, v), 2),
    "rate_experiment.n_grid": (lambda v: rate_experiment(SYM, [v], 1, 1, dim2=1.0), 16),
    "rate_experiment.trials": (lambda v: rate_experiment(SYM, [16], v, 1, dim2=1.0), 2),
    "rate_experiment.seed": (lambda v: rate_experiment(SYM, [16], 1, v, dim2=1.0), 2),
    "tail_sum.ell": (lambda v: tail_sum(SYM, v), 2),
    "tail_sum.truncation": (lambda v: tail_sum(SYM, 1, v), 2),
    "psi_bound_report.truncation": (lambda v: psi_bound_report(SYM, 1, v), 2),
}


@pytest.mark.parametrize("value", [1.5, 4.0, True, np.float64(2.0), np.True_, np.array([2]), np.array(2.0)],
                         ids=["1.5", "4.0", "True", "float64", "np.True_", "array([2])", "array(2.0)"])
@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_entry_point_refuses_non_integer_count(name, value):
    with pytest.raises(ValueError, match=r"; got .*, not an integer$") as info:
        COUNT_CALLS[name][0](value)
    # the gate names the value; a need string that names it too says it twice
    assert str(info.value).count("got") == 1


def _canonical(result):
    """Arrays by their bytes, everything else by its repr."""
    return result.tobytes() if isinstance(result, np.ndarray) else repr(result)


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_entry_point_takes_numpy_integer_count(name):
    call, good = COUNT_CALLS[name]
    assert _canonical(call(np.int64(good))) == _canonical(call(good))


@pytest.mark.parametrize("name", ["sample_prefix", "sample_many", "rate_experiment"])
def test_entry_point_refuses_negative_seed(name):
    # rate_experiment once masked -1 to 2^64 - 1 and ran it
    call = COUNT_CALLS[f"{name}.seed"][0]
    with pytest.raises(ValueError, match=f"^{name}: need seed >= 0$"):
        call(-1)


@pytest.mark.parametrize("call", [
    lambda: cylinder_log_prob(SYM, [0.5, 1]),
    lambda: conditional_next(SYM, [1.9]),
    lambda: joint_cylinder_log_prob(SYM, "1", [0.5], 1),
    lambda: lcs_length([0.5] * 8, np.zeros(8), 8),
    lambda: lcs_length_dp(np.zeros(8), [1, 0, 2, 0, 1, 0, 1, 0], 8),
    lambda: build_T(SYM.coeffs, [1.0, 2.5]),
], ids=["cylinder_log_prob", "conditional_next", "joint_cylinder_log_prob", "lcs_length",
        "lcs_length_dp", "build_T"])
def test_non_integer_bit_or_index_is_refused(call):
    with pytest.raises(ValueError, match="0/1|integer set"):
        call()


def test_numpy_words_read_as_their_bits():
    want = cylinder_log_prob(SYM, "1011")
    for word in ([1, 0, 1, 1], np.array([1, 0, 1, 1]), np.array([1, 0, 1, 1], dtype=np.uint8),
                 np.array([True, False, True, True]), [1.0, 0.0, 1.0, 1.0]):
        assert cylinder_log_prob(SYM, word) == want
    assert conditional_next(SYM, np.array([1, 0])) == conditional_next(SYM, "10")
    assert lcs_length(X.astype(bool), Y.astype(np.int64)) == lcs_length(X, Y) == lcs_length_dp(X, Y)
    assert lcs_length("".join(map(str, X)), "".join(map(str, Y))) == lcs_length(X, Y)


@pytest.mark.parametrize("ell", [2 ** 62 + 1, 2 ** 63 - 1], ids=["2^62+1", "2^63-1"])
@pytest.mark.parametrize("call", [
    lambda ell: psi_finite_window(SYM, ell, 2),
    lambda ell: allones_lower_witness(SYM, ell, 2),
    lambda ell: correlation_ratio(SYM, "01", "10", ell),
], ids=["psi_finite_window", "allones_lower_witness", "correlation_ratio"])
def test_gap_past_int64_indices_is_a_size_cap(call, ell):
    # the joint index set reaches 2N + ell: past 2^62 it is refused by name,
    # not by the index check of the window builder
    with pytest.raises(SizeCapError, match=r"^gap ell must be in \[1, 2\^62\]$"):
        call(ell)


def test_gap_at_the_int64_cap_computes():
    assert psi_finite_window(SYM, 2 ** 62, 2).value == 0.0


@pytest.mark.parametrize("dim2", [-1.0, 0.0, 1.5, float("nan"), float("inf"), "1", True, np.True_, 1j],
                         ids=["-1.0", "0.0", "1.5", "nan", "inf", "'1'", "True", "np.True_", "1j"])
def test_rate_experiment_refuses_dim2_outside_0_1(dim2):
    # -1.0, nan and inf once gave a target marked certified; 0.0 divided by zero
    with pytest.raises(ValueError, match=r"^rate_experiment: need dim2 in \(0, 1\], got "):
        rate_experiment(SYM, [16], 2, 0, dim2=dim2)


def test_rate_experiment_takes_dim2_in_0_1():
    rows = [rate_experiment(SYM, [16], 2, 0, dim2=v)[0] for v in (1, 1.0, np.float64(0.5))]
    assert rows[0] == rows[1]
    assert rows[2].target == pytest.approx(2.0 * rows[1].target, rel=1e-15)


@pytest.mark.parametrize("n", [2 ** 62 + 1, 10 ** 20], ids=["2^62+1", "10^20"])
def test_sample_length_past_2_62_is_a_size_cap(n):
    # refused by name before numpy is asked for n uniforms
    with pytest.raises(SizeCapError, match=r"^sample_prefix: need 1 <= n <= 2\^62$"):
        sample_prefix(SYM, n, 1)


@pytest.mark.parametrize("cutoff", [2 ** 62 + 1, 10 ** 20], ids=["2^62+1", "10^20"])
def test_power_decay_cutoff_past_2_62_is_refused_by_name(cutoff):
    # the range gate's grid once reached numpy's "Maximum allowed dimension
    # exceeded" for such a cutoff
    with pytest.raises(SymbolSpecError, match=r"^power_decay: cutoff must be an integer in \[1, 2\^62\]$"):
        Symbol.power_decay(0.5, 0.1, 2, cutoff)
    assert Symbol.power_decay(0.5, 0.1, 2, 2 ** 62).params["cutoff"] == 2 ** 62


def test_require_int_messages_and_classes():
    assert require_int(np.int64(3), 1, 5, "need") == 3
    assert type(require_int(np.int64(3), 1, 5, "need")) is int
    with pytest.raises(ValueError, match="^need$") as info:
        require_int(0, 1, 5, "need")
    assert type(info.value) is ValueError
    with pytest.raises(SizeCapError, match="^need$"):
        require_int(6, 1, 5, "need")
    with pytest.raises(ValueError, match=r"^need; got '3', not an integer$"):
        require_int("3", 1, 5, "need")
    assert require_int(10 ** 30, 1, None, "need") == 10 ** 30


@pytest.mark.parametrize("word", ["", "012", " 01", [], [[0, 1]], ["0", "1"], [0, -1], [np.nan],
                                  np.array([0, 2], dtype=np.uint8), [1 + 0j]])
def test_require_bits_refuses(word):
    with pytest.raises(ValueError, match="^w must be a non-empty 0/1 (string|sequence)"):
        require_bits(word, "w")


def test_require_bits_keeps_a_uint8_array():
    bits = np.array([0, 1, 1], dtype=np.uint8)
    assert require_bits(bits, "w") is bits
    assert require_bits("011", "w").tolist() == [0, 1, 1]


def test_lcs_length_dp_refuses_n_0():
    with pytest.raises(ValueError, match="^lcs_length_dp: need n >= 1$"):
        lcs_length_dp(X, Y, 0)
