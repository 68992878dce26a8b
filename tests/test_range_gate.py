"""Every public entry point that relies on the contractive-kernel hypothesis
0 <= f <= 1 (|g| <= 1 for g = 2f - 1) refuses a symbol that leaves [0, 1]."""
import pytest

from dppkit import (
    HypothesisError,
    PrefixState,
    Symbol,
    allones_lower_witness,
    conditional_next,
    corr_dim_szego_lower,
    corr_dim_szego_upper,
    correlation_ratio,
    cylinder_log_prob,
    cylinder_prob,
    dim_q_estimate,
    empirical_cylinder_test,
    joint_cylinder_log_prob,
    psi_bound_report,
    psi_finite_window,
    rate_experiment,
    s_n_q_table,
    sample_many,
    sample_prefix,
    sigma_n_2,
    sigma_n_q_walsh,
)
from dppkit.dimension import subset_dets
from dppkit.measure import cylinder_log_probs_direct

RC_BAD = Symbol.raised_cosine(0.5, 0.9)  # range [-0.4, 1.4]

CALLS = {
    "cylinder_log_prob": lambda s: cylinder_log_prob(s, "1"),
    "cylinder_prob": lambda s: cylinder_prob(s, "10"),
    "joint_cylinder_log_prob": lambda s: joint_cylinder_log_prob(s, "1", "0", 1),
    "correlation_ratio": lambda s: correlation_ratio(s, "1", "1", 1),
    "conditional_next": lambda s: conditional_next(s, "1"),
    "PrefixState.root": lambda s: PrefixState.root(s, 4),
    "cylinder_log_probs_direct": lambda s: cylinder_log_probs_direct(s, 3),
    "psi_bound_report": lambda s: psi_bound_report(s, 1),
    "psi_finite_window": lambda s: psi_finite_window(s, 1, 2),
    "allones_lower_witness": lambda s: allones_lower_witness(s, 1, 2),
    "s_n_q_table": lambda s: s_n_q_table(s, 4, 2),
    "dim_q_estimate": lambda s: dim_q_estimate(s, 2, 4),
    "subset_dets": lambda s: subset_dets(s, 3),
    "sigma_n_2": lambda s: sigma_n_2(s, 3),
    "sigma_n_q_walsh": lambda s: sigma_n_q_walsh(s, 3, 2),
    "corr_dim_szego_lower": corr_dim_szego_lower,
    "corr_dim_szego_upper": corr_dim_szego_upper,
    "sample_prefix": lambda s: sample_prefix(s, 16, 0),
    "sample_many": lambda s: sample_many(s, 16, 2, 0),
    "empirical_cylinder_test": lambda s: empirical_cylinder_test(s, 2, 100, 0),
    "rate_experiment": lambda s: rate_experiment(s, [16], 2, 0),
    "rate_experiment_dim2": lambda s: rate_experiment(s, [16], 2, 0, dim2=1.0),
}
CASES = [(name, RC_BAD) for name in CALLS]
# a constant symbol takes the sampler's i.i.d. fast path, which builds no prefix state
CASES.append(("sample_prefix", Symbol.constant(1.5)))


@pytest.mark.parametrize("name, sym", CASES, ids=[f"{n}-{s.family}" for n, s in CASES])
def test_entry_point_refuses_out_of_range_symbol(name, sym):
    with pytest.raises(HypothesisError, match=r"leaves \[0,1\]"):
        CALLS[name](sym)
