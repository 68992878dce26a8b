import dppkit

# Every public name of the package.  A name added to or restored in
# dppkit/__init__.py must be added here as well, so the change shows in review.
PUBLIC = [
    "BinarySequence", "ConditioningError", "DimensionEstimate", "FiniteWindowPsi",
    "HypothesisError", "LcsExperimentRow", "LogDet", "NumericsError", "PrefixState",
    "PsiBoundReport", "RatioReport", "SNQTable", "SizeCapError", "Symbol", "SymbolSpecError",
    "SzegoIntegral", "TailSum", "allones_lower_witness", "build_T", "build_T_window",
    "build_lambda", "conditional_next", "contraction_margin", "corr_dim_szego_lower",
    "corr_dim_szego_upper", "correlation_ratio", "cylinder_log_prob", "cylinder_prob",
    "dim_q_estimate", "dimension", "empirical_cylinder_test", "errors", "joint_cylinder_log_prob",
    "lcs", "lcs_length", "lcs_length_dp", "log_det", "measure", "mixing", "one_sidedness",
    "psi_bound_report", "psi_finite_window", "rate_experiment", "s_n_q", "s_n_q_table",
    "sample_many", "sample_prefix", "sampler", "sigma_n_2", "sigma_n_q_walsh",
    "symbol", "symbol_from_json", "szego_log_integral", "tail_sum", "toeplitz", "trace_norm",
]


def test_public_names_are_pinned():
    assert sorted(dppkit.__all__) == PUBLIC
