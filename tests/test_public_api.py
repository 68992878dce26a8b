import importlib
import importlib.util
import sys
from pathlib import Path

import dppkit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Every public name of the package.  A name added to or restored in
# dppkit/__init__.py must be added here as well, so the change shows in review.
PUBLIC = [
    "BinarySequence", "ConditioningError", "DimensionEstimate", "FiniteWindowPsi",
    "HypothesisError", "LcsExperimentRow", "LogDet", "NumericsError", "PrefixState",
    "PsiBoundReport", "RatioReport", "SNQTable", "SizeCapError", "Symbol", "SymbolSpecError",
    "SzegoIntegral", "TailSum", "allones_lower_witness", "build_T", "conditional_next",
    "contraction_margin", "corr_dim_szego_lower", "corr_dim_szego_upper", "correlation_ratio",
    "cylinder_log_prob", "cylinder_prob", "dim_q_estimate", "dimension",
    "empirical_cylinder_test", "errors", "joint_cylinder_log_prob", "lcs", "lcs_length",
    "lcs_length_dp", "log_det", "measure", "mixing", "one_sidedness", "psi_bound_report",
    "psi_finite_window", "rate_experiment", "s_n_q_table", "sample_many",
    "sample_prefix", "sampler", "sigma_n_2", "sigma_n_q_walsh", "symbol", "symbol_from_json",
    "szego_log_integral", "tail_sum", "toeplitz", "trace_norm",
]


def test_public_names_are_pinned():
    assert sorted(dppkit.__all__) == PUBLIC


def test_traced_names_resolve(monkeypatch):
    # every name the benchmark tracer wraps must exist, so that a deletion
    # which would crash a traced benchmark run fails here first
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _, _ in tracer.TARGETS:
        obj = importlib.import_module(f"dppkit.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"perfbench traces dppkit.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj)
