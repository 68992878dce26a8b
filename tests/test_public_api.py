import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dppkit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUN = TRACER.parent / "run.py"

# Every public name of the package.  A name added to or restored in
# dppkit/__init__.py must be added here as well, so the change shows in review.
PUBLIC = [
    "BinarySequence", "ConditioningError", "DimensionEstimate", "FiniteWindowPsi",
    "HypothesisError", "LcsExperimentRow", "NumericsError", "PsiBoundReport",
    "RatioReport", "SNQTable", "SizeCapError", "Symbol", "SymbolSpecError", "TailSum",
    "allones_lower_witness", "contraction_margin", "corr_dim_szego_lower", "corr_dim_szego_upper",
    "correlation_ratio", "cylinder_log_prob", "cylinder_prob", "dim_q_estimate", "dimension",
    "errors", "lcs", "lcs_length", "lcs_length_dp", "measure",
    "mixing", "one_sidedness", "psi_bound_report", "psi_finite_window", "rate_experiment",
    "s_n_q_table", "sample_many", "sample_prefix", "sampler", "sigma_n_2", "sigma_n_q_walsh",
    "symbol", "symbol_from_json", "tail_sum", "toeplitz",
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
            # the tracer reads a method from its own class's __dict__, so one
            # inherited from a base class would pass hasattr and fail there
            assert part in vars(obj), f"perfbench traces dppkit.{module}.{attr}"
            obj = vars(obj)[part]
        assert callable(obj)


@pytest.mark.parametrize("workload, extends", [("dimension-tree", 344_028), ("sample-chain", 53_248)])
def test_benchmark_count_self_check(fresh_python, workload, extends):
    # the traced benchmark run checks its count of PrefixState.extend calls,
    # one per tree node and one per sampled bit, against its inputs: a change
    # that drops a call fails here, not first in a benchmark run
    proc = fresh_python(str(RUN), "--workload", workload, "--seed", "31", "--seconds", "1", "--trace", "1",
                        timeout=600, PYTHONDONTWRITEBYTECODE="1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["metrics"]["measure.extend.calls"]["value"] == extends


def test_import_loads_no_scipy(fresh_python):
    # the package depends on numpy alone; scipy is only a test oracle, and
    # importing it would cost every CLI call and benchmark set-up a second
    script = ("import sys, dppkit\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = fresh_python("-c", script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
