"""dppkit: exact finite-window computations for stationary determinantal
processes on the integer lattice induced by a [0,1]-valued symbol on the
circle - cylinder probabilities, mixing bounds, L^q-dimension estimates,
exact sampling, and the longest-common-substring growth experiment."""

from .errors import (
    ConditioningError,
    HypothesisError,
    NumericsError,
    SizeCapError,
    SymbolSpecError,
)
from .symbol import (
    Symbol,
    TailSum,
    contraction_margin,
    one_sidedness,
    symbol_from_json,
    tail_sum,
)
from .measure import RatioReport, correlation_ratio, cylinder_log_prob, cylinder_prob
from .mixing import (
    FiniteWindowPsi,
    PsiBoundReport,
    allones_lower_witness,
    psi_bound_report,
    psi_finite_window,
)
from .dimension import (
    DimensionEstimate,
    SNQTable,
    corr_dim_szego_lower,
    corr_dim_szego_upper,
    dim_q_estimate,
    s_n_q_table,
    sigma_n_2,
    sigma_n_q_walsh,
)
from .sampler import BinarySequence, sample_many, sample_prefix
from .lcs import LcsExperimentRow, lcs_length, lcs_length_dp, rate_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
