"""hdfrontier: efficient-frontier estimation for high-dimensional portfolios.

The package estimates the three parameters of the mean-variance efficient
frontier — the global-minimum-variance return and variance and the
frontier's slope — from return panels whose cross-section ``p`` is a
non-negligible fraction of the sample size ``n``.  In that regime the
classical sample estimates are inconsistent in predictable ways; the
estimators here remove the bias, and the inference layer provides the
matching asymptotic confidence intervals.

Layers, bottom to top:

- :mod:`hdfrontier.frontier`   — population frontier geometry;
- :mod:`hdfrontier.estimators` — sample moments and the estimator family;
- :mod:`hdfrontier.inference`  — asymptotic variances, CIs, coverage;
- :mod:`hdfrontier.rmt`        — spectral-limit transforms, exact finite-
  sample laws, and Monte Carlo diagnostics backing the theory;
- :mod:`hdfrontier.simulate`   — Monte Carlo experiments;
- :mod:`hdfrontier.pipeline`   — panel ingestion and rolling estimation;
- :mod:`hdfrontier.cli`        — the ``hdfrontier`` executable.
"""

__version__ = "0.1.0"

from .errors import (
    AsymmetricMatrix,
    BranchAmbiguity,
    CholeskyFailure,
    DimensionMismatch,
    EmptyPanel,
    HDFrontierError,
    InputValidationError,
    InvalidConstants,
    InvalidLevel,
    InvalidParams,
    InvalidRange,
    InvalidReportKind,
    NotPositiveDefinite,
    ParseError,
    PoleAtZ,
    RaggedDayWarning,
    RatioOutOfRange,
    SingularCovariance,
    SingularMatrix,
    TooFewObservations,
    TooFewReps,
    WindowTooShort,
    ZeroTrace,
)
from .estimators import (
    EstimateReport,
    EstimatorKind,
    ReturnsMatrix,
    SampleMoments,
    estimate,
    estimate_many,
    plugin_frontier,
    precision_ebe,
    precision_rte,
    precision_sse,
    sample_moments,
)
from .frontier import (
    FrontierParams,
    MertonConstants,
    frontier_curve,
    frontier_params,
    from_merton,
    merton_constants,
    to_merton,
)
from .inference import (
    AsymptoticVariances,
    ConfidenceIntervals,
    asymptotic_variances,
    confidence_intervals,
    coverage,
    normal_quantile,
    standardized_errors,
)
from .pipeline import (
    ReturnPanel,
    RollingConfig,
    WindowEstimate,
    aggregate_frequency,
    ingest_csv,
    rolling_estimate,
    scale_to_horizon,
    winsorize,
    write_rolling_csv,
)
from .rmt import (
    DiagnosticRecord,
    ExactGaussianLaws,
    StieltjesPoint,
    demeaned_quadform_diagnostics,
    gaussian_exact_laws,
    m_of_z,
    mp_support,
    sample_noncentral_chisq,
    white_quadform_diagnostics,
    x_of_z,
)
from .simulate import (
    FrontierComparison,
    HistogramData,
    MonteCarloResult,
    Scenario,
    ScenarioSpec,
    build_population,
    frontier_comparison,
    generate_returns,
    histogram_data,
    run_monte_carlo,
)

__all__ = [
    "__version__",
    # errors
    "HDFrontierError",
    "InputValidationError",
    "DimensionMismatch",
    "AsymmetricMatrix",
    "CholeskyFailure",
    "NotPositiveDefinite",
    "SingularCovariance",
    "InvalidConstants",
    "InvalidParams",
    "InvalidRange",
    "InvalidLevel",
    "InvalidReportKind",
    "TooFewObservations",
    "TooFewReps",
    "RatioOutOfRange",
    "ZeroTrace",
    "BranchAmbiguity",
    "PoleAtZ",
    "SingularMatrix",
    "ParseError",
    "EmptyPanel",
    "WindowTooShort",
    "RaggedDayWarning",
    # frontier
    "MertonConstants",
    "FrontierParams",
    "merton_constants",
    "frontier_params",
    "from_merton",
    "to_merton",
    "frontier_curve",
    # estimators
    "ReturnsMatrix",
    "SampleMoments",
    "EstimatorKind",
    "EstimateReport",
    "sample_moments",
    "precision_sse",
    "precision_ebe",
    "precision_rte",
    "plugin_frontier",
    "estimate",
    "estimate_many",
    # inference
    "AsymptoticVariances",
    "ConfidenceIntervals",
    "asymptotic_variances",
    "normal_quantile",
    "confidence_intervals",
    "coverage",
    "standardized_errors",
    # rmt
    "StieltjesPoint",
    "ExactGaussianLaws",
    "DiagnosticRecord",
    "mp_support",
    "x_of_z",
    "m_of_z",
    "gaussian_exact_laws",
    "sample_noncentral_chisq",
    "white_quadform_diagnostics",
    "demeaned_quadform_diagnostics",
    # simulate
    "Scenario",
    "ScenarioSpec",
    "MonteCarloResult",
    "HistogramData",
    "FrontierComparison",
    "build_population",
    "generate_returns",
    "run_monte_carlo",
    "histogram_data",
    "frontier_comparison",
    # pipeline
    "ReturnPanel",
    "RollingConfig",
    "WindowEstimate",
    "ingest_csv",
    "winsorize",
    "aggregate_frequency",
    "scale_to_horizon",
    "rolling_estimate",
    "write_rolling_csv",
]
