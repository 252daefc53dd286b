"""Latent factor estimation by diversified projections.

Factors are estimated as pre-determined weighted cross-sectional averages,
f_hat_t = W'x_t / N, which stays valid when the working number of factors
over-states the true one.  The package bundles the estimator with its
downstream applications: factor-augmented forecasting, post-selection
inference, sparse idiosyncratic covariance estimation, factor
specification testing, factor-adjusted multiple testing, and a seeded
Monte Carlo harness.
"""

__version__ = "0.1.0"

from .covariance import (
    SparseCovariance,
    ThresholdRule,
    invert_sparse_cov,
    sparse_idio_cov,
    threshold_value,
)
from .exceptions import (
    DegenerateDataError,
    DegenerateWeightsWarning,
    DimensionError,
    DivprojError,
    InsufficientDataError,
    NumericalWarning,
    SingularGramError,
)
from .fdr import FarmTestResult, bh_reject, farm_stats, farm_test
from .forecast import (
    AugmentedRegression,
    FixedWeightScheme,
    PCScheme,
    RollingForecastReport,
    RollingWeightScheme,
    fit_augmented,
    predict,
    rolling_forecast,
)
from .inference import (
    DoubleSelectionResult,
    confidence_interval,
    double_selection,
    tuning_tau,
)
from .projection import (
    FactorFit,
    PanelData,
    SpaceDistance,
    common_component,
    estimate_factors,
    estimate_loadings,
    fit,
    pc_factors,
    pseudo_inverse,
    residuals,
    space_distance,
    transform_matrix,
)
from .simulation import SimConfig, SimOutput, cross_section_cov, generate_panel, rep_rng
from .spectest import SpecTestResult, mean_hat, sigma_bootstrap, spec_statistic, spec_test
from .weights import (
    WeightDiagnostics,
    WeightMatrix,
    build_weights,
    check_diversified,
    hadamard_pattern_weights,
    initial_transform_weights,
    rolling_window_weights,
    sieve_weights,
    walsh_hadamard_weights,
)
