"""Robust estimation of a response's marginal distribution under missingness.

The package estimates location functionals (mean, median, and a redescending
M-location standardized by an S-scale) of a response whose values, together
with some covariates, can be missing at random given an always-observed
covariate block.  Three weighting schemes for the marginal distribution are
provided (inverse-probability, regression convolution, and an augmented
doubly-protected combination), along with propensity estimators, a robust
MM regression fit, variance estimates, a simulation harness, and a batch CLI.
"""

from __future__ import annotations

from .scores import (
    LOCATION_BISQUARE_C,
    SCALE_B_TARGET,
    SCALE_BISQUARE_C0,
    ScoreFamily,
    location_bisquare,
    scale_bisquare,
)
from .scaleloc import ScaleFit, m_location, mad_scale, s_scale
from .weighted import (
    WeightedSample,
    kolmogorov_distance,
    weighted_cdf,
    weighted_quantile,
)
from .dataset import ObservedDataset
from .propensity import (
    DEFAULT_FLOOR,
    PropensityFit,
    auto_bandwidth,
    constant_propensity,
    cv_bandwidth,
    fit_logistic,
    kernel_propensity,
    known_propensity,
)
from .regression import (
    MODELS,
    RegressionFit,
    RegressionModel,
    fit_mm,
    hard_rejection_weights,
    predict,
)
from .marginal import (
    SCALE_METHODS,
    FunctionalSummary,
    MarginalEstimate,
    estimate_aipw,
    estimate_conv,
    estimate_ipw,
    functional_summary,
    signed_cdf_sample,
)
from .inference import (
    VarianceEstimate,
    confidence_interval,
    jackknife_se,
    plugin_var_ipw,
)
from .simulation import (
    PUBLISHED_TARGETS,
    ScenarioConfig,
    SummaryRow,
    SummaryTable,
    TargetValues,
    TruthRecord,
    generate_sample,
    l_measures,
    run_scenario,
    target_values,
    true_propensity,
)

__version__ = "0.1.0"

__all__ = [
    "WeightedSample",
    "weighted_cdf",
    "weighted_quantile",
    "kolmogorov_distance",
    "ScoreFamily",
    "location_bisquare",
    "scale_bisquare",
    "LOCATION_BISQUARE_C",
    "SCALE_BISQUARE_C0",
    "SCALE_B_TARGET",
    "ScaleFit",
    "s_scale",
    "m_location",
    "mad_scale",
    "ObservedDataset",
    "PropensityFit",
    "fit_logistic",
    "kernel_propensity",
    "cv_bandwidth",
    "auto_bandwidth",
    "constant_propensity",
    "known_propensity",
    "DEFAULT_FLOOR",
    "MODELS",
    "RegressionModel",
    "RegressionFit",
    "fit_mm",
    "predict",
    "hard_rejection_weights",
    "SCALE_METHODS",
    "FunctionalSummary",
    "MarginalEstimate",
    "estimate_ipw",
    "estimate_conv",
    "estimate_aipw",
    "functional_summary",
    "signed_cdf_sample",
    "VarianceEstimate",
    "jackknife_se",
    "plugin_var_ipw",
    "confidence_interval",
    "PUBLISHED_TARGETS",
    "ScenarioConfig",
    "SummaryRow",
    "SummaryTable",
    "TargetValues",
    "TruthRecord",
    "generate_sample",
    "l_measures",
    "run_scenario",
    "target_values",
    "true_propensity",
    "__version__",
]
