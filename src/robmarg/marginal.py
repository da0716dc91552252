"""Marginal distribution estimators under response/covariate missingness.

Three ways to rebuild the marginal law of y from partially observed rows:

* inverse-probability weighting of the complete cases (estimate_ipw),
* a convolution of robust regression predictions with reweighted residuals
  (estimate_conv),
* an augmented inverse-probability estimator that corrects the IPW weights
  with a kernel estimate of the conditional response distribution and is
  protected against misspecifying either the propensity or that conditional
  law (estimate_aipw).

Every estimator returns the same bundle: the weighted sample, a robust
preliminary scale, and the mean, median, and M-location computed from it.
The preliminary scale defaults to the normal-consistent MAD of the weighted
sample; a bisquare S-scale (b = 0.5) can be selected instead.  Both are
consistent for the same limit at the normal distribution, but they differ
on skewed marginals, and the M-location inherits that difference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import ObservedDataset
from .kernels import SortedWindow
from .propensity import PropensityFit
from .regression import RegressionFit, predict
from .scaleloc import m_location, mad_scale, s_scale
from .weighted import WeightedSample, weighted_quantile

__all__ = [
    "ObservedDataset",
    "MarginalEstimate",
    "FunctionalSummary",
    "SCALE_METHODS",
    "estimate_ipw",
    "estimate_conv",
    "estimate_aipw",
    "estimate_chunk",
    "functional_summary",
    "signed_cdf_sample",
]

# Largest number of location atoms the convolution estimator will cross with
# the residual atoms before switching to a deterministic quantile subsample.
_CONV_GRID_CAP = 2000

# Preliminary marginal scale choices: normal-consistent MAD (default) or the
# bisquare S-scale with b = 0.5.
SCALE_METHODS = ("mad", "s")


@dataclass(frozen=True)
class FunctionalSummary:
    """Preliminary scale plus the three location functionals."""

    scale: float
    mean: float
    median: float
    m_est: float


@dataclass(frozen=True)
class MarginalEstimate:
    """A fitted marginal distribution and its location functionals.

    distribution carries normalized weights; scale is its preliminary
    marginal scale — the normal-consistent MAD by default, or the bisquare
    (c0 = 1.54764, b = 0.5) S-scale when scale_method="s" is requested;
    theta_m is the bisquare (c = 4.685) M-location at that scale, started at
    the weighted median.  For the augmented estimator,
    ``signed_weights`` keeps the pre-flooring weights of the distribution's
    atoms (they can be negative) so the estimated CDF can also be used in
    signed form, and ``negative_weights_floored`` records whether flooring
    changed anything.
    """

    distribution: WeightedSample
    scale: float
    theta_mean: float
    theta_median: float
    theta_m: float
    method: str
    propensity_tag: str
    negative_weights_floored: bool = False
    signed_weights: np.ndarray | None = field(default=None, compare=False)


def functional_summary(ws: WeightedSample,
                       scale_method: str = "mad") -> FunctionalSummary:
    """Compute the standard functional bundle of a weighted sample.

    The preliminary scale is the normal-consistent MAD of the weighted
    sample ("mad", the default) or the bisquare S-scale preset ("s"); the
    bisquare M-location is taken at that scale, from the weighted median.
    """
    if scale_method not in SCALE_METHODS:
        raise ValueError("unknown scale method")
    sfit = (mad_scale(ws, normal_consistency=True) if scale_method == "mad"
            else s_scale(ws))
    theta_m = m_location(ws, sfit.scale)
    return FunctionalSummary(
        scale=sfit.scale,
        mean=ws.mean(),
        median=float(weighted_quantile(ws, 0.5)),
        m_est=theta_m,
    )


def _finish(
    atoms: np.ndarray,
    raw_weights: np.ndarray,
    method: str,
    tag: str,
    scale_method: str = "mad",
    **extra,
) -> MarginalEstimate:
    ws = WeightedSample(atoms, raw_weights / raw_weights.sum())
    summ = functional_summary(ws, scale_method)
    return MarginalEstimate(
        distribution=ws,
        scale=summ.scale,
        theta_mean=summ.mean,
        theta_median=summ.median,
        theta_m=summ.m_est,
        method=method,
        propensity_tag=tag,
        **extra,
    )


def _observed(data: ObservedDataset):
    obs = data.delta == 1
    if int(obs.sum()) < 2:
        raise ValueError("need at least two complete cases")
    return obs


def estimate_ipw(
    data: ObservedDataset,
    pf: PropensityFit,
    scale_method: str = "mad",
) -> MarginalEstimate:
    """Inverse-probability-weighted marginal estimate.

    Complete-case responses weighted by 1/p_hat(z) and normalized.
    """
    obs = _observed(data)
    p = np.asarray(pf.predict(data.z[obs]), dtype=float)
    return _finish(data.y[obs], 1.0 / p, "ipw", pf.method, scale_method)


def estimate_conv(
    data: ObservedDataset,
    pf: PropensityFit,
    fit: RegressionFit,
    scale_method: str = "mad",
) -> MarginalEstimate:
    """Convolution-based marginal estimate.

    Crosses the complete-case residuals (equal weights) with the fitted
    locations on complete cases (IPW weights): atoms mu_hat(x_j) + eps_i
    carrying weight kappa_i * tau_j, where mu_hat = predict(fit, .) needs a
    converged fit.  With more than 2000 complete cases the location atoms
    are first reduced to the 2000 evenly spaced weighted quantiles of their
    IPW-weighted law, deterministically, with a warning.
    """
    obs = _observed(data)
    y_obs = data.y[obs]
    mu = predict(fit, data.x[obs])
    eps = y_obs - mu
    p = np.asarray(pf.predict(data.z[obs]), dtype=float)
    tau = (1.0 / p) / (1.0 / p).sum()

    if mu.size > _CONV_GRID_CAP:
        warnings.warn(
            f"convolution grid reduced from {mu.size} to {_CONV_GRID_CAP} "
            "IPW-weighted quantile atoms",
            stacklevel=2,
        )
        probs = (np.arange(_CONV_GRID_CAP) + 0.5) / _CONV_GRID_CAP
        mu_grid = np.asarray(weighted_quantile(WeightedSample(mu, tau), probs))
        tau_grid = np.full(_CONV_GRID_CAP, 1.0 / _CONV_GRID_CAP)
    else:
        mu_grid, tau_grid = mu, tau

    kappa = np.full(eps.size, 1.0 / eps.size)
    atoms = (eps[:, None] + mu_grid[None, :]).ravel()
    weights = (kappa[:, None] * tau_grid[None, :]).ravel()
    return _finish(atoms, weights, "conv", pf.method, scale_method)


def _spread(z_obs: np.ndarray, z_rows: np.ndarray, a_n: float, values):
    """Spread one value per row over the complete cases by kernel share.

    Row i's share profile over the complete cases is its biweight kernel
    weight at each z_obs_j divided by their total; a row with no complete
    case in its window shares uniformly.  Returns, for each complete case j,
    sum_i share_ji * values_i: the kernel sum at z_obs_j of the rows' values
    over their totals (the kernel is symmetric bit for bit), plus the
    uniform share.
    """
    values = np.asarray(values, dtype=float)
    n_obs = len(z_obs)
    (den,) = SortedWindow(z_obs, np.ones(n_obs)).sums(
        z_rows, a_n, "biweight").T
    good = den > 0.0
    scaled = np.where(good, values / np.where(good, den, 1.0), 0.0)
    (spread,) = SortedWindow(z_rows, scaled).sums(z_obs, a_n, "biweight").T
    return spread + float(values[~good].sum()) / n_obs


def default_a_n(n: int) -> float:
    return n ** (-1.0 / 3.0)


def estimate_aipw(
    data: ObservedDataset,
    pf: PropensityFit,
    a_n: float,
    scale_method: str = "mad",
) -> MarginalEstimate:
    """Augmented inverse-probability-weighted marginal estimate.

    Complete-case responses carry composite weights (zeta_j + varpi_j)/n:
    zeta_j = delta_j/pi_hat_j is the IPW part and varpi_j redistributes each
    row's IPW deficit 1 - zeta_i over the complete cases near z_i under the
    biweight kernel (rows with an empty kernel neighborhood spread their
    deficit uniformly over the complete cases).  The composite weights sum
    to n exactly but can be negative; negative entries are floored at zero
    and the rest renormalized, with the signed originals kept on the
    estimate.
    """
    if not a_n > 0:
        raise ValueError("smoothing parameter a_n must be positive")
    obs = _observed(data)
    n = data.n
    pi = np.asarray(pf.predict(data.z), dtype=float)
    zeta = data.delta / pi
    y_obs = data.y[obs]

    # varpi_j = sum_i share_ji * (1 - zeta_i) where share_:i is the kernel
    # weight profile of row i over the complete cases (columns sum to 1).
    varpi = _spread(data.z[obs], data.z, a_n, 1.0 - zeta)

    composite = (zeta[obs] + varpi) / n
    signed = composite.copy()
    neg = composite < 0.0
    floored = bool(neg.any())
    if floored:
        composite = np.where(neg, 0.0, composite)
    return _finish(
        y_obs,
        composite,
        "aipw",
        pf.method,
        scale_method,
        negative_weights_floored=floored,
        signed_weights=signed,
    )


def estimate_chunk(datasets, propensity, fits, keys, a_n: float,
                   scale_method: str = "mad"):
    """Yield each dataset's estimates in turn, or the exception it raised:
    the one estimate path of the CLI's report and jackknife and of the
    Monte Carlo replications.

    Estimates map each key (estimator, model label, propensity name) of
    ``keys``, in order, to its MarginalEstimate; only "conv" reads the
    label.  ``fits[k]`` maps dataset k's model labels to their fits, or to
    the ValueError a fit raised; ``propensity(name, z, delta)`` fits each
    propensity named in ``keys`` once per dataset.  A dataset's result is
    its first failure: a model fit, a propensity, then the estimators in
    key order.
    """
    names = dict.fromkeys(name for *_, name in keys)
    for data, models in zip(datasets, fits):
        try:
            for fit in models.values():
                if isinstance(fit, ValueError):
                    raise fit
            pfs = {name: propensity(name, data.z, data.delta)
                   for name in names}
            yield {
                (est, label, name): (
                    estimate_ipw(data, pfs[name], scale_method)
                    if est == "ipw" else
                    estimate_aipw(data, pfs[name], a_n, scale_method)
                    if est == "aipw" else
                    estimate_conv(data, pfs[name], models[label],
                                  scale_method))
                for est, label, name in keys
            }
        except Exception as exc:
            yield exc


def signed_cdf_sample(est: MarginalEstimate) -> WeightedSample:
    """Monotone CDF reconstruction of the signed augmented estimate.

    The signed weights define a (possibly nonmonotone) CDF; clipping it to
    [0, 1] and applying a running maximum gives the closest usable
    distribution, returned as a weighted sample for distance computations.
    """
    if est.signed_weights is None:
        raise ValueError("estimate carries no signed weights")
    order = np.argsort(est.distribution.atoms, kind="stable")
    atoms = est.distribution.atoms[order]
    cdf = np.cumsum(est.signed_weights[order])
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    cdf[-1] = 1.0
    weights = np.diff(np.concatenate(([0.0], cdf)))
    return WeightedSample(atoms, weights)
