"""Standard errors and confidence intervals for the marginal estimators.

Two routes to a standard error: a leave-one-out jackknife around any
estimation pipeline given chunks of the sets (refits included), and the
plug-in asymptotic variance of the IPW M-location functional, which carries
the influence of the estimated preliminary scale and has an optional
kernel-regression correction term that captures the efficiency gain of an
estimated propensity.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist
from time import perf_counter
from typing import Callable

import numpy as np

from .dataset import ObservedDataset
from .marginal import SCALE_METHODS, _observed
from .kernels import SortedWindow
from .parallel import ordered_map
from .propensity import PropensityFit
from .scaleloc import mad_scale, s_scale
from .scores import (LOCATION_BISQUARE, NORMAL_MAD, SCALE_B_TARGET,
                     SCALE_BISQUARE)
from .weighted import WeightedSample

__all__ = [
    "VarianceEstimate",
    "jackknife_se",
    "plugin_var_ipw",
    "confidence_interval",
]

_METHODS = ("jackknife", "plugin_known", "plugin_kernel")

# A jackknife projected to run longer than this (seconds) draws a warning.
_JACKKNIFE_WARN_S = 60.0


@dataclass(frozen=True)
class VarianceEstimate:
    """A standard error in response units with its provenance.

    ``skipped`` counts a jackknife's skipped leave-one-out replicates by
    reason ("Type: message").
    """

    se: float | tuple[float, ...]
    method: str
    n_effective: int
    skipped: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown variance method: {self.method!r}")
        se = np.asarray(self.se, dtype=float)
        if not (np.all(np.isfinite(se)) and np.all(se >= 0.0)):
            raise ValueError("se must be finite and nonnegative")
        if self.n_effective < 1:
            raise ValueError("n_effective must be at least 1")


def _drop_row(data: ObservedDataset, i: int) -> ObservedDataset:
    keep = np.ones(data.n, dtype=bool)
    keep[i] = False
    return ObservedDataset(
        y=data.y[keep],
        x=data.x[keep],
        z_index=data.z_index,
        delta=data.delta[keep],
    )


def _replicate(estimator, data: ObservedDataset, rows: list) -> list:
    """The estimates without each of ``rows``, as floats, or the reason
    ("Type: message") for a set whose estimate is an exception; the chunk
    function of ``jackknife_se``."""
    out = []
    for theta in estimator([_drop_row(data, i) for i in rows]):
        if isinstance(theta, Exception):
            out.append(f"{type(theta).__name__}: {theta}")
        elif np.ndim(theta) == 0:
            out.append(float(theta))
        else:
            out.append(tuple(float(v) for v in theta))
    return out


def jackknife_se(
    estimator: Callable[[list[ObservedDataset]], list],
    data: ObservedDataset,
    workers: int = 1,
) -> VarianceEstimate:
    """Leave-one-out jackknife standard error of a full pipeline.

    ``estimator`` maps a list of datasets to a list with each one's
    estimate (a scalar, or a vector of estimates) or the exception it
    raised, and is given the n delete-one datasets in chunks
    (``parallel.ordered_map``), so every data-dependent stage (propensity
    fit, regression fit, scale) contributes to the spread.  A set whose
    estimate is an exception is skipped for every component and counted by
    its reason in ``skipped``; more than 5% skipped draws a warning.  The
    first set runs alone and is timed, and a warning gives the projected
    total when n times that time exceeds 60 s.  With ``workers`` > 1 the
    others may run in that many processes; ``estimator`` must then pickle,
    and the result is the same bit for bit.
    se = sqrt(((m-1)/m) * sum (theta_(i) - mean)^2) over the m retained
    replicates, for each component; a vector estimator gets a tuple of them
    with the one shared m.
    """
    n = data.n
    start = perf_counter()
    replicates = _replicate(estimator, data, [0])
    projected = n * (perf_counter() - start)
    if projected > _JACKKNIFE_WARN_S:
        warnings.warn(
            f"jackknife: {n} leave-one-out refits projected to take "
            f"about {projected:.0f} s",
            stacklevel=2,
        )
    replicates += ordered_map(partial(_replicate, estimator, data),
                              range(1, n), workers)
    values = [v for v in replicates if not isinstance(v, str)]
    skipped = dict(Counter(v for v in replicates if isinstance(v, str)))
    failures = n - len(values)
    m = len(values)
    if m < 2:
        raise ValueError(
            "jackknife needs at least two successful leave-one-out fits; "
            f"skipped: {skipped}"
        )
    if failures > 0.05 * n:
        warnings.warn(
            f"jackknife skipped {failures} of {n} leave-one-out fits: "
            f"{skipped}",
            stacklevel=2,
        )

    def spread(column) -> float:
        center = math.fsum(column) / m
        ss = math.fsum((v - center) ** 2 for v in column)
        return math.sqrt((m - 1) / m * ss)

    if isinstance(values[0], tuple):
        se = tuple(spread(column) for column in zip(*values))
    else:
        se = spread(values)
    return VarianceEstimate(se=se, method="jackknife", n_effective=m,
                            skipped=skipped)


def _scale_influence(
    y: np.ndarray, tau: np.ndarray, scale: float, scale_method: str
) -> np.ndarray:
    """Influence of the preliminary scale at each complete case.

    The scale's centre and raw dispersion are recomputed from the
    tau-weighted complete cases.

    * "mad": median m and raw MAD d; with f a tau-weighted Gaussian kernel
      density at bandwidth 0.9 * scale * n_obs^(-1/5),
      IF_med = sign(y - m) / (2 f(m)) and
      IF_scale = [sign(|y - m| - d) - 2 (f(m+d) - f(m-d)) IF_med]
                 / (2 (f(m+d) + f(m-d))) / NORMAL_MAD.
    * "s": bisquare S-location a, v = (y - a)/scale, and
      IF_scale = scale (rho0(v) - b) / E_tau[rho0'(v) v]; the location
      drops out because it minimizes the scale.
    """
    ws = WeightedSample(y, tau)
    if scale_method == "s":
        a = s_scale(ws).s_location
        v = (y - a) / scale
        slope = float(tau @ (SCALE_BISQUARE.psi(v) * v))
        return scale * (SCALE_BISQUARE.rho(v) - SCALE_B_TARGET) / slope

    mfit = mad_scale(ws)
    m, d = mfit.s_location, mfit.scale
    h = 0.9 * scale * y.size ** (-0.2)

    def density(t: float) -> float:
        return float(tau @ np.exp(-0.5 * ((t - y) / h) ** 2)) / (
            h * math.sqrt(2.0 * math.pi)
        )

    f_m, f_hi, f_lo = density(m), density(m + d), density(m - d)
    if_med = np.sign(y - m) / (2.0 * f_m)
    if_mad = (
        np.sign(np.abs(y - m) - d) - 2.0 * (f_hi - f_lo) * if_med
    ) / (2.0 * (f_hi + f_lo))
    return if_mad / NORMAL_MAD


def plugin_var_ipw(
    data: ObservedDataset,
    pf: PropensityFit,
    theta: float,
    scale: float,
    variant: str = "known",
    bandwidth=None,
    scale_method: str | None = "mad",
) -> VarianceEstimate:
    """Plug-in asymptotic standard error of the IPW bisquare M-location.

    With u_i = (y_i - theta)/scale on complete cases and IPW weights
    tau_i proportional to 1/p_hat(z_i), the M-location's influence is
    IF_i = (scale * psi(u_i) - B_hat * IF_scale_i) / A_hat, where

    * A_hat     = tau-weighted mean of psi'(u_i),
    * B_hat     = tau-weighted mean of psi'(u_i) * u_i,
    * IF_scale  = the influence of the preliminary scale named by
                  ``scale_method``: "mad" (the default, as in the
                  estimators) or "s"; ``None`` treats the scale as known in
                  advance, so IF_scale = 0 and IF_i = scale * psi(u_i)/A_hat.

    Then

    * gamma_1   = tau-weighted mean of IF_i^2 / p_hat(z_i),
    * gamma_3   = gamma_1 - mean over all rows of
                  ((1 - p_hat)/p_hat) * r_hat(z)^2, where r_hat is an
                  Epanechnikov kernel regression of IF_i on z over the
                  complete cases (variant="kernel" only; the bandwidth,
                  one for every column of z or one per column, defaults to
                  the one stored in a kernel propensity fit),
    * se        = sqrt(gamma / n).
    """
    if variant not in ("known", "kernel"):
        raise ValueError(f"unknown plugin variant: {variant!r}")
    if scale_method is not None and scale_method not in SCALE_METHODS:
        raise ValueError(f"unknown scale method: {scale_method!r}")
    if not scale > 0:
        raise ValueError("scale must be positive")
    obs = _observed(data)
    y_obs = data.y[obs]
    z_obs = data.z[obs]
    p_obs = np.asarray(pf.predict(z_obs), dtype=float)
    u = (y_obs - theta) / scale
    tau = (1.0 / p_obs) / (1.0 / p_obs).sum()

    psi_prime_u = LOCATION_BISQUARE.psi_prime(u)
    a_hat = float(tau @ psi_prime_u)
    if abs(a_hat) < 1e-6:
        raise ValueError("flat score: psi' averages to zero at this fit")
    # phi = IF * A_hat / scale, so that se = scale * sqrt(gamma/(n A_hat^2))
    # with gamma built from phi exactly as from psi when the scale is known.
    phi = LOCATION_BISQUARE.psi(u)
    if scale_method is not None:
        b_hat = float(tau @ (psi_prime_u * u))
        if_scale = _scale_influence(y_obs, tau, scale, scale_method)
        phi = phi - b_hat * if_scale / scale
    gamma = float(tau @ (phi**2 / p_obs))
    method = "plugin_known"

    if variant == "kernel":
        if bandwidth is None:
            bandwidth = pf.params.get("bandwidth")
        if bandwidth is None:
            raise ValueError(
                "kernel variant needs a bandwidth (none stored in the "
                "propensity fit)"
            )
        z_all = data.z
        window = SortedWindow(z_obs, (np.ones(phi.size), phi))
        den, num = window.sums(z_all, bandwidth, "epanechnikov").T
        fallback = float(phi.mean())
        with np.errstate(invalid="ignore", divide="ignore"):
            r_hat = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                             fallback)
        p_all = np.asarray(pf.predict(z_all), dtype=float)
        correction = float(np.mean((1.0 - p_all) / p_all * r_hat**2))
        gamma = gamma - correction
        method = "plugin_kernel"

    gamma = max(gamma, 0.0)
    se = scale * math.sqrt(gamma / (data.n * a_hat**2))
    return VarianceEstimate(se=se, method=method, n_effective=data.n)


def confidence_interval(
    theta: float, ve: VarianceEstimate, level: float
) -> tuple[float, float]:
    """Symmetric normal-quantile interval theta +/- z * se."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    return (theta - z * ve.se, theta + z * ve.se)
