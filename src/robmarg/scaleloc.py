"""Weighted S-scale and M-location solvers.

These are the numerical kernels every marginal estimator is built from: the
S-scale of a weighted sample (dispersion defined through a bounded rho,
minimized over location) and the M-location at a fixed scale.  A weighted
sample's S-location and S-scale are the S-estimate of the intercept-only
regression model, so ``s_scale`` solves them with the MM fit's own S-scale
solver and S-polish (``regression.residual_scales`` and its descent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regression import RegressionModel, _polish, _Stack, residual_scales
from .scores import LOCATION_BISQUARE, NORMAL_MAD, SCALE_B_TARGET
from .weighted import (WeightedSample, largest_atom_share, serial_dot,
                       weighted_mad, weighted_quantile)

__all__ = ["ScaleFit", "s_scale", "m_location", "mad_scale"]

_LOC_TOL = 1e-10
_LOC_MAX_ITER = 500
# The model whose S-estimate is a sample's S-location and S-scale; its one
# coefficient, the location, reads no covariate.
_LOCATION = RegressionModel("location", ("1",))


@dataclass(frozen=True)
class ScaleFit:
    """Result of an S-scale solve.

    scale : the S-dispersion, in response units
    s_location : the location the dispersion is minimized over
    iterations : descent steps taken on the scale (0 for the MAD)
    converged : whether the descent stopped before its step cap
    """

    scale: float
    s_location: float
    iterations: int
    converged: bool


def s_scale(ws: WeightedSample) -> ScaleFit:
    """Bisquare S-scale of a weighted sample (c0 = 1.54764, b = 0.5): the
    smallest dispersion over locations.

    The (location a, scale s) pair solves the weighted average of
    rho0((y - a)/s) = b with a minimizing s: the S-estimate of the
    intercept-only model with the sample's weights as observation weights.
    From the weighted median, with the scale solved there from the MAD,
    the regression's S-polish descends on s(a) to its minimum (Newton
    steps, IRWLS where s(a) is not convex), and its scales are solved by
    ``residual_scales``, so the defining identity holds to rounding.

    Raises ``ValueError("degenerate scale")`` if one atom value carries at
    least 1 - b of the weight: at that location avg rho0 stays at most b
    for every s, so the smallest dispersion is 0.
    """
    if largest_atom_share(ws) >= 1.0 - SCALE_B_TARGET:
        raise ValueError("degenerate scale")
    y, w = ws.positive_part()
    a, s = weighted_mad(ws)
    if s <= 0.0:
        s = float(serial_dot(w, np.abs(y - a)) / w.sum())
    s = residual_scales(y - a, [s], weights=w)
    # A zero-stride covariate matrix: the model reads only its shape.
    stack = _Stack(y, np.broadcast_to(0.0, (y.size, 2)), w,
                   np.array([y.size]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta, s, steps, stopped = _polish(_LOCATION, stack, np.array([[a]]),
                                          s, np.zeros(1))
    return ScaleFit(scale=float(s[0]), s_location=float(beta[0, 0]),
                    iterations=int(steps[0]), converged=bool(stopped[0]))


def mad_scale(ws: WeightedSample, normal_consistency: bool = False) -> ScaleFit:
    """Median-absolute-deviation preset of the S-scale.

    For the indicator score rho*(t) = 1{|t| > 1} the S-scale has a closed
    form, the weighted median of |y - med|, so no iteration is run.  With
    ``normal_consistency`` the result is divided by ``NORMAL_MAD``, making it
    consistent for the standard deviation at the normal distribution; the
    default leaves the raw MAD.

    Raises ``ValueError("degenerate scale")`` when the MAD is zero, which
    happens whenever at least half the weight sits on the (lower) median
    atom, e.g. atoms {-1, 1} with equal weights under the lower-median
    convention.
    """
    med, scale = weighted_mad(ws)
    if normal_consistency:
        scale /= NORMAL_MAD
    if scale <= 0.0:
        raise ValueError("degenerate scale")
    return ScaleFit(scale=scale, s_location=med, iterations=0, converged=True)


def m_location(ws: WeightedSample, scale: float) -> float:
    """Weighted bisquare M-location (c = 4.685) of ``ws`` at a fixed scale;
    the M-location at tuning c is this one at scale * c / 4.685.

    Runs the IRWLS iteration theta <- sum(W y)/sum(W) with
    W = w * psi(u)/u, u = (y - theta)/scale, started at the weighted median
    (which for the redescending bisquare selects the solution in the
    median's basin), to absolute tolerance 1e-10 * scale or 500 iterations.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")

    y, w = ws.positive_part()
    th = float(weighted_quantile(ws, 0.5))
    for _ in range(_LOC_MAX_ITER):
        wt = w * LOCATION_BISQUARE.weight((y - th) / scale)
        denom = float(wt.sum())
        if denom <= 0.0:
            # Everything lies in the rejection region of the score at this
            # scale; no update is possible.
            break
        th_new = float(serial_dot(wt, y)) / denom
        delta = abs(th_new - th)
        th = th_new
        if delta <= _LOC_TOL * scale:
            break
    return th

