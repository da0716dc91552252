"""Weighted S-scale and M-location solvers.

These are the two numerical kernels every marginal estimator is built from:
the S-scale of a weighted sample (dispersion defined through a bounded rho,
minimized over location) and the M-location at a fixed scale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .scores import ScoreFamily
from .weighted import WeightedSample, serial_dot, weighted_quantile

__all__ = ["ScaleFit", "s_scale", "m_location", "mad_scale", "check_score_pair"]

_logger = logging.getLogger(__name__)

_SCALE_TOL = 1e-9
_LOC_TOL = 1e-10
_SCALE_MAX_ITER = 200
_LOC_MAX_ITER = 500


@dataclass(frozen=True)
class ScaleFit:
    """Result of an S-scale solve.

    scale : the S-dispersion, in response units
    s_location : the location the dispersion is minimized over
    b : the target value of the weighted rho0 average at the solution
    iterations : outer iterations used
    converged : whether the joint tolerance was met within the cap
    """

    scale: float
    s_location: float
    b: float
    iterations: int
    converged: bool


def _positive_part(ws: WeightedSample) -> tuple[np.ndarray, np.ndarray]:
    keep = ws.weights > 0
    return ws.atoms[keep], ws.weights[keep]


def s_scale(ws: WeightedSample, rho0: ScoreFamily, b: float) -> ScaleFit:
    """S-scale of a weighted sample: the smallest dispersion over locations.

    Solves for the (location, scale) pair where the weighted average of
    rho0((y - a)/s) equals b and a minimizes s.  Alternates a damped
    fixed-point scale update, s^2 <- s^2 * avg_rho / b, with one weighted
    IRWLS location step using the rho0 weights, to joint relative tolerance
    1e-9 or 200 iterations.  A final fixed-location polish tightens the
    defining identity.

    Raises
    ------
    ValueError
        If all atoms coincide ("degenerate scale"), b is not in (0, 1), or
        b is not below the supremum of rho0.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie strictly between 0 and 1")
    if b >= rho0.rho_sup:
        raise ValueError("b must be below the supremum of rho0")
    y, w = _positive_part(ws)
    if y.size < 2 or np.all(y == y[0]):
        raise ValueError("degenerate scale")
    sw = float(w.sum())

    a = weighted_quantile(ws, 0.5)
    dev = np.abs(y - a)
    s = float(weighted_quantile(WeightedSample(dev, w), 0.5))
    if s <= 0.0:
        s = float(serial_dot(w, dev) / sw)

    converged = False
    iterations = 0
    for iterations in range(1, _SCALE_MAX_ITER + 1):
        m = float(serial_dot(w, rho0.rho((y - a) / s))) / sw
        if m <= 0.0:
            raise ValueError("degenerate scale")
        s_new = s * np.sqrt(m / b)
        wt = w * rho0.weight((y - a) / s_new)
        denom = float(wt.sum())
        a_new = float(serial_dot(wt, y)) / denom if denom > 0.0 else a
        done = (
            abs(s_new - s) <= _SCALE_TOL * s_new
            and abs(a_new - a) <= _SCALE_TOL * s_new
        )
        s, a = float(s_new), a_new
        if done:
            converged = True
            break

    # Polish the scale at the final location so the defining identity
    # avg rho0((y-a)/s) = b holds to well within the stated tolerance.
    for _ in range(100):
        m = float(serial_dot(w, rho0.rho((y - a) / s))) / sw
        s_next = s * float(np.sqrt(m / b))
        step = abs(s_next - s)
        s = s_next
        if step <= 1e-13 * s:
            break

    return ScaleFit(
        scale=s, s_location=a, b=b, iterations=iterations, converged=converged
    )


def mad_scale(
    ws: WeightedSample, c0: float = 1.0, normal_consistency: bool = False
) -> ScaleFit:
    """Median-absolute-deviation preset of the S-scale.

    For the indicator score rho*(t) = 1{|t| > c0} the S-scale has a closed
    form, the weighted median of |y - med| divided by c0, so no iteration is
    run.  With ``normal_consistency`` the result is additionally divided by
    0.6745, making it consistent for the standard deviation at the normal
    distribution; the default leaves the raw MAD.

    Raises ``ValueError("degenerate scale")`` when the MAD is zero, which
    happens whenever at least half the weight sits on the (lower) median
    atom, e.g. atoms {-1, 1} with equal weights under the lower-median
    convention.
    """
    if not c0 > 0:
        raise ValueError("c0 must be positive")
    med = weighted_quantile(ws, 0.5)
    y, w = _positive_part(ws)
    mad = float(weighted_quantile(WeightedSample(np.abs(y - med), w), 0.5))
    scale = mad / c0
    if normal_consistency:
        scale /= 0.6745
    if scale <= 0.0:
        raise ValueError("degenerate scale")
    return ScaleFit(scale=scale, s_location=med, b=0.5, iterations=0, converged=True)


def m_location(
    ws: WeightedSample,
    rho: ScoreFamily,
    scale: float,
    start: float | None = None,
) -> float:
    """Weighted M-location of ``ws`` at a fixed scale.

    For the bisquare and huber families this runs the IRWLS iteration
    theta <- sum(W y)/sum(W) with W = w * psi(u)/u, u = (y - theta)/scale,
    started at ``start`` (the weighted median when omitted, which for the
    redescending bisquare selects the solution in the median's basin), to
    absolute tolerance 1e-10 * scale or 500 iterations.  The absolute family
    is the median and is answered by the weighted quantile directly; the
    square family is the weighted mean.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    if rho.family == "absolute":
        return float(weighted_quantile(ws, 0.5))
    if rho.family == "square":
        return ws.mean()

    y, w = _positive_part(ws)
    th = float(weighted_quantile(ws, 0.5)) if start is None else float(start)
    for _ in range(_LOC_MAX_ITER):
        wt = w * rho.weight((y - th) / scale)
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


def check_score_pair(rho: ScoreFamily, rho0: ScoreFamily) -> bool:
    """Warn unless the location score is dominated by the scale score.

    The location/scale pairing is only coherent when rho(u) <= rho0(u) for
    all u.  Violations are logged, not raised.  Returns True when the pair
    is dominated on the check grid.
    """
    hi = 2.0 * max(rho.c, rho0.c, 1.0)
    u = np.linspace(0.0, hi, 201)
    ok = bool(np.all(rho.rho(u) <= rho0.rho(u) + 1e-12))
    if not ok:
        _logger.warning(
            "location score is not dominated by the scale score; the "
            "M-location standardization may be inconsistent"
        )
    return ok
