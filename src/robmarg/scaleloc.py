"""Weighted S-scale and M-location solvers.

These are the numerical kernels every marginal estimator is built from: the
S-scale of a weighted sample (dispersion defined through a bounded rho,
minimized over location) and the M-location at a fixed scale.
``residual_scales`` is the package's one S-scale solver at a fixed
location; ``s_scale`` and the MM regression fit both solve through it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .scores import SCALE_B_TARGET, ScoreFamily, scale_bisquare
from .weighted import WeightedSample, serial_dot, weighted_quantile

__all__ = ["ScaleFit", "s_scale", "residual_scales", "m_location",
           "mad_scale", "check_score_pair"]

_logger = logging.getLogger(__name__)

_RHO0 = scale_bisquare()

_SCALE_TOL = 1e-9
_LOC_TOL = 1e-10
_SCALE_MAX_ITER = 200
_LOC_MAX_ITER = 500
_NEWTON_ITER = 100
_NEWTON_TOL = 1e-10


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


def residual_scales(
    resid: np.ndarray,
    start: np.ndarray,
    weights: np.ndarray | None = None,
    rho0: ScoreFamily = _RHO0,
    b: float = SCALE_B_TARGET,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise S-scale about zero of a (rows x m) matrix of residuals, or
    of rows of ``counts`` residuals laid end to end in a 1-D ``resid``.

    Solves avg rho0(r/s) = b for each row from ``start`` by safeguarded
    Newton steps in s, s <- s (1 + (avg rho0(u) - b) / avg psi0(u) u).  The
    average is the row's mean (``np.add.reduceat``, in an order fixed by
    the row), or the ``weights``-weighted mean over a matrix's columns.
    The fixed-point step s <- s sqrt(avg rho0(u) / b) never overshoots the
    root, so a Newton step is taken only when it lies inside the bracket
    seen so far and goes at least as far as the fixed-point step.  Each row
    stops on its own once its step is below 1e-10 relative, so a row's
    value does not depend on the other rows, bit for bit.  A row scores 0.0
    when its start is zero or its residuals all vanish, and inf when it
    holds a non-finite value.
    """
    if counts is None:
        counts = np.full(resid.shape[0], resid.shape[1])
        resid = resid.ravel()
    if weights is None:
        def avg(v):
            return np.add.reduceat(v, starts) / counts
    else:
        total = float(weights.sum())

        def avg(v):
            return serial_dot(v.reshape(counts.size, -1), weights) / total

    start = np.asarray(start, dtype=float)
    out = np.full(counts.size, np.inf)
    starts = np.cumsum(counts) - counts
    finite = np.logical_and.reduceat(np.isfinite(resid), starts)
    out[finite & (start <= 0.0)] = 0.0
    active = finite & (start > 0.0)
    r = resid if active.all() else resid[np.repeat(active, counts)]
    active = np.flatnonzero(active)
    counts, s = counts[active], start[active]
    starts = np.cumsum(counts) - counts
    lo = np.zeros_like(s)
    hi = np.full_like(s, np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_ITER):
            if active.size == 0:
                break
            u = r / (s if s.size == 1 else np.repeat(s, counts))
            m_avg = avg(rho0.rho(u))
            slope = avg(rho0.psi(u) * u)
            below = m_avg > b  # s lies below the root
            lo = np.where(below, s, lo)
            hi = np.where(below, hi, s)
            fixed = s * np.sqrt(np.maximum(m_avg, 0.0) / b)
            newton = s * (1.0 + (m_avg - b) / slope)
            usable = (slope > 0.0) & (newton > lo) & (newton < hi) & (
                (newton > fixed) == below
            )
            s_new = np.where(usable, newton, fixed)
            vanished = m_avg <= 0.0
            s_new[vanished] = 0.0
            done = vanished | (np.abs(s_new - s) <= _NEWTON_TOL * s_new)
            if done.any():
                out[active[done]] = s_new[done]
                keep = ~done
                active, r = active[keep], r[np.repeat(keep, counts)]
                counts, s_new = counts[keep], s_new[keep]
                starts = np.cumsum(counts) - counts
                lo, hi = lo[keep], hi[keep]
            s = s_new
    out[active] = s
    out[~np.isfinite(out)] = np.inf
    return out


def s_scale(ws: WeightedSample, rho0: ScoreFamily, b: float) -> ScaleFit:
    """S-scale of a weighted sample: the smallest dispersion over locations.

    Solves for the (location, scale) pair where the weighted average of
    rho0((y - a)/s) equals b and a minimizes s.  Alternates a damped
    fixed-point scale update, s^2 <- s^2 * avg_rho / b, with one weighted
    IRWLS location step using the rho0 weights, to joint relative tolerance
    1e-9 or 200 iterations.  The scale is then solved at the final
    location by ``residual_scales``, so the defining identity holds to
    rounding.

    Raises
    ------
    ValueError
        If b is not in (0, 1), or "degenerate scale" if one atom value
        carries at least 1 - b of the weight: at that location avg rho0
        stays at most b for every s, so the smallest dispersion is 0.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie strictly between 0 and 1")
    # The weight share of each distinct atom value, read off the sorted
    # table that the median below uses too.
    sa, cw = ws._sorted
    shares = np.diff(cw[np.append(sa[1:] != sa[:-1], True)], prepend=0.0)
    if shares.max() >= 1.0 - b:
        raise ValueError("degenerate scale")
    y, w = _positive_part(ws)
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

    s = residual_scales((y - a)[None, :], np.array([s]), w, rho0, b)[0]
    return ScaleFit(scale=float(s), s_location=a, b=b, iterations=iterations,
                    converged=converged)


def mad_scale(ws: WeightedSample, normal_consistency: bool = False) -> ScaleFit:
    """Median-absolute-deviation preset of the S-scale.

    For the indicator score rho*(t) = 1{|t| > 1} the S-scale has a closed
    form, the weighted median of |y - med|, so no iteration is run.  With
    ``normal_consistency`` the result is divided by 0.6745, making it
    consistent for the standard deviation at the normal distribution; the
    default leaves the raw MAD.

    Raises ``ValueError("degenerate scale")`` when the MAD is zero, which
    happens whenever at least half the weight sits on the (lower) median
    atom, e.g. atoms {-1, 1} with equal weights under the lower-median
    convention.
    """
    med = weighted_quantile(ws, 0.5)
    y, w = _positive_part(ws)
    scale = float(weighted_quantile(WeightedSample(np.abs(y - med), w), 0.5))
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

    Runs the IRWLS iteration theta <- sum(W y)/sum(W) with
    W = w * psi(u)/u, u = (y - theta)/scale, started at ``start`` (the
    weighted median when omitted, which for the redescending bisquare
    selects the solution in the median's basin), to absolute tolerance
    1e-10 * scale or 500 iterations.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")

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
    all u.  The bisquare rho_c(u) = rho*(u/c) falls as c grows, so that
    holds exactly when rho.c >= rho0.c.  Violations are logged, not raised.
    Returns True when the pair is dominated.
    """
    ok = bool(rho.c >= rho0.c)
    if not ok:
        _logger.warning(
            "location score is not dominated by the scale score; the "
            "M-location standardization may be inconsistent"
        )
    return ok
