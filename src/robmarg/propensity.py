"""Estimators of the missingness probability p(z).

Four ways to produce a propensity: a user-supplied known function, the
constant (MCAR) estimate, a parametric logistic fit, and a kernel smoother
with leave-one-out cross-validated bandwidth.  All of them return a
``PropensityFit`` whose ``predict`` is clamped below by a positive floor so
inverse-probability weights stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import SortedWindow

__all__ = [
    "PropensityFit",
    "fit_logistic",
    "kernel_propensity",
    "cv_bandwidth",
    "auto_bandwidth",
    "fit_propensity",
    "constant_propensity",
    "known_propensity",
    "DEFAULT_FLOOR",
]

DEFAULT_FLOOR = 0.01

_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
_MAX_HALVINGS = 30
_SEPARATION_NORM = 1e3


def _as_matrix(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[:, None]
    elif arr.ndim != 2:
        raise ValueError("z must be a vector or a matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("z must be fully observed")
    return arr


def _as_delta(delta) -> np.ndarray:
    arr = np.asarray(delta)
    if arr.ndim != 1:
        raise ValueError("delta must be one-dimensional")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("delta must contain only 0 and 1")
    return arr.astype(float)


@dataclass(frozen=True)
class PropensityFit:
    """A fitted (or supplied) propensity.

    method : one of "known", "constant", "logistic", "kernel"
    predict : maps z (scalar, vector, or matrix of query points) to
        probabilities in [floor, 1]
    params : method-specific values (gamma for logistic, bandwidth for
        kernel, the scalar for constant)
    floor : the positive lower clamp applied to every prediction
    """

    method: str
    predict: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    params: dict
    floor: float

    def __post_init__(self):
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("floor must lie in (0, 1]")


def _clamped(raw: Callable[[np.ndarray], np.ndarray], floor: float,
             k: int | None):
    """Wrap a matrix-input prediction with shape handling and the clamp;
    ``k`` is the number of columns of z, None for any number."""

    def predict(z):
        zq = np.asarray(z, dtype=float)
        scalar = zq.ndim == 0
        mat = _as_matrix(zq)
        if k is not None and mat.shape[1] != k:
            # A single k-dim query point may arrive as a flat vector.
            if scalar or zq.ndim == 1 and zq.size == k:
                mat = zq.reshape(1, k)
            else:
                raise ValueError(f"z has {mat.shape[1]} columns, expected {k}")
        out = np.clip(raw(mat), floor, 1.0)
        if scalar or (zq.ndim == 1 and zq.size == k and k > 1):
            return float(out[0])
        return out

    return predict


def known_propensity(
    fn: Callable[[np.ndarray], np.ndarray], k: int = 1, floor: float = DEFAULT_FLOOR
) -> PropensityFit:
    """Wrap a known propensity function, clamping it to [floor, 1].

    ``fn`` receives an (m, k) matrix of query points and must return m
    probabilities.
    """

    def raw(mat):
        return np.asarray(fn(mat), dtype=float).reshape(mat.shape[0])

    return PropensityFit(
        method="known", predict=_clamped(raw, floor, k), params={}, floor=floor
    )


def constant_propensity(delta, floor: float = DEFAULT_FLOOR) -> PropensityFit:
    """MCAR propensity: the observed fraction, floored, at z with any
    number of columns."""
    d = _as_delta(delta)
    if d.size < 1:
        raise ValueError("delta must be nonempty")
    p_hat = max(float(d.mean()), floor)

    def raw(mat):
        return np.full(mat.shape[0], p_hat)

    return PropensityFit(
        method="constant",
        predict=_clamped(raw, floor, None),
        params={"p_hat": p_hat},
        floor=floor,
    )


def _log_likelihood(eta: np.ndarray, d: np.ndarray) -> float:
    # sum of d*eta - log(1 + exp(eta)), stably
    return float(d @ eta - np.logaddexp(0.0, eta).sum())


def fit_logistic(z, delta, floor: float = DEFAULT_FLOOR) -> PropensityFit:
    """Maximum-likelihood logistic propensity with intercept.

    Damped Newton iterations (steps halved until the likelihood increases,
    at most 30 halvings) to gradient norm 1e-10, capped at 100 iterations.
    ``params`` records the Newton steps taken ("iterations") and whether the
    fit stopped at the optimum rather than at the cap ("converged").

    Raises
    ------
    ValueError
        "separation" when the iterates diverge (parameter norm above 1e3);
        also when delta is constant or n < k + 2.
    """
    zm = _as_matrix(z)
    d = _as_delta(delta)
    n, k = zm.shape
    if d.size != n:
        raise ValueError("z and delta must have equal length")
    if d.min() == d.max():
        raise ValueError("all delta equal; logistic fit undefined")
    if n < k + 2:
        raise ValueError("need at least k + 2 observations")

    x = np.column_stack([np.ones(n), zm])
    gamma = np.zeros(k + 1)
    eta = x @ gamma
    ll = _log_likelihood(eta, d)
    iterations, converged = 0, False
    for _ in range(_NEWTON_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-eta))
        grad = x.T @ (d - p)
        if float(np.linalg.norm(grad)) <= _NEWTON_TOL:
            converged = True
            break
        w = p * (1.0 - p)
        hess = x.T @ (x * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            ridge = 1e-10 * (np.trace(hess) / (k + 1) + 1.0)
            step = np.linalg.solve(hess + ridge * np.eye(k + 1), grad)
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = gamma + scale * step
            eta_cand = x @ cand
            ll_cand = _log_likelihood(eta_cand, d)
            if ll_cand > ll:
                break
            scale *= 0.5
        else:
            # No step length improves the likelihood: we are at the optimum
            # up to floating-point resolution.
            converged = True
            break
        gamma, eta, ll = cand, eta_cand, ll_cand
        iterations += 1
        if float(np.linalg.norm(gamma)) > _SEPARATION_NORM:
            raise ValueError("separation")

    def raw(mat):
        e = gamma[0] + mat @ gamma[1:]
        return 1.0 / (1.0 + np.exp(-e))

    return PropensityFit(
        method="logistic",
        predict=_clamped(raw, floor, k),
        params={
            "gamma": gamma.copy(),
            "iterations": iterations,
            "converged": converged,
        },
        floor=floor,
    )


def _bandwidth(h) -> float | tuple[float, ...]:
    """One bandwidth for every column as a float, or one per column."""
    h = np.asarray(h, dtype=float)
    return h.item() if h.size == 1 else tuple(h.tolist())


def kernel_propensity(z, delta, b_n, floor: float = DEFAULT_FLOOR) -> PropensityFit:
    """Kernel-smoothed propensity with product Epanechnikov weights.

    predict(z) is the locally weighted observed fraction; query points with
    no training point inside the bandwidth fall back to the overall mean of
    delta, then everything is clamped to [floor, 1].  ``b_n`` is one
    bandwidth for every column of z, or one per column.
    """
    zm = _as_matrix(z)
    d = _as_delta(delta)
    n, k = zm.shape
    if d.size != n:
        raise ValueError("z and delta must have equal length")
    if n < 2:
        raise ValueError("need at least two observations")
    d_mean = float(d.mean())
    # The weight totals are a value vector summed like the weighted counts,
    # so that with every row observed the ratio is exactly 1.
    window = SortedWindow(zm, (np.ones(n), d))
    window.sums(zm[:0], b_n, "epanechnikov")  # checks the bandwidth now

    def raw(mat):
        den, num = window.sums(mat, b_n, "epanechnikov").T
        return np.where(den > 0.0, num / np.where(den > 0, den, 1.0), d_mean)

    return PropensityFit(
        method="kernel",
        predict=_clamped(raw, floor, k),
        params={"bandwidth": _bandwidth(b_n)},
        floor=floor,
    )


def cv_bandwidth(z, delta, grid) -> float | tuple[float, ...]:
    """Grid bandwidth minimizing leave-one-out squared prediction error.

    The grid is a vector of bandwidths, each for every column of z, or a
    matrix of rows, one bandwidth per column.  Each candidate is scored by
    sum_i (delta_i - p_loo_i)^2 where p_loo_i is the kernel estimate at z_i
    with observation i removed; a point left with an empty neighborhood
    predicts the mean of the remaining deltas.  Ties (exact score equality)
    go to the smaller bandwidth, or to the row with the smaller first one.
    """
    zm = _as_matrix(z)
    d = _as_delta(delta)
    n, k = zm.shape
    grid_arr = np.asarray(grid, dtype=float)
    if (grid_arr.ndim not in (1, 2) or grid_arr.size == 0
            or grid_arr.shape[1:] not in ((), (k,))):
        raise ValueError(f"grid must be a nonempty vector or {k}-column rows")
    if np.any(grid_arr <= 0):
        raise ValueError("bandwidths must be positive")

    loo_mean = (d.sum() - d) / (n - 1) if n > 1 else np.full(n, d.mean())
    bandwidths = grid_arr[np.argsort(grid_arr.reshape(len(grid_arr), -1)[:, 0],
                                     kind="stable")]
    scores = np.empty(len(bandwidths))
    window = SortedWindow(zm, (np.ones(n), d))
    self_k = 0.75**k  # each point's own kernel weight, at t = 0
    for j, b in enumerate(bandwidths):
        den, num = window.sums(zm, b, "epanechnikov").T
        den = den - self_k
        num = num - self_k * d
        p_loo = np.where(den > 0.0, num / np.where(den > 0, den, 1.0), loo_mean)
        scores[j] = float(((d - p_loo) ** 2).sum())
    # Scores equal up to rounding noise count as ties, and ties go to the
    # smallest bandwidth.
    cutoff = scores.min() * (1.0 + 1e-10) + 1e-12
    return _bandwidth(bandwidths[np.argmax(scores <= cutoff)])


def auto_bandwidth(z, delta) -> float | tuple[float, ...]:
    """Cross-validated bandwidth over a scale-aware default grid.

    Column c's bandwidth is g * sd(z_c) * n^(-1/5), the usual smoothing
    order for a univariate kernel regression, for g from 0.3 to 3; the
    winning g is chosen by cv_bandwidth's leave-one-out criterion.  One
    column gives a float, more give one bandwidth per column.
    """
    zm = _as_matrix(z)
    n = zm.shape[0]
    spread = np.array([max(float(np.std(col)), 1e-8) for col in zm.T])
    grid = spread * n ** (-0.2) * np.geomspace(0.3, 3.0, 8)[:, None]
    return cv_bandwidth(zm, delta, grid)


def fit_propensity(
    method: str,
    z,
    delta,
    floor: float = DEFAULT_FLOOR,
    bandwidth=None,
) -> PropensityFit:
    """Fit the propensity named by ``method``: "logistic", "kernel" (at
    ``bandwidth``, one for every column of z or one per column, or at
    ``auto_bandwidth`` when it is None) or "constant"."""
    if method == "logistic":
        return fit_logistic(z, delta, floor=floor)
    if method == "kernel":
        if bandwidth is None:
            bandwidth = auto_bandwidth(z, delta)
        return kernel_propensity(z, delta, bandwidth, floor=floor)
    if method == "constant":
        return constant_propensity(delta, floor=floor)
    raise ValueError(f"unknown propensity method: {method!r}")
