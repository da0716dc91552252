"""Robust parametric regression on complete cases.

Simplified MM estimation: an S-step searches elemental subsets for a
candidate with the smallest residual S-scale and polishes it to the
minimum of that scale, then an M-step minimizes a wider bisquare objective
at the fixed scale.  The search screens the candidates at the best scale
found so far and solves only those whose scale could be smaller; all
S-scales come from the package's one S-scale solver,
``scaleloc.residual_scales``.  Both descents take Newton steps where the
Hessian is positive definite and IRWLS (Gauss-Newton) steps elsewhere,
with step halving, and stop on their own.  A model is plain data: its
terms, linear in every coefficient but one exponent, give its mean, its
derivatives and its elemental candidates.  ``MODELS`` holds the package's
three (exponential-plus-linear with and without intercept, and linear);
an optional covariate downweighting hook acts on the M-step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import ObservedDataset
from .scaleloc import residual_scales
from .scores import SCALE_B_TARGET, location_bisquare, scale_bisquare

__all__ = [
    "MODELS",
    "RegressionModel",
    "RegressionFit",
    "exp_linear_model",
    "linear_model",
    "fit_mm",
    "predict",
    "hard_rejection_weights",
]

_RHO0 = scale_bisquare()
_RHO_M = location_bisquare()

_N_SUBSETS = 500
_POLISH_ITER = 100
_POLISH_SCALE_TOL = 1e-12
_POLISH_STEP_TOL = 1e-10
_M_ITER = 200
_MAX_HALVINGS = 30
_RIDGE = 1e-8
_M_TOL = 1e-8
# Best candidate scale below this fraction of the response spread means the
# model interpolates the data: no residual spread to standardize by.
_DEGENERATE_REL = 1e-12
# Relative slack of the candidate screen's test mean rho0 <= b, so that a
# candidate tied with the screening scale up to rounding is still solved.
_SCREEN_SLACK = 1e-8
_TERMS = ("x1", "x2", "1", "exp", "rate")
# Exponents profiled by the candidate search, in units of 1/ptp(x1).
_RATE_GRID = np.linspace(-8.0, 8.0, 25)
_DIM_MISMATCH = "dimension mismatch: expected 2 covariate columns"


def _column(term, x1, x2, e):
    """The column that a linear term's coefficient multiplies."""
    if term == "x1":
        return x1
    if term == "x2":
        return x2
    if term == "exp":
        return e
    return np.ones_like(x1)


@dataclass(frozen=True)
class RegressionModel:
    """A mean structure linear in all its coefficients but one exponent.

    ``terms`` names the coefficients in beta order: ``"x1"``, ``"x2"`` and
    ``"1"`` multiply the first covariate, the second covariate and a
    constant, ``"exp"`` multiplies exp(rate*x1), and ``"rate"`` is that
    exponent, the one nonlinear coefficient (a model has a ``"rate"``
    exactly when it has an ``"exp"``).  The mean is the sum, left to right,
    of each linear coefficient times its column.

    mean(x, beta) and gradient(x, beta) take an (m, 2) covariate matrix and
    return (m,) and (m, dim_beta) arrays; curvature(x, beta, w) returns the
    (dim_beta, dim_beta) matrix sum_i w_i Hessian_beta m(x_i, beta).
    ``mean`` also broadcasts over a (dim_beta, C, 1) stack of C coefficient
    vectors, giving (C, m).  A model is plain data, so it, and a fit that
    carries it, pickles by value.
    """

    id: str
    terms: tuple[str, ...]

    def __post_init__(self):
        terms = self.terms
        if (not set(terms) <= set(_TERMS) or len(set(terms)) != len(terms)
                or ("rate" in terms) != ("exp" in terms)):
            raise ValueError(f"invalid model terms {terms!r}")

    @property
    def dim_beta(self) -> int:
        return len(self.terms)

    def _exp(self, x1, beta):
        """exp(rate*x1), or None for a model without a rate."""
        if "rate" not in self.terms:
            return None
        return np.exp(beta[self.terms.index("rate")] * x1)

    def mean(self, x, beta):
        x1 = x[:, 0]
        e = self._exp(x1, beta)
        out = None
        for term, b in zip(self.terms, beta):
            if term != "rate":
                v = b * _column(term, x1, x[:, 1], e)
                out = v if out is None else out + v
        return out

    def gradient(self, x, beta):
        x1 = x[:, 0]
        e = self._exp(x1, beta)
        return np.stack([
            beta[self.terms.index("exp")] * x1 * e if term == "rate"
            else _column(term, x1, x[:, 1], e)
            for term in self.terms
        ], axis=1)

    def curvature(self, x, beta, w):
        p = self.dim_beta
        h = np.zeros((p, p))
        if "rate" in self.terms:
            r, k = self.terms.index("rate"), self.terms.index("exp")
            x1 = x[:, 0]
            wxe = w * x1 * self._exp(x1, beta)
            h[r, r] = beta[k] * (wxe @ x1)
            h[r, k] = h[k, r] = wxe.sum()
        return h


MODELS = {model.id: model for model in (
    RegressionModel("exp_linear", ("rate", "x2", "exp")),
    RegressionModel("exp_linear_intercept", ("exp", "rate", "1", "x2")),
    RegressionModel("linear", ("x1", "x2", "1")),
)}


@dataclass(frozen=True)
class RegressionFit:
    """Result of a simplified MM fit, with the model it fitted.

    ``s_step_beta`` keeps the polished S-step candidate the M-step started
    from, so the descent property of the second stage can be audited.
    ``candidates_solved`` (elemental candidates whose scale was solved after
    the screen), ``polish_steps`` (accepted descent steps on the S-scale),
    ``polish_converged`` (False only when the polish hit its step cap) and
    ``m_iterations`` (M-step iterations) record the work the fit did; like
    ``s_step_beta`` and ``model`` they take no part in equality.
    ``converged`` is the M-step's.
    """

    model: RegressionModel = field(compare=False)
    beta: np.ndarray
    residual_scale: float
    weights_used: np.ndarray | None
    complete_case_count: int
    converged: bool
    s_step_beta: np.ndarray | None = field(default=None, compare=False)
    candidates_solved: int | None = field(default=None, compare=False)
    polish_steps: int | None = field(default=None, compare=False)
    polish_converged: bool | None = field(default=None, compare=False)
    m_iterations: int | None = field(default=None, compare=False)


def exp_linear_model(intercept: bool = False) -> RegressionModel:
    """Exponential-plus-linear mean.

    Without intercept (3 parameters):  m(x, b) = b2*x2 + b3*exp(b1*x1).
    With intercept (4 parameters):     m(x, b) = b1*exp(b2*x1) + b3 + b4*x2.
    """
    return MODELS["exp_linear_intercept" if intercept else "exp_linear"]


def linear_model() -> RegressionModel:
    """Linear mean m(x, b) = b1*x1 + b2*x2 + b3."""
    return MODELS["linear"]


def hard_rejection_weights(x: np.ndarray) -> np.ndarray:
    """Continuous hard-rejection downweighting of the first covariate.

    With t = (x1 - median)/MAD over the rows given, where the MAD carries
    the usual normal-consistency factor 1/0.6745: weight 1 for |t| <= 2,
    (1 - (|t| - 2)^2)^2 for 2 < |t| < 3, and 0 for |t| >= 3.  When the MAD
    is zero no row can be called outlying and all weights are 1.
    """
    x1 = np.asarray(x, dtype=float)
    if x1.ndim == 2:
        x1 = x1[:, 0]
    med = float(np.median(x1))
    mad = float(np.median(np.abs(x1 - med))) / 0.6745
    if mad == 0.0:
        return np.ones(x1.shape[0])
    t = np.abs(x1 - med) / mad
    mid = (1.0 - (t - 2.0) ** 2) ** 2
    return np.where(t <= 2.0, 1.0, np.where(t < 3.0, mid, 0.0))


def predict(fit: RegressionFit, x) -> float | np.ndarray:
    """Evaluate the fitted mean at one covariate vector or a matrix of them."""
    if not fit.converged:
        raise ValueError("regression fit did not converge")
    beta = np.asarray(fit.beta, dtype=float)
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    mat = arr[None, :] if single else arr
    if mat.ndim != 2 or mat.shape[1] != 2:
        raise ValueError(_DIM_MISMATCH)
    out = fit.model.mean(mat, beta)
    return float(out[0]) if single else out


def _solve_step(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
        return np.zeros_like(g)
    try:
        step = np.linalg.solve(a, g)
        if np.all(np.isfinite(step)):
            return step
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(a + _RIDGE * np.eye(g.size), g)
    except np.linalg.LinAlgError:
        return np.zeros_like(g)


def _descent_step(hess, grad, jac, wts, r):
    """The step both descents take: Newton, -hess^-1 grad, where ``hess``
    is positive definite (its Cholesky factorization succeeds), else the
    IRWLS step solving (J' W J) step = J' W r with W = diag(wts)."""
    if np.all(np.isfinite(hess)) and np.all(np.isfinite(grad)):
        try:
            np.linalg.cholesky(hess)
            step = np.linalg.solve(hess, -grad)
            if np.all(np.isfinite(step)):
                return step
        except np.linalg.LinAlgError:
            pass
    return _solve_step(jac.T @ (jac * wts[:, None]), jac.T @ (wts * r))


def _screened_scales(resid: np.ndarray) -> tuple[np.ndarray, int]:
    """Candidate S-scales, solved only where they can be the smallest.

    mean rho0(r/s) is non-increasing in s, so a row can have a scale below
    s* only if mean rho0(r/s*) < b.  The row with the smallest median |r|
    is solved first for s*; one rho0 pass then screens every row at s*
    (with a relative slack, so that exact ties survive) and only the
    survivors are solved.  The other rows score inf, which leaves the
    argmin and its first-index tie rule as with every row solved.
    Non-finite rows score inf; rows with median |r| = 0 score exactly 0,
    and then nothing else is solved.  Returns the scores and the number of
    rows solved.
    """
    scores = np.full(resid.shape[0], np.inf)
    finite = np.all(np.isfinite(resid), axis=1)
    with np.errstate(invalid="ignore"):
        med = np.median(np.abs(resid), axis=1)
    med[~finite] = np.inf
    zero = med <= 0.0
    if zero.any():
        scores[zero] = 0.0
        return scores, 0
    pivot = int(np.argmin(med))
    if not np.isfinite(med[pivot]):
        return scores, 0
    one = slice(pivot, pivot + 1)
    scores[pivot] = residual_scales(resid[one], med[one])[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m_avg = np.mean(_RHO0.rho(resid / scores[pivot]), axis=1)
    survive = finite & (m_avg <= SCALE_B_TARGET * (1.0 + _SCREEN_SLACK))
    survive[pivot] = False
    rows = np.flatnonzero(survive)
    scores[rows] = residual_scales(resid[rows], med[rows])
    return scores, rows.size + 1


def _ridge_solve(gram, rhs):
    """Solve (gram + lam I) c = rhs for a stack of small symmetric systems.

    ``gram[i][j]`` (read for j >= i only) and ``rhs[i]`` are arrays that
    broadcast to the stack's shape; lam = 1e-9 (trace/k + 1) makes each
    system positive definite, so Gaussian elimination without pivoting,
    written out over the k <= 4 unknowns, is stable.  Returns the k
    solution arrays.
    """
    k = len(rhs)
    lam = 1e-9 * (sum(gram[i][i] for i in range(k)) / k + 1.0)
    a = [[g + lam if j == i else g for j, g in enumerate(row)]
         for i, row in enumerate(gram)]
    b = list(rhs)
    for i in range(k):
        for j in range(i + 1, k):
            f = a[i][j] / a[i][i]
            a[j][j:] = [a[j][col] - f * a[i][col] for col in range(j, k)]
            b[j] = b[j] - f * b[i]
    coef = [None] * k
    for i in reversed(range(k)):
        back = sum(a[i][col] * coef[col] for col in range(i + 1, k))
        coef[i] = (b[i] - back) / a[i][i]
    return coef


def _elemental_candidates(model, yc, xc, rng):
    """Coefficients fitted to each of ``_N_SUBSETS`` random subsets of
    dim_beta + 1 complete cases.

    The rate is profiled over ``_RATE_GRID`` scaled to the observed x1
    span (a one-point grid for a model without a rate); at each grid point
    the linear coefficients solve the subset's ridged normal equations,
    and each subset keeps the grid point with the least squared error.
    """
    m = yc.size
    q = model.dim_beta + 1
    if m <= 4096:
        idx = np.argsort(rng.random((_N_SUBSETS, m)), axis=1)[:, :q]
    else:
        idx = np.empty((_N_SUBSETS, q), dtype=np.intp)
        for i in range(_N_SUBSETS):
            idx[i] = rng.choice(m, size=q, replace=False)
    rows = idx.T  # a subset's rows along axis 0, subsets along axis 1
    ys = yc[rows][:, :, None]
    x1 = xc[rows, 0][:, :, None]
    x2 = xc[rows, 1][:, :, None]
    grid = np.zeros(1)
    if "rate" in model.terms:
        span = float(np.ptp(xc[:, 0]))
        grid = _RATE_GRID / (span if span > 0.0 else 1.0)

    def dot(a, b):
        return np.einsum("qcg,qcg->cg", a, b)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e = np.exp(grid * x1)  # (row, subset, grid point)
        cols = [_column(t, x1, x2, e) for t in model.terms if t != "rate"]
        gram = [[None] * i + [dot(a, b) for b in cols[i:]]
                for i, a in enumerate(cols)]
        coef = _ridge_solve(gram, [dot(a, ys) for a in cols])
        resid = ys - sum(c * a for c, a in zip(coef, cols))
        sse = dot(resid, resid)
    gi = np.argmin(np.where(np.isfinite(sse), sse, np.inf), axis=1)
    subsets = np.arange(_N_SUBSETS)
    linear = iter(coef)
    return np.column_stack([
        grid[gi] if t == "rate" else next(linear)[subsets, gi]
        for t in model.terms
    ])


def _candidate_residuals(model, yc, xc, betas):
    """(candidates x m) residuals, from one call of ``model.mean`` with the
    candidates along a leading axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        return yc - model.mean(xc, betas.T[:, :, None])


def _s_search(model, yc, xc, rng):
    """Elemental candidate with the smallest residual S-scale.

    Returns its coefficients, its scale and the number of candidate scales
    solved.
    """
    betas = _elemental_candidates(model, yc, xc, rng)
    resid = _candidate_residuals(model, yc, xc, betas)
    scores, solved = _screened_scales(resid)
    best = int(np.argmin(scores))
    if not np.isfinite(scores[best]):
        raise ValueError("no valid elemental candidate found")
    return betas[best].astype(float), float(scores[best]), solved


def _polish(model, yc, xc, beta, s, floor):
    """Descent on the S-scale s(beta) to its minimum.

    s(beta) solves mean rho0(r/s) = b.  With u = r/s, J = dm/dbeta,
    A = sum psi0(u) u and B = sum psi0(u) J, differentiating that identity
    gives grad s = -B/A and, with D_i = (-J_i - u_i grad s)/s,
    Hess s = -[sum psi0'(u) J D' + sum psi0(u) Hess m]/A
             + B [sum (psi0'(u) u + psi0(u)) D]'/A^2, symmetrized.
    ``_descent_step`` makes each step Newton or IRWLS.  The step halves
    until the candidate's scale falls below the current one.  Since
    mean rho0(r/s) is non-increasing in s, that needs
    mean rho0(r_new/s) < b, so a trial costs one rho0 pass and only a step
    that passes it gets its scale solved.  Stops when no step is accepted,
    when an accepted step lowers the scale by at most 1e-12 relative or
    moves beta by at most 1e-10 (1 + |beta|_inf), or once the scale drops
    to ``floor``.  Returns the coefficients, the scale, the number of
    accepted steps and whether it stopped before the cap of 100 steps.
    """
    for steps in range(_POLISH_ITER):
        if s <= floor:
            return beta, s, steps, True
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = yc - model.mean(xc, beta)
            u = r / s
            wts = _RHO0.weight(u)
            jac = model.gradient(xc, beta)
            psi = wts * u
            dpsi = _RHO0.psi_prime(u)
            a = float(psi @ u)
            bv = jac.T @ psi
            grad = -bv / a
            d = (-jac - u[:, None] * grad) / s
            hess = (np.outer(bv, (dpsi * u + psi) @ d) / a
                    - jac.T @ (d * dpsi[:, None])
                    - model.curvature(xc, beta, psi)) / a
        step = _descent_step(0.5 * (hess + hess.T), grad, jac, wts, r)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = beta + t * step
            with np.errstate(over="ignore", invalid="ignore"):
                r_new = yc - model.mean(xc, cand)
            if np.all(np.isfinite(r_new)) and np.mean(
                _RHO0.rho(r_new / s)
            ) < SCALE_B_TARGET:
                s_new = float(residual_scales(r_new[None, :], np.array([s]))[0])
                if s_new < s:
                    break
            t *= 0.5
        else:
            return beta, s, steps, True
        small = (s - s_new <= _POLISH_SCALE_TOL * s
                 or t * np.max(np.abs(step))
                 <= _POLISH_STEP_TOL * (1.0 + np.max(np.abs(cand))))
        beta, s = cand, s_new
        if small:
            return beta, s, steps + 1, True
    return beta, s, _POLISH_ITER, False


def _m_step(model, yc, xc, w_cov, beta, s):
    """Bisquare M-step at the fixed scale ``s``.

    Minimizes sum w rho(r/s), whose gradient is -sum w psi(u) J/s and whose
    Hessian is sum w psi'(u) J J'/s^2 - sum w psi(u) Hess m/s, with
    ``_descent_step``'s Newton or IRWLS steps and step halving on the
    objective.  Returns the coefficients, whether it converged and the
    number of iterations."""

    def objective(b):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = yc - model.mean(xc, b)
            v = float(w_cov @ _RHO_M.rho(r / s))
        return v if np.isfinite(v) else np.inf

    beta_m = beta.copy()
    f = objective(beta_m)
    converged = False
    iterations = 0
    for iterations in range(1, _M_ITER + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = yc - model.mean(xc, beta_m)
            u = r / s
            wts = w_cov * _RHO_M.weight(u)
            jac = model.gradient(xc, beta_m)
            wpsi = wts * u
            hess = (jac.T @ (jac * (w_cov * _RHO_M.psi_prime(u))[:, None])
                    / s - model.curvature(xc, beta_m, wpsi)) / s
        step = _descent_step(hess, -(jac.T @ wpsi) / s, jac, wts, r)
        t, accepted = 1.0, False
        for _ in range(_MAX_HALVINGS):
            cand = beta_m + t * step
            fc = objective(cand)
            if fc < f:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = True
            break
        moved = float(np.max(np.abs(cand - beta_m)))
        beta_m, f = cand, fc
        if moved <= _M_TOL * (1.0 + float(np.max(np.abs(beta_m)))):
            converged = True
            break
    return beta_m, converged, iterations


def fit_mm(
    model: RegressionModel,
    data: ObservedDataset,
    covariate_weights: Callable[[np.ndarray], np.ndarray] | None = None,
    seed: int = 0,
) -> RegressionFit:
    """Simplified MM regression fit on the complete cases.

    The covariate matrix must have two columns.  Stage 1 searches 500
    random elemental subsets (size dim_beta + 1) for the candidate whose
    full-sample residual S-scale (bisquare c0 = 1.54764, b = 0.5) is
    smallest.  The search solves a
    candidate's scale only if a screen at the best scale found so far
    shows it could be smaller (Fast-S, Salibian-Barrera & Yohai 2006); the
    result is the argmin over all candidates, first index first on ties.
    Scales are solved by safeguarded Newton steps to 1e-10 relative.  The
    best candidate is then polished to the minimum of the scale by Newton
    steps (IRWLS steps where the scale's Hessian is not positive
    definite), which stop on their own within 100 steps
    (``polish_converged``).  Stage 2 minimizes the bisquare (c = 4.685)
    objective at the stage-1 scale by the same Newton or IRWLS steps with
    step halving, to tolerance 1e-8 (``converged``).  The subset draw is
    deterministic given ``seed``.  The fit carries ``model``, so
    ``predict(fit, x)`` needs nothing else.

    ``covariate_weights``, when given, receives the complete-case covariate
    matrix and must return per-row weights in [0, 1] multiplying the M-step
    objective.
    """
    if data.x.shape[1] != 2:
        raise ValueError(_DIM_MISMATCH)
    obs = data.delta == 1
    yc = data.y[obs]
    xc = data.x[obs]
    m = yc.size
    p = model.dim_beta
    if m < 5 * p:
        raise ValueError("insufficient complete cases")

    if covariate_weights is None:
        w_cov = np.ones(m)
    else:
        w_cov = np.asarray(covariate_weights(xc), dtype=float)
        if w_cov.shape != (m,):
            raise ValueError("covariate weights must give one value per row")
        if np.any(~np.isfinite(w_cov)) or np.any(w_cov < -1e-9) or np.any(
            w_cov > 1.0 + 1e-9
        ):
            raise ValueError("covariate weights must lie in [0, 1]")
        w_cov = np.clip(w_cov, 0.0, 1.0)
        if not w_cov.sum() > 0:
            raise ValueError("covariate weights are all zero")

    rng = np.random.default_rng(seed)
    beta, s, solved = _s_search(model, yc, xc, rng)
    floor = _DEGENERATE_REL * max(float(np.ptp(yc)), 1e-300)
    if s <= floor:
        raise ValueError("degenerate scale: residuals have no spread")
    beta, s, polish_steps, polish_converged = _polish(
        model, yc, xc, beta, s, floor)
    if s <= floor:
        raise ValueError("degenerate scale: residuals have no spread")
    beta_m, converged, m_iterations = _m_step(model, yc, xc, w_cov, beta, s)

    return RegressionFit(
        model=model,
        beta=beta_m,
        residual_scale=s,
        weights_used=None if covariate_weights is None else w_cov,
        complete_case_count=m,
        converged=converged,
        s_step_beta=beta,
        candidates_solved=solved,
        polish_steps=polish_steps,
        polish_converged=polish_converged,
        m_iterations=m_iterations,
    )
