"""Robust parametric regression on complete cases.

Simplified MM estimation: an S-step searches elemental subsets for a
candidate with the smallest residual S-scale and polishes it to the
minimum of that scale, then an M-step minimizes a wider bisquare objective
at the fixed scale.  The search screens the candidates at the best scale
found so far and solves only those whose scale could be smaller; all
S-scales come from the package's one S-scale solver, ``residual_scales``.
Both descents take Newton steps where the Hessian is positive definite and
IRWLS (Gauss-Newton) steps elsewhere, with step halving, and stop on their
own; both take observation weights.  The S-polish is also the package's
S-estimate of a weighted sample (``scaleloc.s_scale`` runs it on the
intercept-only model).  A model is plain data: its terms, linear in every
coefficient but one exponent, give its mean, its derivatives and its
elemental candidates.  ``MODELS`` holds the package's three
(exponential-plus-linear with and without intercept, and linear); a fit
may downweight outlying covariates on its M-step by continuous hard
rejection (``hard_rejection_weights``).  Fits run as a
stack (``fit_mm_stack``; ``fit_mm`` is the stack of one): each step is an
array pass over the fits still running, with every sum over one fit's rows
alone, so a fit is the same bit for bit in any stack.  A refit
(``refit_mm_stack``) skips the search and starts at a fit's S-step point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .dataset import ObservedDataset
from .scores import (LOCATION_BISQUARE, NORMAL_MAD, SCALE_B_TARGET,
                     SCALE_BISQUARE)

__all__ = [
    "MODELS",
    "RegressionModel",
    "RegressionFit",
    "fit_mm",
    "fit_mm_stack",
    "refit_mm_stack",
    "predict",
    "hard_rejection_weights",
    "residual_scales",
]

_N_SUBSETS = 500
_POLISH_ITER = 100
_POLISH_SCALE_TOL = 1e-12
_POLISH_STEP_TOL = 1e-10
_SCALE_ITER = 100
_SCALE_TOL = 1e-10
_M_ITER = 200
_MAX_HALVINGS = 30
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
    vectors, giving (C, m), and ``beta`` may give each row its own, as a
    (dim_beta, m) array; curvature then sums by fit, from ``starts``, each
    fit's first row.  A model is plain data, so it, and a fit that carries
    it, pickles by value.
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

    @property
    def min_complete_cases(self) -> int:  # five per coefficient
        return 5 * self.dim_beta

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

    def curvature(self, x, beta, w, starts=None):
        p = self.dim_beta
        h = np.zeros((p, p) if starts is None else (len(starts), p, p))
        if "rate" in self.terms:
            r, k = self.terms.index("rate"), self.terms.index("exp")
            x1 = x[:, 0]
            wxe = w * x1 * self._exp(x1, beta)
            if starts is None:
                h[r, r] = beta[k] * (wxe @ x1)
                h[r, k] = h[k, r] = wxe.sum()
            else:
                sums = np.add.reduceat([wxe * x1, wxe], starts, axis=1)
                h[:, r, r] = beta[k][starts] * sums[0]
                h[:, r, k] = h[:, k, r] = sums[1]
        return h


MODELS = {model.id: model for model in (
    RegressionModel("exp_linear", ("rate", "x2", "exp")),
    RegressionModel("exp_linear_intercept", ("exp", "rate", "1", "x2")),
    RegressionModel("linear", ("x1", "x2", "1")),
)}


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Result of a simplified MM fit, with the model it fitted; fits
    compare by identity.

    ``weights_used`` holds the complete cases' hard-rejection weights, or
    None when the fit weighs every case alike.  ``s_step_beta`` keeps the
    polished S-step candidate the M-step started from, so the descent
    property of the second stage can be audited.  ``candidates_solved``
    (elemental candidates whose scale was solved after the screen; 0 for a
    refit), ``polish_steps`` (accepted descent steps on the S-scale),
    ``polish_converged`` (False only when the polish hit its step cap) and
    ``m_iterations`` (M-step iterations) record the work the fit did.
    ``converged`` is the M-step's.
    """

    model: RegressionModel
    beta: np.ndarray
    residual_scale: float
    weights_used: np.ndarray | None
    complete_case_count: int
    converged: bool
    s_step_beta: np.ndarray | None = None
    candidates_solved: int | None = None
    polish_steps: int | None = None
    polish_converged: bool | None = None
    m_iterations: int | None = None


def hard_rejection_weights(x: np.ndarray) -> np.ndarray:
    """Continuous hard-rejection downweighting of the first covariate.

    With t = (x1 - median)/MAD over the rows given, where the MAD carries
    the usual normal-consistency factor 1/NORMAL_MAD: weight 1 for |t| <= 2,
    (1 - (|t| - 2)^2)^2 for 2 < |t| < 3, and 0 for |t| >= 3.  When the MAD
    is zero no row can be called outlying and all weights are 1.
    """
    x1 = np.asarray(x, dtype=float)
    if x1.ndim == 2:
        x1 = x1[:, 0]
    med = float(_median(x1))
    mad = float(_median(np.abs(x1 - med))) / NORMAL_MAD
    if mad == 0.0:
        return np.ones(x1.shape[0])
    t = np.abs(x1 - med) / mad
    mid = (1.0 - (np.minimum(t, 3.0) - 2.0) ** 2) ** 2
    return np.where(t <= 2.0, 1.0, np.where(t < 3.0, mid, 0.0))


def predict(fit: RegressionFit, x) -> np.ndarray:
    """Evaluate the fitted mean at each row of an (m, 2) covariate
    matrix."""
    if not fit.converged:
        raise ValueError("regression fit did not converge")
    mat = np.asarray(x, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != 2:
        raise ValueError(_DIM_MISMATCH)
    return fit.model.mean(mat, np.asarray(fit.beta, dtype=float))


def _median(a, axis=-1, overwrite=False):
    """np.median of finite values, by partition (np.median imports
    numpy.ma): the middle value, or the two middle ones' (lo + hi) / 2;
    with ``overwrite``, ``a`` is partitioned in place."""
    k = a.shape[axis] // 2
    part = a if overwrite else a.copy(order="K")  # as np.partition copies
    part.partition(k if a.shape[axis] % 2 else (k - 1, k), axis=axis)
    if a.shape[axis] % 2:
        return part.take(k, axis=axis)
    return (part.take(k - 1, axis=axis) + part.take(k, axis=axis)) / 2.0


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


def _descent_step(hess, grad, gram, rhs):
    """Both descents' step, fit by fit (LAPACK takes each matrix alone):
    Newton, -hess^-1 grad, where ``hess`` is positive definite and the step
    finite, else IRWLS, pinv(gram) rhs with gram = J' W J, rhs = J' W r."""
    eye = np.eye(grad.shape[1])
    newton = np.isfinite(hess).all(axis=(1, 2))
    hess = np.where(newton[:, None, None], hess, eye)
    newton &= np.linalg.eigvalsh(hess)[:, 0] > 0.0
    step = np.linalg.solve(np.where(newton[:, None, None], hess, eye),
                           -grad[:, :, None])[:, :, 0]
    irwls = ~(newton & np.isfinite(step).all(axis=1))
    if irwls.any():
        g = gram[irwls]
        g = np.where(np.isfinite(g).all(axis=(1, 2))[:, None, None], g, 0.0)
        step[irwls] = np.nan_to_num(
            (np.linalg.pinv(g) @ rhs[irwls][:, :, None])[:, :, 0],
            nan=0.0, posinf=0.0, neginf=0.0)
    return step


def _screened_scales(resids):
    """Candidate S-scales of the (candidates x m) residuals of each set
    that ``resids`` gives, solved only where they can be the set's least.

    mean rho0(r/s) is non-increasing in s, so a row can have a scale below
    s* only if mean rho0(r/s*) < b.  In each set the row with the smallest
    median |r| is solved first for s*; one rho0 pass then screens every row
    at s* (with a relative slack, so that exact ties survive), and all the
    sets' survivors are kept and solved in one call.  The others score inf,
    which keeps the argmin and its first-index tie rule; so do non-finite
    rows, while rows with median |r| = 0 score 0 and end the set's search.
    Returns each set's scores and number of rows solved."""
    scores, solved, rows, blocks = [], [], [], []
    for resid in resids:
        finite = np.all(np.isfinite(resid), axis=1)
        med = _median(np.abs(resid), axis=1, overwrite=True)
        med[~finite] = np.inf
        score = np.where(med <= 0.0, 0.0, np.inf)
        pivot = int(np.argmin(med))
        survive = np.zeros(med.size, dtype=bool)
        if score[pivot] != 0.0 and np.isfinite(med[pivot]):
            one = slice(pivot, pivot + 1)
            s = score[pivot] = residual_scales(resid[one], med[one])[0]
            with np.errstate(all="ignore"):
                m_avg = np.mean(SCALE_BISQUARE.rho(resid / s), axis=1)
            survive = finite & (
                m_avg <= SCALE_B_TARGET * (1.0 + _SCREEN_SLACK))
            survive[pivot] = False
        scores.append(score)
        rows.append(np.flatnonzero(survive))
        solved.append(rows[-1].size + bool(0.0 < score[pivot] < np.inf))
        blocks.append((resid[rows[-1]], med[rows[-1]]))
        del resid  # before the next set's matrix is made
    if rows:
        scales = residual_scales(
            np.concatenate([b.ravel() for b, _ in blocks]),
            np.concatenate([start for _, start in blocks]),
            counts=np.concatenate([np.full(*b.shape) for b, _ in blocks]))
        for score, r, part in zip(scores, rows, np.split(
                scales, np.cumsum([r.size for r in rows])[:-1])):
            score[r] = part
    return list(zip(scores, solved))


def _subsets(m, q, rng):
    """``_N_SUBSETS`` random q-row subsets of m rows, one per result row:
    the q least of m uniforms, in their order (``argsort(...)[:, :q]``)."""
    u = rng.random((_N_SUBSETS, m))
    least = np.argpartition(u, q - 1, axis=1)[:, :q]
    order = np.argsort(np.take_along_axis(u, least, axis=1), axis=1)
    return np.take_along_axis(least, order, axis=1)


def _elemental_candidates(model, yc, xc, rng):
    """Coefficients fitted to each of ``_N_SUBSETS`` random subsets of
    dim_beta + 1 complete cases: at each point of the rate grid,
    ``_RATE_GRID`` over the span of x1 (1.0 when x1 is constant), the
    linear coefficients solve the subset's ridged normal equations, and a
    subset keeps the point of least squared error."""

    def dot(a, b):
        return np.einsum("qcg,qcg->cg", a, b)

    rows = _subsets(yc.size, model.dim_beta + 1, rng).T
    ys, x1, x2 = (a[rows][:, :, None] for a in (yc, xc[:, 0], xc[:, 1]))
    grid = (_RATE_GRID / (float(np.ptp(xc[:, 0])) or 1.0)
            if "rate" in model.terms else np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e = grid * x1  # (row, subset, grid point)
        np.exp(e, out=e)
        cols = [_column(t, x1, x2, e) for t in model.terms if t != "rate"]
        gram = [[None] * i + [dot(a, b) for b in cols[i:]]
                for i, a in enumerate(cols)]
        coef = _ridge_solve(gram, [dot(a, ys) for a in cols])
        # The fit, accumulated in place term by term, then the residual.
        resid = coef[0] * cols[0]
        for c, a in zip(coef[1:], cols[1:]):
            resid += c * a
        np.subtract(ys, resid, out=resid)
        sse = dot(resid, resid)
    gi = np.argmin(np.where(np.isfinite(sse), sse, np.inf), axis=1)
    subsets = np.arange(ys.shape[1])
    linear = iter(coef)
    return np.column_stack([
        grid[gi] if t == "rate" else next(linear)[subsets, gi]
        for t in model.terms
    ])


def _s_search(model, cases, seeds):
    """Each (index k, responses, covariates, ...) case's best elemental
    candidate, from subsets of its own drawn from ``seeds[k]``
    (``_elemental_candidates``): its coefficients, S-scale and candidate
    scales solved, or the ValueError of a case with none."""
    betas = [_elemental_candidates(model, yc, xc, np.random.default_rng(
        seeds[k])) for k, yc, xc, *_ in cases]
    with np.errstate(over="ignore", invalid="ignore"):
        screens = _screened_scales(  # candidates along a leading axis
            yc - model.mean(xc, b.T[:, :, None])
            for (_, yc, xc, *_), b in zip(cases, betas))
    best = [int(np.argmin(scores)) for scores, _ in screens]
    return [(b[k].astype(float), float(scores[k]), solved)
            if np.isfinite(scores[k])
            else ValueError("no valid elemental candidate found")
            for b, k, (scores, solved) in zip(betas, best, screens)]


@dataclass(frozen=True)
class _Stack:
    """Groups of rows of a stacked computation laid end to end, ``counts``
    rows each, summed by ``np.add.reduceat`` in an order fixed by a group's
    rows alone: fits' complete cases in a descent, or the residuals of a
    scale solve, whose ``x`` is None.  ``w`` holds each row's observation
    weight."""

    y: np.ndarray
    x: np.ndarray | None
    w: np.ndarray
    counts: np.ndarray

    @cached_property
    def starts(self):
        return np.cumsum(self.counts) - self.counts

    def sum(self, values):
        return np.add.reduceat(values, self.starts)

    def spread(self, per_fit):  # a stack of one's broadcasts as it is
        if self.counts.size == 1:
            return per_fit
        return np.repeat(per_fit, self.counts, axis=0)

    def take(self, keep):
        if keep.all():
            return self
        rows = np.repeat(keep, self.counts)
        return _Stack(self.y[rows], None if self.x is None else self.x[rows],
                      self.w[rows], self.counts[keep])

    def rows(self, beta):  # each row's fit's coefficients, (p, rows)
        return self.spread(beta).T

    def residuals(self, model, beta):
        return self.y - model.mean(self.x, self.rows(beta))

    def moments(self, model, beta, s, score):
        """Both descents' sums at each fit's ``beta`` and scale ``s``, u = r/s:
        its sums of w v v', v = (u, dm/dbeta), for w the observation weight
        times score.weight(u) and times score.psi_prime(u), and its
        sum of w weight(u) u Hess m."""
        rows = self.rows(beta)
        u = (self.y - model.mean(self.x, rows)) / self.spread(s)
        wts = self.w * score.weight(u)
        v = np.concatenate([u[None], model.gradient(self.x, rows).T])
        out = np.empty((self.counts.size, 2, len(v), len(v)))
        wv = np.empty_like(v)  # one buffer for every w v bounds memory
        for k, w in enumerate((wts, self.w * score.psi_prime(u))):
            np.multiply(w, v, out=wv)
            for j, (a, m) in enumerate(zip(self.starts, self.counts)):
                out[j, k] = wv[:, a:a + m] @ v[:, a:a + m].T
        return out, model.curvature(self.x, rows, wts * u, self.starts)


def _within(move, beta, tol):
    """Whether each fit's move is at most tol (1 + |beta|_inf)."""
    return (np.max(np.abs(move), axis=1)
            <= tol * (1.0 + np.max(np.abs(beta), axis=1)))


def _halve(model, stack, beta, step, tol, better):
    """Both descents' step halving: each fit takes the longest of its step
    halved up to 29 times that ``better(fits, r, part)`` accepts (residuals
    r of a trial of each flagged fit, on their stack), or stays, as does one
    whose full step is within tol (1 + |beta|_inf).  Returns the new points,
    their values, step lengths and which moved."""
    cand, value = beta.copy(), np.full(len(beta), np.inf)
    t, moved = np.ones(len(beta)), np.zeros(len(beta), dtype=bool)
    searching, part, trial = ~moved, stack, beta + step
    for halving in range(_MAX_HALVINGS):
        r = part.residuals(model, trial)
        ok, values = better(searching, r, part)
        fits = np.flatnonzero(searching)[ok]
        cand[fits], value[fits], moved[fits] = trial[ok], values[ok], True
        searching[fits] = False
        if halving == 0 and searching.any():
            searching &= ~_within(step, trial, tol)
        if not searching.any():
            break
        t[searching] *= 0.5
        part = stack.take(searching)
        trial = beta[searching] + t[searching, None] * step[searching]
    return cand, value, t, moved


def residual_scales(resid, start, counts=None, weights=None):
    """S-scale about zero of each row of ``counts`` residuals laid end to end
    in a 1-D ``resid`` (a 2-D ``resid`` is one row per line).

    Solves avg rho0(r/s) = b (bisquare c0 = 1.54764, b = 0.5) for each row
    from ``start`` by safeguarded Newton steps in s,
    s <- s (1 + (avg rho0(u) - b) / avg psi0(u) u).  The average is the
    row's ``weights``-weighted mean (one weight per residual; unit weights
    when none are given, which is the plain mean bit for bit), summed on a
    ``_Stack`` of the rows.  The fixed-point step s <- s sqrt(avg rho0(u) / b)
    never overshoots the root, so a Newton step is taken only when it lies
    inside the bracket seen so far and goes at least as far as the
    fixed-point step.  Each row stops, and leaves the stack, once its step
    is below 1e-10 relative, so a row's value does not depend on the other
    rows, bit for bit.  A row scores 0.0 when its start is zero or its
    residuals all vanish, and inf when it holds a non-finite value.
    """
    if counts is None:
        resid = np.atleast_2d(resid)
        counts = np.full(resid.shape[0], resid.shape[1])
        resid = resid.ravel()
    if weights is None:
        weights = np.broadcast_to(1.0, resid.shape)
    stack = _Stack(resid, None, weights, counts)
    start = np.asarray(start, dtype=float)
    out = np.full(counts.size, np.inf)
    finite = np.logical_and.reduceat(np.isfinite(resid), stack.starts)
    out[finite & (start <= 0.0)] = 0.0
    keep = finite & (start > 0.0)
    active, s, stack = np.flatnonzero(keep), start[keep], stack.take(keep)
    lo = np.zeros_like(s)
    hi = np.full_like(s, np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_SCALE_ITER):
            if active.size == 0:
                break
            u = stack.y / stack.spread(s)
            total = stack.sum(stack.w)
            m_avg = stack.sum(stack.w * SCALE_BISQUARE.rho(u)) / total
            slope = stack.sum(stack.w * (SCALE_BISQUARE.psi(u) * u)) / total
            below = m_avg > SCALE_B_TARGET  # s lies below the root
            lo = np.where(below, s, lo)
            hi = np.where(below, hi, s)
            fixed = s * np.sqrt(np.maximum(m_avg, 0.0) / SCALE_B_TARGET)
            newton = s * (1.0 + (m_avg - SCALE_B_TARGET) / slope)
            usable = (slope > 0.0) & (newton > lo) & (newton < hi) & (
                (newton > fixed) == below
            )
            s_new = np.where(usable, newton, fixed)
            vanished = m_avg <= 0.0
            s_new[vanished] = 0.0
            done = vanished | (np.abs(s_new - s) <= _SCALE_TOL * s_new)
            if done.any():
                out[active[done]] = s_new[done]
                keep = ~done
                active, stack = active[keep], stack.take(keep)
                s_new, lo, hi = s_new[keep], lo[keep], hi[keep]
            s = s_new
    out[active] = s
    out[~np.isfinite(out)] = np.inf
    return out


def _polish(model, stack, beta, s, floor):
    """Descent on each fit's S-scale s(beta) to its minimum.

    s(beta) solves the w-weighted mean rho0(r/s) = b, w the stack's
    observation weights.  With u = r/s, J = dm/dbeta, A = sum w psi0(u) u
    and B = sum w psi0(u) J, differentiating that identity gives
    grad s = -B/A and, with D_i = (-J_i - u_i grad s)/s,
    Hess s = -[sum w psi0'(u) J D' + sum w psi0(u) Hess m]/A
             + B [sum w (psi0'(u) u + psi0(u)) D]'/A^2, symmetrized.  A trial
    must pass weighted mean rho0(r_new/s) < b, one rho0 pass, before its
    scale is solved.  A fit stops, and leaves the stack, when no step is accepted,
    when a step lowers the scale by at most 1e-12 relative or moves beta by
    at most 1e-10 (1 + |beta|_inf), or at its ``floor``.  Returns the
    coefficients, scales, accepted steps and whether each fit stopped
    before the cap of 100 steps.
    """

    def lower_scale(fits, r, part):
        start = sc[fits]
        ok = np.logical_and.reduceat(np.isfinite(r), part.starts)
        ok &= part.sum(part.w * SCALE_BISQUARE.rho(r / part.spread(start))) / (
            part.sum(part.w)) < SCALE_B_TARGET
        solved = np.full(ok.size, np.inf)
        if ok.any():
            rows = slice(None) if ok.all() else np.repeat(ok, part.counts)
            solved[ok] = residual_scales(r[rows], start[ok],
                                         part.counts[ok], part.w[rows])
        return solved < start, solved

    beta, s, steps = beta.copy(), s.copy(), np.zeros(s.size, dtype=int)
    live, stack = np.flatnonzero(s > floor), stack.take(s > floor)
    for _ in range(_POLISH_ITER):
        if live.size == 0:
            break
        b, sc = beta[live], s[live]
        mom, curv = stack.moments(model, b, sc, SCALE_BISQUARE)
        a, bv, du = mom[:, 0, 0, 0, None], mom[:, 0, 0, 1:], mom[:, 1, 0, 1:]
        grad = -bv / a
        cd = -(du + bv + (mom[:, 1, 0, 0, None] + a) * grad)
        hess = ((bv[:, :, None] * cd[:, None, :] / a[:, :, None]
                 + mom[:, 1, 1:, 1:] + du[:, :, None] * grad[:, None, :])
                / sc[:, None, None] - curv) / a[:, :, None]
        step = _descent_step(0.5 * (hess + hess.transpose(0, 2, 1)), grad,
                             mom[:, 0, 1:, 1:], sc[:, None] * bv)
        cand, s_new, t, moved = _halve(model, stack, b, step,
                                       _POLISH_STEP_TOL, lower_scale)
        s_new = np.where(moved, s_new, sc)
        small = (sc - s_new <= _POLISH_SCALE_TOL * sc) | _within(
            t[:, None] * step, cand, _POLISH_STEP_TOL)
        beta[live], s[live] = cand, s_new
        steps[live] += moved
        go_on = moved & ~small & (s_new > floor[live])
        if not go_on.all():
            live, stack = live[go_on], stack.take(go_on)
    return beta, s, steps, ~np.isin(np.arange(s.size), live)


def _m_step(model, stack, beta, s):
    """Bisquare M-step at each fit's fixed scale ``s``: minimizes
    sum w rho(r/s), whose gradient is -sum w psi(u) J/s and Hessian
    sum w psi'(u) J J'/s^2 - sum w psi(u) Hess m/s.  A fit stops, and leaves
    the stack, when no step lowers its objective or a step moves beta by at
    most 1e-8 (1 + |beta|_inf).  Returns the coefficients, whether each fit
    converged and its number of iterations."""

    def objective(part, r, s):
        v = part.sum(part.w * LOCATION_BISQUARE.rho(r / part.spread(s)))
        return np.where(np.isfinite(v), v, np.inf)

    def lower_objective(fits, r, part):
        v = objective(part, r, sc[fits])
        return v < f[live][fits], v

    beta = beta.copy()
    f = objective(stack, stack.residuals(model, beta), s)
    converged, iterations = np.zeros(s.size, bool), np.full(s.size, _M_ITER)
    live = np.arange(s.size)
    for it in range(1, _M_ITER + 1):
        if live.size == 0:
            break
        b, sc = beta[live], s[live]
        mom, curv = stack.moments(model, b, sc, LOCATION_BISQUARE)
        hess = (mom[:, 1, 1:, 1:] / sc[:, None, None]
                - curv) / sc[:, None, None]
        wpsi_j = mom[:, 0, 0, 1:]
        step = _descent_step(hess, -wpsi_j / sc[:, None], mom[:, 0, 1:, 1:],
                             sc[:, None] * wpsi_j)
        cand, fc, _, moved = _halve(model, stack, b, step, _M_TOL,
                                    lower_objective)
        beta[live], f[live[moved]] = cand, fc[moved]
        done = ~moved | _within(cand - b, cand, _M_TOL)
        if done.any():
            converged[live[done]] = True
            iterations[live[done]] = it
            live, stack = live[~done], stack.take(~done)
    return beta, converged, iterations


def _complete_cases(model, data, hard_rejection):
    """A dataset's complete responses, covariates and covariate weights."""
    if data.x.shape[1] != 2:
        raise ValueError(_DIM_MISMATCH)
    obs = data.delta == 1
    yc, xc = data.y[obs], data.x[obs]
    if yc.size < model.min_complete_cases:
        raise ValueError("insufficient complete cases")
    return yc, xc, (hard_rejection_weights(xc) if hard_rejection
                    else np.ones(yc.size))


def _fit_stack(model, datasets, hard_rejection, start):
    """MM fits of datasets' complete cases as one stack: ``start(cases)``
    gives each (index, responses, covariates, covariate weights) case its
    S-polish's start (coefficients, S-scale, candidates solved) or a
    ValueError, and the M-step follows at the polished scale.  Returns each
    dataset's RegressionFit or the ValueError it raised."""
    out: list = [None] * len(datasets)
    cases = []
    for k, data in enumerate(datasets):
        try:
            cases.append((k, *_complete_cases(model, data, hard_rejection)))
        except ValueError as exc:
            out[k] = exc
    starts = start(cases) if cases else []
    for c, best in zip(cases, starts):
        if isinstance(best, ValueError):
            out[c[0]] = best
    cases = [c + best for c, best in zip(cases, starts)
             if not isinstance(best, ValueError)]
    if not cases:
        return out
    keys, yc, xc, w, beta, s, solved = zip(*cases)
    counts = np.array([y.size for y in yc])
    # The S-step weighs every case alike; the covariate weights act on the
    # M-step alone.
    stack = _Stack(np.concatenate(yc), np.concatenate(xc),
                   np.ones(counts.sum()), counts)
    floor = _DEGENERATE_REL * np.maximum([np.ptp(y) for y in yc], 1e-300)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s_beta, s, steps, polished = _polish(model, stack, np.array(beta),
                                             np.array(s), floor)
        spread = s > floor
        stack = replace(stack, w=np.concatenate(w)).take(spread)
        m_fits = zip(*_m_step(model, stack, s_beta[spread], s[spread]))
    for j, k in enumerate(keys):
        if not spread[j]:
            out[k] = ValueError("degenerate scale: residuals have no spread")
            continue
        beta_m, converged, iterations = next(m_fits)
        out[k] = RegressionFit(
            model=model, beta=beta_m, residual_scale=float(s[j]),
            weights_used=w[j] if hard_rejection else None,
            complete_case_count=yc[j].size, converged=bool(converged),
            s_step_beta=s_beta[j], candidates_solved=solved[j],
            polish_steps=int(steps[j]), polish_converged=bool(polished[j]),
            m_iterations=int(iterations))
    return out


def fit_mm_stack(
    model: RegressionModel,
    datasets: Sequence[ObservedDataset],
    seeds: Sequence[int],
    hard_rejection: bool = False,
) -> list[RegressionFit | ValueError]:
    """Simplified MM fits of datasets' complete cases as one stack: each
    dataset's fit (carrying ``model``; bit for bit the one it gets alone)
    or the ValueError it raised.

    Each covariate matrix must have two columns.  Stage 1 searches 500
    random elemental subsets (size dim_beta + 1, drawn from ``seeds[k]``)
    for the candidate whose residual S-scale (bisquare c0 = 1.54764,
    b = 0.5) is least, solving a scale only if a screen at the best found
    so far shows it could be less (Fast-S, Salibian-Barrera & Yohai 2006);
    ties go to the first.  Scales are solved by safeguarded Newton steps to
    1e-10 relative.  The best candidate is polished to the minimum of the
    scale by Newton steps (IRWLS where the Hessian is not positive
    definite) within 100 steps (``polish_converged``).  Stage 2 minimizes
    the bisquare (c = 4.685) objective at that scale by the same steps, to
    tolerance 1e-8 (``converged``).  With ``hard_rejection`` the M-step
    objective weighs each complete case by ``hard_rejection_weights`` of
    the dataset's complete-case covariates.  Each dataset draws its own
    subsets (``refit_mm_stack`` draws none).
    """
    return _fit_stack(model, datasets, hard_rejection,
                      lambda cases: _s_search(model, cases, seeds))


def refit_mm_stack(
    fit: RegressionFit,
    datasets: Sequence[ObservedDataset],
) -> list[RegressionFit | ValueError]:
    """``fit_mm_stack``'s fits of ``fit.model`` with no search, as one stack,
    hard-rejection weighted when ``fit`` is: each dataset's S-polish starts
    at ``fit.s_step_beta``, at its residuals' S-scale there (solved from
    ``fit.residual_scale``), and the M-step follows; ``candidates_solved``
    is 0.  So a replicate is the same estimator restarted from the full
    sample's solution, as in the fast robust bootstrap (Salibian-Barrera &
    Zamar 2002).  A dataset whose start has no finite scale or no spread
    raises; nothing falls back to a search."""
    def warm(cases):
        with np.errstate(over="ignore", invalid="ignore"):
            resid = [yc - fit.model.mean(xc, fit.s_step_beta)
                     for _, yc, xc, _ in cases]
        scales = residual_scales(np.concatenate(resid),
                                 np.full(len(cases), fit.residual_scale),
                                 np.array([r.size for r in resid]))
        return [(fit.s_step_beta, s, 0) if np.isfinite(s) else ValueError(
            "infinite scale: residuals at the start are not finite")
            for s in scales]

    return _fit_stack(fit.model, datasets, fit.weights_used is not None,
                      warm)


def fit_mm(
    model: RegressionModel,
    data: ObservedDataset,
    hard_rejection: bool = False,
    seed: int = 0,
) -> RegressionFit:
    """Simplified MM regression fit on the complete cases: the stack of one
    (``fit_mm_stack``), raising the ValueError that the dataset raises."""
    fit = fit_mm_stack(model, [data], [seed], hard_rejection)[0]
    if isinstance(fit, ValueError):
        raise fit
    return fit
