"""The observed-data container shared by every estimator.

A dataset holds n rows of (y, x, delta) where delta flags the rows whose
response and full covariate vector were recorded.  A designated subset of
covariate columns, z, is always observed; missingness is modeled through z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ObservedDataset"]


@dataclass(frozen=True)
class ObservedDataset:
    """Response, covariates, always-observed block, and missingness flags.

    y : (n,) response; entries are meaningful only where delta = 1 and may
        be NaN elsewhere.
    x : (n, d) covariates; the columns named by ``z_index`` must be complete
        in every row, the remaining columns may be NaN where delta = 0.
    z_index : column indices of x forming the always-observed block z.
    delta : (n,) of {0, 1}; 1 marks a complete row.
    """

    y: np.ndarray
    x: np.ndarray
    z_index: tuple[int, ...]
    delta: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        delta = np.asarray(self.delta)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ValueError("x must be a matrix")
        n, d = x.shape
        if y.shape != (n,):
            raise ValueError("y and x must have the same number of rows")
        if delta.shape != (n,):
            raise ValueError("delta and x must have the same number of rows")
        if not np.all((delta == 0) | (delta == 1)):
            raise ValueError("delta must contain only 0 and 1")
        delta = delta.astype(np.int8)
        if int(delta.sum()) < 1:
            raise ValueError("need at least one complete row")

        z_index = self.z_index
        if isinstance(z_index, (int, np.integer)):
            z_index = (int(z_index),)
        z_index = tuple(int(j) for j in z_index)
        if len(z_index) == 0:
            raise ValueError("z_index must name at least one column")
        if len(set(z_index)) != len(z_index):
            raise ValueError("z_index must not repeat columns")
        if any(j < 0 or j >= d for j in z_index):
            raise ValueError("z_index out of range")

        if not np.all(np.isfinite(x[:, z_index])):
            raise ValueError("z must be fully observed")
        obs = delta == 1
        if not np.all(np.isfinite(y[obs])):
            raise ValueError("complete rows must have observed y")
        if not np.all(np.isfinite(x[obs])):
            raise ValueError("complete rows must have observed covariates")

        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z_index", z_index)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_obs(self) -> int:
        return int(self.delta.sum())

    @property
    def z(self) -> np.ndarray:
        """The always-observed covariate block, shape (n, k)."""
        return self.x[:, self.z_index]
