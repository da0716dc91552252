"""Weighted empirical distributions and distribution distances.

Every estimator in this package produces a discrete distribution: a vector of
response-space atoms carrying nonnegative weights.  This module gives that
object a type and the operations the rest of the code is built on:
right-continuous CDF evaluation, left-continuous (lower) quantiles, the MAD
and the Kolmogorov sup-distance, all read off one sorted table per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "WeightedSample",
    "weighted_cdf",
    "weighted_quantile",
    "weighted_mad",
    "largest_atom_share",
    "kolmogorov_distance",
    "serial_dot",
]

# Cumulative weights are accumulated in floating point, so a cumulative sum
# that is mathematically equal to q can land a hair below it.  Quantile
# lookups subtract this slack from q so exact ties resolve to the lower atom.
_Q_SLACK = 1e-12


def serial_dot(a, b) -> np.ndarray:
    """``a @ b`` for a vector ``b``, summed in the calling thread.

    OpenBLAS hands dot and matrix-vector products of more than about ten
    thousand elements to worker threads, which keep spinning after the call
    returns.  The process then holds a second CPU while it runs
    single-threaded code, and its wall time depends on whatever else the
    machine runs: on 2 vCPUs a one-CPU busy loop beside the ozone report
    raised its time from 7.2 to 12.9 s, and with this helper from 6.9 to
    8.1 s.  ``einsum`` does not call BLAS.
    """
    return np.einsum("...j,j->...", a, b)


def _as_1d_float(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class WeightedSample:
    """A discrete distribution: atoms with nonnegative weights.

    Atoms need not be sorted, unique, or normalized.  Zero-weight atoms are
    permitted and ignored by every operation, so inverse-probability weights
    that vanish can be carried along without special casing.

    Parameters
    ----------
    atoms : array_like
        Atom locations, finite reals.
    weights : array_like
        Nonnegative weights, same length as ``atoms``, positive total.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = _as_1d_float(self.atoms, "atoms")
        weights = _as_1d_float(self.weights, "weights")
        if atoms.size == 0:
            raise ValueError("empty distribution")
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must have equal length")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if not float(weights.sum()) > 0.0:
            raise ValueError("weights must sum to a positive total")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> float:
        """Raw weight total."""
        return float(self.weights.sum())

    @property
    def normalized_weights(self) -> np.ndarray:
        """Weights rescaled to sum to one."""
        return self.weights / self.weights.sum()

    def mean(self) -> float:
        """Weighted mean of the atoms."""
        return float(serial_dot(self.normalized_weights, self.atoms))

    def positive_part(self) -> tuple[np.ndarray, np.ndarray]:
        """The positive-weight atoms and weights in input order, for reading
        only: the sample's own arrays when every weight is positive."""
        keep = self.weights > 0
        if keep.all():
            return self.atoms, self.weights
        return self.atoms[keep], self.weights[keep]

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one sorted table: positive-weight atoms in ascending order
        (ties in input order), their weights and cumulative weights."""
        atoms, weights = self.positive_part()
        order = np.argsort(atoms, kind="stable")
        sw = weights[order]
        return atoms[order], sw, _cumulative(sw)


def _cumulative(w: np.ndarray) -> np.ndarray:
    """Cumulative sums of ``w`` over its total, the last one forced to
    exactly 1.0 so that a lookup of q - _Q_SLACK < 1 never falls off the
    end."""
    cw = np.cumsum(w)
    cw /= cw[-1]
    cw[-1] = 1.0
    return cw


def _cdf_at(sa: np.ndarray, cw: np.ndarray, y, side: str = "right"):
    """The table's cumulative weight before ``searchsorted(sa, y, side)``."""
    idx = np.searchsorted(sa, y, side=side)
    return np.where(idx > 0, cw[idx - 1], 0.0)


def weighted_cdf(ws: WeightedSample, y) -> float | np.ndarray:
    """Right-continuous CDF of ``ws``: total normalized weight of atoms <= y.

    ``y`` may be a scalar or an array; the return type matches.
    """
    sa, _, cw = ws._sorted
    out = _cdf_at(sa, cw, np.asarray(y, dtype=float))
    return float(out) if out.ndim == 0 else out


def weighted_quantile(ws: WeightedSample, q) -> float | np.ndarray:
    """Left-continuous generalized inverse: smallest atom a with F(a) >= q.

    At q = 0.5 this is the lower median.  ``q`` may be a scalar or an array
    of probabilities, each strictly inside (0, 1).
    """
    sa, _, cw = ws._sorted
    qarr = np.asarray(q, dtype=float)
    if np.any(~((qarr > 0.0) & (qarr < 1.0))):
        raise ValueError("q must lie strictly between 0 and 1")
    out = sa[np.searchsorted(cw, qarr - _Q_SLACK)]
    return float(out) if qarr.ndim == 0 else out


def weighted_mad(ws: WeightedSample) -> tuple[float, float]:
    """Lower weighted median m of ``ws`` and the raw MAD, the lower weighted
    median of |atom - m|, both read off the one sorted table.

    Over the table |atom - m| falls, then rises: two runs, which a stable
    argsort (timsort) merges in linear time when few atoms tie."""
    sa, sw, cw = ws._sorted
    m = sa[np.searchsorted(cw, 0.5 - _Q_SLACK)]
    dev = np.abs(sa - m)
    order = np.argsort(dev, kind="stable")
    mad = dev[order[np.searchsorted(_cumulative(sw[order]), 0.5 - _Q_SLACK)]]
    return float(m), float(mad)


def largest_atom_share(ws: WeightedSample) -> float:
    """The largest share of the total weight that one atom value carries."""
    sa, _, cw = ws._sorted
    return float(np.diff(cw[np.append(sa[1:] != sa[:-1], True)],
                         prepend=0.0).max())


def kolmogorov_distance(ws1: WeightedSample, ws2: WeightedSample) -> float:
    """Sup-distance between the CDFs of two weighted samples.

    Between consecutive atoms of one sample its CDF is constant and the
    other CDF is monotone, so |F1 - F2| is largest at an end of each such
    interval: at an atom or at the left limit there.  It suffices to compare
    the two CDFs at the atoms of the sample with fewer atoms and at the left
    limits there.
    """
    sa1, _, cw1 = ws1._sorted
    sa2, _, cw2 = ws2._sorted
    pts = sa1 if sa1.size <= sa2.size else sa2
    d = 0.0
    for side in ("right", "left"):
        f1 = _cdf_at(sa1, cw1, pts, side)
        f2 = _cdf_at(sa2, cw2, pts, side)
        d = max(d, float(np.max(np.abs(f1 - f2))))
    return d
