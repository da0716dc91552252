"""Kernel-weighted sums for the product Epanechnikov and biweight kernels.

Both kernels vanish beyond one bandwidth, so a query only needs the training
points whose first coordinate lies within h of its own (Fan & Marron 1994,
"Fast implementations of nonparametric curve estimators", JCGS 3:35).  The
training points are sorted on that coordinate once, and each block of sorted
queries is evaluated against the contiguous run of training points that can
reach it.  Kernel values are computed exactly as a dense query-by-training
panel would compute them; only the order of adding the nonzero ones differs.
Swapping queries and training points gives the same kernel values bit for
bit: z - q = -(q - z) exactly, and t * t is the same for -t.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SortedWindow"]

# Sorted queries per block; a block's panel is O(block * n) doubles.
_BLOCK = 128
# Widens each window far past the rounding of its edges.
_EDGE_SLACK = 1e-9


def _factor(t: np.ndarray, family: str) -> np.ndarray:
    """Kernel factor at t = (z - q)/h, in place.  max(1 - t^2, 0) equals
    where(|t| <= 1, 1 - t^2, 0) bit for bit, since t^2 <= 1 iff |t| <= 1."""
    np.subtract(1.0, np.multiply(t, t, out=t), out=t)
    np.maximum(t, 0.0, out=t)
    if family == "epanechnikov":
        return np.multiply(t, 0.75, out=t)
    return np.multiply(np.square(t, out=t), 15.0 / 16.0, out=t)


def _matrix(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return z[:, None] if z.ndim == 1 else z


class SortedWindow:
    """Training points (n x k, or a vector) sorted on the first coordinate,
    with value vectors (c of length n, or one) to sum."""

    def __init__(self, train, values):
        zt = _matrix(train)
        order = np.argsort(zt[:, 0], kind="stable")
        self._coords = np.ascontiguousarray(zt[order].T)
        key = self._coords[0]
        self._magnitude = max(abs(key[0]), abs(key[-1])) if key.size else 0.0
        vals = np.atleast_2d(np.asarray(values, dtype=float))
        if vals.ndim != 2 or vals.shape[1] != len(zt):
            raise ValueError("each value vector needs one entry per point")
        self._values = vals.take(order, axis=1)

    def sums(self, query, h, family: str) -> np.ndarray:
        """(m, c) sums of kernel weight times each value vector per query;
        zero for a query with no training point in its window.  ``h`` is one
        bandwidth for every coordinate or one per coordinate."""
        if family not in ("epanechnikov", "biweight"):
            raise ValueError(f"unknown kernel family: {family!r}")
        zq = _matrix(query)
        m, k = zq.shape
        if k != self._coords.shape[0]:
            raise ValueError(f"query must have {self._coords.shape[0]} columns")
        hs = np.asarray(h, dtype=float)
        if hs.shape not in ((), (k,)) or not (hs > 0).all():
            raise ValueError(f"bandwidth must be positive, one value or {k}")
        hs = hs.tolist() if hs.ndim else [hs.item()] * k
        out = np.zeros((m, self._values.shape[0]))
        # A single block needs no sorting, only its extremes.
        qorder = np.argsort(zq[:, 0], kind="stable") if m > _BLOCK else None
        if qorder is not None:
            zq = zq[qorder]
        qt, key = zq.T, self._coords[0]
        for lo in range(0, m, _BLOCK):
            hi = min(lo + _BLOCK, m)
            first = qt[0, lo:hi]
            q_min, q_max = (first.min(), first.max()) if qorder is None else (
                first[0], first[-1])
            # reach > h, so a point at either edge has zero kernel weight.
            reach = hs[0] + _EDGE_SLACK * (
                hs[0] + self._magnitude + max(-q_min, q_max))
            left, right = np.searchsorted(key, (q_min - reach, q_max + reach))
            if right <= left:
                continue
            kern = None
            for c in range(k):
                t = self._coords[c, left:right] - qt[c, lo:hi, None]
                t /= hs[c]
                kern = _factor(t, family) if kern is None else (
                    np.multiply(kern, _factor(t, family), out=kern))
            rows = slice(lo, hi) if qorder is None else qorder[lo:hi]
            out[rows] = np.einsum("qw,cw->qc", kern,
                                  self._values[:, left:right])
        return out
