"""Finite-dimensional real vector operations.

Vectors are 1-D numpy float arrays with finite entries; a batch of them
is an (..., n) array. The pairing is always the dot product; the norm
used in penalty terms is selectable (p in {1, 2, inf}).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["as_vec", "pnorm_batch"]


def as_vec(a) -> np.ndarray:
    """Coerce to a 1-D float vector, rejecting NaN/inf entries."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def pnorm_batch(A: np.ndarray, p=2) -> np.ndarray:
    """Row-wise p-norm of an (..., n) array ('inf' and math.inf both
    select the max norm)."""
    if p == 1:
        return np.sum(np.abs(A), axis=-1)
    if p == 2:
        d = np.sqrt(np.sum(A * A, axis=-1))
        odd = (d < 1e-150) | (d > 1e150)
        if odd.any():   # squares under- or overflowed: rescale by the largest entry
            with np.errstate(invalid="ignore"):
                m = np.max(np.abs(A), axis=-1, keepdims=True)
                scaled = m[..., 0] * np.sqrt(np.sum((A / m) ** 2, axis=-1))
                d = np.where(odd & (m[..., 0] > 0) & (m[..., 0] < np.inf), scaled, d)
        return d
    if p in ("inf", math.inf, np.inf):
        return np.max(np.abs(A), axis=-1)
    raise ValueError(f"unsupported norm selector: {p!r}")
