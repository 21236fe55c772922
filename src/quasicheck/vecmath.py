"""Finite-dimensional real vector operations.

Vectors are 1-D numpy float arrays with finite entries. The penalty
norms of the conditions work on coordinate planes (see
conditions._plane_norm).
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_vec"]


def as_vec(a) -> np.ndarray:
    """Coerce to a 1-D float vector, rejecting NaN/inf entries."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v
