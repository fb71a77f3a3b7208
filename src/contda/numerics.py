"""Dense float64 vector kernels used by every other module.

Vectors are 1-D float64 numpy arrays, matrices are 2-D float64 arrays in
row-major layout.  All public operations keep entries finite and are pure,
so they are safe to call concurrently.
"""

import numpy as np

from .errors import DimensionError, NumericError


def as_vector(a) -> np.ndarray:
    """Coerce to a 1-D float64 array without copying when possible."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def require_finite(a: np.ndarray, what: str = "input") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains NaN or Inf")
    return a


def log_softmax(logits) -> np.ndarray:
    """Shift-stabilized log-softmax of a non-empty vector of logits."""
    v = as_vector(logits)
    if v.size == 0:
        raise DimensionError("log_softmax of an empty vector")
    shifted = v - np.max(v)
    return shifted - np.log(np.sum(np.exp(shifted)))


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax for a 2-D array of logits."""
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise DimensionError(f"expected a non-empty 2-D array, got shape {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
