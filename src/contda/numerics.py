"""Numeric kernels shared across modules: a row-wise, shift-stabilized
log-softmax and a finiteness guard.

Both are pure, so they are safe to call concurrently.
"""

import numpy as np

from .errors import DimensionError, NumericError


def require_finite(a: np.ndarray, what: str = "input") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains NaN or Inf")
    return a


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax for a 2-D array of logits."""
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise DimensionError(f"expected a non-empty 2-D array, got shape {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
