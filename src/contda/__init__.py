"""Continual unsupervised domain adaptation with gradient-constrained
contrastive updates on synthetic benchmarks."""

__version__ = "0.1.0"

from .errors import (ContdaError, ContractViolationError, DegenerateInputError,
                     DimensionError, InsufficientNegativesError,
                     NumericError)

__all__ = [
    "__version__",
    "ContdaError", "ContractViolationError", "DegenerateInputError",
    "DimensionError", "InsufficientNegativesError", "NumericError",
]
