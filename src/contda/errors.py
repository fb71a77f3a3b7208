"""Exception types shared across the package."""


class ContdaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ContdaError):
    """Operands have incompatible shapes or an input is empty."""


class DegenerateInputError(ContdaError):
    """Input is structurally valid but degenerate (zero vector, empty set, ...)."""


class InsufficientNegativesError(ContdaError):
    """The feature bank is too small for the requested number of negatives."""


class ContractViolationError(ContdaError):
    """A caller-side contract was broken (missing labels, bad ratios, ...)."""


class NumericError(ContdaError):
    """A computation produced or received non-finite values."""
