"""Exception types shared across the toolkit."""


class NotSquareError(ValueError):
    """Operation requires a square matrix."""


class NotHermitianError(ValueError):
    """Input deviates from Hermitian symmetry beyond the accepted roundoff."""


class NoConvergenceError(RuntimeError):
    """An eigenvalue or singular-value routine failed to converge."""


class NonPositiveQError(ValueError):
    """Schatten exponent must be finite and strictly positive."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the positive-semidefinite clamp."""


class DimensionMismatchError(ValueError):
    """Tensor or operator dimensions are inconsistent."""


class ShapeMismatchError(ValueError):
    """Coefficient matrices must share one common shape."""


class NotNormalizedError(ValueError):
    """State or coefficient family does not carry unit total weight."""


class InvalidPermutationError(ValueError):
    """Image list is not a bijection on 1..d."""


class SizeMismatchError(ValueError):
    """Vector and permutation sizes differ."""


class NotSortedError(ValueError):
    """Spectrum vector must be sorted non-increasing."""


class NegativeEntryError(ValueError):
    """Entries must be non-negative."""


class InvalidChainError(ValueError):
    """Chain indices must be valid, distinct and strictly ascending."""


class NotProbabilityError(ValueError):
    """Weights must be positive and sum to one."""


class RootNotBracketedError(RuntimeError):
    """Bisection could not bracket the requested level."""


class TooLargeError(ValueError):
    """Problem size exceeds the exhaustive-enumeration limit."""


class QuadratureFailureError(RuntimeError):
    """Adaptive quadrature could not meet the requested tolerance."""


class StepFailedError(RuntimeError):
    """A numerically certified proof step failed; this indicates a bug.

    instance holds the failing input in matrix JSON form (matcore's
    matrix_to_dict), so the failure can be replayed, or None."""

    def __init__(self, step: str, message: str, instance: dict | None = None):
        self.step = step
        self.message = message
        self.instance = instance
        super().__init__(f"step {step}: {message}")

    def __reduce__(self):
        # the default pickles args, the formatted message alone, which
        # __init__ cannot take back
        return type(self), (self.step, self.message, self.instance)
