"""Exception types whose type the program acts on. Bad input is a plain
ValueError with a message naming the bad value; cli.main maps the types
below to exit 1 (StepFailedError), 2 (QuadratureFailureError) and 3."""


class NoConvergenceError(RuntimeError):
    """An eigenvalue or singular-value routine failed to converge."""


class RootNotBracketedError(RuntimeError):
    """Bisection could not bracket the requested level."""


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
