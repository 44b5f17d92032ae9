"""Exception types whose type the program acts on. Bad input, an unreachable
quadrature tolerance included, is a plain ValueError with a message naming
the bad value; cli.main maps StepFailedError to exit 1, a ValueError or
OSError to 2 and any other exception to 3."""


class NoConvergenceError(RuntimeError):
    """An eigenvalue or singular-value routine failed to converge; not
    numpy's LinAlgError, a ValueError, which would read as bad input."""


class StepFailedError(RuntimeError):
    """A numerically certified proof step failed; this indicates a bug.

    instance holds the failing input in matrix JSON form (matcore's
    matrix_to_dict), so the failure can be replayed, or None."""

    def __init__(self, step: str, message: str, instance: dict | None = None):
        self.step = step
        self.message = message
        self.instance = instance
        super().__init__(message)

    def __reduce__(self):
        # the default pickles args, the message alone, which __init__
        # cannot take back
        return type(self), (self.step, self.message, self.instance)
