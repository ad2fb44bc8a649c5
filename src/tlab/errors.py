"""Exception types shared across the package."""


class DomainError(ValueError):
    """Evaluation was requested outside a formula's domain of definition."""


class SolverError(RuntimeError):
    """A nonlinear solve failed in a way that is not plain non-convergence.

    Carries the offending iterate so the failure can be inspected.
    """

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class NotASolutionError(RuntimeError):
    """Input grid is too far from a translator for solution-only checks.

    Carries the failed check report for the refused input.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
