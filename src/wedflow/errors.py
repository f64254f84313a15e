"""Exception types shared across the package."""


class WedflowError(Exception):
    """Base class for all package errors."""


class InvalidInputError(WedflowError):
    """Malformed or mutually inconsistent arguments (dimension mismatch, bad
    ranges); ``field`` names the argument at fault, where a single one is."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class DomainError(WedflowError):
    """A point lies outside the domain of an energy or of a scalar field."""


class DegenerateCurveError(WedflowError):
    """A curve operation that needs positive length received a constant curve."""


class NotAvailableError(WedflowError):
    """No closed form / analytic routine is registered for the requested kind."""


class NonConvergenceError(WedflowError):
    """An iterative solve hit its iteration cap.

    Carries the best iterate found so far and a per-iteration trace so the
    caller can inspect what happened.
    """

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace if trace is not None else []
