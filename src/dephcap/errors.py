"""Exception types shared across the package."""


class SolverError(RuntimeError):
    """A root finder failed to converge or a tail could not be certified."""


class TailBoundError(ValueError):
    """A truncation cutoff is too small for the requested certification.

    Carries ``suggested`` when a larger cutoff is likely to succeed.
    """

    def __init__(self, message, suggested=None):
        super().__init__(message)
        self.suggested = suggested


class ContractViolation(RuntimeError):
    """A computed result broke one of its own mathematical guarantees.

    Raised instead of silently emitting numbers that violate an ordering or
    positivity property the rest of the pipeline relies on.
    """
