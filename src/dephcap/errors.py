"""Exception types shared across the package."""


class SolverError(RuntimeError):
    """A root finder failed to converge or a tail could not be certified."""


class ContractViolation(RuntimeError):
    """A computed result broke one of its own mathematical guarantees.

    Raised instead of silently emitting numbers that violate an ordering or
    positivity property the rest of the pipeline relies on.
    """
