"""Exception types shared across the package.

Most errors subclass ValueError so that generic callers can still catch the
usual thing; the distinct classes exist so tests and the CLI can tell apart
bad shapes, infeasible points, and numerical breakdown.
"""


class ShapeError(ValueError):
    """Array dimensions do not match what the operation requires."""


class FeasibilityError(ValueError):
    """A point violates its feasible-set invariant beyond tolerance."""


class NumericError(ValueError):
    """Input contains non-finite entries or a computation lost validity."""


class DomainError(ValueError):
    """Scalar argument outside the mathematically meaningful range."""


class SelectionError(ValueError):
    """A sign matrix is inconsistent with the sign pattern it must select."""


class InfeasibleBoundError(ValueError):
    """A requested step-size bound cannot be satisfied."""


class ParseError(ValueError):
    """Malformed text or binary input; message carries the location."""


class ConvergenceError(RuntimeError):
    """A numerical factorization failed to converge."""
