"""Exception types shared across the package."""

from __future__ import annotations


class PencilLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PencilLabError, ValueError):
    """Matrix dimensions are inconsistent with each other or with the call."""


class InputFormatError(PencilLabError, ValueError):
    """A file or in-memory payload does not match the documented layout."""


class PreconditionError(PencilLabError):
    """Input matrices violate a structural requirement of the operation."""


class PoshValidationError(PreconditionError):
    """A coefficient fails the positive-semidefinite requirement."""

    def __init__(self, coefficient: str, lambda_min: float, tolerance: float):
        self.coefficient = coefficient
        self.lambda_min = lambda_min
        self.tolerance = tolerance
        super().__init__(
            f"{coefficient} is indefinite: smallest eigenvalue "
            f"{lambda_min:.6e} is below -{tolerance:.6e}"
        )


class SingularPencilError(PreconditionError):
    """The pencil is singular where a regular one is required."""


class RankAmbiguityError(PencilLabError):
    """A numerical rank decision was too close to call.

    Carries the offending decision, when there is one, so callers can
    inspect its singular values, gap ratio and tolerance.
    """

    def __init__(self, message: str, decision=None):
        self.decision = decision
        super().__init__(message)
