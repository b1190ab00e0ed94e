"""Exception hierarchy shared by all modules."""


class MimmError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(MimmError, ValueError):
    """Array dimensions are inconsistent with the dependence specification."""


class InsufficientDataError(MimmError, ValueError):
    """The series is too short for the requested operation."""


class InsufficientInteriorError(InsufficientDataError):
    """Fewer than two swappable interior positions."""


class BoundaryViolationError(MimmError, ValueError):
    """A swap index falls outside the swappable interior, or s1 >= s2."""


class DegenerateScaleError(MimmError, ValueError):
    """A real column has zero sample standard deviation."""


class StationarityError(MimmError, ValueError):
    """Autoregressive parameters violate the stationarity condition."""


class ParameterDomainError(MimmError, ValueError):
    """A parameter lies outside its admissible domain."""


class RankError(MimmError, ValueError):
    """A regression design matrix is rank deficient."""


class EnumerationBudgetError(MimmError, ValueError):
    """The interior is too large for exhaustive permutation enumeration."""


class NoSolutionFoundError(MimmError, RuntimeError):
    """A numerical solver failed to converge (not a claim of non-existence)."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class IllConditionedError(MimmError, RuntimeError):
    """A moment matrix, with its ridge added, gave no finite solve."""


class SeparationWarning(UserWarning):
    """Pseudo-likelihood ascent hit the divergence cap (perfect separation)."""
