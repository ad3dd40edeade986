"""Exception hierarchy shared across the package."""


class LpDensError(Exception):
    """Base class for all lpdens errors."""


class NonFinite(LpDensError):
    """Input data contains NaN or infinite values."""


class TooFew(LpDensError):
    """Not enough observations."""


class SupportViolation(LpDensError):
    """A datum lies outside the declared support."""


class EmptySide(LpDensError):
    """A cutoff split left fewer than two observations on one side."""


class DegenerateRegion(LpDensError):
    """Kernel integration region collapsed to (near) zero length."""


class InsufficientData(LpDensError):
    """Too few in-window observations to identify the local fit."""


class SingularDesign(LpDensError):
    """Local design matrix could not be factorized."""


class NegativeDensity(LpDensError):
    """The v = 0 bandwidth search's density pilot is not positive."""


class NonPositiveVariance(LpDensError):
    """A variance term is not positive, so no standard error or MSE-optimal bandwidth exists."""


class ZeroVariance(LpDensError):
    """Sample has zero variance."""


class ZeroBias(LpDensError):
    """Estimated bias constant is numerically zero; no finite MSE optimum."""


class NoFixedPoint(LpDensError):
    """A fixed-point iteration did not settle."""


class InvalidAlpha(LpDensError):
    """Significance level outside (0, 1)."""


class EmptyGrid(LpDensError):
    """Evaluation grid has fewer than the required number of points."""


class CsvParseError(LpDensError):
    """A line of the input CSV failed to parse as a number."""
