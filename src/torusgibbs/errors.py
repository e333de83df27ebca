"""Exception types shared across the package."""


class TorusGibbsError(Exception):
    """Base class for all package errors."""


class ResourceLimitError(TorusGibbsError):
    """A sector dimension (or similar budget) exceeded its configured cap."""


class NumericalFailureError(TorusGibbsError):
    """An eigensolve, quadrature, or cross-validation check failed."""


class QuadratureFailureError(NumericalFailureError):
    """A numerical integral did not meet its accuracy target."""


class SupportMismatchError(TorusGibbsError):
    """A state charges a sector where the reference state has zero weight."""


class SupportViolationError(TorusGibbsError):
    """A state charges particle sectors outside its declared support."""


class UnsupportedOrderError(TorusGibbsError):
    """Requested reduced-density-matrix / moment order is not implemented."""


class InvalidConfigError(TorusGibbsError):
    """Malformed or inconsistent run configuration."""
