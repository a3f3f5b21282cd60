"""Exception hierarchy.

The CLI maps these onto exit codes: geometry/domain problems -> 1,
numerical failures -> 2, configuration and I/O problems -> 3.
"""


class LeakyWireError(Exception):
    """Base class for all package errors."""


class GeometryError(LeakyWireError):
    """Domain-level geometry problem (exit code 1)."""


class OutOfDomainError(GeometryError):
    """Arc-length parameter outside the range covered by the curve data."""


class DegenerateFrameError(GeometryError):
    """No orthonormal frame could be constructed at the requested point."""


class SingularGeometryError(GeometryError):
    """Distinct arc-length parameters map to (numerically) the same point."""


class AssumptionError(GeometryError):
    """A geometric admissibility check failed where the caller required it."""


class NumericalError(LeakyWireError):
    """Numerical failure (exit code 2)."""


class NumericalFailureError(NumericalError):
    """Eigensolver or quadrature failed to reach its tolerance."""


class BracketFailureError(NumericalError):
    """Root bracketing did not find a sign change within the allowed range."""


class FitError(NumericalError):
    """A regression problem was too ill-conditioned to trust."""


class InvalidKernelError(NumericalError):
    """Kernel matrix violates a structural requirement (sign, symmetry)."""


class ConfigError(LeakyWireError):
    """Bad configuration or malformed input file (exit code 3)."""


class CurveFormatError(ConfigError):
    """Curve definition does not match the expected schema."""


class BuildSizeError(ConfigError):
    """A curve's domain hint asks for a build above the memory limit."""

    def __init__(self, message: str, domain_hint: float):
        super().__init__(message)
        self.domain_hint = domain_hint
