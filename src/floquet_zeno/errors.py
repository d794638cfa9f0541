"""Exception hierarchy shared by all modules.

Two branches matter to callers: ConfigError (bad user input, CLI exit
code 2) and NumericalError (a computation could not be completed at the
requested point or tolerance, CLI exit code 3). An argument outside a
function's domain raises InvalidArgument, both a ConfigError and a ValueError.
"""


class FloquetZenoError(Exception):
    """Base class for all package errors."""


class ConfigError(FloquetZenoError):
    """Invalid configuration, CLI arguments, or sweep specification."""


class InvalidArgument(ConfigError, ValueError):
    """A function argument lies outside the function's domain."""


class ValidationError(ConfigError):
    """A physical parameter violates its domain constraint."""


class NonPositive(ValidationError):
    def __init__(self, field: str, value):
        self.field = field
        self.value = value
        super().__init__(f"{field} must be > 0, got {value!r}")


class Negative(ValidationError):
    def __init__(self, field: str, value):
        self.field = field
        self.value = value
        super().__init__(f"{field} must be >= 0, got {value!r}")


class NonFinite(ValidationError):
    def __init__(self, field: str, value):
        self.field = field
        self.value = value
        super().__init__(f"{field} must be finite, got {value!r}")


class ZeroCavities(ValidationError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"n_cavities must be >= 1, got {value!r}")


class NumericalError(FloquetZenoError):
    """A numerical routine failed or was asked for an unsupported point."""


class NonFiniteResult(NumericalError):
    """A computed value overflowed to infinity or NaN."""


class OrderTooLarge(NumericalError):
    """Bessel order outside the implementation ceiling."""


class ArgumentOutOfRange(NumericalError):
    """Bessel argument outside the supported range."""


class BandEdgeSingularity(NumericalError):
    """Spectral density evaluated too close to a band edge, where it diverges."""


class TruncationTooSmall(NumericalError):
    """Floquet truncation M cannot resolve the relevant sideband."""


class EigenFailure(NumericalError):
    """The bright-block eigensolver (numpy eigh) did not converge."""


class SingularResolvent(NumericalError):
    """Resolvent linear solve left a residual above tolerance."""


class QuadratureFailure(NumericalError):
    """Adaptive quadrature did not reach the requested tolerance."""


class StepLimitExceeded(NumericalError):
    """ODE integrator exceeded its step budget or its step size underflowed."""


class NormDrift(NumericalError):
    """Propagated state norm drifted beyond tolerance."""
