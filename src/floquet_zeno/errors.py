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
    """A physical parameter violates its domain constraint, stated by `requirement`."""

    requirement = ""

    def __init__(self, field: str, value):
        self.field = field
        self.value = value
        super().__init__(f"{field} {self.requirement}, got {value!r}")


class NonPositive(ValidationError):
    requirement = "must be > 0"


class Negative(ValidationError):
    requirement = "must be >= 0"


class NonFinite(ValidationError):
    requirement = "must be finite"


class ZeroCavities(ValidationError):
    requirement = "must be >= 1"


class NumericalError(FloquetZenoError):
    """A numerical routine failed or was asked for an unsupported point."""


class NonFiniteResult(NumericalError):
    """A computed value overflowed to infinity or NaN."""


class OrderTooLarge(NumericalError):
    """Bessel order outside the implementation ceiling."""


class SizeTooLarge(NumericalError):
    """A size the input sets (cavities, times, sweep points, Floquet entries
    or bright rows) exceeds its ceiling; refused before anything that large is built."""


class ArgumentOutOfRange(NumericalError):
    """Bessel argument outside the supported range."""


class SecondSideband(NumericalError):
    """A drive sideband besides the chosen one couples the emitter to the band,
    so the single-sideband rate misses a decay channel."""


class BandEdgeSingularity(NumericalError):
    """Spectral density evaluated too close to a band edge, where it diverges."""


class TruncationTooSmall(NumericalError):
    """Floquet truncation M cannot resolve the relevant sideband."""


class EigenFailure(NumericalError):
    """The bright-block eigensolver (numpy eigh) did not converge."""


class SingularResolvent(NumericalError):
    """Resolvent linear solve left a residual above tolerance."""


class StepLimitExceeded(NumericalError):
    """ODE integrator exceeded its step budget or its step size underflowed."""


class NormDrift(NumericalError):
    """Propagated state norm drifted beyond tolerance."""
