"""Physical parameters of the driven emitter-waveguide model.

Units: hbar = 1 throughout; every energy, rate, and inverse time is
quoted in units of the cavity hopping xi unless a caller rescales.
The emitter has splitting omega and is driven as A cos(nu t); the
waveguide is a ring of n_cavities sites with eigenfrequency omega_c,
hopping xi, and emitter-field coupling g.

Derived quantities: detuning delta = omega_c - omega, drive ratio
chi = A / nu, drive period T = 2 pi / nu.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InvalidArgument,
    Negative,
    NonFinite,
    NonFiniteResult,
    NonPositive,
    OrderTooLarge,
    SizeTooLarge,
    ZeroCavities,
)

CONFIG_KEYS = ("omega", "omega_c", "xi", "g", "n_cavities", "drive_amp", "drive_freq")


@dataclass(frozen=True, slots=True)
class SystemParams:
    omega: float
    omega_c: float
    xi: float
    g: float
    n_cavities: int
    drive_amp: float
    drive_freq: float

    @property
    def delta(self) -> float:
        return self.omega_c - self.omega

    @property
    def chi(self) -> float:
        return self.drive_amp / self.drive_freq

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.drive_freq

    @property
    def g_squared(self) -> float:
        """g^2, or NonFiniteResult where it passes the float range (g > 1.3e154)."""
        try:
            return self.g**2
        except OverflowError:
            raise NonFiniteResult(f"g^2 overflows at g = {self.g:g}") from None


def validate(params: SystemParams) -> SystemParams:
    """Reject non-physical values; returns the (immutable) input unchanged.

    Idempotent by construction: derived fields are properties of the
    frozen dataclass, so there is nothing to populate twice.
    """
    for key in CONFIG_KEYS:
        value = getattr(params, key)
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFinite(key, value)
    if not params.xi > 0.0:
        raise NonPositive("xi", params.xi)
    if not params.drive_freq > 0.0:
        raise NonPositive("drive_freq", params.drive_freq)
    if params.g < 0.0:
        raise Negative("g", params.g)
    if params.drive_amp < 0.0:
        raise Negative("drive_amp", params.drive_amp)
    if params.n_cavities < 1:
        raise ZeroCavities("n_cavities", params.n_cavities)
    return params


def default_sideband(params: SystemParams) -> int:
    """nearest_sideband at the point's detuning delta and drive frequency nu."""
    return _nearest_order(params.omega_c - params.omega, params.drive_freq)  # delta, without the property call


def nearest_sideband(delta, nu):
    """The integer n minimizing |delta + n nu|, or over two equal-shape float arrays each entry's n, as floats.

    Among the five orders next to round(-delta / nu), the one with the least
    |delta + n nu| in floats; ties prefer smaller |n|, then negative n. The
    winner satisfies delta + n nu in [-nu/2, nu/2] up to the tie boundary. For
    two floats, a nu that is not finite and > 0 is InvalidArgument, and a
    ratio -delta / nu that is not finite names no order: OrderTooLarge.

    Two floats give an int n. Two arrays give float(n) for each entry: exact
    below 2**53, and past it the float that n nu already rounds n to. An entry
    whose two floats would raise is nan instead; the arrays raise nothing.
    """
    return _nearest_orders(delta, nu) if isinstance(delta, np.ndarray) else _nearest_order(delta, nu)


def _nearest_order(delta: float, nu: float) -> int:
    # nearest_sideband's keys (|delta + n nu|, |n|, n), least first, over the five candidates.
    if not 0.0 < nu < math.inf:
        raise InvalidArgument(f"nearest sideband needs a finite drive frequency nu > 0, got {nu!r}")
    ratio = -delta / nu
    if not math.isfinite(ratio):
        raise OrderTooLarge(f"nearest sideband -delta / nu = {ratio!r} is not a finite order")
    guess = round(ratio)
    return min([(abs(delta + n * nu), abs(n), n) for n in range(guess - 2, guess + 3)])[2]


@np.errstate(all="ignore")  # a ratio or n nu past the float range reads inf, as in floats
def _nearest_orders(delta: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # The same keys compared in turn, entry by entry, over each entry's five candidates as floats.
    ratio = np.where((nu > 0.0) & (nu < math.inf), -delta / nu, math.nan)
    orders = np.add.outer(np.arange(-2.0, 3.0), np.rint(ratio))
    key = np.abs(delta + orders * nu)
    for tie_break in (np.abs(orders), orders):
        key = np.where(key == key.min(axis=0), tie_break, math.inf)
    return np.where(np.isfinite(ratio), key.min(axis=0), math.nan)


def resonant_sidebands(params: SystemParams) -> range:
    """The sideband orders m with delta + m nu inside the band, |delta + m nu| < 2 xi.

    For a tiny nu the range can be astronomically long; a bound past the
    float range is clamped to the largest float, so the range stays finite.
    """
    nu, two_xi, big = params.drive_freq, 2.0 * params.xi, sys.float_info.max
    lo = min(max((-two_xi - params.delta) / nu, -big), big)
    hi = min(max((two_xi - params.delta) / nu, -big), big)
    return range(math.floor(lo) + 1, math.ceil(hi))


def check_time(t: float, positive: bool = True) -> float:
    """Return t if it is finite and > 0 (>= 0 if not positive), else raise InvalidArgument."""
    if not (math.isfinite(t) and (t > 0.0 if positive else t >= 0.0)):
        raise InvalidArgument(f"t must be finite and {'>' if positive else '>='} 0, got {t!r}")
    return t


def check_times(times, positive: bool = True) -> np.ndarray:
    """Return times as a float array if non-empty, 1-d, strictly increasing and each entry passes check_time."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InvalidArgument("times must be a non-empty 1-d sequence")
    if not (np.diff(times) > 0.0).all():  # a NaN entry fails this too
        raise InvalidArgument("times must be strictly increasing")
    check_time(float(times[0]), positive)  # increasing, so the ends bound every entry
    check_time(float(times[-1]), positive)
    return times


def check_size(what: str, size: int, ceiling: int) -> int:
    """Return size if it is at most ceiling, else raise SizeTooLarge.

    Callers pass a size computed in Python ints, before allocating, so a
    huge request is refused at once rather than by the allocator.
    """
    if size > ceiling:
        raise SizeTooLarge(f"{what} = {size} exceeds the ceiling {ceiling}")
    return size


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    times: np.ndarray  # passed check_times(positive=False)
    probabilities: np.ndarray
    method: str  # perturbative | exponential | oracle


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into a field dict.

    Blank lines and lines starting with '#' are skipped. Keys outside
    CONFIG_KEYS are an error; n_cavities must parse as an integer.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = int(value) if key == "n_cavities" else float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {value!r} for {key}") from None
    return out


def from_mapping(fields: dict) -> SystemParams:
    """Build and validate SystemParams from a complete field mapping."""
    missing = [k for k in CONFIG_KEYS if k not in fields]
    if missing:
        raise ConfigError(f"missing parameter(s): {', '.join(missing)}")
    unknown = [k for k in fields if k not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown parameter(s): {', '.join(unknown)}")
    return validate(
        SystemParams(
            omega=float(fields["omega"]),
            omega_c=float(fields["omega_c"]),
            xi=float(fields["xi"]),
            g=float(fields["g"]),
            n_cavities=int(fields["n_cavities"]),
            drive_amp=float(fields["drive_amp"]),
            drive_freq=float(fields["drive_freq"]),
        )
    )
