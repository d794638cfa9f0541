"""Finite-time decay of the driven emitter, to second order in g.

The survival amplitude after time t involves the reservoir correlation
function g_n(tau) filtered by a triangular time window; on the lattice
that window integral is elementary mode by mode, so C_e(t) is a
closed-form O(N) sum (see survival_amplitude). Equivalently, the decay
rate R(t) is the overlap of a modulation spectrum f_n(omega),
a Fejer kernel of width 1/t centered at omega_f = delta + n nu, with
the reservoir response g_n(omega). Two exact routes to the same R(t)
are implemented (momentum sum / sinc^2 form, and the frequency-domain
overlap integral) plus the long-time golden-rule limit
R = 2 pi g^2 J_n(chi)^2 rho(delta + n nu).

Regimes: R(t) climbing with t toward the golden-rule value marks Zeno
behavior (short observation windows see a broad kernel and decay is
suppressed); R(t) falling with t while omega_f sits outside the band
marks anti-Zeno behavior (only the kernel tails reach the band);
chi = A/nu at a root of J_n switches the coupling off entirely.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import MomentumGrid, SpectralDensity, spectral_density
from .errors import InvalidArgument, QuadratureFailure
from .params import SystemParams, check_time, check_times
from .specfun import bessel_j, sinc

ZENO = "Zeno"
ANTI_ZENO = "AntiZeno"
DECOUPLED = "Decoupled"
INDETERMINATE = "Indeterminate"

# |J_n(chi)| below this counts as dynamically decoupled.
DECOUPLING_THRESHOLD = 1e-6

# Width-separation factor realizing the asymptotic inequalities of the
# regime criteria; a deliberate, tunable artifact choice.
SEPARATION = 10.0


@dataclass(frozen=True, eq=False)
class DecayCurve:
    times: np.ndarray  # strictly increasing, > 0
    rates: np.ndarray  # R(t_i) >= 0
    params: SystemParams
    sideband: int


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    times: np.ndarray
    probabilities: np.ndarray
    method: str  # perturbative | exponential | oracle


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    delta_f: float  # modulation-spectrum width 1/t
    omega_f: float  # modulation-spectrum center delta + n nu
    delta_g: float  # reservoir-response width sqrt(2) xi g |J_n(chi)|
    omega_g: float  # reservoir-response center, 0 for this band


def _sinc_sq(x: np.ndarray) -> np.ndarray:
    # sin(x)^2 / x^2 with a series branch through x = 0.
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    x2 = xs * xs
    out[small] = (1.0 - x2 / 6.0 + x2 * x2 / 120.0) ** 2
    xl = x[~small]
    s = np.sin(xl) / xl
    out[~small] = s * s
    return out


def _ramp_sine(x: np.ndarray) -> np.ndarray:
    # (x - sin x) / x^2 with a series branch where x - sin x cancels.
    out = np.empty_like(x)
    small = np.abs(x) < 0.1
    xs = x[small]
    x2 = xs * xs
    out[small] = xs * (1.0 / 6.0 - x2 * (1.0 / 120.0 - x2 * (1.0 / 5040.0 - x2 / 362880.0)))
    xl = x[~small]
    out[~small] = (xl - np.sin(xl)) / (xl * xl)
    return out


def __getattr__(name: str):
    # scipy.integrate takes about half a second to import and only the two
    # quadrature routes below use it, so `quad` is bound on first access.
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _quad_checked(func, a: float, b: float, **kwargs) -> float:
    # Looked up on the module at each call, so a replaced `decay.quad` is used.
    result = sys.modules[__name__].quad(func, a, b, full_output=1, **kwargs)
    value, _abserr, _info = result[0], result[1], result[2]
    if len(result) > 3:
        raise QuadratureFailure(result[3].strip())
    return value


def decay_rate_finite(params: SystemParams, grid: MomentumGrid, n: int, t: float) -> float:
    """R(t) = (t g^2 / N) J_n(chi)^2 sum_k sinc^2((delta - 2 xi cos k + n nu) t / 2)."""
    check_time(t)
    jn = bessel_j(n, params.chi)
    arg = (params.delta - 2.0 * params.xi * np.cos(grid.momenta) + n * params.drive_freq) * t / 2.0
    total = _sinc_sq(arg).sum()
    return float(t * params.g**2 / grid.n_cavities * jn * jn * total)


@dataclass(frozen=True)
class LongTimeRate:
    resonant: bool
    rate: float


def decay_rate_longtime(params: SystemParams, grid: MomentumGrid, n: int) -> LongTimeRate:
    """Golden-rule limit of R(t).

    Resonant iff |delta + n nu| <= 2 xi, i.e. some band mode matches the
    shifted emitter frequency in the continuum; then
    R = 2 pi g^2 J_n(chi)^2 rho(delta + n nu). Off resonance the emitter
    keeps its excitation and the rate is zero. Band-edge evaluation
    raises BandEdgeSingularity (rho diverges there).
    """
    omega_f = params.delta + n * params.drive_freq
    rho = spectral_density(SpectralDensity(params.xi), omega_f)  # raises at the edge
    if rho == 0.0:
        return LongTimeRate(resonant=False, rate=0.0)
    jn = bessel_j(n, params.chi)
    return LongTimeRate(resonant=True, rate=2.0 * math.pi * params.g**2 * jn * jn * rho)


def decay_rate_continuum(params: SystemParams, n: int, t: float) -> float:
    """R(t) in the N -> infinity limit: momentum sum replaced by an integral.

    Integrates sinc^2((omega_f - 2 xi cos k) t / 2) over k in [0, pi]
    (the integrand is even about pi), with a breakpoint at the resonant
    momentum when omega_f lies inside the band.
    """
    check_time(t)
    omega_f = params.delta + n * params.drive_freq
    two_xi = 2.0 * params.xi
    half_t = t / 2.0

    def integrand(k: float) -> float:
        s = sinc((omega_f - two_xi * math.cos(k)) * half_t)
        return s * s

    points = [math.acos(omega_f / two_xi)] if abs(omega_f) < two_xi else None
    value = _quad_checked(
        integrand, 0.0, math.pi, points=points, limit=max(200, int(10.0 * t)), epsabs=1e-13, epsrel=1e-10
    )
    jn = bessel_j(n, params.chi)
    return float(t * params.g**2 * jn * jn * value / math.pi)


def decay_rate_overlap(params: SystemParams, n: int, t: float) -> float:
    """R(t) by the frequency-domain route: 2 pi times the overlap of the
    modulation spectrum with the reservoir response.

    The inverse-square-root band-edge behavior of rho is handed to the
    quadrature as an algebraic endpoint weight, which keeps this route
    independent of the momentum-space one.
    """
    check_time(t)
    omega_f = params.delta + n * params.drive_freq
    two_xi = 2.0 * params.xi
    half_t = t / 2.0

    def kernel(omega: float) -> float:
        s = sinc((omega - omega_f) * half_t)
        return s * s

    # 2 pi int f_n g_n domega with f_n = (t / 2 pi) sinc^2(...) and
    # g_n = g^2 J_n^2 (1/pi) (4 xi^2 - omega^2)^(-1/2).
    value = _quad_checked(
        kernel, -two_xi, two_xi, weight="alg", wvar=(-0.5, -0.5), limit=max(200, int(10.0 * t))
    )
    jn = bessel_j(n, params.chi)
    return float(t * params.g**2 * jn * jn * value / math.pi)


def survival_amplitude(params: SystemParams, grid: MomentumGrid, n: int, t: float) -> complex:
    """C_e(t) to second order in g, with the free emitter phase restored.

    C_e(t) = exp(i omega t / 2) [1 - t int_0^t (1 - tau/t) g_n(tau)
    exp(-i (delta + n nu) tau) dtau]. With a_k = 2 xi cos k - delta - n nu
    and x = a_k t, each mode's window integral is elementary,
    int_0^t (1 - tau/t) exp(i a_k tau) dtau = t [sinc^2(x/2) / 2 + i (x - sin x) / x^2],
    so C_e(t) = exp(i omega t / 2) [1 - (t^2 g^2 / N) J_n(chi)^2
    sum_k (sinc^2(x/2) / 2 + i (x - sin x) / x^2)].
    """
    if check_time(t, positive=False) == 0.0:
        return 1.0 + 0.0j
    jn = bessel_j(n, params.chi)
    x = (2.0 * params.xi * np.cos(grid.momenta) - params.delta - n * params.drive_freq) * t
    window = complex(0.5 * _sinc_sq(0.5 * x).sum(), _ramp_sine(x).sum())
    phase = complex(math.cos(0.5 * params.omega * t), math.sin(0.5 * params.omega * t))
    return phase * (1.0 - t * t * params.g**2 / grid.n_cavities * jn * jn * window)


def survival_probability(
    params: SystemParams, grid: MomentumGrid, n: int, t: float, method: str = "perturbative"
) -> float:
    """P_e(t), either |C_e(t)|^2 or exp(-R(t) t)."""
    if check_time(t, positive=False) == 0.0:
        return 1.0
    if method == "perturbative":
        p = abs(survival_amplitude(params, grid, n, t)) ** 2
        if p > 1.0 + 1e-6:
            warnings.warn(
                f"perturbative P_e = {p:.6g} overshoots 1; second order is unreliable here",
                stacklevel=2,
            )
        return float(min(max(p, 0.0), 1.0))
    if method == "exponential":
        return math.exp(-decay_rate_finite(params, grid, n, t) * t)
    raise InvalidArgument(f"unknown method {method!r}")


def modulation_spectrum(params: SystemParams, n: int, t: float, omega: float) -> float:
    """f_n(omega) = (t / 2 pi) sinc^2((omega - omega_f) t / 2).

    Fourier transform of the Hermitian extension of the triangular
    window (1 - tau/t) exp(-i omega_f tau) on 0 <= tau <= t; the
    extension makes the transform real: a Fejer kernel of width 1/t
    centered at omega_f = delta + n nu.
    """
    check_time(t)
    omega_f = params.delta + n * params.drive_freq
    s = sinc((omega - omega_f) * t / 2.0)
    return t / (2.0 * math.pi) * (s * s)


def classify_regime(params: SystemParams, n: int, t: float) -> RegimeReport:
    """Width/center comparison of the two spectra at observation time t.

    Decoupled: |J_n(chi)| below DECOUPLING_THRESHOLD.
    Zeno: the kernel is much wider than both the reservoir response and
    its own center offset, delta_f >= SEPARATION * max(delta_g, |omega_f|).
    AntiZeno: the kernel is much narrower than its center offset and the
    center lies outside the band, delta_f <= |omega_f - omega_g| /
    SEPARATION and |omega_f| > 2 xi.
    Anything else: Indeterminate.
    """
    check_time(t)
    jn = bessel_j(n, params.chi)
    delta_f = 1.0 / t
    omega_f = params.delta + n * params.drive_freq
    delta_g = math.sqrt(2.0) * params.xi * params.g * abs(jn)
    omega_g = 0.0
    if abs(jn) < DECOUPLING_THRESHOLD:
        regime = DECOUPLED
    elif delta_f >= SEPARATION * max(delta_g, abs(omega_f)):
        regime = ZENO
    elif delta_f <= abs(omega_f - omega_g) / SEPARATION and abs(omega_f) > 2.0 * params.xi:
        regime = ANTI_ZENO
    else:
        regime = INDETERMINATE
    return RegimeReport(
        regime=regime, delta_f=delta_f, omega_f=omega_f, delta_g=delta_g, omega_g=omega_g
    )


def decay_curve(params: SystemParams, grid: MomentumGrid, n: int, times) -> DecayCurve:
    times = check_times(times)
    rates = np.array([decay_rate_finite(params, grid, n, t) for t in times])
    return DecayCurve(times=times, rates=rates, params=params, sideband=n)


def survival_curve(
    params: SystemParams, grid: MomentumGrid, n: int, times, method: str = "perturbative"
) -> SurvivalCurve:
    times = check_times(times, positive=False)
    probs = np.array([survival_probability(params, grid, n, t, method) for t in times])
    return SurvivalCurve(times=times, probabilities=probs, method=method)
