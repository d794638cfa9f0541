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

from .bath import MomentumGrid, spectral_density
from .errors import InvalidArgument, NonFiniteResult, QuadratureFailure, SecondSideband
from .params import SurvivalCurve, SystemParams, check_time, check_times, resonant_sidebands
from .specfun import MAX_ORDER, bessel_j, sinc

ZENO = "Zeno"
ANTI_ZENO = "AntiZeno"
DECOUPLED = "Decoupled"
INDETERMINATE = "Indeterminate"

# |J_n(chi)| below this counts as dynamically decoupled.
DECOUPLING_THRESHOLD = 1e-6

# Width-separation factor realizing the asymptotic inequalities of the
# regime criteria; a deliberate, tunable artifact choice.
SEPARATION = 10.0

# The lattice-sum kernel builds its (times x modes) arguments at most this
# many at a time, so each float temporary stays near 0.5 MB.
CHUNK_ELEMENTS = 1 << 16

# Past this bound * t an argument x = detuning * t / 2 can pass 5e149, where
# sinc^2(x) ~ 1/x^2 nears the smallest double; past about 1e154 it underflows
# to 0 while R(t) t stays O(1). Such times sum s (s t) with s = sinc(x)
# instead of t sum s^2. Below it the rates keep their bytes.
SCALED_ABOVE = 1e150

# Ceiling on xi * t for the two quadrature routes, whose sinc^2 kernel
# narrows to a width of about 1 / (xi t) of the band. Past it the overlap
# route's quad can miss the peak and report its tails, 1e-3 of the rate,
# as converged. In a seeded scan (see the README) both routes agreed with
# each other and the golden rule within 1e-3 at every draw up to
# xi t = 2e3; from 3e3 on some draws failed that way.
MAX_XI_T = 2e3


@dataclass(frozen=True, eq=False)
class DecayCurve:
    times: np.ndarray  # strictly increasing, > 0
    rates: np.ndarray  # R(t_i) >= 0
    params: SystemParams
    sideband: int


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    delta_f: float  # modulation-spectrum width 1/t
    omega_f: float  # modulation-spectrum center delta + n nu
    delta_g: float  # reservoir-response width sqrt(2) xi g |J_n(chi)|
    omega_g: float  # reservoir-response center, 0 for this band


def _sinc(x: np.ndarray) -> np.ndarray:
    # sin(x) / x with a series branch through x = 0.
    small = np.abs(x) < 1e-4
    out = np.sin(x)
    np.divide(out, x, out=out, where=~small)
    xs = x[small]
    x2 = xs * xs
    out[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return out


def _ramp_sine(x: np.ndarray) -> np.ndarray:
    # (x - sin x) / x^2 with a series branch where x - sin x cancels. Past
    # |x| = 1.3e154, x^2 overflows and the term, about 1/x, reads as 0.
    small = np.abs(x) < 0.1
    out = x - np.sin(x)
    with np.errstate(over="ignore"):
        np.divide(out, x * x, out=out, where=~small)
    xs = x[small]
    x2 = xs * xs
    out[small] = xs * (1.0 / 6.0 - x2 * (1.0 / 120.0 - x2 * (1.0 / 5040.0 - x2 / 362880.0)))
    return out


def _chunked(coeff: np.ndarray, times: np.ndarray, row_sums, out: np.ndarray) -> np.ndarray:
    """Fill out[..., i] with row_sums(coeff * t_i), each a sum over the modes.

    The arguments are built CHUNK_ELEMENTS at a time (one time per chunk
    once the modes alone exceed that), so the peak allocation does not grow
    with the number of times.
    """
    rows = max(1, CHUNK_ELEMENTS // coeff.size)
    for start in range(0, times.size, rows):
        t = times[start : start + rows, None]
        out[..., start : start + rows] = row_sums(coeff * t)
    return out


def _detuning(params: SystemParams, grid: MomentumGrid, n: int) -> tuple[np.ndarray, float]:
    """delta - 2 xi cos k + n nu per mode, and a bound >= its magnitude.

    With bound * t finite no argument detuning * t overflows. A finite
    bound bounds every mode; only when it overflows are the modes checked,
    and one that overflows raises NonFiniteResult.
    """
    detuning = params.delta - 2.0 * params.xi * grid.cos_k + n * params.drive_freq
    bound = abs(params.delta) + 2.0 * params.xi + abs(n * params.drive_freq)
    if bound == math.inf and not np.isfinite(detuning).all():
        raise NonFiniteResult(f"the detuning delta - 2 xi cos k + {n} nu overflows")
    return detuning, bound


def _rate_sums(x: np.ndarray) -> np.ndarray:
    # sum_k sinc^2(x_k / 2) over the last axis, x = detuning * t.
    s = _sinc(x / 2.0)
    return (s * s).sum(axis=-1)


def _rates(params: SystemParams, grid: MomentumGrid, n: int, times: np.ndarray) -> np.ndarray:
    """R(t) at checked, increasing times >= 0, with decay_rate_finite's bytes at each time > 0.

    R(0) = 0. Rows with bound * t <= SCALED_ABOVE go through the chunked
    kernel; the later ones, which no default time grid reaches, go through
    decay_rate_finite one at a time.
    """
    jn = bessel_j(n, params.chi)
    detuning, bound = _detuning(params, grid, n)
    # As in decay_rate_finite, a bound that overflows itself leaves every row plain.
    with np.errstate(over="ignore"):
        plain = times.size if bound == math.inf else int(np.count_nonzero(bound * times <= SCALED_ABOVE))
    head = times[:plain]
    totals = _chunked(detuning, head, _rate_sums, np.empty_like(head))
    rates = head * params.g_squared / grid.n_cavities * jn * jn * totals
    return np.concatenate((rates, [decay_rate_finite(params, grid, n, t) for t in times[plain:]]))


def _window_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sum_k sinc^2(x_k / 2) / 2 and sum_k (x_k - sin x_k) / x_k^2 over the last axis, x = a_k t.
    return 0.5 * _rate_sums(x), _ramp_sine(x).sum(axis=-1)


def _amplitudes(params: SystemParams, grid: MomentumGrid, n: int, times: np.ndarray) -> list[complex]:
    """C_e(t) at checked, increasing times >= 0: the kernel behind survival_curve and survival_amplitude.

    C_e(0) = 1. Before any row, a last time t at which t^2 g^2 J_n(chi)^2 / N,
    the largest argument max_k |a_k| t or the phase omega t / 2 is not
    finite raises NonFiniteResult; each grows with t, so no earlier row
    overflows there.
    """
    jn = bessel_j(n, params.chi)
    a = -_detuning(params, grid, n)[0]
    t = float(times[-1])
    scale, reach = t * t * params.g_squared / grid.n_cavities * jn * jn, float(np.abs(a).max()) * t
    if not all(map(math.isfinite, (scale, reach, 0.5 * params.omega * t))):
        raise NonFiniteResult(f"the perturbative amplitude overflows at t = {t:g}")
    windows = _chunked(a, times, _window_sums, np.empty((2, times.size)))
    amplitudes = []
    for t, real, imag in zip(times, *windows):
        phase = complex(math.cos(0.5 * params.omega * t), math.sin(0.5 * params.omega * t))
        amplitudes.append(phase * (1.0 - t * t * params.g_squared / grid.n_cavities * jn * jn * complex(real, imag)))
    return amplitudes


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


def _quad_limit(params: SystemParams, t: float) -> int:
    # Both quadrature routes see t only as xi t once omega is scaled by xi:
    # they refuse it past MAX_XI_T, and their subinterval limit follows it.
    reach = params.xi * check_time(t)
    if not reach <= MAX_XI_T:
        raise QuadratureFailure(f"xi t = {reach:g} exceeds {MAX_XI_T:g}, past which quad can miss the oscillations")
    return max(200, int(10.0 * reach))


def check_single_sideband(params: SystemParams, n: int) -> None:
    """Raise SecondSideband if another sideband m != n is in band with |J_m(chi)| >= DECOUPLING_THRESHOLD.

    Sideband n alone gives the decay only when no other sideband reaches
    the band. The search stops at the first such m and covers
    |m| <= e chi / 2 + 20, beyond which |J_m(chi)| <= (e chi / 2|m|)^|m|
    < e^-20; past MAX_ORDER, bessel_j raises OrderTooLarge.
    """
    reach = int(min(math.e * params.chi / 2.0 + 20.0, MAX_ORDER + 1.0))
    bands = resonant_sidebands(params)
    for m in range(max(bands.start, -reach), min(bands.stop, reach + 1)):
        if m != n and abs(bessel_j(m, params.chi)) >= DECOUPLING_THRESHOLD:
            raise SecondSideband(
                f"sideband {m} also lies in the band, so sideband {n} alone misses a decay channel"
            )


def decay_rate_finite(params: SystemParams, grid: MomentumGrid, n: int, t: float) -> float:
    """R(t) = (t g^2 / N) J_n(chi)^2 sum_k sinc^2((delta - 2 xi cos k + n nu) t / 2).

    A scalar twin of decay_curve's chunked kernel, with the same bytes; a
    sweep calls it once per point, where routing the one time through
    _rates would cost about 10 us more per call at N = 2001. Past
    bound * t = SCALED_ABOVE, R(t) is (g^2 / N) J_n(chi)^2 sum_k s (s t)
    with s = sinc((delta - 2 xi cos k + n nu) t / 2), so R(t) t does not
    underflow. Where detuning * t overflows, the phase of sin^2 cannot be
    resolved and the term is its phase average, 2 / (detuning^2 t).
    """
    t = float(check_time(t))
    jn = bessel_j(n, params.chi)
    detuning, bound = _detuning(params, grid, n)
    if bound * t <= SCALED_ABOVE or bound == math.inf:
        factor, total = t, _rate_sums(detuning * t)
    else:
        with np.errstate(over="ignore"):
            x = detuning * t
        finite = np.isfinite(x)
        s = _sinc(x[finite] / 2.0)
        far = detuning[~finite]
        factor, total = 1.0, (s * (s * t)).sum() + (2.0 / far / far / t).sum()
    # In Python floats, so an R(t) past the float range (a mode on resonance) overflows without a warning.
    rate = factor * params.g_squared / grid.n_cavities * jn * jn * float(total)
    if not math.isfinite(rate):
        raise NonFiniteResult(f"R(t) overflows at t = {t:g}")
    return rate


@dataclass(frozen=True)
class LongTimeRate:
    resonant: bool
    rate: float


def decay_rate_longtime(params: SystemParams, n: int) -> LongTimeRate:
    """Golden-rule limit of R(t).

    Resonant iff |delta + n nu| <= 2 xi, i.e. some band mode matches the
    shifted emitter frequency in the continuum; then
    R = 2 pi g^2 J_n(chi)^2 rho(delta + n nu). Off resonance the emitter
    keeps its excitation and the rate is zero. Band-edge evaluation
    raises BandEdgeSingularity (rho diverges there).
    """
    omega_f = params.delta + n * params.drive_freq
    rho = spectral_density(params.xi, omega_f)  # raises at the edge
    if rho == 0.0:
        return LongTimeRate(resonant=False, rate=0.0)
    jn = bessel_j(n, params.chi)
    return LongTimeRate(resonant=True, rate=2.0 * math.pi * params.g_squared * jn * jn * rho)


def decay_rate_continuum(params: SystemParams, n: int, t: float) -> float:
    """R(t) in the N -> infinity limit: momentum sum replaced by an integral.

    Integrates sinc^2((omega_f - 2 xi cos k) t / 2) over k in [0, pi]
    (the integrand is even about pi), with a breakpoint at the resonant
    momentum when omega_f lies inside the band.
    """
    limit = _quad_limit(params, t)
    omega_f = params.delta + n * params.drive_freq
    two_xi = 2.0 * params.xi
    half_t = t / 2.0

    def integrand(k: float) -> float:
        s = sinc((omega_f - two_xi * math.cos(k)) * half_t)
        return s * s

    points = [math.acos(omega_f / two_xi)] if abs(omega_f) < two_xi else None
    value = _quad_checked(integrand, 0.0, math.pi, points=points, limit=limit, epsabs=1e-13, epsrel=1e-10)
    jn = bessel_j(n, params.chi)
    return float(t * params.g_squared * jn * jn * value / math.pi)


def decay_rate_overlap(params: SystemParams, n: int, t: float) -> float:
    """R(t) by the frequency-domain route: 2 pi times the overlap of the
    modulation spectrum with the reservoir response.

    The inverse-square-root band-edge behavior of rho is handed to the
    quadrature as an algebraic endpoint weight, which keeps this route
    independent of the momentum-space one.
    """
    limit = _quad_limit(params, t)
    omega_f = params.delta + n * params.drive_freq
    two_xi = 2.0 * params.xi
    half_t = t / 2.0

    def kernel(omega: float) -> float:
        s = sinc((omega - omega_f) * half_t)
        return s * s

    # 2 pi int f_n g_n domega with f_n = (t / 2 pi) sinc^2(...) and
    # g_n = g^2 J_n^2 (1/pi) (4 xi^2 - omega^2)^(-1/2).
    value = _quad_checked(kernel, -two_xi, two_xi, weight="alg", wvar=(-0.5, -0.5), limit=limit)
    jn = bessel_j(n, params.chi)
    return float(t * params.g_squared * jn * jn * value / math.pi)


def survival_amplitude(params: SystemParams, grid: MomentumGrid, n: int, t: float) -> complex:
    """C_e(t) to second order in g, with the free emitter phase restored.

    C_e(t) = exp(i omega t / 2) [1 - t int_0^t (1 - tau/t) g_n(tau)
    exp(-i (delta + n nu) tau) dtau]. With a_k = 2 xi cos k - delta - n nu
    and x = a_k t, each mode's window integral is elementary,
    int_0^t (1 - tau/t) exp(i a_k tau) dtau = t [sinc^2(x/2) / 2 + i (x - sin x) / x^2],
    so C_e(t) = exp(i omega t / 2) [1 - (t^2 g^2 / N) J_n(chi)^2
    sum_k (sinc^2(x/2) / 2 + i (x - sin x) / x^2)].
    """
    return complex(_amplitudes(params, grid, n, np.array([check_time(t, positive=False)], dtype=float))[0])


def survival_probability(
    params: SystemParams, grid: MomentumGrid, n: int, t: float, method: str = "perturbative"
) -> float:
    """P_e(t), either |C_e(t)|^2 or exp(-R(t) t): the one-time case of survival_curve."""
    return float(survival_curve(params, grid, n, [t], method).probabilities[0])


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
    Zeno: the center lies inside the band, |omega_f| < 2 xi; the kernel
    reaches past the band edges, delta_f >= 2 xi (rho is convex inside the
    band, so a narrower kernel can average it above rho(omega_f)); and it is
    much wider than both the reservoir response and its own center
    offset, delta_f >= SEPARATION * max(delta_g, |omega_f|).
    AntiZeno: the kernel is much narrower than its center offset and the
    center lies outside the band, delta_f <= |omega_f - omega_g| /
    SEPARATION and |omega_f| > 2 xi.
    Anything else: Indeterminate.

    Valid domain: the labels agree with the Kofman-Kurizki criterion
    (Zeno: R(t) below the golden-rule rate, AntiZeno: above it) for
    t >= 1e-3 / xi, with no contradiction in 3000 random draws at
    N = 41 and N = 4001, nu = 6, |delta| <= 8, 0.5 <= chi <= 3, nor in
    3000 draws near the band center, |delta| <= 0.5, 0 <= chi <= 3.
    """
    check_time(t)
    jn = bessel_j(n, params.chi)
    delta_f = 1.0 / t
    omega_f = params.delta + n * params.drive_freq
    delta_g = math.sqrt(2.0) * params.xi * params.g * abs(jn)
    omega_g = 0.0
    if abs(jn) < DECOUPLING_THRESHOLD:
        regime = DECOUPLED
    elif abs(omega_f) < 2.0 * params.xi <= delta_f and delta_f >= SEPARATION * max(delta_g, abs(omega_f)):
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
    return DecayCurve(times=times, rates=_rates(params, grid, n, times), params=params, sideband=n)


def survival_curve(
    params: SystemParams, grid: MomentumGrid, n: int, times, method: str = "perturbative"
) -> SurvivalCurve:
    """P_e(t) on a time grid, either |C_e(t)|^2 or exp(-R(t) t); P_e(0) = 1 is an ordinary row.

    A perturbative P_e past 1 + 1e-6 means second order is unreliable there:
    it is clipped to 1, and one UserWarning per curve names the largest
    value and the number of clipped times.
    """
    if method not in ("perturbative", "exponential"):
        raise InvalidArgument(f"unknown method {method!r}")
    times = check_times(times, positive=False)
    if method == "exponential":
        # In Python floats an R(t) t past the float range gives exp(-inf) = 0 without a warning.
        rates = _rates(params, grid, n, times).tolist()
        probs = np.array([math.exp(-r * t) for r, t in zip(rates, times.tolist())])
    else:
        # |C_e|^2 past the float range reads as inf and is clipped below.
        with np.errstate(over="ignore"):
            probs = np.array([abs(c) ** 2 for c in _amplitudes(params, grid, n, times)])
        over = probs > 1.0 + 1e-6
        if over.any():
            warnings.warn(
                f"perturbative P_e up to {probs[over].max():.6g} overshoots 1 at {np.count_nonzero(over)} "
                f"of {times.size} times, clipped to 1; second order is unreliable here",
                stacklevel=2,
            )
        probs = np.clip(probs, 0.0, 1.0)
    return SurvivalCurve(times=times, probabilities=probs, method=method)
