"""Finite-time decay of the driven emitter, to second order in g.

The survival amplitude after time t involves the reservoir correlation
function g_n(tau) filtered by a triangular time window; on the lattice
that window integral is elementary mode by mode, so C_e(t) is a
closed-form O(N) sum (see survival_amplitude). Equivalently, the decay
rate R(t) is the overlap of a modulation spectrum f_n(omega),
a Fejer kernel of width 1/t centered at omega_f = delta + n nu, with
the reservoir response g_n(omega). Two routes give the N -> infinity
R(t) as band sums: the momentum integral as the lattice sum on a ring
large enough for xi t (decay_rate_continuum), and the frequency-domain
overlap integral by Gauss-Chebyshev quadrature, whose weight is the
arcsine density itself (decay_rate_overlap). The long-time golden-rule
limit is R = 2 pi g^2 J_n(chi)^2 rho(delta + n nu).

Regimes: R(t) climbing with t toward the golden-rule value marks Zeno
behavior (short observation windows see a broad kernel and decay is
suppressed); R(t) falling with t while omega_f sits outside the band
marks anti-Zeno behavior (only the kernel tails reach the band);
chi = A/nu at a root of J_n switches the coupling off entirely.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bath import MAX_CAVITIES, MomentumGrid, build_grid, spectral_density
from .errors import InvalidArgument, NonFiniteResult, SecondSideband, SizeTooLarge
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

# Past this reach * t an argument x = detuning * t / 2 can pass 5e149, where
# sinc^2(x) ~ 1/x^2 nears the smallest double; past about 1e154 it underflows
# to 0 while R(t) t stays O(1). Such times sum s (s t) with s = sinc(x)
# instead of t sum s^2. Below it the rates keep their bytes.
SCALED_ABOVE = 1e150

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


def _detuning(params: SystemParams, cos_k: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """delta - 2 xi cos k + n nu per node cos k, and its reach max_k |detuning_k|.

    With reach * t finite no argument detuning * t overflows. A mode whose
    detuning overflows raises NonFiniteResult, so the reach is finite.
    """
    detuning = params.delta - 2.0 * params.xi * cos_k + n * params.drive_freq
    reach = float(np.abs(detuning).max())
    if not math.isfinite(reach):
        raise NonFiniteResult(f"the detuning delta - 2 xi cos k + {n} nu overflows")
    return detuning, reach


def _rate_sums(x: np.ndarray) -> np.ndarray:
    # sum_k sinc^2(x_k / 2) over the last axis, x = detuning * t.
    s = _sinc(x / 2.0)
    return (s * s).sum(axis=-1)


def _rates(params: SystemParams, cos_k: np.ndarray, n: int, times: np.ndarray) -> np.ndarray:
    """R(t) at checked, increasing times >= 0: the kernel behind every R(t), over the N nodes cos_k.

    R(0) = 0. Rows with reach * t <= SCALED_ABOVE go through the chunked
    kernel. A later row, which no default time grid reaches, is
    (g^2 / N) J_n(chi)^2 sum_k s (s t) with s = sinc(detuning_k t / 2); a term
    whose detuning * t overflows is its phase average 2 / (detuning^2 t). An
    R(t) past the float range (a mode on resonance) raises NonFiniteResult.
    """
    jn = bessel_j(n, params.chi)
    detuning, reach = _detuning(params, cos_k, n)
    # An overflow shows as a non-finite rate, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        plain = int(np.count_nonzero(reach * times <= SCALED_ABOVE))
        factors, totals = times.copy(), np.empty_like(times)
        _chunked(detuning, times[:plain], _rate_sums, totals[:plain])
        for i in range(plain, times.size):
            x = detuning * times[i]
            finite = np.isfinite(x)
            s = _sinc(x[finite] / 2.0)
            far = detuning[~finite]
            factors[i], totals[i] = 1.0, (s * (s * times[i])).sum() + (2.0 / far / far / times[i]).sum()
        rates = factors * params.g_squared / cos_k.size * jn * jn * totals
    if not np.isfinite(rates).all():
        raise NonFiniteResult(f"R(t) overflows at t = {times[~np.isfinite(rates)][0]:g}")
    return rates


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
    detuning, reach = _detuning(params, grid.cos_k, n)
    a, t = -detuning, float(times[-1])
    scale = t * t * params.g_squared / grid.n_cavities * jn * jn
    if not all(map(math.isfinite, (scale, reach * t, 0.5 * params.omega * t))):
        raise NonFiniteResult(f"the perturbative amplitude overflows at t = {t:g}")
    windows = _chunked(a, times, _window_sums, np.empty((2, times.size)))
    amplitudes = []
    for t, real, imag in zip(times, *windows):
        phase = complex(math.cos(0.5 * params.omega * t), math.sin(0.5 * params.omega * t))
        amplitudes.append(phase * (1.0 - t * t * params.g_squared / grid.n_cavities * jn * jn * complex(real, imag)))
    return amplitudes


def __getattr__(name: str):
    # Nothing here calls quad. `decay.quad` resolves, on first access, only
    # because the benchmark's tracer wraps that name when it installs.
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _band_nodes(params: SystemParams, t: float) -> int:
    """Nodes N at which a band sum at time t > 0 is its N -> infinity integral to rounding.

    In k, sinc^2((omega_f - 2 xi cos k) t / 2) is periodic and entire, and its
    Fourier coefficients are averages of J_m(2 xi tau) over |tau| <= t, which
    die off past m = 2 xi t within a layer of width ~ (xi t)^(1/3) (DLMF
    10.19(iii)). An N-node rule errs by the coefficients past N (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)), so N = 2 xi t + 12 (xi t)^(1/3) + 32
    (see the README). Past MAX_CAVITIES nodes, SizeTooLarge before anything is built.
    """
    reach = params.xi * check_time(t)
    nodes = 2.0 * reach + 12.0 * reach ** (1.0 / 3.0) + 32.0
    if not nodes <= MAX_CAVITIES:
        raise SizeTooLarge(f"xi t = {reach:g} needs {nodes:.4g} band nodes, past the ceiling {MAX_CAVITIES}")
    return math.ceil(nodes)


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
    """R(t) = (t g^2 / N) J_n(chi)^2 sum_k sinc^2((delta - 2 xi cos k + n nu) t / 2): decay_curve at one time t > 0."""
    return float(_rates(params, grid.cos_k, n, np.array([check_time(t)], dtype=float))[0])


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
    """R(t) in the N -> infinity limit, (t g^2 / pi) J_n(chi)^2 int_0^pi sinc^2((omega_f - 2 xi cos k) t / 2) dk.

    The ring's own lattice sum is the trapezoid rule for that integral, so
    this is decay_rate_finite on a ring of _band_nodes(params, t) sites.
    """
    ring = replace(params, n_cavities=_band_nodes(params, t))
    return decay_rate_finite(ring, build_grid(ring), n, t)


def decay_rate_overlap(params: SystemParams, n: int, t: float) -> float:
    """R(t) by the frequency-domain route: 2 pi times the overlap of the
    modulation spectrum with the reservoir response.

    With f_n = (t / 2 pi) sinc^2((omega - omega_f) t / 2) and
    g_n = g^2 J_n(chi)^2 rho(omega), 2 pi int f_n g_n domega is
    t g^2 J_n(chi)^2 int sinc^2 rho domega. The arcsine density rho is the
    Gauss-Chebyshev weight, so the integral is the mean of sinc^2 over the
    nodes omega_j = 2 xi cos((j + 1/2) pi / N), none of which is a ring
    momentum's energy.
    """
    nodes = _band_nodes(params, t)
    cos_theta = np.cos((np.arange(nodes) + 0.5) * (math.pi / nodes))
    return float(_rates(params, cos_theta, n, np.array([t], dtype=float))[0])


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
    centered at omega_f = delta + n nu. A non-finite omega is InvalidArgument.
    """
    check_time(t)
    if not math.isfinite(omega):
        raise InvalidArgument(f"omega must be finite, got {omega!r}")
    x = (omega - (params.delta + n * params.drive_freq)) * t / 2.0
    if not math.isfinite(x):
        raise NonFiniteResult(f"the phase (omega - omega_f) t / 2 overflows at omega = {omega:g}, t = {t:g}")
    s = sinc(x)
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
    return DecayCurve(times=times, rates=_rates(params, grid.cos_k, n, times), params=params, sideband=n)


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
        rates = _rates(params, grid.cos_k, n, times).tolist()
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
