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

Both band sums run through the one R(t) kernel, _rates: the ring's nodes
are the trapezoid rule in theta on [0, pi], the Gauss-Chebyshev nodes the
midpoint rule. That rule is exact to rounding once a ring has
bath.band_nodes(xi t) sites, so a ring sum at time t (of R(t) or C_e(t))
over a larger ring runs on the smaller power-of-two ring of
bath.ring_sizes. Acceptance criterion 9, which compares the two routes,
therefore checks the node rule and count, not the kernel. The kernel's
independent checks are tests/test_decay.py's scipy quad test
(test_band_sums_match_adaptive_quad_in_k_and_in_omega) and its mpmath
far-time test (test_rate_times_t_past_the_underflow_against_mpmath).

Regimes: R(t) climbing with t toward the golden-rule value marks Zeno
behavior (short observation windows see a broad kernel and decay is
suppressed); R(t) falling with t while omega_f sits outside the band
marks anti-Zeno behavior (only the kernel tails reach the band);
chi = A/nu at a root of J_n switches the coupling off entirely.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import MAX_CAVITIES, SMALLEST_RING, MomentumGrid, band_nodes, ring_nodes, ring_sizes, ring_sum, spectral_density
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

# The lattice-sum kernel builds its (times x nodes) arguments at most this
# many at a time, so each float temporary stays near 0.5 MB.
CHUNK_ELEMENTS = 1 << 16

# Past this reach * t an argument x = detuning * t / 2 can pass 5e149, where
# sinc^2(x) ~ 1/x^2 nears the smallest double; past about 1e154 it underflows
# to 0 while R(t) t stays O(1). Such times sum s (s t) with s = sinc(x)
# instead of t sum s^2. Below it the rates keep their bytes.
SCALED_ABOVE = 1e150

# Nothing here calls quad; the benchmark's tracer wraps this name when it installs.
quad = None


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
    # sin(x) / x with a series branch through x = 0, where the caller's errstate hides 0 / 0.
    out = np.sin(x)
    out /= x
    size = np.abs(x)
    if np.fmin.reduce(size, axis=None, initial=math.inf) < 1e-4:  # x may be empty or hold nan
        small = size < 1e-4
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


def _ring(nodes: np.ndarray, end: int, size: float) -> tuple[np.ndarray, int]:
    # The nodes and end of a ring of size sites: those given when they have size modes.
    return (nodes, end) if size == nodes.size + end - 1 else (ring_nodes(int(size)), int(size) // 2)


def _chunked(nodes: np.ndarray, end: int, bands: np.ndarray, times: np.ndarray, row_sums, out):
    """Fill out[..., b, i] with row_sums(detuning_b, t_i, end), a ring_sum; return each reach and the sites.

    Row b of bands is (delta, xi, n nu), so detuning_b = delta - 2 xi nodes + n nu;
    reach_b is max |detuning_b| over the given nodes: taken from the detunings
    built where the given nodes are summed, else at an end, as the nodes run from
    the largest cos to the smallest. A ring of N = nodes.size + end - 1 >
    SMALLEST_RING sites is summed at each band and time on bath.ring_sizes(N, xi t)
    sites, returned per band and time; else the sites are N, an int, and plain
    nodes (end = 1) are summed as given. Detunings and arguments are built at most
    CHUNK_ELEMENTS at a time (one band and time per block once the nodes alone
    exceed that), so the peak allocation grows with neither the bands nor the times.
    """
    delta, xi, shift = bands.T[:, :, None]
    modes = nodes.size + end - 1
    reach, sizes, blocks = np.empty(len(bands)), modes, [(0, len(bands), 0, times.size, nodes, end)]
    if modes > SMALLEST_RING and end > 1 and band_nodes(np.minimum.reduce(xi, axis=None) * times[0]) < modes:
        # A block may sum a smaller ring, so each reach is taken at the given end nodes.
        reach = np.maximum.reduce(np.abs(delta - 2.0 * xi * nodes[[0, -1]] + shift), axis=1)
        # A block: bands lo..hi-1 with one row of sizes, times first..stop-1 with one size.
        sizes, blocks = ring_sizes(modes, xi * times), []
        runs = [0, *(np.flatnonzero((sizes[1:] != sizes[:-1]).any(axis=1)) + 1).tolist(), len(bands)]
        for lo, hi in zip(runs, runs[1:]):
            cuts = [0, *(np.flatnonzero(sizes[lo, 1:] != sizes[lo, :-1]) + 1).tolist(), times.size]
            blocks += [(lo, hi, i, stop, *_ring(nodes, end, sizes[lo, i])) for i, stop in zip(cuts, cuts[1:])]
    for lo, hi, first, stop, ring, ring_end in blocks:
        times_per_block = max(1, CHUNK_ELEMENTS // ring.size)
        span = min(stop - first, times_per_block)
        step = times_per_block // span
        for b in range(lo, hi, step):
            rows = slice(b, min(b + step, hi))
            detuning = delta[rows] - 2.0 * xi[rows] * ring + shift[rows]
            if isinstance(sizes, int):  # the given nodes, summed as they are
                reach[rows] = np.maximum.reduce(np.abs(detuning), axis=1)
            for i in range(first, stop, span):
                cols = slice(i, min(i + span, stop))
                out[..., rows, cols] = row_sums(detuning[:, None], times[cols, None], ring_end)
    return reach, sizes


def _point(params: SystemParams, n: int) -> tuple[float, float, float, float, float]:
    """What the kernels read of sideband n at params: (delta, xi, n nu, g^2, J_n(chi))."""
    jn = bessel_j(n, params.chi)
    return params.delta, params.xi, n * params.drive_freq, params.g_squared, jn


def _rate_sums(detuning: np.ndarray, t, end: int) -> np.ndarray:
    # sum_k sinc^2(detuning_k t / 2) over the last axis. detuning * (t / 2) is
    # detuning * t / 2 exactly, but in the subnormals, where sinc is 1 either way.
    s = _sinc(detuning * (t / 2.0))
    return ring_sum(np.square(s, out=s), end)


@np.errstate(over="ignore", invalid="ignore")  # as a decorator, cheaper per call than a with block
def _rates(nodes: np.ndarray, end: int, points, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R(t) at each point and checked, increasing time >= 0: the kernel behind every R(t).

    The sum over k runs over nodes cos k counted as ring_sum(..., end) counts
    them, N = nodes.size + end - 1 modes in all: a grid's nodes and end, or
    N plain nodes with end = 1; a large ring is summed on the N sites _chunked
    returns for each band and time. points are _point rows. Returns R(t), one
    row per point and one column per time, and each point's reach
    max_k |detuning_k|; where either is not finite, R(t) reads inf or nan
    and callers check it. Points with the same band (delta, xi, n nu) share
    its sums, so a chi or g sweep sums the band once. R(0) = 0. A band and
    time with reach * t <= SCALED_ABOVE give (t g^2 / N) J_n(chi)^2 sum_k s^2
    with s = sinc(detuning_k t / 2), summed by _chunked. A later one, which no
    default time grid reaches, gives (g^2 / N) J_n(chi)^2 sum_k s (s t); a term
    whose detuning * t overflows is its phase average 2 / (detuning^2 t).
    """
    points = np.asarray(points, dtype=float)
    if len(points) > 1:  # distinct bands by their bytes, as np.unique(axis=0) would sort them far slower
        bands, band = np.unique(np.ascontiguousarray(points[:, :3]).view(np.dtype((np.void, 24)))[:, 0], return_inverse=True)
        bands = bands.view(float).reshape(-1, 3)
    else:
        bands, band = points[:, :3], slice(None)
    g_squared, jn = points[:, 3:].T[:, :, None]
    totals = np.empty((len(bands), times.size))
    reach, sizes = _chunked(nodes, end, bands, times, _rate_sums, totals)
    factors = times
    if not np.maximum.reduce(reach) * times[-1] <= SCALED_ABOVE:  # a later row, or a reach that is not finite
        scaled = ~(reach[:, None] * times <= SCALED_ABOVE)
        for b, i in zip(*np.nonzero(scaled)):
            delta, xi, shift = bands[b]
            ring, ring_end = _ring(nodes, end, np.broadcast_to(sizes, totals.shape)[b, i])
            detuning, t = delta - 2.0 * xi * ring + shift, times[i]
            x = detuning * t
            near = np.isfinite(x)
            s = _sinc(x[near] / 2.0)
            far = detuning[~near]
            terms = np.empty_like(x)
            terms[near], terms[~near] = s * (s * t), 2.0 / far / far / t
            totals[b, i] = ring_sum(terms, ring_end)
        totals[~np.isfinite(reach)] = math.nan
        factors = np.where(scaled, 1.0, times)[band]
    # An int N, as a scalar, lets numpy reuse the product's buffer for the quotient.
    sizes = sizes if isinstance(sizes, int) else sizes[band]
    rates = factors * g_squared / sizes * jn * jn * totals[band]
    return rates, reach[band]


def _point_rates(params: SystemParams, nodes: np.ndarray, end: int, n: int, times: np.ndarray) -> np.ndarray:
    """R(t) at one point by _rates, where a detuning or R(t) that is not finite raises NonFiniteResult."""
    rates, reach = _rates(nodes, end, [_point(params, n)], times)
    if not np.maximum.reduce(rates, axis=None) < math.inf:  # rates >= 0, so the largest is finite iff all are
        if not math.isfinite(reach[0]):
            raise NonFiniteResult(f"the detuning delta - 2 xi cos k + {n} nu overflows")
        raise NonFiniteResult(f"R(t) overflows at t = {times[~np.isfinite(rates[0])][0]:g}")
    return rates[0]


def _window_sums(detuning: np.ndarray, t, end: int) -> tuple[np.ndarray, np.ndarray]:
    # sum_k sinc^2(y_k / 2) / 2 and sum_k (y_k - sin y_k) / y_k^2 over the last axis, y = a_k t = -detuning * t.
    y = -(detuning * t)
    return 0.5 * _rate_sums(y, 1.0, end), ring_sum(_ramp_sine(y), end)


def _amplitudes(params: SystemParams, grid: MomentumGrid, n: int, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of C_e(t) at checked, increasing times >= 0: the kernel behind survival_curve and survival_amplitude.

    C_e(0) = 1. A detuning that is not finite raises NonFiniteResult, and so
    does a last time t at which t^2 g^2 J_n(chi)^2 / N, the largest argument
    max_k |a_k| t or the phase omega t / 2 is not finite; each grows with t,
    so no earlier row overflows there.
    """
    point = _point(params, n)
    g_squared, jn = point[3:]
    windows = np.empty((2, 1, times.size))
    with np.errstate(over="ignore", invalid="ignore"):
        reach, sizes = _chunked(grid.nodes, grid.end, np.array([point[:3]]), times, _window_sums, windows)
        reach, sizes = float(reach[0]), sizes if isinstance(sizes, int) else sizes[0]
        scale = times * times * g_squared / sizes * jn * jn
    if not math.isfinite(reach):
        raise NonFiniteResult(f"the detuning delta - 2 xi cos k + {n} nu overflows")
    t = float(times[-1])
    if not all(map(math.isfinite, (scale[-1], reach * t, 0.5 * params.omega * t))):
        raise NonFiniteResult(f"the perturbative amplitude overflows at t = {t:g}")
    # The one-time formula's complex products in real arrays, each into an operand not read again.
    window_re, window_im = windows[:, 0]
    np.subtract(1.0, np.multiply(scale, window_re, out=window_re), out=window_re)
    np.subtract(0.0, np.multiply(scale, window_im, out=window_im), out=window_im)
    phase = np.multiply(0.5 * params.omega, times, out=scale)
    cos, sin = np.cos(phase), np.sin(phase, out=phase)
    real = cos * window_re
    window_re *= sin
    real -= np.multiply(sin, window_im, out=sin)
    cos *= window_im
    cos += window_re  # cos window_im + sin window_re
    return real, cos


def _band_nodes(params: SystemParams, t: float) -> int:
    """bath.band_nodes at xi t for t > 0: past MAX_CAVITIES nodes, SizeTooLarge before anything is built."""
    reach = params.xi * check_time(t)
    nodes = band_nodes(reach)
    if not nodes <= MAX_CAVITIES:
        raise SizeTooLarge(f"xi t = {reach:g} needs {nodes:.4g} band nodes, past the ceiling {MAX_CAVITIES}")
    return int(nodes)


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
    return float(_point_rates(params, grid.nodes, grid.end, n, np.array([check_time(t)], dtype=float))[0])


@dataclass(frozen=True)
class LongTimeRate:
    resonant: bool
    rate: float


def decay_rate_longtime(params: SystemParams, n: int, *, jn: float | None = None) -> LongTimeRate:
    """Golden-rule limit of R(t); jn is J_n(chi), evaluated here when needed and not given.

    Resonant iff |delta + n nu| <= 2 xi, i.e. some band mode matches the
    shifted emitter frequency in the continuum; then R = 2 pi g^2 J_n(chi)^2
    rho(delta + n nu). Off resonance the emitter keeps its excitation and the
    rate is zero. Band-edge evaluation raises BandEdgeSingularity (rho diverges
    there); a delta + n nu that is not a finite float raises NonFiniteResult.
    """
    try:
        omega_f = params.delta + n * params.drive_freq
    except OverflowError:  # an int n past the float range
        omega_f = math.inf
    if not math.isfinite(omega_f):
        raise NonFiniteResult(f"delta + n nu is not a finite float at n = {n}")
    rho = spectral_density(params.xi, omega_f)  # raises at the edge
    if rho == 0.0:
        return LongTimeRate(resonant=False, rate=0.0)
    if jn is None:
        jn = bessel_j(n, params.chi)
    return LongTimeRate(resonant=True, rate=2.0 * math.pi * params.g_squared * jn * jn * rho)


def decay_rate_continuum(params: SystemParams, n: int, t: float) -> float:
    """R(t) in the N -> infinity limit, (t g^2 / pi) J_n(chi)^2 int_0^pi sinc^2((omega_f - 2 xi cos k) t / 2) dk.

    The ring's lattice sum, taken over its distinct nodes 0 <= k <= pi with
    k = 0 and k = pi counted once and every other node twice, is exactly the
    trapezoid rule for that integral on [0, pi] (for odd N, the N-point
    periodic rule on [0, 2 pi] folded onto [0, pi]), so this is
    decay_rate_finite on a ring of _band_nodes(params, t) sites.
    """
    sites = _band_nodes(params, t)
    return float(_point_rates(params, ring_nodes(sites), (sites + 1) // 2, n, np.array([t], dtype=float))[0])


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
    # end = 1: these nodes have no pairs, so each counts once.
    return float(_point_rates(params, cos_theta, 1, n, np.array([t], dtype=float))[0])


def survival_amplitude(params: SystemParams, grid: MomentumGrid, n: int, t: float) -> complex:
    """C_e(t) to second order in g, with the free emitter phase restored.

    C_e(t) = exp(i omega t / 2) [1 - t int_0^t (1 - tau/t) g_n(tau)
    exp(-i (delta + n nu) tau) dtau]. With a_k = 2 xi cos k - delta - n nu
    and x = a_k t, each mode's window integral is elementary,
    int_0^t (1 - tau/t) exp(i a_k tau) dtau = t [sinc^2(x/2) / 2 + i (x - sin x) / x^2],
    so C_e(t) = exp(i omega t / 2) [1 - (t^2 g^2 / N) J_n(chi)^2
    sum_k (sinc^2(x/2) / 2 + i (x - sin x) / x^2)].
    """
    real, imag = _amplitudes(params, grid, n, np.array([check_time(t, positive=False)], dtype=float))
    return complex(real[0], imag[0])


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


def classify_regime(params: SystemParams, n: int, t: float, *, jn: float | None = None) -> RegimeReport:
    """Width/center comparison of the two spectra at observation time t.

    jn is J_n(chi), evaluated here when not given; a sweep passes the value it
    evaluated once for all of its points with that (n, chi).

    Decoupled: |J_n(chi)| below DECOUPLING_THRESHOLD.
    Zeno: the center lies inside the band, |omega_f| < 2 xi; the kernel
    reaches past the band edges, delta_f >= 2 xi (rho is convex inside the
    band, so a narrower kernel can average it above rho(omega_f)); and it is
    much wider than both the reservoir response and its own center
    offset, delta_f >= SEPARATION * max(delta_g, |omega_f|).
    AntiZeno: the kernel is much narrower than its center offset and the
    center lies outside the band, delta_f <= |omega_f - omega_g| /
    SEPARATION and |omega_f| > 2 xi.
    Anything else: Indeterminate. A report field past the float range
    (1/t, delta + n nu or delta_g) raises NonFiniteResult, as the
    `classify` row that prints it does.

    Valid domain: test_regime_labels_agree_with_the_golden_rule checks
    that the labels agree with the Kofman-Kurizki criterion (Zeno: R(t)
    below the golden-rule rate, AntiZeno: above it) on draws with xi = 1,
    g = 0.25, nu = 6, |delta| <= 8, 0.5 <= chi <= 3 and 1e-3 <= t <= 100,
    R(t) from the N = 4001 lattice sum.
    """
    check_time(t)
    if jn is None:
        jn = bessel_j(n, params.chi)
    delta_f = 1.0 / t
    omega_f = params.delta + n * params.drive_freq
    delta_g = math.sqrt(2.0) * params.xi * params.g * abs(jn)
    omega_g = 0.0
    if not (math.isfinite(delta_f) and math.isfinite(omega_f) and math.isfinite(delta_g)):
        fields = f"delta_f = {delta_f!r}, omega_f = {omega_f!r}, delta_g = {delta_g!r}"
        raise NonFiniteResult(f"a regime report field is not finite: {fields}")
    if abs(jn) < DECOUPLING_THRESHOLD:
        regime = DECOUPLED
    elif abs(omega_f) < 2.0 * params.xi <= delta_f and delta_f >= SEPARATION * max(delta_g, abs(omega_f)):
        regime = ZENO
    elif delta_f <= abs(omega_f - omega_g) / SEPARATION and abs(omega_f) > 2.0 * params.xi:
        regime = ANTI_ZENO
    else:
        regime = INDETERMINATE
    return RegimeReport(regime, delta_f, omega_f, delta_g, omega_g)  # positional, the fields' order: a sweep calls this per point


def decay_curve(params: SystemParams, grid: MomentumGrid, n: int, times) -> DecayCurve:
    times = check_times(times)
    rates = _point_rates(params, grid.nodes, grid.end, n, times)
    return DecayCurve(times=times, rates=rates, params=params, sideband=n)


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
        rates = _point_rates(params, grid.nodes, grid.end, n, times).tolist()
        probs = np.array([math.exp(-r * t) for r, t in zip(rates, times.tolist())])
    else:
        # |C_e|^2 past the float range reads as inf and is clipped below. float_power
        # squares by pow() where ** 2 would multiply, so each P_e keeps its bytes.
        real, imag = _amplitudes(params, grid, n, times)
        with np.errstate(over="ignore"):
            probs = np.float_power(np.hypot(real, imag, out=real), 2.0, out=real)
        over = probs > 1.0 + 1e-6
        if over.any():
            warnings.warn(
                f"perturbative P_e up to {probs[over].max():.6g} overshoots 1 at {np.count_nonzero(over)} "
                f"of {times.size} times, clipped to 1; second order is unreliable here",
                stacklevel=2,
            )
        np.clip(probs, 0.0, 1.0, out=probs)
    return SurvivalCurve(times=times, probabilities=probs, method=method)
