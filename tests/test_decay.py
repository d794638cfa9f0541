"""Decay rates, survival amplitudes, modulation spectrum, regime classifier."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from floquet_zeno import cli, decay
from floquet_zeno.bath import build_grid, memory_function, response_spectrum
from floquet_zeno.decay import (
    ANTI_ZENO,
    CHUNK_ELEMENTS,
    DECOUPLED,
    INDETERMINATE,
    SCALED_ABOVE,
    ZENO,
    check_single_sideband,
    classify_regime,
    decay_curve,
    decay_rate_continuum,
    decay_rate_finite,
    decay_rate_longtime,
    decay_rate_overlap,
    modulation_spectrum,
    survival_amplitude,
    survival_curve,
    survival_probability,
)
from floquet_zeno.errors import (
    BandEdgeSingularity,
    ConfigError,
    InvalidArgument,
    NonFiniteResult,
    SecondSideband,
    SizeTooLarge,
)
from floquet_zeno.floquet import averaged_transition_probability, reduced_hamiltonian
from floquet_zeno.params import SystemParams, default_sideband, validate
from floquet_zeno.specfun import bessel_j

J0_ROOT = 2.4048255576957733


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def fig3(delta: float, chi: float) -> SystemParams:
    return make(omega_c=2.0 + delta, drive_amp=chi * 6.0)


def test_rate_zero_coupling():
    p = make(g=0.0)
    assert decay_rate_finite(p, build_grid(p), 0, 3.0) == 0.0


def test_rate_single_resonant_mode():
    # One cavity at delta = 2 xi sits exactly on resonance: R = t g^2.
    p = make(n_cavities=1, omega_c=4.0, drive_amp=0.0)
    assert decay_rate_finite(p, build_grid(p), 0, 4.0) == pytest.approx(0.25, rel=1e-14)


def test_rate_past_the_float_range():
    # At t = 1e308 the sinc^2 argument of the off-resonant mode (detuning
    # 4 xi) overflows and its term is its phase average 2 / (16 t), beside
    # which the resonant mode (detuning 0, sinc^2 = 1) gives R = t g^2 / 2.
    # No RuntimeWarning, which this suite turns into an error. Points with
    # no mode on resonance are checked against mpmath below.
    p = make(n_cavities=2, omega_c=4.0, drive_amp=0.0)
    grid = build_grid(p)
    for t in (1e308, 1.7976931348623157e308):
        assert decay_rate_finite(p, grid, 0, t) == pytest.approx(t * 0.25**2 / 2.0, rel=1e-14)


def test_rate_suppressed_at_decoupling_point():
    p = fig3(3.0, 2.404825557695773)
    grid = build_grid(p)
    for t in (0.1, 1.0, 10.0, 20.0):
        assert decay_rate_finite(p, grid, 0, t) <= 1e-10


def test_rate_grows_in_zeno_regime():
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    r2 = decay_rate_finite(p, grid, 0, 2.0)
    r10 = decay_rate_finite(p, grid, 0, 10.0)
    assert 0.0 < r2 < r10


def test_rate_descends_in_anti_zeno_regime():
    p = fig3(3.0, 1.0)
    grid = build_grid(p)
    assert decay_rate_finite(p, grid, 0, 10.0) < decay_rate_finite(p, grid, 0, 2.0)


def test_rate_requires_positive_time():
    # A library caller catching ValueError and the CLI catching ConfigError
    # (exit 2) both see a bad time.
    assert issubclass(InvalidArgument, ConfigError) and issubclass(InvalidArgument, ValueError)
    p = make()
    grid = build_grid(p)
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidArgument):
            decay_rate_finite(p, grid, 0, t)
        with pytest.raises(InvalidArgument):
            classify_regime(p, 0, t)
        with pytest.raises(InvalidArgument):
            decay_rate_continuum(p, 0, t)
        with pytest.raises(InvalidArgument):
            decay_rate_overlap(p, 0, t)
        with pytest.raises(InvalidArgument):
            modulation_spectrum(p, 0, t, 0.0)
    # t = 0 is allowed where the function has a value there.
    fm = reduced_hamiltonian(p, grid, 0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            survival_amplitude(p, grid, 0, t)
        for method in ("perturbative", "exponential"):
            with pytest.raises(InvalidArgument):
                survival_probability(p, grid, 0, t, method)
        with pytest.raises(InvalidArgument):
            averaged_transition_probability(fm, 0, 0, t)


def test_unknown_method_is_rejected_at_time_zero():
    p = make()
    grid = build_grid(p)
    with pytest.raises(InvalidArgument):
        survival_probability(p, grid, 0, 0.0, "bogus")
    for times in ([0.0], [0.0, 1.0]):
        with pytest.raises(InvalidArgument):
            survival_curve(p, grid, 0, times, method="bogus")


def test_longtime_band_center():
    # 2 pi g^2 J_0(0)^2 rho(0) with rho(0) = 1/(2 pi): rate = g^2 = 0.0625.
    p = make(omega_c=2.0, drive_amp=0.0)
    result = decay_rate_longtime(p, 0)
    assert result.resonant
    assert result.rate == pytest.approx(0.0625, rel=1e-12)


def test_longtime_outside_band():
    p = make(omega_c=5.0, drive_freq=50.0, drive_amp=0.0)
    result = decay_rate_longtime(p, 0)
    assert not result.resonant
    assert result.rate == 0.0


def test_longtime_at_decoupling_point():
    p = make(omega_c=2.5, drive_amp=J0_ROOT * 6.0)
    result = decay_rate_longtime(p, 0)
    assert result.rate <= 1e-24


def test_longtime_band_edge_raises():
    p = make(omega_c=4.0, drive_amp=0.0)  # delta = 2 xi exactly
    with pytest.raises(BandEdgeSingularity):
        decay_rate_longtime(p, 0)


@pytest.mark.parametrize(
    "overrides, n",
    [
        (dict(drive_freq=1e306), 1000),  # n nu overflows to inf
        (dict(), 10**400),  # n itself is past the float range
        (dict(omega_c=1.7e308, omega=-1.7e308), 0),  # delta overflows
        (dict(omega_c=1.7e308, omega=-1.7e308, drive_freq=1e306), -(10**400)),
    ],
    ids=["n-nu", "huge-n", "delta", "delta-and-huge-n"],
)
def test_longtime_center_past_the_float_range_is_a_non_finite_result(overrides, n):
    # delta + n nu is the result's center, not an argument: past the float range it is
    # NonFiniteResult (exit 3), whether J_n(chi) is given or not.
    p = make(**overrides)
    for jn in (None, 0.5):
        with pytest.raises(NonFiniteResult):
            decay_rate_longtime(p, n, jn=jn)


def test_continuum_matches_dense_grid():
    p_dense = make(omega_c=3.0, n_cavities=2001)
    grid = build_grid(p_dense)
    for t in (2.0, 10.0, 20.0):
        dense = decay_rate_finite(p_dense, grid, 0, t)
        continuum = decay_rate_continuum(p_dense, 0, t)
        assert abs(dense - continuum) / continuum <= 1e-4


def test_continuum_approaches_golden_rule():
    for delta in (0.0, 1.0, -1.5):
        p = make(omega_c=2.0 + delta)
        golden = decay_rate_longtime(p, 0).rate
        late = decay_rate_continuum(p, 0, 200.0)
        assert abs(late - golden) / golden <= 0.02


def test_continuum_zero_coupling():
    p = make(g=0.0)
    assert decay_rate_continuum(p, 0, 5.0) == 0.0


def test_overlap_route_equals_momentum_route():
    for delta, chi, n, t in ((1.0, 1.0, 0, 5.0), (3.0, 1.0, 0, 5.0), (0.0, 0.5, 0, 3.0)):
        p = make(omega_c=2.0 + delta, drive_amp=chi * 6.0)
        a = decay_rate_overlap(p, n, t)
        b = decay_rate_continuum(p, n, t)
        assert abs(a - b) / max(abs(a), abs(b)) <= 1e-3


def test_overlap_longtime_limit_is_golden_rule():
    p = fig3(1.0, 1.0)
    golden = decay_rate_longtime(p, 0).rate
    assert abs(decay_rate_overlap(p, 0, 500.0) - golden) / golden <= 1e-2


@pytest.mark.parametrize(
    "overrides, t",
    [({}, 1e5), ({"xi": 10.0}, 1e4), ({}, 3e8), ({"xi": 1e-3}, 1e12)],
    ids=["silent-at-xi-t-1e5", "silent-at-xi-10", "limit-overflow", "small-xi"],
)
def test_quadrature_routes_refuse_past_their_ceiling(overrides, t):
    # The ids name how adaptive quad failed here: at xi t = 1e5 it returned
    # 2e-4 of the golden rate as converged, and past t ~ 2e8 its subinterval
    # limit overflowed. The band sums reach xi t = 1e5, and refuse a node
    # count past MAX_CAVITIES (xi t above about 5.2e5).
    p = make(omega_c=2.0, drive_amp=6.0, **overrides)
    golden = decay_rate_longtime(p, 0).rate
    for route in (decay_rate_continuum, decay_rate_overlap):
        if p.xi * t <= 1e5:
            assert abs(route(p, 0, t) - golden) <= 1e-6 * golden
        else:
            with pytest.raises(SizeTooLarge, match="band nodes"):
                route(p, 0, t)


def test_quadrature_limit_follows_xi_t():
    # The node count follows xi t, not t: at xi = 1e-6 a t of 1e9 is
    # xi t = 1e3, about 2150 nodes.
    p = make(omega_c=2.0, drive_amp=6.0, xi=1e-6, g=1e-3)
    golden = decay_rate_longtime(p, 0).rate
    a, b = decay_rate_continuum(p, 0, 1e9), decay_rate_overlap(p, 0, 1e9)
    assert abs(a - b) / max(a, b) <= 1e-3
    assert abs(a - golden) / golden <= 1e-2


def test_quadrature_routes_agree_at_their_ceiling():
    # Seeded draws at xi t = 2e3: the routes agree with each other and the golden rule.
    rng = np.random.default_rng(11)
    for _ in range(6):
        xi = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        p = make(xi=xi, omega_c=2.0 + rng.uniform(-1.9, 1.9) * xi, drive_amp=6.0 * rng.uniform(0.3, 2.0))
        golden = decay_rate_longtime(p, 0).rate
        a, b = decay_rate_continuum(p, 0, 2e3 / xi), decay_rate_overlap(p, 0, 2e3 / xi)
        assert abs(a - b) / max(a, b) <= 1e-3
        assert max(abs(a - golden), abs(b - golden)) / golden <= 1e-3


def _sinc2(x: float) -> float:
    s = math.sin(x) / x if x else 1.0
    return s * s


def test_band_sums_match_adaptive_quad_in_k_and_in_omega():
    # Both routes against scipy's quad at seeded draws up to xi t = 2e3:
    # in band, out of band, 1e-3 to 1e-9 of the half-width inside an edge,
    # and at n = +-1. The k form breaks at the resonant momentum. The omega
    # form hands each edge's inverse square root to quad's "alg" weight, one
    # half band at a time: over the whole band at once, quad lost 1e-6 of
    # the value at xi t near 1100 and reported only a roundoff warning.
    rng = np.random.default_rng(5)
    for i in range(40):
        xi = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        xi_t = math.exp(rng.uniform(math.log(0.5), math.log(2e3)))
        kind = i % 4
        if kind == 1:
            u = rng.choice((-1.0, 1.0)) * rng.uniform(1.02, 1.5)
        elif kind == 2:
            u = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-9.0, -3.0))
        else:
            u = rng.uniform(-0.95, 0.95)
        n = int(rng.choice((-1, 1))) if kind == 3 else 0
        two_xi, nu, t = 2.0 * xi, 6.0 * xi, xi_t / xi
        omega_f = two_xi * u
        p = make(xi=xi, omega_c=2.0 + omega_f - n * nu, drive_freq=nu, drive_amp=nu * rng.uniform(0.3, 2.0))
        half_t = t / 2.0
        opts = dict(limit=max(200, int(10.0 * xi_t)), epsabs=0.0, epsrel=1e-12)
        points = [math.acos(omega_f / two_xi)] if abs(omega_f) < two_xi else None
        in_k = quad(lambda k: _sinc2((omega_f - two_xi * math.cos(k)) * half_t), 0.0, math.pi, points=points, **opts)[0]
        in_omega = (
            quad(lambda w: _sinc2((w - omega_f) * half_t) / math.sqrt(two_xi - w), -two_xi, 0.0, weight="alg",
                 wvar=(-0.5, 0.0), **opts)[0]
            + quad(lambda w: _sinc2((w - omega_f) * half_t) / math.sqrt(two_xi + w), 0.0, two_xi, weight="alg",
                   wvar=(0.0, -0.5), **opts)[0]
        )
        # R = (t g^2 / pi) J_n(chi)^2 times either integral.
        scale = t * p.g**2 * bessel_j(n, p.chi) ** 2 / math.pi
        for route in (decay_rate_continuum, decay_rate_overlap):
            rate = route(p, n, t)
            for reference in (in_k, in_omega):
                assert abs(rate - scale * reference) <= 1e-10 * scale * reference, (route.__name__, xi, xi_t, u, n)


def test_amplitude_at_zero_time():
    p = make()
    assert survival_amplitude(p, build_grid(p), 0, 0.0) == 1.0 + 0.0j


def test_amplitude_zero_coupling_stays_on_circle():
    p = make(g=0.0)
    grid = build_grid(p)
    for t in (1.0, 5.0):
        assert abs(survival_amplitude(p, grid, 0, t)) == pytest.approx(1.0, abs=1e-14)


def test_amplitude_quadratic_onset():
    # 1 - |C_e(t)|^2 = g^2 J_n(chi)^2 t^2 + O(t^4).
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    t = 0.01
    jn = bessel_j(0, 1.0)
    drop = 1.0 - abs(survival_amplitude(p, grid, 0, t)) ** 2
    assert abs(drop - p.g**2 * jn * jn * t * t) <= 1e-9


def _amplitude_by_quadrature(p, grid, n, t):
    # The window integral done numerically over the memory function,
    # independent of the closed form in survival_amplitude.
    omega_f = p.delta + n * p.drive_freq

    def integrand(tau):
        return (1.0 - tau / t) * memory_function(grid, p, n, tau) * complex(
            math.cos(omega_f * tau), -math.sin(omega_f * tau)
        )

    limit = max(200, int(20.0 * t))
    real, _ = quad(lambda tau: integrand(tau).real, 0.0, t, limit=limit, epsabs=1e-12)
    imag, _ = quad(lambda tau: integrand(tau).imag, 0.0, t, limit=limit, epsabs=1e-12)
    phase = complex(math.cos(0.5 * p.omega * t), math.sin(0.5 * p.omega * t))
    return phase * (1.0 - t * complex(real, imag))


@pytest.mark.parametrize(
    "p",
    [
        fig3(1.0, 1.0),
        fig3(3.0, 1.0),
        # omega_f = 0 with N = 4 puts the k = pi/2 mode at a_k ~ 1e-16;
        # one cavity at delta = 2 xi puts its only mode at a_k = 0 exactly.
        make(n_cavities=4, omega_c=2.0, drive_amp=0.0),
        make(n_cavities=1, omega_c=4.0, drive_amp=0.0),
    ],
    ids=["zeno", "anti-zeno", "mode-near-omega-f", "mode-at-omega-f"],
)
def test_amplitude_closed_form_matches_quadrature(p):
    grid = build_grid(p)
    for t in (1e-6, 0.01, 0.3, 1.0, 5.0, 10.0):
        exact = _amplitude_by_quadrature(p, grid, 0, t)
        assert abs(survival_amplitude(p, grid, 0, t) - exact) <= 1e-12


def test_survival_probability_conventions():
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    assert survival_probability(p, grid, 0, 0.0) == 1.0
    assert survival_probability(p, grid, 0, 0.0, "exponential") == 1.0
    pe = survival_probability(p, grid, 0, 2.0)
    assert 0.0 <= pe <= 1.0
    with pytest.raises(ValueError):
        survival_probability(p, grid, 0, 1.0, "exact")


def test_survival_exponential_at_decoupling_point():
    p = fig3(3.0, 2.404825557695773)
    grid = build_grid(p)
    for t in (5.0, 20.0):
        assert survival_probability(p, grid, 0, t, "exponential") >= 1.0 - 1e-8


def test_modulation_spectrum_peak_and_height():
    p = fig3(3.0, 1.0)
    t = 4.0
    omega_f = 3.0
    peak = modulation_spectrum(p, 0, t, omega_f)
    assert peak.imag == 0.0
    assert peak.real == pytest.approx(t / (2.0 * math.pi), rel=1e-14)
    scan = np.linspace(-2.0, 6.0, 161)
    values = [modulation_spectrum(p, 0, t, w).real for w in scan]
    assert scan[int(np.argmax(values))] == pytest.approx(omega_f, abs=0.05)


def test_modulation_spectrum_outside_its_domain_is_a_typed_error():
    # A nan omega gave nan and an infinite one a bare math-domain ValueError;
    # a phase (omega - omega_f) t / 2 past the float range did the same.
    p = fig3(3.0, 1.0)
    for omega in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument):
            modulation_spectrum(p, 0, 4.0, omega)
    for omega, t in ((1e308, 4.0), (-1e308, 4.0), (6.0, 1.7e308)):
        with pytest.raises(NonFiniteResult, match="phase"):
            modulation_spectrum(p, 0, t, omega)
    assert modulation_spectrum(p, 0, 1e307, 4.0) >= 0.0


def test_modulation_overlap_reconstructs_rate():
    # 2 pi int f_n g_n domega against the momentum-space route, using the
    # public spectra directly (band edges excluded just above the guard).
    p = fig3(1.0, 1.0)
    t = 5.0
    edge = 2.0 * p.xi
    delta_cut = 1e-8 * p.xi

    def integrand(w: float) -> float:
        return modulation_spectrum(p, 0, t, w).real * response_spectrum(p, 0, w)

    value, _ = quad(integrand, -edge + delta_cut, edge - delta_cut, limit=400)
    overlap = 2.0 * math.pi * value
    reference = decay_rate_continuum(p, 0, t)
    assert abs(overlap - reference) / reference <= 1e-3


@pytest.mark.parametrize("t", [1.0, 10.0, 200.0])
@pytest.mark.parametrize("delta, chi, n", [(0.0, 1.0, 0), (1.0, 1.0, 0), (-1.5, 1.0, 0), (4.5, 1.2, -1)])
def test_spectra_overlap_is_the_overlap_route(delta, chi, n, t):
    # 2 pi int f_n g_n domega from the public factors at the acceptance
    # criterion-4 points, by adaptive quadrature in omega = 2 xi cos(theta),
    # where the arcsine density's edge divergence cancels against domega.
    p = fig3(delta, chi)
    two_xi = 2.0 * p.xi
    omega_f = p.delta + n * p.drive_freq

    def integrand(theta: float) -> float:
        omega = two_xi * math.cos(theta)
        return modulation_spectrum(p, n, t, omega) * response_spectrum(p, n, omega) * two_xi * math.sin(theta)

    value, _ = quad(integrand, 0.0, math.pi, points=[math.acos(omega_f / two_xi)], limit=500, epsabs=0.0, epsrel=1e-13)
    assert 2.0 * math.pi * value == pytest.approx(decay_rate_overlap(p, n, t), rel=1e-10)


def test_classifier_decoupled_at_root():
    p = fig3(3.0, J0_ROOT)
    report = classify_regime(p, 0, 10.0)
    assert report.regime == DECOUPLED


def test_classifier_anti_zeno():
    p = fig3(3.0, 1.0)
    report = classify_regime(p, 0, 10.0)
    assert report.regime == ANTI_ZENO
    assert report.omega_f == pytest.approx(3.0)
    assert report.delta_f == pytest.approx(0.1)


def test_classifier_rounded_decoupling_point_is_not_decoupled():
    # chi = 2.4 leaves |J_0| ~ 2.5e-3, far above the decoupling threshold;
    # the center sits outside the band, so the verdict is AntiZeno.
    p = fig3(3.0, 2.4)
    report = classify_regime(p, 0, 10.0)
    assert report.regime == ANTI_ZENO


def test_classifier_zeno_at_short_time():
    p = fig3(1.0, 1.0)
    report = classify_regime(p, 0, 0.05)
    assert report.regime == ZENO
    assert report.delta_g == pytest.approx(math.sqrt(2.0) * 0.25 * abs(bessel_j(0, 1.0)), rel=1e-12)
    assert report.omega_g == 0.0


def test_classifier_indeterminate_between_limits():
    p = fig3(1.0, 1.0)
    assert classify_regime(p, 0, 10.0).regime == INDETERMINATE


@pytest.mark.parametrize(
    "overrides, t",
    [({}, 5e-324), (dict(g=1e300, xi=1e10), 10.0)],  # delta_f = 1 / t, delta_g = sqrt(2) xi g |J_n|
)
def test_classifier_refuses_a_report_field_that_is_not_finite(overrides, t):
    # As classify, which prints every field, exits 3 on one that is not finite;
    # tests/test_cli.py's REGIME_SWEEPS meet omega_f = delta + n nu of inf.
    with pytest.raises(NonFiniteResult, match="not finite"):
        classify_regime(make(**overrides), 0, t)


# Kofman-Kurizki criterion: Zeno means R(t) below the golden-rule rate,
# anti-Zeno means R(t) above it. N = 4001 keeps the lattice sum close to
# the continuum, and nu = 6 > 4 xi keeps one sideband in band at most.
KK_GRID = build_grid(make(n_cavities=4001))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(-8.0, 8.0),
    chi=st.floats(0.5, 3.0),
    t=st.floats(math.log(1e-3), math.log(100.0)).map(math.exp),
)
@example(delta=1.0, chi=1.0, t=0.05)  # Zeno
@example(delta=3.0, chi=1.0, t=10.0)  # AntiZeno
@example(delta=3.0, chi=1.0, t=0.001)  # out of band: never Zeno
@example(delta=0.0, chi=2.5, t=math.e)  # in band, kernel narrower than the band: R(t) above golden
def test_regime_labels_agree_with_the_golden_rule(delta, chi, t):
    p = make(omega_c=2.0 + delta, drive_amp=chi * 6.0, n_cavities=4001)
    n = default_sideband(p)
    try:
        golden = decay_rate_longtime(p, n).rate
    except BandEdgeSingularity:
        reject()
    regime = classify_regime(p, n, t).regime
    rate = decay_rate_finite(p, KK_GRID, n, t)
    if regime == ZENO:
        assert rate < golden
    elif regime == ANTI_ZENO:
        assert rate > golden


def test_single_sideband_check():
    # nu = 3 < 4 xi puts sideband -1 in band beside sideband 0.
    p = make(omega_c=3.4, g=0.05, drive_amp=3.0, drive_freq=3.0)
    with pytest.raises(SecondSideband, match="sideband -1 also lies in the band"):
        check_single_sideband(p, 0)
    with pytest.raises(SecondSideband, match="sideband 0 also lies in the band"):
        check_single_sideband(p, -1)
    # Undriven, only J_0 is nonzero: sidebands -2 and -1 are in band but uncoupled.
    undriven = make(drive_amp=0.0, drive_freq=1.0)
    check_single_sideband(undriven, 0)
    with pytest.raises(SecondSideband):
        check_single_sideband(undriven, default_sideband(undriven))
    for chi in (1.0, J0_ROOT):
        check_single_sideband(fig3(1.0, chi), 0)
        check_single_sideband(fig3(3.0, chi), 0)


def test_decay_curve_fields_and_invariants():
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    times = np.linspace(0.5, 10.0, 20)
    curve = decay_curve(p, grid, 0, times)
    assert np.all(curve.rates >= 0.0)
    assert np.all(np.diff(curve.times) > 0.0)
    assert curve.sideband == 0
    assert curve.params is p


def test_decay_curve_rejects_bad_time_grids():
    p = make()
    grid = build_grid(p)
    with pytest.raises(ValueError):
        decay_curve(p, grid, 0, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        decay_curve(p, grid, 0, [0.0, 1.0])
    with pytest.raises(ValueError):
        decay_curve(p, grid, 0, [])
    for times in ([1.0, math.nan, 2.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(InvalidArgument):
            decay_curve(p, grid, 0, times)
        with pytest.raises(InvalidArgument):
            survival_curve(p, grid, 0, [0.0] + times)


def test_survival_curve_methods():
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    times = np.array([0.0, 1.0, 2.0])
    for method in ("perturbative", "exponential"):
        curve = survival_curve(p, grid, 0, times, method)
        assert curve.method == method
        assert curve.probabilities[0] == 1.0
        assert np.all((curve.probabilities >= 0.0) & (curve.probabilities <= 1.0))


def test_perturbative_overshoot_warns_and_clips():
    # Strong coupling on resonance drives |C_e|^2 past 1 at moderate t.
    p = make(omega_c=2.0, g=2.0, drive_amp=0.0, n_cavities=5)
    grid = build_grid(p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = survival_probability(p, grid, 0, 3.0)
    assert value == 1.0
    assert len(caught) == 1 and "overshoot" in str(caught[0].message)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = survival_curve(p, grid, 0, [0.0, 1.0, 2.0, 3.0])
    assert list(curve.probabilities[2:]) == [1.0, 1.0]
    assert 0.0 < curve.probabilities[1] < 1.0
    largest = max(abs(survival_amplitude(p, grid, 0, t)) ** 2 for t in (2.0, 3.0))
    assert [str(w.message) for w in caught] == [
        f"perturbative P_e up to {largest:.6g} overshoots 1 at 2 of 4 times, clipped to 1; "
        "second order is unreliable here"
    ]


# --- the chunked lattice-sum kernel -------------------------------------------


def _seed_sinc_sq(x):
    # The per-time sinc^2 the kernel replaced, kept as the byte reference.
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    x2 = x[small] * x[small]
    out[small] = (1.0 - x2 / 6.0 + x2 * x2 / 120.0) ** 2
    s = np.sin(x[~small]) / x[~small]
    out[~small] = s * s
    return out


def _folded_sum(terms, n_cavities):
    # The sum over a ring's N modes read from its distinct nodes j = 0 .. N // 2
    # alone: each node once, and each node 1 .. (N - 1) // 2 once more for its
    # partner N - j, in the kernel's order.
    return terms[: n_cavities // 2 + 1].sum() + terms[1 : (n_cavities + 1) // 2].sum()


def _full_sum(terms, n_cavities):
    # The sum over all N modes that the folded kernel replaced.
    return terms.sum()


def _cos_k(n_cavities):
    # cos k_j on all N momenta k_j = 2 pi j / N, built here rather than read off the grid.
    return np.cos(2.0 * math.pi * np.arange(n_cavities) / n_cavities)


def _rule_grid(p, t):
    # The grid of the ring a sum over p's N sites runs over at time t: N, or the
    # smallest power of two at least 64 and 2 xi t + 12 (xi t)^(1/3) + 32 sites
    # where that is fewer.
    reach = p.xi * t
    needed = 2.0 * reach + 12.0 * reach ** (1.0 / 3.0) + 32.0
    if needed >= p.n_cavities:
        return build_grid(p)
    ring = max(64, 1 << (math.ceil(needed) - 1).bit_length())
    return build_grid(dataclasses.replace(p, n_cavities=min(ring, p.n_cavities)))


def _seed_rate(p, grid, n, t, lattice_sum=_folded_sum):
    detuning = p.delta - 2.0 * p.xi * _cos_k(grid.n_cavities) + n * p.drive_freq
    jn = bessel_j(n, p.chi)
    total = lattice_sum(_seed_sinc_sq(detuning * t / 2.0), grid.n_cavities)
    return float(t * p.g**2 / grid.n_cavities * jn * jn * total)


def _seed_ramp(x):
    # (x - sin x) / x^2 with the kernel's series branch below |x| = 0.1.
    small = np.abs(x) < 0.1
    ramp = np.empty_like(x)
    x2 = x[small] * x[small]
    ramp[small] = x[small] * (1.0 / 6.0 - x2 * (1.0 / 120.0 - x2 * (1.0 / 5040.0 - x2 / 362880.0)))
    ramp[~small] = (x[~small] - np.sin(x[~small])) / (x[~small] * x[~small])
    return ramp


def _seed_survival(p, grid, n, t, lattice_sum=_folded_sum):
    x = (2.0 * p.xi * _cos_k(grid.n_cavities) - p.delta - n * p.drive_freq) * t
    ramp = _seed_ramp(x)
    window = complex(0.5 * lattice_sum(_seed_sinc_sq(0.5 * x), grid.n_cavities), lattice_sum(ramp, grid.n_cavities))
    jn = bessel_j(n, p.chi)
    phase = complex(math.cos(0.5 * p.omega * t), math.sin(0.5 * p.omega * t))
    amplitude = phase * (1.0 - t * t * p.g**2 / grid.n_cavities * jn * jn * window)
    return min(abs(amplitude) ** 2, 1.0)


def _full_window(p, t):
    # 1 - C_e at omega = 0 summed in floats over all N modes: (t^2 g^2 / N) J_0(chi)^2 sum_k
    # (sinc^2(x/2) / 2 + i (x - sin x) / x^2), x = a_k t.
    x = (2.0 * p.xi * _cos_k(p.n_cavities) - p.delta) * t
    window = complex(0.5 * _seed_sinc_sq(0.5 * x).sum(), _seed_ramp(x).sum())
    jn = bessel_j(0, p.chi)
    return t * t * p.g**2 / p.n_cavities * jn * jn * window


KERNEL_POINTS = [fig3(1.0, 1.0), fig3(3.0, 1.0), fig3(3.0, J0_ROOT), make(omega_c=1.37, drive_amp=4.1, g=0.05)]
SHORT = np.linspace(0.05, 20.0, 97)
# Plain rows, rows past SCALED_ABOVE, and rows where detuning * t overflows.
LONG = np.concatenate([SHORT, np.geomspace(1e100, 1.7e308, 40)])


@pytest.mark.filterwarnings("ignore:perturbative P_e up to")  # N = 1 on resonance overshoots
@pytest.mark.parametrize("n_cavities", [1, 2, 41, 4001])
@pytest.mark.parametrize("point", range(len(KERNEL_POINTS)))
def test_curves_equal_their_one_time_case_bit_for_bit(n_cavities, point):
    p = dataclasses.replace(KERNEL_POINTS[point], n_cavities=n_cavities)
    grid = build_grid(p)
    rates = decay_curve(p, grid, 0, LONG).rates
    assert np.array_equal(rates, [decay_rate_finite(p, grid, 0, t) for t in LONG])
    # Below SCALED_ABOVE, SHORT always, the bytes are those of the per-time sum
    # on the ring the rule picks.
    plain = (LONG <= SCALED_ABOVE / (abs(p.delta) + 2.0 * p.xi)) | (LONG <= SHORT[-1])
    assert np.array_equal(rates[plain], [_seed_rate(p, _rule_grid(p, t), 0, t) for t in LONG[plain]])
    times = np.concatenate([[0.0], SHORT])
    for method in ("perturbative", "exponential"):
        probs = survival_curve(p, grid, 0, times, method).probabilities
        assert np.array_equal(probs, [survival_probability(p, grid, 0, t, method) for t in times])
    probs = survival_curve(p, grid, 0, times).probabilities
    assert np.array_equal(probs[1:], [_seed_survival(p, _rule_grid(p, t), 0, t) for t in SHORT])
    probs = survival_curve(p, grid, 0, LONG, "exponential").probabilities
    assert np.array_equal(probs, [math.exp(-r * t) for r, t in zip(rates, LONG)])


@pytest.mark.parametrize("n_cavities", [1, 2, 3, 4, 41, 42, 4001])
@pytest.mark.parametrize("point", [fig3(1.0, 1.0), fig3(3.0, 1.0)], ids=["in-band", "out-of-band"])
def test_folded_sums_match_the_sum_over_all_modes(point, n_cavities):
    # The kernel sums a pair k, -k as twice one node; the full sum adds two
    # cos values that differ in the last bit, which sin(x) at large x can
    # amplify. g = 0.005 keeps every P_e below 1, so none is clipped.
    p = dataclasses.replace(point, n_cavities=n_cavities, g=0.005)
    grid = build_grid(p)
    times = np.geomspace(1e-2, 200.0, 41)
    rates = decay_curve(p, grid, 0, times).rates
    full = np.array([_seed_rate(p, grid, 0, t, _full_sum) for t in times])
    assert np.allclose(rates, full, rtol=1e-10, atol=0.0)
    probs = survival_curve(p, grid, 0, times).probabilities
    assert np.allclose(probs, [_seed_survival(p, grid, 0, t, _full_sum) for t in times], rtol=0.0, atol=1e-14)


def test_every_ring_sum_runs_over_the_distinct_nodes(monkeypatch, tmp_path):
    # The length of the last axis that sinc sees is the number of terms each
    # lattice sum computes: floor(M/2) + 1 on a ring of M = min(N, 64) sites
    # (the smallest ring, enough for xi t <= 5), N Gauss-Chebyshev nodes.
    lengths = []
    real = decay._sinc

    def recorded(x):
        lengths.append(x.shape[-1])
        return real(x)

    monkeypatch.setattr(decay, "_sinc", recorded)
    for n_cavities in (1, 2, 41, 42, 4001):
        p = make(n_cavities=n_cavities)
        grid = build_grid(p)
        for compute in (
            lambda: decay_curve(p, grid, 0, [0.5, 3.0]),
            lambda: survival_curve(p, grid, 0, [0.5, 3.0]),
            lambda: survival_curve(p, grid, 0, [0.5, 3.0], "exponential"),
        ):
            lengths.clear()
            compute()
            assert set(lengths) == {min(n_cavities, 64) // 2 + 1}
    for t in (0.5, 7.0, 300.0):
        nodes = decay._band_nodes(make(), t)
        lengths.clear()
        decay_rate_continuum(make(), 0, t)
        assert set(lengths) == {nodes // 2 + 1}
        lengths.clear()
        decay_rate_overlap(make(), 0, t)
        assert set(lengths) == {nodes}
    lengths.clear()
    argv = ["sweep", "--param", "delta", "--start", "-3", "--stop", "3", "--count", "9", "--n-cavities", "42"]
    assert cli.run(["--out", str(tmp_path / "s.csv"), *argv]) == 0
    assert set(lengths) == {22}


POINTS_AXIS = [
    (fig3(1.0, 1.0), 0),
    (fig3(3.0, 1.0), 0),
    (fig3(1.0, 1.0), -1),
    (make(omega=-1e308, omega_c=1e308), 0),  # the detuning overflows
    (fig3(1.0, 2.0), 0),  # shares the band of the first point
    (make(omega_c=1.37, drive_amp=4.1, g=0.05), 0),
    (make(xi=0.5), 1),
    (fig3(3.0, J0_ROOT), 0),  # shares the band of the second point
]


@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
@pytest.mark.parametrize("times", [[7.0], [0.5, 3.0, 12.0], list(LONG[::9])], ids=["one", "three", "long"])
def test_points_axis_rows_equal_their_one_point_case(times, chunk, monkeypatch):
    # One kernel call over points that share bands, also apart, and over
    # blocks of several bands or several times: each row is its one-point
    # call bit for bit, and each distinct band is summed once.
    p = KERNEL_POINTS[0]
    grid = build_grid(p)
    times = np.array(times)
    if chunk is not None:
        monkeypatch.setattr(decay, "CHUNK_ELEMENTS", chunk * grid.nodes.size)
    points = [decay._point(params, n) for params, n in POINTS_AXIS]
    summed = []
    real = decay._chunked

    def counted_chunks(nodes, end, bands, *rest):
        summed.append(len(bands))
        return real(nodes, end, bands, *rest)

    monkeypatch.setattr(decay, "_chunked", counted_chunks)
    rates, reach = decay._rates(grid.nodes, grid.end, points, times)
    assert summed == [6]
    for row, (params, n), point in zip(range(len(points)), POINTS_AXIS, points):
        one, one_reach = decay._rates(grid.nodes, grid.end, [point], times)
        assert rates[row].tobytes() == one[0].tobytes()
        assert np.array_equal(reach[row], one_reach[0], equal_nan=True)
        if math.isfinite(reach[row]):
            assert rates[row].tobytes() == decay_curve(params, grid, n, times).rates.tobytes()
        else:
            assert np.isnan(rates[row]).all()


def test_chunk_boundaries(monkeypatch):
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    times = np.linspace(0.5, 10.0, 7)
    whole = decay_curve(p, grid, 0, times).rates
    survival = survival_curve(p, grid, 0, times).probabilities
    # Two times per chunk: chunks of 2, 2, 2 and 1 rows.
    monkeypatch.setattr(decay, "CHUNK_ELEMENTS", 2 * grid.nodes.size + 1)
    assert np.array_equal(decay_curve(p, grid, 0, times).rates, whole)
    assert np.array_equal(survival_curve(p, grid, 0, times).probabilities, survival)
    assert np.array_equal(whole, [decay_rate_finite(p, grid, 0, t) for t in times])


def test_more_modes_than_a_chunk_gives_one_time_per_chunk():
    # At xi t >= 7e4 a ring sum needs more than 2^17 sites, so these times sum
    # the whole grid; g = 1e-3 keeps P_e below 1 there.
    p = make(n_cavities=2 * CHUNK_ELEMENTS + 3, g=1e-3)
    grid = build_grid(p)
    assert grid.nodes.size > CHUNK_ELEMENTS
    times = [7e4, 1e5, 2e5]
    rates = decay_curve(p, grid, 0, times).rates
    assert np.array_equal(rates, [_seed_rate(p, grid, 0, t) for t in times])
    probs = survival_curve(p, grid, 0, times).probabilities
    assert np.array_equal(probs, [_seed_survival(p, grid, 0, t) for t in times])


def _switch(ring, xi):
    # The largest t at which `ring` sites are enough, 2 xi t + 12 (xi t)^(1/3) + 32 <= ring, by bisection.
    lo, hi = 0.0, ring / 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 2.0 * mid + 12.0 * mid ** (1.0 / 3.0) + 32.0 <= ring else (lo, mid)
    return lo / xi


def _straddle(p, ring):
    # Two times just before and just after the switch from `ring` to 2 `ring` sites.
    t = _switch(ring, p.xi)
    before, after = t * (1.0 - 1e-6), t * (1.0 + 1e-6)
    assert _rule_grid(p, before).n_cavities == ring
    assert _rule_grid(p, after).n_cavities == min(2 * ring, p.n_cavities)
    return [before, after]


@pytest.mark.filterwarnings("ignore:perturbative P_e up to")
def test_curve_sweep_and_one_time_cells_agree_across_a_ring_switch(tmp_path):
    # Each band and time picks its own ring, so a curve entry, a one-time call
    # and a sweep cell at one (xi, t, N) are one value bit for bit, also just
    # before and just after a switch from M to 2M sites.
    reaches = []
    for n_cavities, xi in ((65, 1.7), (2001, 1.0), (4000, 0.45)):
        p = make(n_cavities=n_cavities, xi=xi)
        grid = build_grid(p)
        times = np.array([t for ring in (64, 128, 256, 512, 1024, 2048) if ring < n_cavities for t in _straddle(p, ring)])
        rates = decay_curve(p, grid, 0, times).rates
        assert np.array_equal(rates, [decay_rate_finite(p, grid, 0, t) for t in times])
        assert np.array_equal(rates, [_seed_rate(p, _rule_grid(p, t), 0, t) for t in times])
        for method in ("perturbative", "exponential"):
            probs = survival_curve(p, grid, 0, times, method).probabilities
            assert np.array_equal(probs, [survival_probability(p, grid, 0, t, method) for t in times])
        reaches.append((grid.nodes, grid.end, decay._point(p, 0), times[:2]))
    # The reach is max |detuning| over every given node: on the grids above (whose
    # last node for odd N is not k = pi), also where no time sums the grid itself;
    # on a plain grid of N <= 64 sites; on the Gauss-Chebyshev nodes (end = 1);
    # and where the detuning overflows, 2 xi to inf and inf - inf to nan.
    plain = make(n_cavities=64, xi=0.45)
    grid = build_grid(plain)
    chebyshev = np.cos((np.arange(33) + 0.5) * (math.pi / 33))
    reaches += [
        (grid.nodes, grid.end, decay._point(plain, 1), [0.5, 3.0]),
        (chebyshev, 1, decay._point(make(), 0), [10.0]),
        (grid.nodes, grid.end, (0.0, 1e308, 0.0, 0.0625, 1.0), [1.0]),
        (chebyshev, 1, (0.0, 1e308, math.inf, 0.0625, 1.0), [1.0]),
    ]
    for nodes, end, point, times in reaches:
        _, reach = decay._rates(nodes, end, [point], np.array(times))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.abs(point[0] - 2.0 * point[1] * nodes + point[2]).max()
        assert np.array_equal(reach, [expected], equal_nan=True)
    # A row past SCALED_ABOVE on a narrow band (xi t = 10) is summed on its 128-site ring too.
    narrow = make(n_cavities=4001, xi=1e-150)
    ring = dataclasses.replace(narrow, n_cavities=128)
    assert decay_rate_finite(narrow, build_grid(narrow), 0, 1e151) == decay_rate_finite(ring, build_grid(ring), 0, 1e151)
    # Over xi at t = 10, the points of one kernel call need the 64- and the 128-site ring.
    argv = ["sweep", "--param", "xi", "--start", "0.3", "--stop", "2", "--count", "41", "--n-cavities", "2001", "--t", "10"]
    assert cli.run(["--out", str(tmp_path / "s.csv"), *argv]) == 0
    table = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    points, xis = [], np.linspace(0.3, 2.0, 41)
    for xi, (_, cell, error) in zip(xis, table):
        p = make(n_cavities=2001, xi=xi)
        rate = decay_rate_finite(p, build_grid(p), 0, 10.0)
        assert math.isfinite(rate) and (cell, error) == (f"{rate + 0.0:.12g}", "")
        points.append(decay._point(p, 0))
    assert {_rule_grid(make(n_cavities=2001, xi=xi), 10.0).n_cavities for xi in xis} == {64, 128}
    grid = build_grid(make(n_cavities=2001))
    rates, _ = decay._rates(grid.nodes, grid.end, points, np.array([10.0]))
    for row, point in zip(rates, points):
        assert row.tobytes() == decay._rates(grid.nodes, grid.end, [point], np.array([10.0]))[0][0].tobytes()


def test_a_large_ring_sums_only_the_ring_the_rule_picks(monkeypatch, tmp_path):
    # At N = 2^20 and xi t <= 20 a ring of M = 128 sites already gives the sum,
    # so no lattice sum computes more than M // 2 + 1 terms.
    lengths = []
    real = decay._sinc

    def recorded(x):
        lengths.append(x.shape[-1])
        return real(x)

    monkeypatch.setattr(decay, "_sinc", recorded)
    p = make(n_cavities=1 << 20, g=0.01)
    grid = build_grid(p)
    times = np.linspace(0.1, 20.0, 200)
    decay_curve(p, grid, 0, times)
    decay_rate_finite(p, grid, 0, 20.0)
    for method in ("perturbative", "exponential"):
        survival_curve(p, grid, 0, times, method)
    argv = ["sweep", "--param", "delta", "--start", "-3", "--stop", "3", "--count", "9", "--n-cavities", str(1 << 20), "--t", "20"]
    assert cli.run(["--out", str(tmp_path / "s.csv"), *argv]) == 0
    assert set(lengths) == {64 // 2 + 1, 128 // 2 + 1}


def test_ring_rule_sums_match_mpmath_over_all_sites():
    # R(t) and the survival window W = 1 - C_e (omega = 0, so C_e carries no
    # phase) on the ring the rule picks, against the sum over all N exact
    # momenta 2 pi j / N in 30-digit arithmetic. Draws: even and odd N up to
    # 5000, xi in [0.3, 2], delta + n nu inside and outside the band, and
    # times just before and after the switch M -> 2M for each M from 64 to
    # 4096 (xi t up to 2e3); g makes |W| = 1/2. Both the kernel and the float
    # sum over all N sites err by the rounding of the sinc arguments, about
    # eps xi t: over 360 seeded draws (about 1400 times) the worst error was
    # 0.66 eps (1 + xi t) on the ring and 1.14 eps (1 + xi t) over all N
    # sites, so the bound is 3 eps (1 + xi t).
    rng = np.random.default_rng(28)
    eps = np.finfo(float).eps
    for draw, ring in enumerate((64, 128, 256, 512, 1024, 2048, 4096)):
        xi = rng.uniform(0.3, 2.0)
        delta = (rng.uniform(-1.8, 1.8) if draw % 2 else rng.choice([-1.0, 1.0]) * rng.uniform(2.2, 3.5)) * xi
        n_cavities = int(rng.integers(ring + 2, 5001)) // 2 * 2 + draw % 2
        p = make(omega=0.0, omega_c=delta, xi=xi, n_cavities=n_cavities)
        grid = build_grid(p)
        jn = bessel_j(0, p.chi)
        with mpmath.workdps(30):
            cos_k = [mpmath.cos(2 * mpmath.pi * j / n_cavities) for j in range(n_cavities // 2 + 1)]
        for t in _straddle(p, ring):
            with mpmath.workdps(30):
                sinc_sq = ramp = mpmath.mpf(0)
                for j, c in enumerate(cos_k):
                    h = (2 * mpmath.mpf(xi) * c - mpmath.mpf(delta)) * mpmath.mpf(t) / 2  # x / 2, x = a_k t
                    cos_h, sin_h = mpmath.cos_sin(h)
                    weight = 1 if j == 0 or 2 * j == n_cavities else 2
                    sinc_sq += weight * (sin_h / h) ** 2
                    ramp += weight * (2 * h - 2 * sin_h * cos_h) / (4 * h * h)  # (x - sin x) / x^2
                per_g2 = mpmath.mpf(t) * jn * jn / n_cavities
                g_squared = 0.5 / float(abs(per_g2 * t * mpmath.mpc(sinc_sq / 2, ramp)))
                rate = float(per_g2 * g_squared * sinc_sq)
                window = complex(per_g2 * g_squared * t * mpmath.mpc(sinc_sq / 2, ramp))
            q = dataclasses.replace(p, g=math.sqrt(g_squared))
            bound = 3.0 * eps * (1.0 + xi * t)
            assert abs(decay_rate_finite(q, grid, 0, t) - rate) <= bound * rate
            assert abs(_seed_rate(q, grid, 0, t, _full_sum) - rate) <= bound * rate
            assert abs(1.0 - survival_amplitude(q, grid, 0, t) - window) <= bound * abs(window)
            assert abs(_full_window(q, t) - window) <= bound * abs(window)


def test_curve_peak_allocation_does_not_grow_with_the_times():
    # Unchunked, a 200-time N = 4001 curve holds 3.2 MB per (times x nodes)
    # temporary; in chunks of CHUNK_ELEMENTS each is about 0.5 MB.
    p = make(n_cavities=4001, g=0.05)
    grid = build_grid(p)
    times = np.linspace(0.1, 20.0, 200)
    for compute in (decay_curve, survival_curve):
        tracemalloc.start()
        try:
            compute(p, grid, 0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6, (compute.__name__, peak)


@pytest.mark.parametrize("t", [1e100, 1e150, 1e160, 1e200, 1e300, 7.5e307, 1e308])
@pytest.mark.parametrize("point", [fig3(1.0, 1.0), fig3(3.0, 1.0)], ids=["in-band", "out-of-band"])
def test_rate_times_t_past_the_underflow_against_mpmath(point, t):
    # R(t) t = (t^2 g^2 / N) J_0^2 sum_k sinc^2(x_k) on the same float
    # arguments x_k of the distinct nodes j = 0 .. N // 2, each counted with
    # its multiplicity (1 at j = 0, 2 for a pair j, N - j), summed in 60-digit
    # arithmetic. Each sinc^2 underflows past t ~ 1e154, but R(t) t stays
    # O(1). Past t ~ 4e307 some detuning * t overflow at this point; such a
    # term is the phase average of sin^2, 1 / (2 x_k^2) = 2 / (detuning_k t)^2.
    grid = build_grid(point)
    nodes = _cos_k(grid.n_cavities)[: grid.n_cavities // 2 + 1]
    multiplicity = np.full(nodes.size, 2)
    multiplicity[0] = 1  # N = 41 is odd: no node at k = pi
    detuning = point.delta - 2.0 * point.xi * nodes
    jn = bessel_j(0, point.chi)
    with np.errstate(over="ignore"):
        arguments = detuning * t / 2.0
    finite = np.isfinite(arguments)
    with mpmath.workdps(60):
        total = mpmath.fsum(
            m * (mpmath.sin(x) / x) ** 2 for m, x in zip(multiplicity[finite], map(mpmath.mpf, arguments[finite]))
        )
        total += mpmath.fsum(m * 2 / (mpmath.mpf(d) * t) ** 2 for m, d in zip(multiplicity[~finite], detuning[~finite]))
        expected = float(mpmath.mpf(t) ** 2 * point.g**2 / grid.n_cavities * jn * jn * total)
    rate = decay_rate_finite(point, grid, 0, t)
    assert 1e-3 < expected < 10.0
    assert rate * t == pytest.approx(expected, rel=1e-12)
    assert survival_probability(point, grid, 0, t, "exponential") == pytest.approx(math.exp(-expected), rel=1e-11)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"g": 0.0}, {"omega": 4.0}, {"g": 1e-3, "drive_amp": 6.0 * J0_ROOT}],
    ids=["defaults", "g-0", "omega-4", "weak-at-J0-root"],
)
def test_perturbative_survival_past_the_float_range_is_refused(overrides):
    # At t = 1e308, t^2 overflows in the amplitude; at g = 0, where P_e = 1,
    # t^2 g^2 is nan. Refused before any row, with no RuntimeWarning (the
    # numpy overflow) and no ValueError (math.cos of an infinite phase).
    p = make(**overrides)
    grid = build_grid(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for compute in (
            lambda: survival_curve(p, grid, 0, [0.0, 1.0, 1e308]),
            lambda: survival_probability(p, grid, 0, 1e308),
            lambda: survival_amplitude(p, grid, 0, 1e308),
        ):
            with pytest.raises(NonFiniteResult, match="perturbative amplitude overflows at t = 1e"):
                compute()
        # The exponential route stays finite there.
        assert 0.0 <= survival_probability(p, grid, 0, 1e308, "exponential") <= 1.0


@pytest.mark.filterwarnings("ignore:perturbative P_e up to")
def test_perturbative_refusal_starts_where_the_amplitude_overflows():
    # t^2 g^2 J_0^2 / N, max |a_k| t and omega t / 2 are finite at 1e150
    # and the row is computed; at 1.4e154 t^2 alone overflows.
    p = make()
    grid = build_grid(p)
    assert survival_curve(p, grid, 0, [1e150]).probabilities.tolist() == [1.0]
    with pytest.raises(NonFiniteResult):
        survival_curve(p, grid, 0, [1e150, 1.4e154])


def test_a_rate_that_overflows_at_a_later_time_names_that_time():
    # g^2 = 1e308 is finite and so is R(1), but t g^2 overflows at t = 100.
    p = make(g=1e154)
    with pytest.raises(NonFiniteResult, match=r"^R\(t\) overflows at t = 100$"):
        decay_curve(p, build_grid(p), 0, [1.0, 100.0])


def test_an_overflowing_detuning_is_refused_at_every_time():
    # delta = omega_c - omega overflows, so every detuning is infinite: R(t)
    # and C_e(t) have no finite value, not even at t = 0.
    p = make(omega=-1e308, omega_c=1e308)
    grid = build_grid(p)
    for times in ([0.0], [0.0, 1.0]):
        for method in ("perturbative", "exponential"):
            with pytest.raises(NonFiniteResult, match="detuning"):
                survival_curve(p, grid, 0, times, method)
    with pytest.raises(NonFiniteResult, match="detuning"):
        decay_rate_finite(p, grid, 0, 1.0)
    with pytest.raises(NonFiniteResult, match="detuning"):
        survival_amplitude(p, grid, 0, 0.0)


def test_an_overflowing_bound_over_finite_detunings_keeps_plain_rows():
    # |delta| + 2 xi + |n nu| overflows while delta + n nu = 0, so every mode
    # sits on resonance: R(t) = t g^2 J_-1(chi)^2, the plain row, at every t.
    p = make(omega=0.0, omega_c=1e308, drive_amp=1e308, drive_freq=1e308)
    grid = build_grid(p)
    jn = bessel_j(-1, p.chi)
    times = [0.0, 1.0, 1e200]
    probs = survival_curve(p, grid, -1, times, "exponential").probabilities
    assert probs.tolist() == [1.0, pytest.approx(math.exp(-p.g**2 * jn * jn)), 0.0]
    assert decay_curve(p, grid, -1, times[1:]).rates == pytest.approx([t * p.g**2 * jn * jn for t in times[1:]])
    assert survival_curve(p, grid, -1, times[:2]).probabilities[0] == 1.0


@pytest.mark.parametrize(
    "kernel",
    [
        lambda p, grid: decay_rate_finite(p, grid, 0, 1.0),
        lambda p, grid: survival_curve(p, grid, 0, [0.0]),
        lambda p, grid: survival_curve(p, grid, 0, [0.0], "exponential"),
        lambda p, grid: decay_curve(p, grid, 0, [1.0]),
        lambda p, grid: decay_rate_longtime(p, 0),
        lambda p, grid: decay_rate_continuum(p, 0, 1.0),
        lambda p, grid: decay_rate_overlap(p, 0, 1.0),
        lambda p, grid: memory_function(grid, p, 0, 1.0),
        lambda p, grid: response_spectrum(p, 0, 0.5),
    ],
    ids=["finite", "survival-at-0", "exponential-at-0", "curve", "longtime", "continuum", "overlap", "memory",
         "response"],
)
def test_g_squared_past_the_float_range_is_refused(kernel):
    # g^2 overflows past g = 1.3e154; in Python floats g ** 2 raised a bare OverflowError.
    p = make(g=1e200)
    with pytest.raises(NonFiniteResult, match="g\\^2 overflows"):
        kernel(p, build_grid(p))
