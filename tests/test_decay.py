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

from floquet_zeno import decay
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


def _seed_rate(p, grid, n, t):
    detuning = p.delta - 2.0 * p.xi * np.cos(grid.momenta) + n * p.drive_freq
    jn = bessel_j(n, p.chi)
    return float(t * p.g**2 / grid.n_cavities * jn * jn * _seed_sinc_sq(detuning * t / 2.0).sum())


def _seed_survival(p, grid, n, t):
    x = (2.0 * p.xi * np.cos(grid.momenta) - p.delta - n * p.drive_freq) * t
    small = np.abs(x) < 0.1
    ramp = np.empty_like(x)
    x2 = x[small] * x[small]
    ramp[small] = x[small] * (1.0 / 6.0 - x2 * (1.0 / 120.0 - x2 * (1.0 / 5040.0 - x2 / 362880.0)))
    ramp[~small] = (x[~small] - np.sin(x[~small])) / (x[~small] * x[~small])
    window = complex(0.5 * _seed_sinc_sq(0.5 * x).sum(), ramp.sum())
    jn = bessel_j(n, p.chi)
    phase = complex(math.cos(0.5 * p.omega * t), math.sin(0.5 * p.omega * t))
    amplitude = phase * (1.0 - t * t * p.g**2 / grid.n_cavities * jn * jn * window)
    return min(abs(amplitude) ** 2, 1.0)


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
    # Below SCALED_ABOVE, SHORT always, the bytes are those of the per-time sum.
    plain = (LONG <= SCALED_ABOVE / (abs(p.delta) + 2.0 * p.xi)) | (LONG <= SHORT[-1])
    assert np.array_equal(rates[plain], [_seed_rate(p, grid, 0, t) for t in LONG[plain]])
    times = np.concatenate([[0.0], SHORT])
    for method in ("perturbative", "exponential"):
        probs = survival_curve(p, grid, 0, times, method).probabilities
        assert np.array_equal(probs, [survival_probability(p, grid, 0, t, method) for t in times])
    probs = survival_curve(p, grid, 0, times).probabilities
    assert np.array_equal(probs[1:], [_seed_survival(p, grid, 0, t) for t in SHORT])
    probs = survival_curve(p, grid, 0, LONG, "exponential").probabilities
    assert np.array_equal(probs, [math.exp(-r * t) for r, t in zip(rates, LONG)])


def test_chunk_boundaries(monkeypatch):
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    times = np.linspace(0.5, 10.0, 7)
    whole = decay_curve(p, grid, 0, times).rates
    survival = survival_curve(p, grid, 0, times).probabilities
    # Two times per chunk: chunks of 2, 2, 2 and 1 rows.
    monkeypatch.setattr(decay, "CHUNK_ELEMENTS", 2 * p.n_cavities + 1)
    assert np.array_equal(decay_curve(p, grid, 0, times).rates, whole)
    assert np.array_equal(survival_curve(p, grid, 0, times).probabilities, survival)
    assert np.array_equal(whole, [decay_rate_finite(p, grid, 0, t) for t in times])


def test_more_modes_than_a_chunk_gives_one_time_per_chunk():
    p = make(n_cavities=CHUNK_ELEMENTS + 3)
    grid = build_grid(p)
    times = [0.5, 2.0, 7.0]
    rates = decay_curve(p, grid, 0, times).rates
    assert np.array_equal(rates, [_seed_rate(p, grid, 0, t) for t in times])
    probs = survival_curve(p, grid, 0, times).probabilities
    assert np.array_equal(probs, [_seed_survival(p, grid, 0, t) for t in times])


def test_curve_peak_allocation_does_not_grow_with_the_times():
    # Unchunked, a 200-time N = 4001 curve holds 6.4 MB per (times x modes)
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
    # arguments x_k, summed in 60-digit arithmetic. Each sinc^2 underflows
    # past t ~ 1e154, but R(t) t stays O(1). Past t ~ 4e307 some detuning * t
    # overflow at this point; such a term is the phase average of sin^2,
    # 1 / (2 x_k^2) = 2 / (detuning_k t)^2.
    grid = build_grid(point)
    detuning = point.delta - 2.0 * point.xi * np.cos(grid.momenta)
    jn = bessel_j(0, point.chi)
    with np.errstate(over="ignore"):
        arguments = detuning * t / 2.0
    finite = np.isfinite(arguments)
    with mpmath.workdps(60):
        total = mpmath.fsum((mpmath.sin(x) / x) ** 2 for x in map(mpmath.mpf, arguments[finite]))
        total += mpmath.fsum(2 / (mpmath.mpf(d) * t) ** 2 for d in detuning[~finite])
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
