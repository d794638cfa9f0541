"""Decay rates, survival amplitudes, modulation spectrum, regime classifier."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from floquet_zeno.bath import build_grid, memory_function, response_spectrum
from floquet_zeno.decay import (
    ANTI_ZENO,
    DECOUPLED,
    INDETERMINATE,
    ZENO,
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
from floquet_zeno.errors import BandEdgeSingularity, ConfigError, InvalidArgument
from floquet_zeno.floquet import averaged_transition_probability, reduced_hamiltonian
from floquet_zeno.params import SystemParams, validate
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


def test_longtime_band_center():
    # 2 pi g^2 J_0(0)^2 rho(0) with rho(0) = 1/(2 pi): rate = g^2 = 0.0625.
    p = make(omega_c=2.0, drive_amp=0.0)
    result = decay_rate_longtime(p, build_grid(p), 0)
    assert result.resonant
    assert result.rate == pytest.approx(0.0625, rel=1e-12)


def test_longtime_outside_band():
    p = make(omega_c=5.0, drive_freq=50.0, drive_amp=0.0)
    result = decay_rate_longtime(p, build_grid(p), 0)
    assert not result.resonant
    assert result.rate == 0.0


def test_longtime_at_decoupling_point():
    p = make(omega_c=2.5, drive_amp=J0_ROOT * 6.0)
    result = decay_rate_longtime(p, build_grid(p), 0)
    assert result.rate <= 1e-24


def test_longtime_band_edge_raises():
    p = make(omega_c=4.0, drive_amp=0.0)  # delta = 2 xi exactly
    with pytest.raises(BandEdgeSingularity):
        decay_rate_longtime(p, build_grid(p), 0)


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
        golden = decay_rate_longtime(p, build_grid(p), 0).rate
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
    golden = decay_rate_longtime(p, build_grid(p), 0).rate
    assert abs(decay_rate_overlap(p, 0, 500.0) - golden) / golden <= 1e-2


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
    assert any("overshoot" in str(w.message) for w in caught)
