"""Exact propagation: closed-form limits, integrator hygiene, cross-checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from floquet_zeno import oracle
from floquet_zeno.bath import build_grid
from floquet_zeno.decay import decay_rate_longtime, survival_probability
from floquet_zeno.errors import InvalidArgument, NonFiniteResult, NormDrift, StepLimitExceeded
from floquet_zeno.floquet import TLS, averaged_transition_probability, build_floquet_matrix
from floquet_zeno.oracle import (
    OneQuantumState,
    excited_state,
    propagate,
    survival_curve_exact,
)
from floquet_zeno.params import SystemParams, resonant_sidebands, validate

J0_ROOT = 2.4048255576957733


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def survival(params: SystemParams, t: float) -> float:
    grid = build_grid(params)
    return abs(propagate(params, grid, excited_state(grid), t).c_e) ** 2


def test_free_evolution_phase():
    p = make(g=0.0, drive_amp=0.0)
    grid = build_grid(p)
    for t in (0.7, 3.0, 11.0):
        state = propagate(p, grid, excited_state(grid), t)
        expected = complex(math.cos(p.omega * t / 2.0), -math.sin(p.omega * t / 2.0))
        assert abs(state.c_e - expected) <= 1e-8
        assert np.all(np.abs(state.c_k) <= 1e-8)


def test_single_mode_rabi_oscillation():
    # One resonant cavity without drive: P_e(t) = cos^2(g t).
    p = make(n_cavities=1, omega_c=4.0, drive_amp=0.0)
    grid = build_grid(p)
    for t in np.linspace(0.0, 12.0, 13):
        state = propagate(p, grid, excited_state(grid), float(t))
        assert abs(abs(state.c_e) ** 2 - math.cos(p.g * t) ** 2) <= 1e-8


def test_norm_preserved_under_strong_drive():
    p = make()
    grid = build_grid(p)
    state = propagate(p, grid, excited_state(grid), 100.0)
    assert abs(state.norm_sq() - 1.0) <= 1e-9


def test_frame_phase_past_the_float_range_is_a_typed_error():
    # One mode at the emitter frequency: a cheap run (estimate 1 step)
    # whose phase Phi = omega t / 2 = 5e309 overflows.
    p = make(n_cavities=1, omega=1e300, omega_c=1e300, g=1e-10, drive_amp=0.0)
    grid = build_grid(p)
    assert grid.energies[0] == p.omega
    with pytest.raises(NonFiniteResult):
        propagate(p, grid, excited_state(grid), 1e10)


def test_norm_drift_at_weak_coupling():
    p = make(g=0.05)
    grid = build_grid(p)
    state = propagate(p, grid, excited_state(grid), 100.0)
    assert abs(state.norm_sq() - 1.0) <= 1e-12


def lab_frame_reference(p, grid, y0, t):
    """The lab-frame Schrodinger equation by DOP853 at tight tolerances, written out here."""
    from scipy.integrate import solve_ivp

    coupling = p.g / math.sqrt(grid.n_cavities)

    def rhs(s, y):
        drive = 0.5 * (p.omega + p.drive_amp * math.cos(p.drive_freq * s))
        out = np.empty_like(y)
        out[0] = -1j * (drive * y[0] + coupling * y[1:].sum())
        out[1:] = -1j * ((grid.energies - drive) * y[1:] + coupling * y[0])
        return out

    return solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]


@pytest.mark.parametrize("t", [0.7, 3.0, 11.0])
def test_frame_matches_the_lab_frame_equation(t):
    p = make(n_cavities=11)  # delta = 1, chi = 1
    grid = build_grid(p)
    start = excited_state(grid)
    state = propagate(p, grid, start, t)
    reference = lab_frame_reference(p, grid, np.concatenate(([start.c_e], start.c_k)), t)
    assert np.abs(np.concatenate(([state.c_e], state.c_k)) - reference).max() <= 1e-10


def test_propagation_composes_at_absolute_times():
    p = make()
    grid = build_grid(p)
    middle = propagate(p, grid, excited_state(grid), 2.0)
    stepped = propagate(p, grid, middle, 5.0)
    direct = propagate(p, grid, excited_state(grid), 5.0)
    assert abs(stepped.c_e - direct.c_e) <= 1e-9
    assert float(np.max(np.abs(stepped.c_k - direct.c_k))) <= 1e-9


def test_reversal_from_a_later_start_time_returns_to_start():
    p = make()
    grid = build_grid(p)
    start = dataclasses.replace(excited_state(grid), time=3.0)
    back = propagate(p, grid, propagate(p, grid, start, 8.5), 3.0)
    assert back.time == 3.0
    assert abs(back.c_e - 1.0) <= 1e-7
    assert float(np.max(np.abs(back.c_k))) <= 1e-7


@pytest.mark.parametrize("drive_freq, drive_phase", [(5e-324, 1.0), (1e308, 0.0)])
def test_free_phase_at_extreme_drive_frequencies(drive_freq, drive_phase):
    # Phi(t) = t (omega + A sinc(nu t)) / 2: a subnormal nu is a constant
    # drive A, and past the float range nu t the drive averages out.
    p = make(g=0.0, drive_amp=1.0, drive_freq=drive_freq)
    grid = build_grid(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in (0.7, 3.0, 11.0):
            c_e = propagate(p, grid, excited_state(grid), t).c_e
            assert abs(c_e - np.exp(-0.5j * (p.omega + drive_phase * p.drive_amp) * t)) <= 1e-12


def test_time_reversal_returns_to_start():
    p = make()
    grid = build_grid(p)
    forward = propagate(p, grid, excited_state(grid), 7.3)
    back = propagate(p, grid, forward, 0.0)
    assert abs(back.c_e - 1.0) <= 1e-7
    assert float(np.max(np.abs(back.c_k))) <= 1e-7


def test_tolerance_refinement_is_converged(monkeypatch):
    p = make()
    loose = survival(p, 5.0)
    monkeypatch.setattr(oracle, "RTOL", 5e-12)
    monkeypatch.setattr(oracle, "ATOL", 5e-14)
    tight = survival(p, 5.0)
    assert loose != tight
    assert abs(loose - tight) <= 1e-8


def test_step_budget_enforced(monkeypatch):
    p = make()
    grid = build_grid(p)
    # Above the upfront estimate (9.25 * 50 = 462 steps), below the ~5000
    # steps the run takes, so the in-loop check is the one that fires.
    monkeypatch.setattr(oracle, "MAX_STEPS", 1000)
    with pytest.raises(StepLimitExceeded, match="exceeded 1000 steps"):
        propagate(p, grid, excited_state(grid), 50.0)


@pytest.mark.parametrize("overrides", [dict(g=1e6), dict(omega=1e300), dict(omega=1.7e308, omega_c=-1.7e308)])
def test_step_estimate_refuses_before_building_a_stepper(overrides, monkeypatch):
    # The last estimate overflows to inf, and an inf estimate is refused too.
    class Unbuildable:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a stepper was built")

    monkeypatch.setattr(oracle, "RK45", Unbuildable)
    p = make(n_cavities=5, **overrides)
    grid = build_grid(p)
    with pytest.raises(StepLimitExceeded, match="estimated"):
        propagate(p, grid, excited_state(grid), 1.0)
    with pytest.raises(StepLimitExceeded, match="estimated"):
        survival_curve_exact(p, grid, [0.5, 1.0])


def test_rejects_non_finite_times():
    p = make()
    grid = build_grid(p)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument):
            propagate(p, grid, excited_state(grid), t)
        with pytest.raises(InvalidArgument):
            propagate(p, grid, dataclasses.replace(excited_state(grid), time=t), 1.0)
    # Backward times stay allowed.
    back = propagate(p, grid, excited_state(grid), -0.5)
    assert back.time == -0.5 and abs(back.norm_sq() - 1.0) <= 1e-9


def test_unnormalized_input_is_caught():
    p = make()
    grid = build_grid(p)
    bad = OneQuantumState(c_e=2.0 + 0.0j, c_k=np.zeros(p.n_cavities, dtype=complex), time=0.0)
    with pytest.raises(NormDrift):
        propagate(p, grid, bad, 1.0)


def test_weak_coupling_matches_perturbation_theory():
    p = make(g=0.05)
    grid = build_grid(p)
    for t in (1.0, 3.0, 5.0):
        exact = survival(p, t)
        second_order = survival_probability(p, grid, 0, t)
        assert abs(exact - second_order) <= 1e-2


def test_decoupling_point_freezes_decay():
    # chi at the J_0 root with the drive fast compared to the band.
    p = make(omega_c=5.0, drive_freq=10.0, drive_amp=J0_ROOT * 10.0)
    grid = build_grid(p)
    curve = survival_curve_exact(p, grid, np.linspace(0.5, 10.0, 20))
    assert float(curve.probabilities.min()) >= 0.99


def test_undriven_resonant_decay_follows_golden_rule_envelope():
    p = make(omega_c=2.0, g=0.1, drive_amp=0.0)
    grid = build_grid(p)
    rate = 2.0 * p.g**2 / math.sqrt(4.0 * p.xi**2)  # golden rule at band center
    times = np.linspace(2.0, 10.0, 9)
    curve = survival_curve_exact(p, grid, times)
    assert np.all(curve.probabilities <= 1.5 * np.exp(-rate * times))


def test_two_in_band_sidebands_decay_at_the_summed_golden_rule():
    # nu = 3 < 4 xi puts sidebands -1 and 0 in band. The oracle decays at
    # the Floquet golden rule summed over them, sum_m 2 pi g^2 J_m(chi)^2
    # rho(delta + m nu); sideband 0 alone is 28% low.
    p = make(omega_c=3.4, g=0.05, n_cavities=301, drive_amp=3.0, drive_freq=3.0)
    grid = build_grid(p)
    assert list(resonant_sidebands(p)) == [-1, 0]
    summed = sum(decay_rate_longtime(p, m).rate for m in resonant_sidebands(p))
    times = np.array([20.0, 30.0, 40.0])
    rates = -np.log(survival_curve_exact(p, grid, times).probabilities) / times
    # -ln P(t) / t oscillates about the golden rule by about 1% at these times.
    assert np.abs(rates / summed - 1.0).max() <= 0.02
    assert decay_rate_longtime(p, 0).rate < 0.75 * summed


def test_floquet_average_matches_period_mean():
    # Stroboscopic average of the exact P_e over one drive period against
    # the time-averaged transition probability from the quasi-energy basis.
    p = make(n_cavities=11, g=0.05)
    grid = build_grid(p)
    fm = build_floquet_matrix(p, grid, 10)
    t_mid = 5.0
    window = np.linspace(t_mid - p.period / 2.0, t_mid + p.period / 2.0, 61)
    curve = survival_curve_exact(p, grid, window)
    mean_exact = float(np.trapezoid(curve.probabilities, window) / p.period)
    averaged = averaged_transition_probability(fm, TLS, TLS, t_mid)
    assert abs(averaged - mean_exact) <= 5e-2


def test_survival_curve_exact_conventions():
    p = make()
    grid = build_grid(p)
    only_zero = survival_curve_exact(p, grid, [0.0])
    assert only_zero.method == "oracle"
    assert only_zero.probabilities.tolist() == [1.0]
    with pytest.raises(ValueError):
        survival_curve_exact(p, grid, [1.0, 1.0])
    with pytest.raises(ValueError):
        survival_curve_exact(p, grid, [-1.0, 1.0])
    with pytest.raises(ValueError):
        survival_curve_exact(p, grid, [])
    for times in ([0.0, math.nan, 1.0], [0.0, math.inf]):
        with pytest.raises(InvalidArgument):
            survival_curve_exact(p, grid, times)
