"""Exact propagation: closed-form limits, integrator hygiene, cross-checks."""

import math

import numpy as np
import pytest

from floquet_zeno.bath import build_grid
from floquet_zeno.decay import survival_probability
from floquet_zeno.errors import InvalidArgument, NormDrift, StepLimitExceeded
from floquet_zeno.floquet import TLS, averaged_transition_probability, build_floquet_matrix
from floquet_zeno.oracle import (
    IntegratorConfig,
    OneQuantumState,
    excited_state,
    propagate,
    survival_curve_exact,
)
from floquet_zeno.params import SystemParams, validate

J0_ROOT = 2.4048255576957733


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def survival(params: SystemParams, t: float, cfg: IntegratorConfig = IntegratorConfig()) -> float:
    grid = build_grid(params)
    return abs(propagate(params, grid, excited_state(grid), t, cfg).c_e) ** 2


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


def test_time_reversal_returns_to_start():
    p = make()
    grid = build_grid(p)
    forward = propagate(p, grid, excited_state(grid), 7.3)
    back = propagate(p, grid, forward, 0.0)
    assert abs(back.c_e - 1.0) <= 1e-7
    assert float(np.max(np.abs(back.c_k))) <= 1e-7


def test_tolerance_refinement_is_converged():
    p = make()
    loose = survival(p, 5.0)
    tight = survival(p, 5.0, IntegratorConfig(rtol=5e-12, atol=5e-14))
    assert abs(loose - tight) <= 1e-8


def test_step_budget_enforced():
    p = make()
    grid = build_grid(p)
    with pytest.raises(StepLimitExceeded):
        propagate(p, grid, excited_state(grid), 50.0, IntegratorConfig(max_steps=3))


def test_rejects_bad_tolerances():
    p = make()
    grid = build_grid(p)
    with pytest.raises(ValueError):
        propagate(p, grid, excited_state(grid), 1.0, IntegratorConfig(rtol=0.0))


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
