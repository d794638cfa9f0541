"""Exact propagation: closed-form limits, integrator hygiene, cross-checks."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from floquet_zeno import oracle
from floquet_zeno.bath import build_grid
from floquet_zeno.cli import run
from floquet_zeno.decay import decay_rate_longtime, survival_probability
from floquet_zeno.errors import InvalidArgument, NonFiniteResult, NormDrift, StepLimitExceeded
from floquet_zeno.floquet import TLS, averaged_transition_probability, build_floquet_matrix, quasi_energies
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


def ring_energies(p):
    """eps_k = omega_c - 2 xi cos k on all N momenta k_j = 2 pi j / N, each pair's modes apart."""
    return p.omega_c - 2.0 * p.xi * np.cos(2.0 * math.pi * np.arange(p.n_cavities) / p.n_cavities)


def lab_frame_reference(p, grid, y0, t0, t):
    """The lab-frame Schrodinger equation on all N+1 amplitudes, by DOP853 at tight tolerances, written out here."""
    from scipy.integrate import solve_ivp

    coupling = p.g / math.sqrt(grid.n_cavities)
    energies = ring_energies(p)

    def rhs(s, y):
        drive = 0.5 * (p.omega + p.drive_amp * math.cos(p.drive_freq * s))
        out = np.empty_like(y)
        out[0] = -1j * (drive * y[0] + coupling * y[1:].sum())
        out[1:] = -1j * ((energies - drive) * y[1:] + coupling * y[0])
        return out

    return solve_ivp(rhs, (t0, t), y0, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]


@pytest.mark.parametrize("t", [0.7, 3.0, 11.0])
def test_frame_matches_the_lab_frame_equation(t):
    # The reference carries all N+1 amplitudes, so it checks the bright
    # reduction as well as the frame, at even N (j = N/2 unpaired) and odd N.
    for n in (10, 11):
        p = make(n_cavities=n)  # delta = 1, chi = 1
        grid = build_grid(p)
        start = excited_state(grid)
        state = propagate(p, grid, start, t)
        reference = lab_frame_reference(p, grid, np.concatenate(([start.c_e], start.c_k)), 0.0, t)
        assert np.abs(np.concatenate(([state.c_e], state.c_k)) - reference).max() <= 1e-10, n


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("t", [0.2, 4.0, 12.3])
def test_a_start_with_a_dark_part_matches_the_lab_frame_equation(t, n):
    # From t0 = 1.3, with c_j != c_{N-j} in every pair, forward over 2.6 and
    # 10.5 drive periods (both on the period map) and back over 1.05.
    p = make(n_cavities=n)
    grid = build_grid(p)
    rng = np.random.default_rng(n)
    y0 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    y0 /= np.linalg.norm(y0)
    state = propagate(p, grid, OneQuantumState(c_e=complex(y0[0]), c_k=y0[1:], time=1.3), t)
    reference = lab_frame_reference(p, grid, y0, 1.3, t)
    assert np.abs(np.concatenate(([state.c_e], state.c_k)) - reference).max() <= 1e-10


@pytest.mark.parametrize("n", [10, 11])
def test_a_dark_start_keeps_only_its_free_phase(n):
    # (|j> - |N-j>)/sqrt(2) does not couple: each amplitude turns with
    # exp(-i (eps_k (t1 - t0) - (Phi(t1) - Phi(t0)))), and the emitter stays empty.
    p = make(n_cavities=n)
    grid = build_grid(p)
    c_k = np.zeros(n, dtype=complex)
    c_k[3], c_k[n - 3] = math.sqrt(0.5), -math.sqrt(0.5)
    t0, t1 = 1.3, 12.3
    state = propagate(p, grid, OneQuantumState(c_e=0j, c_k=c_k, time=t0), t1)
    phi = {t: 0.5 * t * (p.omega + p.drive_amp * math.sin(p.drive_freq * t) / (p.drive_freq * t)) for t in (t0, t1)}
    free = c_k * np.exp(-1j * (ring_energies(p) * (t1 - t0) - (phi[t1] - phi[t0])))
    assert abs(state.c_e) < 1e-15
    assert np.abs(state.c_k - free).max() <= 1e-13


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


def bright(n_cavities: int) -> int:
    """The oracle's state size: the emitter and the bright modes j = 0 .. floor(N/2)."""
    return n_cavities // 2 + 2


def stepper_sizes(monkeypatch) -> list[int]:
    """Record the size of y0 for every stepper built: the state size for a direct run, its square for the period map."""
    sizes = []

    class Recording(oracle.RK45):
        def __init__(self, fun, t0, y0, t_bound, **kwargs):
            sizes.append(y0.size)
            super().__init__(fun, t0, y0, t_bound, **kwargs)

    monkeypatch.setattr(oracle, "RK45", Recording)
    return sizes


def force(monkeypatch, route):
    if route == "map":
        monkeypatch.setattr(oracle, "MAP_OVERHEAD", 1e300)  # c(N) = 1
    else:
        monkeypatch.setattr(oracle, "MAP_MAX_ENTRIES", 0)


def test_step_budget_enforced(monkeypatch):
    p = make()
    grid = build_grid(p)
    sizes = stepper_sizes(monkeypatch)
    # A direct run of 0.9 periods: above the upfront estimate (9.25 * 0.94
    # = 8.7 steps), below the 25 steps it takes, so the in-loop check is
    # the one that fires.
    monkeypatch.setattr(oracle, "MAX_STEPS", 15)
    with pytest.raises(StepLimitExceeded, match="exceeded 15 steps"):
        propagate(p, grid, excited_state(grid), 0.9 * p.period)
    assert sizes == [bright(p.n_cavities)]


def test_step_budget_enforced_in_the_period_map(monkeypatch):
    p = make(n_cavities=11)
    grid = build_grid(p)
    sizes = stepper_sizes(monkeypatch)
    # 2.1 periods take the map (c(11) = 1.60); the estimate is 11.6 steps
    # (9.6 for the period, one per power), and its one-period run takes 26.
    monkeypatch.setattr(oracle, "MAX_STEPS", 23)
    with pytest.raises(StepLimitExceeded, match="exceeded 23 steps"):
        propagate(p, grid, excited_state(grid), 2.1 * p.period)
    assert sizes == [bright(p.n_cavities) ** 2]


@pytest.mark.parametrize(
    "overrides, t, floor",
    [(dict(drive_amp=60.0), 2.0, 1.0), (dict(xi=10.0), 2.0, 1.0), (dict(omega=1e6), 1e-4, 0.5)],
    ids=["A-60", "xi-10", "omega-1e6"],
)
def test_direct_steps_against_the_upfront_estimate(overrides, t, floor, monkeypatch):
    # The lowest ratios of steps taken to the estimate, rate |t1 - t0|, that
    # _integrate's comment states: about 1.5 and 1.9, and 0.65 far off resonance.
    p = make(**overrides)
    grid = build_grid(p)
    steps = []

    class Counting(oracle.RK45):
        def step(self):
            steps.append(self.t)
            return super().step()

    monkeypatch.setattr(oracle, "RK45", Counting)
    force(monkeypatch, "direct")
    propagate(p, grid, excited_state(grid), t)
    rate = float(np.abs(p.omega - grid.energies).max()) + p.drive_amp + p.g
    assert len(steps) >= floor * rate * t


@pytest.mark.parametrize("t", [11.0, 100.0])
def test_period_map_matches_direct_integration(t, monkeypatch):
    p = make()
    grid = build_grid(p)
    sizes = stepper_sizes(monkeypatch)
    times = np.linspace(t / 200, t, 200)
    results = {}
    for route in ("map", "direct"):
        with monkeypatch.context() as m:
            force(m, route)
            state = propagate(p, grid, excited_state(grid), t)
            back = propagate(p, grid, state, 0.0)
            curve = survival_curve_exact(p, grid, times).probabilities
        results[route] = np.concatenate(([state.c_e], state.c_k, [back.c_e], back.c_k)), curve
    assert sizes == [22**2] * 3 + [22] * 3
    assert np.abs(results["map"][0] - results["direct"][0]).max() <= 1e-10
    assert np.abs(results["map"][1] - results["direct"][1]).max() <= 1e-10


def test_period_map_samples_whole_periods(monkeypatch):
    # Samples on exact multiples of T read the period run at its ends.
    p = make(g=0.05)
    grid = build_grid(p)
    times = np.arange(1, 31) * p.period
    curves = {}
    for route in ("map", "direct"):
        with monkeypatch.context() as m:
            force(m, route)
            curves[route] = survival_curve_exact(p, grid, times).probabilities
    assert np.abs(curves["map"] - curves["direct"]).max() <= 1e-10


@pytest.mark.parametrize("route", ["map", "direct"])
def test_a_time_zero_sample_is_an_ordinary_row(route, monkeypatch):
    # One run samples t = 0 like any other time: P_e(0) = 1 exactly, and
    # the later rows keep their bytes.
    p = make()
    grid = build_grid(p)
    sizes = stepper_sizes(monkeypatch)
    force(monkeypatch, route)
    times = np.linspace(11.0 / 50, 11.0, 50)
    with_zero = survival_curve_exact(p, grid, np.concatenate(([0.0], times))).probabilities
    assert with_zero[0] == 1.0
    assert with_zero[1:].tobytes() == survival_curve_exact(p, grid, times).probabilities.tobytes()
    assert sizes == [bright(p.n_cavities) ** (2 if route == "map" else 1)] * 2


def test_period_map_checks_the_unitarity_of_its_period(monkeypatch):
    p = make()
    grid = build_grid(p)
    monkeypatch.setattr(oracle, "NORM_TOLERANCE", 1e-20)
    with pytest.raises(NormDrift, match="one-period propagator"):
        propagate(p, grid, excited_state(grid), 11.0)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda p, grid: propagate(p, grid, excited_state(grid), 0.5),
        lambda p, grid: survival_curve_exact(p, grid, [0.25, 0.5]),
    ],
    ids=["propagate", "survival-curve"],
)
def test_direct_run_checks_the_norm_of_its_end_state(kernel, monkeypatch):
    # Half a drive period, below c(N), integrates directly: there is no
    # period map to check, so the end state's norm is the check.
    p = make()
    grid = build_grid(p)
    sizes = stepper_sizes(monkeypatch)
    monkeypatch.setattr(oracle, "NORM_TOLERANCE", 1e-20)
    with pytest.raises(NormDrift, match="norm drifted"):
        kernel(p, grid)
    assert sizes == [bright(p.n_cavities)]


def test_runs_below_break_even_stay_direct(monkeypatch):
    # The benchmark's short horizons (at most 0.9 T) and a drive too fast
    # for rate T >= 1 keep the vector run; their bytes do not depend on
    # the map's constants.
    sizes = stepper_sizes(monkeypatch)
    for delta, chi in ((1.0, 1.0), (3.0, 1.0), (3.0, J0_ROOT)):
        p = make(g=0.05, omega_c=2.0 + delta, drive_amp=6.0 * chi)
        grid = build_grid(p)
        for fraction in (0.15, 0.3, 0.5, 0.7, 0.9):
            times = np.linspace(fraction * p.period / 50, fraction * p.period, 50)
            probs = survival_curve_exact(p, grid, times).probabilities
            with monkeypatch.context() as m:
                force(m, "direct")
                assert survival_curve_exact(p, grid, times).probabilities.tobytes() == probs.tobytes()
    fast = make(g=0.05, drive_amp=1.0, drive_freq=1e308)
    grid = build_grid(fast)
    survival_curve_exact(fast, grid, np.linspace(1.0, 100.0, 5))
    assert set(sizes) == {22}


@pytest.mark.parametrize("extra", [[], ["--drive-freq", "1e308", "--t-max", "10"]])
def test_cli_oracle_runs_below_break_even_stay_direct(extra, monkeypatch, capsys):
    # The benchmark's cold oracle command spans 1.9 periods.
    argv = ["survival", "--method", "oracle", "--g", "0.05", "--delta", "1", "--drive-amp", "0",
            "--t-max", "2", "--t-steps", "10", *extra]
    sizes = stepper_sizes(monkeypatch)
    assert run(argv) == 0
    out = capsys.readouterr().out
    force(monkeypatch, "direct")
    assert run(argv) == 0
    assert capsys.readouterr().out == out
    assert sizes == [22, 22]


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


def test_map_estimate_charges_one_period_and_each_power(monkeypatch):
    # t = 100 at the defaults takes the map: rate T = 9.7 steps for its
    # period plus 95 powers, 104.7 in all, where rate t would be 924.
    sizes = stepper_sizes(monkeypatch)
    p = make()
    grid = build_grid(p)
    monkeypatch.setattr(oracle, "MAX_STEPS", 104)
    with pytest.raises(StepLimitExceeded, match="estimated"):
        propagate(p, grid, excited_state(grid), 100.0)
    assert sizes == []
    monkeypatch.setattr(oracle, "MAX_STEPS", 105)
    propagate(p, grid, excited_state(grid), 100.0)
    assert sizes == [22**2]
    # A span past the float range stays off the map: its estimate is inf.
    with pytest.raises(StepLimitExceeded, match="estimated inf"):
        propagate(p, grid, dataclasses.replace(excited_state(grid), time=-1.7e308), 1.7e308)
    assert sizes == [22**2]


def test_map_runs_past_the_direct_step_estimate(capsys):
    # 1.05e5 periods at the defaults: rate t is 1.02e6 steps, past MAX_STEPS,
    # but the map takes 24 steps and 1.05e5 powers.
    assert run(["survival", "--method", "oracle", "--t-max", "1.1e5"]) == 0
    probs = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",")[:, 1]
    assert probs.size == 100 and np.all((probs >= 0.0) & (probs <= 1.0))


def test_direct_reads_are_bounded_in_memory(monkeypatch):
    # 2000 samples within one DOP853 step at N = 4096: one dense-output call
    # for all of them built a 2000 x 4097 array, a 127 MiB peak.
    p = make(n_cavities=4096)
    grid = build_grid(p)
    steps = []

    class Counting(oracle.RK45):
        def step(self):
            steps.append(self.t)
            return super().step()

    monkeypatch.setattr(oracle, "RK45", Counting)
    times = np.linspace(0.01 / 2000, 0.01, 2000)
    tracemalloc.start()
    try:
        survival_curve_exact(p, grid, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(steps) == 1
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("route", ["map", "direct"])
def test_row_only_reads_equal_the_full_reads_leading_entries(route, monkeypatch):
    # A sample reads only its emitter row off the step interpolant (the
    # state size on the map, one entry direct); each such read must equal
    # the leading entries of the full read at the same times, bit for bit.
    p = make(g=0.05)
    grid = build_grid(p)
    sizes = stepper_sizes(monkeypatch)
    force(monkeypatch, route)
    checked = []

    class Checking(oracle.RK45):
        def dense_output(self):
            dense = super().dense_output()

            def read(t, size=None):
                part = dense(t, size)
                if size is not None:
                    assert part.tobytes() == dense(t)[:size].tobytes()
                    checked.append(np.size(t))
                return part

            return read

    monkeypatch.setattr(oracle, "RK45", Checking)
    times = np.linspace(0.1, 11.0, 60)
    survival_curve_exact(p, grid, times)
    assert sizes == [bright(p.n_cavities) ** (2 if route == "map" else 1)]
    assert sum(checked) == times.size


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
    with pytest.raises(InvalidArgument, match="squared norm"):
        propagate(p, grid, bad, 1.0)
    # A squared norm within NORM_TOLERANCE of 1 is integrated.
    near = dataclasses.replace(bad, c_e=complex(1.0 + 1e-8))
    assert propagate(p, grid, near, 0.5).time == 0.5


@pytest.mark.parametrize(
    "c_e, c_k",
    [
        (math.nan, np.zeros(41)),
        (1.0, np.full(41, math.inf)),
        (1e200, np.zeros(41)),
        (1.0, np.full(41, 1e200)),
        (1.0, np.zeros(40)),
        (1.0, np.zeros(42)),
        (1.0, np.zeros((41, 1))),
        (0.0, np.zeros(41)),
        (1.0 + 2e-7, np.zeros(41)),
    ],
    ids=["nan", "inf", "huge-c_e", "huge-c_k", "short", "long", "column", "norm-0", "off-by-4e-7"],
)
def test_initial_state_is_refused_before_integrating(c_e, c_k, monkeypatch):
    # A nan amplitude raised the stepper's own ValueError, a c_k of the wrong
    # length numpy's broadcast error, and a squared norm off 1 integrated the
    # whole run before NormDrift. Each is now InvalidArgument with no stepper built.
    p = make()
    grid = build_grid(p)
    sizes = stepper_sizes(monkeypatch)
    with pytest.raises(InvalidArgument):
        propagate(p, grid, OneQuantumState(c_e=complex(c_e), c_k=c_k.astype(complex), time=0.0), 1.0)
    assert sizes == []


@pytest.mark.parametrize(
    "c_e, c_k",
    [(1e200, np.zeros(41)), (0.0, np.full(41, 1e200)), (math.nan, np.zeros(41))],
    ids=["huge-c_e", "huge-c_k", "nan"],
)
def test_norm_sq_past_the_float_range_is_refused(c_e, c_k):
    # A c_e of 1e200 raised a bare OverflowError, a c_k entry of 1e200 gave
    # inf with a RuntimeWarning, and a nan amplitude returned nan.
    state = OneQuantumState(c_e=complex(c_e), c_k=c_k.astype(complex), time=0.0)
    with pytest.raises(NonFiniteResult, match="squared norm"):
        state.norm_sq()
    assert OneQuantumState(c_e=0.6 + 0.0j, c_k=np.array([0.8j]), time=0.0).norm_sq() == pytest.approx(1.0, abs=1e-15)


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


def test_sambe_amplitude_matches_the_oracle():
    # Three-way check through the paper's operator: c_e(t) = sum_m (-1)^m
    # exp(i m nu t) <e,m| exp(-i H_F t) |e,0> from the quasi-energy basis
    # against the period map, out to t = 1e4 (9549 periods). The oracle's
    # own error sets the 1e-9 there: 5.5e-11 at RTOL 1.4e-11 (3.6e-10 on
    # RK45), 9.1e-13 at 1e-13.
    p = make(n_cavities=11)  # delta = 1, chi = 1
    grid = build_grid(p)
    times = np.array([11.0, 100.0, 1e4])
    exact = survival_curve_exact(p, grid, times).probabilities
    fm = build_floquet_matrix(p, grid, 12)
    spectrum = quasi_energies(fm)
    m = np.arange(-12, 13)
    rows = spectrum.eigenvectors[[fm.index(TLS, k) for k in m]]
    evolved = np.exp(-1j * np.outer(spectrum.eigenvalues, times)) * spectrum.eigenvectors[fm.index(TLS, 0)][:, None]
    blocks = np.einsum("mj,jt->tm", rows, evolved) * np.exp(1j * p.drive_freq * np.outer(times, m))
    signed = np.abs(blocks @ (-1.0) ** m) ** 2
    assert np.all(np.abs(signed - exact) <= [1e-11, 1e-11, 1e-9])
    # Without the drive-phase sign the sum is off by 4e-6 to 1e-2.
    assert np.all(np.abs(np.abs(blocks.sum(axis=1)) ** 2 - exact) > 1e-6)


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
