"""`dop853.DOP853` steps exactly as scipy's DOP853, the reference it reproduces.

Every accepted time and state, the right-hand-side count and the dense
output at interior times must be equal bit for bit, on the oracle's own
equations: the state vector (the direct route) and the flattened
propagator (the period map), forward and backward in time. That is what
keeps the oracle's CSV bytes and its step counts unchanged.
"""

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate._ivp import dop853_coefficients

from floquet_zeno import dop853, oracle
from floquet_zeno.bath import build_grid
from floquet_zeno.params import SystemParams, validate

FRACTIONS = np.array([0.0, 0.1, 0.37, 0.5, 0.9])


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=11, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def trajectory(stepper_class, fun, t0, y0, t_bound, columns):
    """Per accepted step: t, y bytes, and the dense output at interior times (all entries, one time, the leading rows)."""
    stepper = stepper_class(fun, t0, y0, t_bound, rtol=oracle.RTOL, atol=oracle.ATOL)
    record = [stepper.nfev]
    while stepper.status == "running":
        stepper.step()
        dense = stepper.dense_output()
        times = stepper.t_old + FRACTIONS * (stepper.t - stepper.t_old)
        full = dense(times)
        record.append((stepper.t, stepper.y.tobytes(), full.tobytes(), dense(times[2]).tobytes(), stepper.nfev))
        if stepper_class is dop853.DOP853:
            assert dense(times, columns).tobytes() == full[:columns].tobytes()
    assert stepper.status == "finished"
    return record


def test_tableau_is_scipys():
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert getattr(dop853, name).tobytes() == getattr(dop853_coefficients, name).tobytes(), name


@pytest.mark.parametrize("route", ["direct", "map"])
@pytest.mark.parametrize("t0, periods", [(0.0, 2.3), (0.7, -1.6)])
@pytest.mark.parametrize("overrides", [{}, dict(g=0.05, n_cavities=41, drive_amp=0.0)])
def test_steps_match_scipy_bit_for_bit(route, t0, periods, overrides):
    p = make(**overrides)
    grid = build_grid(p)
    n = grid.n_cavities + 1
    columns = n if route == "map" else 1
    y0 = np.eye(n, columns, dtype=complex).ravel()  # the excited emitter, or the identity basis
    t_bound = t0 + periods * p.period
    ours = trajectory(dop853.DOP853, oracle._rhs(p, grid, columns), t0, y0, t_bound, columns)
    scipys = trajectory(ScipyDOP853, oracle._rhs(p, grid, columns), t0, y0, t_bound, columns)
    assert len(ours) > 10
    assert ours == scipys


def test_a_run_to_its_own_start_finishes_without_stepping_as_scipys():
    # The period map meets this when t0 + T rounds to t0 (|t0| past 2^53 T).
    p = make()
    grid = build_grid(p)
    y0 = np.eye(grid.n_cavities + 1, 1, dtype=complex).ravel()
    results = []
    for stepper_class in (dop853.DOP853, ScipyDOP853):
        stepper = stepper_class(oracle._rhs(p, grid, 1), 1e17, y0, 1e17, rtol=oracle.RTOL, atol=oracle.ATOL)
        stepper.step()
        dense = stepper.dense_output()
        results.append((stepper.status, stepper.t, stepper.nfev, stepper.y.tobytes(), dense(1e17).tobytes()))
    assert results[0] == results[1]
    assert results[0][:3] == ("finished", 1e17, 1)
