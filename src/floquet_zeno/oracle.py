"""Exact propagation in the one-excitation subspace, used as ground truth.

Integrates i dc/dt = H(t) c for the amplitude vector (c_e, c_k1 .. c_kN)
with the time-dependent Hamiltonian evaluated exactly at the integrator
stage times:

    H_ee   = +(omega + A cos(nu t)) / 2
    H_kk   = -(omega + A cos(nu t)) / 2 + eps_k
    H_ek   = g / sqrt(N)

Nothing here touches the Floquet construction or the perturbative decay
formulas; agreement between the two is a genuine cross-check, not a
shared-code artifact.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bath import MomentumGrid
from .errors import InvalidArgument, NormDrift, StepLimitExceeded
from .params import SurvivalCurve, SystemParams, check_times

NORM_TOLERANCE = 1e-7
# RK45 settings, read at each call. These hold the norm drift under 1e-9
# out to t = 100/xi.
RTOL = 1e-11
ATOL = 1e-13
MAX_STEPS = 1_000_000


@dataclass(frozen=True, eq=False)
class OneQuantumState:
    c_e: complex
    c_k: np.ndarray
    time: float

    def norm_sq(self) -> float:
        return float(abs(self.c_e) ** 2 + (np.abs(self.c_k) ** 2).sum())


def __getattr__(name: str):
    # scipy.integrate takes about half a second to import and only
    # _integrate uses it, so `RK45` is bound on first access.
    if name == "RK45":
        from scipy.integrate import RK45

        globals()["RK45"] = RK45
        return RK45
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def excited_state(grid: MomentumGrid) -> OneQuantumState:
    """Emitter excited at t = 0, field in vacuum; the default initial condition."""
    return OneQuantumState(c_e=1.0 + 0.0j, c_k=np.zeros(grid.n_cavities, dtype=complex), time=0.0)


def _rhs(params: SystemParams, grid: MomentumGrid):
    eps = grid.energies
    coupling = params.g / math.sqrt(grid.n_cavities)
    omega, amp, nu = params.omega, params.drive_amp, params.drive_freq

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        drive = 0.5 * (omega + amp * math.cos(nu * t))
        out = np.empty_like(y)
        out[0] = -1j * (drive * y[0] + coupling * y[1:].sum())
        out[1:] = -1j * ((eps - drive) * y[1:] + coupling * y[0])
        return out

    return rhs


def _integrate(params, grid, y0, t0, t1, sample_times=None):
    # Returns (y(t1), [|c_e|^2 at sample_times]); sample_times must be
    # increasing and lie in (t0, t1]. Backward runs (t1 < t0) are allowed
    # and used by the time-reversal checks; no sampling there.
    if t1 == t0:
        return y0.copy(), []
    # Looked up on the module at each call, so a replaced `oracle.RK45` is used.
    stepper = sys.modules[__name__].RK45(_rhs(params, grid), t0, y0, t1, rtol=RTOL, atol=ATOL)
    samples = []
    pending = list(sample_times) if sample_times is not None else []
    steps = 0
    while stepper.status == "running":
        if steps >= MAX_STEPS:
            raise StepLimitExceeded(f"exceeded {MAX_STEPS} steps at t = {stepper.t:g}")
        stepper.step()
        steps += 1
        while pending and stepper.t_old < pending[0] <= stepper.t:
            y_s = stepper.dense_output()(pending.pop(0))
            samples.append(float(abs(y_s[0]) ** 2))
    if stepper.status == "failed":
        raise StepLimitExceeded(f"step size underflow at t = {stepper.t:g}")
    return stepper.y, samples


def _check_norm(y: np.ndarray, where: str) -> None:
    drift = abs(float((np.abs(y) ** 2).sum()) - 1.0)
    if drift > NORM_TOLERANCE:
        raise NormDrift(f"norm drifted by {drift:g} {where}")


def propagate(params: SystemParams, grid: MomentumGrid, initial: OneQuantumState, t_final: float) -> OneQuantumState:
    """Propagate a normalized state to t_final (earlier times allowed)."""
    for name, t in (("t_final", t_final), ("initial.time", initial.time)):
        if not math.isfinite(t):
            raise InvalidArgument(f"{name} must be finite, got {t!r}")
    y0 = np.concatenate(([initial.c_e], initial.c_k)).astype(complex)
    y, _ = _integrate(params, grid, y0, initial.time, t_final)
    _check_norm(y, f"propagating {initial.time:g} -> {t_final:g}")
    return OneQuantumState(c_e=complex(y[0]), c_k=y[1:], time=t_final)


def survival_curve_exact(params: SystemParams, grid: MomentumGrid, times):
    """P_e(t_i) = |c_e(t_i)|^2 along one continued propagation from t = 0."""
    times = check_times(times, positive=False)
    state = excited_state(grid)
    y0 = np.concatenate(([state.c_e], state.c_k)).astype(complex)
    sample = times[times > 0.0]
    probs = [1.0] * int((times == 0.0).sum())
    if sample.size:
        y, collected = _integrate(params, grid, y0, 0.0, float(sample[-1]), sample_times=sample)
        _check_norm(y, f"propagating 0 -> {sample[-1]:g}")
        probs.extend(collected)
    if len(probs) != times.size:
        raise StepLimitExceeded("integrator terminated before all sample times")
    return SurvivalCurve(times=times, probabilities=np.array(probs), method="oracle")
