"""Exact propagation in the one-excitation subspace, used as ground truth.

Solves i dc/dt = H(t) c for the amplitude vector (c_e, c_k1 .. c_kN)
with the time-dependent Hamiltonian

    H_ee   = +(omega + A cos(nu t)) / 2
    H_kk   = -(omega + A cos(nu t)) / 2 + eps_k
    H_ek   = g / sqrt(N)

in the interaction picture of its diagonal. The diagonal phases have
the closed form Phi(t) = int_0^t H_ee = t (omega + A sinc(nu t)) / 2,
so with

    c_e = exp(-i Phi(t)) a,    c_k = exp(-i (eps_k t - Phi(t))) b_k

DOP853, the 8th-order Dormand-Prince pair, integrates only the coupling,

    a'   = -i (g / sqrt(N)) sum_k exp(+i theta_k(t)) b_k
    b_k' = -i (g / sqrt(N)) exp(-i theta_k(t)) a

with theta_k(t) = (omega - eps_k) t + A t sinc(nu t), and never has to
resolve the emitter's or the modes' own rotation. |c_e| = |a|, and the
frame is unitary, so the norm is the same in both pictures.

H(t) repeats with the drive period T = 2 pi / nu, so a run that spans
more than c(N) = (MAP_SETUP + MAP_OVERHEAD + (N+1)^2) / (MAP_OVERHEAD + N+1)
periods (3.3 at N = 41) integrates the (N+1) x (N+1) propagator over
one period only and reaches t0 + kT + r as U(t0 + r, t0) U(t0 + T, t0)^k.
Its integration cost then no longer grows with t; only the k
matrix-vector products do, about 2 us each at N = 41. A shorter run, a
run whose step-estimate rate times T is below 1 (k could then pass the
step estimate), and a run whose propagator and sampled emitter rows
exceed MAP_MAX_ENTRIES integrate the state vector directly.

The phase is the elementary integral of the drive, not the Bessel
expansion the Floquet layer uses, and nothing here touches the Floquet
construction or the perturbative decay formulas; agreement between the
two is a genuine cross-check, not a shared-code artifact.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bath import MomentumGrid
from .errors import InvalidArgument, NonFiniteResult, NormDrift, StepLimitExceeded
from .params import SurvivalCurve, SystemParams, check_times

NORM_TOLERANCE = 1e-7
# DOP853 settings, read at each call. In the interaction frame the direct
# route holds the norm drift to 3.2e-13 at g = 0.05 and 1.9e-12 at
# g = 0.25 out to t = 100/xi, at about 26 steps per period at the defaults.
RTOL = 1e-11
ATOL = 1e-13
MAX_STEPS = 1_000_000
# A run that spans more drive periods than c(N) = (MAP_SETUP + MAP_OVERHEAD
# + (N+1)^2) / (MAP_OVERHEAD + N+1) integrates one period of the propagator
# and powers it (_period_map), which costs about c(N) direct periods. On a
# 2-core VM (medians of 7, g = 0.05, 100 samples) c was 1.6, 2.1, 3.8, 5.8,
# 9.7, 19.4, 32.3, 67.1, 105 and 139 at N = 11, 21, 41, 71, 101, 151, 201,
# 301, 401 and 463; the fit is within 22% of each and puts c(41) at 3.34.
MAP_OVERHEAD = 1100.0
MAP_SETUP = 950.0
# Ceiling on the map's complex entries, (N+1)(N+1 + samples); past it a
# run integrates directly. DOP853 keeps about 45 (N+1)^2 arrays: a 238 MB
# peak RSS at N = 463 with 100 samples, where c(N) asks for 139 periods.
MAP_MAX_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class OneQuantumState:
    c_e: complex
    c_k: np.ndarray
    time: float

    def norm_sq(self) -> float:
        return float(abs(self.c_e) ** 2 + (np.abs(self.c_k) ** 2).sum())


def __getattr__(name: str):
    # scipy.integrate takes about half a second to import and only
    # _integrate uses it, so the stepper, scipy's DOP853, is bound on first
    # access, under the name RK45 by which the benchmark's tracer replaces it.
    if name == "RK45":
        from scipy.integrate import DOP853

        globals()["RK45"] = DOP853
        return DOP853
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def excited_state(grid: MomentumGrid) -> OneQuantumState:
    """Emitter excited at t = 0, field in vacuum; the default initial condition."""
    return OneQuantumState(c_e=1.0 + 0.0j, c_k=np.zeros(grid.n_cavities, dtype=complex), time=0.0)


def _sinc(x: float) -> float:
    # 1 at x = 0, which a subnormal nu times t can round to; 0 where nu t overflows.
    if math.isinf(x):
        return 0.0
    return math.sin(x) / x if x else 1.0


def _frame(params: SystemParams, grid: MomentumGrid, t: float) -> np.ndarray:
    """exp(i (Phi, eps_k t - Phi)) at absolute time t: lab amplitudes times this are frame amplitudes."""
    phi = 0.5 * t * (params.omega + params.drive_amp * _sinc(params.drive_freq * t))  # Phi(t)
    if not math.isfinite(abs(phi) + abs(t) * float(np.abs(grid.energies).max())):
        raise NonFiniteResult(f"the frame phase overflows at t = {t:g}")
    return np.exp(1j * np.concatenate(([phi], grid.energies * t - phi)))


def _rhs(params: SystemParams, grid: MomentumGrid, columns: int = 0):
    minus_i_detuning = -1j * (params.omega - grid.energies)
    coupling = -1j * params.g / math.sqrt(grid.n_cavities)
    amp, nu = params.drive_amp, params.drive_freq

    def rotation(t) -> np.ndarray:
        # exp(-i theta_k(t)). DOP853 passes a numpy t; a float nu t overflows
        # to inf without a warning.
        return np.exp(minus_i_detuning * t - 1j * (amp * t * _sinc(nu * float(t))))

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        phases = rotation(t)
        out = np.empty_like(y)
        # vdot conjugates the rotation back for the emitter row.
        out[0] = coupling * np.vdot(phases, y[1:])
        np.multiply(phases, coupling * y[0], out=out[1:])
        return out

    def columns_rhs(t: float, y: np.ndarray) -> np.ndarray:
        # The same equation for each column of a flattened (N+1) x columns matrix.
        phases = rotation(t)
        y = y.reshape(-1, columns)
        out = np.empty_like(y)
        out[0] = coupling * (phases.conj() @ y[1:])
        np.multiply(phases[:, None], coupling * y[0], out=out[1:])
        return out.ravel()

    return columns_rhs if columns else rhs


def _steps(stepper):
    """Advance stepper to its bound, yielding after each step, within MAX_STEPS."""
    steps = 0
    while stepper.status == "running":
        if steps >= MAX_STEPS:
            raise StepLimitExceeded(f"exceeded {MAX_STEPS} steps at t = {stepper.t:g}")
        stepper.step()
        steps += 1
        yield
    if stepper.status == "failed":
        raise StepLimitExceeded(f"step size underflow at t = {stepper.t:g}")


def _map_pays(params: SystemParams, rate: float, span: float, columns: int, samples: int) -> bool:
    # The route rule. The map integrates one period of N+1 columns, which
    # costs c(N) direct periods (see MAP_OVERHEAD).
    # rate T >= 1 keeps the whole periods below the step estimate, and the
    # propagator with the sampled emitter rows within MAP_MAX_ENTRIES.
    period = params.period
    return (
        rate * period >= 1.0
        and columns * (columns + samples) <= MAP_MAX_ENTRIES
        and span / period > (MAP_SETUP + MAP_OVERHEAD + columns * columns) / (MAP_OVERHEAD + columns)
    )


def _integrate(params, grid, y0, t0, t1, sample_times=None):
    # Returns (y(t1), [|c_e|^2 at sample_times]) for lab amplitudes y0 at
    # t0; sample_times must be increasing and lie in [t0, t1]. Backward
    # runs (t1 < t0) are allowed and used by the time-reversal checks; no
    # sampling there. A run past the break-even goes through _period_map.
    pending = np.asarray(sample_times if sample_times is not None else [], dtype=float)
    if t1 == t0:
        return y0.copy(), [abs(y0[0]) ** 2] * pending.size
    # Refuse upfront a run the in-loop check would stop anyway: the fastest
    # frame phase turns at most max_k |omega - eps_k| + A, the coupling at
    # g, and over twelve configurations a direct DOP853 run took 1.55x
    # (A = 60) to 3.2x (one mode) this many steps; only a coupling far
    # below that rate (omega = 1e6: 0.64x) lets it step faster, so such a
    # run can be refused early. An overflow gives an inf estimate, refused too.
    lo, hi = float(grid.energies.min()), float(grid.energies.max())
    rate = max(abs(params.omega - lo), abs(params.omega - hi)) + params.drive_amp + params.g
    estimate = rate * abs(t1 - t0)
    if not estimate <= MAX_STEPS:
        raise StepLimitExceeded(f"an estimated {estimate:.3g} steps to t = {t1:g} exceed the limit of {MAX_STEPS}")
    if _map_pays(params, rate, abs(t1 - t0), grid.n_cavities + 1, pending.size):
        return _period_map(params, grid, y0, t0, t1, pending)
    y_start = _frame(params, grid, t0) * y0
    back = _frame(params, grid, t1).conj()
    # Looked up on the module at each call, so a replaced `oracle.RK45` is used.
    stepper = sys.modules[__name__].RK45(_rhs(params, grid), t0, y_start, t1, rtol=RTOL, atol=ATOL)
    samples = []
    for _ in _steps(stepper):
        due = int(np.searchsorted(pending, stepper.t, side="right"))
        if due:
            # |c_e| = |a|, so samples need no transform back to the lab frame.
            samples.extend(np.abs(stepper.dense_output()(pending[:due])[0]) ** 2)
            pending = pending[due:]
    return back * stepper.y, samples


def _period_map(params, grid, y0, t0, t1, sample_times):
    # The lab Hamiltonian repeats with period T, so U(t0 + kT + r, t0) =
    # U(t0 + r, t0) U(t0 + T, t0)^k (Shirley 1965). One DOP853 run carries
    # the frame propagator, diag(frame(t0)) at t0, over one period (T < 0
    # backward), and each time reads U(t0 + r, t0) off the dense output of
    # the step that holds t0 + r: the emitter row for a sample, as much
    # as |c_e| needs, and every row for t1.
    n = grid.n_cavities + 1
    period = math.copysign(params.period, t1 - t0)
    sign = math.copysign(1.0, period)
    elapsed = np.append(sample_times, t1) - t0
    turns = np.floor(elapsed / period)
    reads = t0 + np.clip(elapsed - turns * period, *sorted((0.0, period)))
    order = np.argsort(sign * reads[:-1], kind="stable")
    ahead = sign * reads[order]
    rows = np.empty((sample_times.size, n), dtype=complex)
    # Dense output holds n^2 entries per time; read them a bounded batch at a time.
    batch = max(1, MAP_MAX_ENTRIES // (n * n))
    start = np.diag(_frame(params, grid, t0)).ravel()
    stepper = sys.modules[__name__].RK45(_rhs(params, grid, n), t0, start, t0 + period, rtol=RTOL, atol=ATOL)
    done, end = 0, None
    for _ in _steps(stepper):
        due = int(np.searchsorted(ahead, sign * stepper.t, side="right"))
        last = end is None and sign * reads[-1] <= sign * stepper.t
        if due > done or last:
            dense = stepper.dense_output()
            for first in range(done, due, batch):
                index = order[first : min(due, first + batch)]
                rows[index] = dense(reads[index])[:n].T
            done = due
            if last:
                end = dense(reads[-1]).reshape(n, n)
    u = _frame(params, grid, t0 + period).conj()[:, None] * stepper.y.reshape(n, n)
    periods = int(turns[-1])
    defect = periods * float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    if defect > NORM_TOLERANCE:
        raise NormDrift(f"the one-period propagator drifts by {defect:g} over {periods} periods")
    # Its polar factor, so powering adds no drift of its own.
    left, _, right = np.linalg.svd(u)
    u = left @ right
    amplitudes = np.empty(sample_times.size, dtype=complex)
    stops = np.searchsorted(turns[:-1], np.arange(periods + 1), side="right")
    v, first = y0, 0
    for k, stop in enumerate(stops):
        amplitudes[first:stop] = rows[first:stop] @ v
        first = stop
        if k < periods:
            v = u @ v
    return _frame(params, grid, reads[-1]).conj() * (end @ v), np.abs(amplitudes) ** 2


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
    y, probs = _integrate(params, grid, y0, 0.0, float(times[-1]), sample_times=times)
    _check_norm(y, f"propagating 0 -> {times[-1]:g}")
    return SurvivalCurve(times=times, probabilities=np.array(probs), method="oracle")
