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

DOP853, the 8th-order Dormand-Prince pair (`dop853`, numpy alone, step
for step scipy's), integrates only the coupling,

    a'   = -i (g / sqrt(N)) sum_k exp(+i theta_k(t)) b_k
    b_k' = -i (g / sqrt(N)) exp(-i theta_k(t)) a

with theta_k(t) = (omega - eps_k) t + A t sinc(nu t), and never has to
resolve the emitter's or the modes' own rotation. |c_e| = |a|, and the
frame is unitary, so the norm is the same in both pictures.

H(t) repeats with the drive period T = 2 pi / nu, so U(t0 + kT + r, t0)
= U(t0 + r, t0) U(t0 + T, t0)^k, and one DOP853 run serves both routes.
Past c(N) = (MAP_SETUP + MAP_OVERHEAD + (N+1)^2) / (MAP_OVERHEAD + N+1)
periods (3.3 at N = 41) it carries the (N+1) x (N+1) propagator over
one period and powers it k times; the cost then grows with t only
through the k matrix-vector products, about 2 us each at N = 41.
Otherwise (a shorter run, a step-estimate rate times T below 1, or
more than MAP_MAX_ENTRIES entries) it carries the state vector itself
to t1, with k = 0. Either way a sample reads only its emitter row off
the step interpolant; only the end read builds the full state.

The phase is the elementary integral of the drive, not the Bessel
expansion the Floquet layer uses, and nothing here touches the Floquet
construction or the perturbative decay formulas; agreement between the
two is a genuine cross-check, not a shared-code artifact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bath import MomentumGrid
from .dop853 import DOP853 as RK45  # the name by which the benchmark's tracer replaces the stepper
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
# and powers it, which costs about c(N) direct periods. On a 2-core VM
# (medians of 7, g = 0.05, 100 samples) c was 1.6, 2.1, 3.8, 5.8, 9.7,
# 19.4, 32.3, 67.1, 105 and 139 at N = 11, 21, 41, 71, 101, 151, 201, 301,
# 401 and 463; the fit is within 22% of each and puts c(41) at 3.34.
MAP_OVERHEAD = 1100.0
MAP_SETUP = 950.0
# Ceiling on the map's complex entries, (N+1)(N+1 + samples); past it a
# run integrates directly. DOP853 keeps about 37 (N+1)^2 arrays: a 158 MB
# peak RSS at N = 463 with 100 samples, where c(N) asks for 139 periods.
# A sample reads only its emitter row off the step interpolant (one entry
# direct, N+1 on the map), so a step's samples are read in one call.
MAP_MAX_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class OneQuantumState:
    c_e: complex
    c_k: np.ndarray
    time: float

    def norm_sq(self) -> float:
        return _norm_sq(np.concatenate(([self.c_e], self.c_k)))


def _norm_sq(y: np.ndarray) -> float:
    # sum |y_i|^2 by vdot, which reports no overflow: inf or nan past the float range.
    norm_sq = float(np.vdot(y, y).real)
    if not math.isfinite(norm_sq):
        raise NonFiniteResult(f"the squared norm is {norm_sq!r}, not finite")
    return norm_sq


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


def _rhs(params: SystemParams, grid: MomentumGrid, columns: int):
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

    # One column, a state vector, costs 4.6 us per call here, 13.2 in columns_rhs (N = 41).
    return rhs if columns == 1 else columns_rhs


def _map_pays(params: SystemParams, rate: float, span: float, columns: int, samples: int) -> bool:
    # The route rule. The map integrates one period of N+1 columns, which
    # costs c(N) direct periods (see MAP_OVERHEAD).
    # rate T >= 1 gives each period at least one estimated step, which a
    # power replaces at less cost, and the propagator with the sampled
    # emitter rows stays within MAP_MAX_ENTRIES. A span past the float
    # range stays direct, where its inf estimate is refused.
    period = params.period
    return (
        rate * period >= 1.0
        and columns * (columns + samples) <= MAP_MAX_ENTRIES
        and (MAP_SETUP + MAP_OVERHEAD + columns * columns) / (MAP_OVERHEAD + columns) < span / period < math.inf
    )


def _integrate(params, grid, y0, t0, t1, sample_times=None):
    # Returns (y(t1), |c_e|^2 at sample_times) for lab amplitudes y0 at t0;
    # sample_times must be increasing and lie in [t0, t1]. Backward runs
    # (t1 < t0) are allowed and used by the time-reversal checks; no
    # sampling there.
    pending = np.asarray(sample_times if sample_times is not None else [], dtype=float)
    if t1 == t0:
        return y0.copy(), [abs(y0[0]) ** 2] * pending.size
    n = grid.n_cavities + 1
    lo, hi = float(grid.energies.min()), float(grid.energies.max())
    rate = max(abs(params.omega - lo), abs(params.omega - hi)) + params.drive_amp + params.g
    # U(t0 + kT + r, t0) = U(t0 + r, t0) U(t0 + T, t0)^k (Shirley 1965): one
    # run carries diag(frame(t0)) basis from t0 to bound, and each time is
    # read at t0 + r and powered over its k whole periods (T < 0 backward).
    # The direct run has no whole periods: basis = y0, v = [1], bound = t1.
    ends = np.append(pending, t1)
    if _map_pays(params, rate, abs(t1 - t0), n, pending.size):
        period = math.copysign(params.period, t1 - t0)
        turns = np.floor((ends - t0) / period)
        reads = t0 + np.clip(ends - t0 - turns * period, *sorted((0.0, period)))
        bound, basis, v = t0 + period, np.eye(n), y0
    else:
        turns, reads = np.zeros(ends.size), ends
        bound, basis, v = t1, y0[:, None], np.ones(1)
    # Refuse upfront a run the in-loop check would stop anyway: the fastest
    # frame phase turns at most max_k |omega - eps_k| + A, the coupling at
    # g, and over twelve configurations a direct run took 1.55x (A = 60) to
    # 3.2x (one mode) this rate times its span in steps; only a coupling far
    # below that rate (omega = 1e6: 0.64x) steps faster. The map spans one
    # period, and each power counts as a step, though it costs less (1.9,
    # 9.1 and 48 us at N = 41, 201 and 463). An inf estimate is refused.
    estimate = rate * abs(bound - t0) + turns[-1]
    if not estimate <= MAX_STEPS:
        raise StepLimitExceeded(f"an estimated {estimate:.3g} steps to t = {t1:g} exceed the limit of {MAX_STEPS}")
    columns = basis.shape[1]
    start = (_frame(params, grid, t0)[:, None] * basis).ravel()
    back = _frame(params, grid, float(reads[-1])).conj()
    sign = math.copysign(1.0, bound - t0)
    order = np.argsort(sign * reads[:-1], kind="stable")
    ahead = sign * reads[order]
    rows = np.empty((pending.size, columns), dtype=complex)
    stepper = RK45(_rhs(params, grid, columns), t0, start, bound, rtol=RTOL, atol=ATOL)
    steps, done, end = 0, 0, None
    while stepper.status == "running":
        if steps >= MAX_STEPS:
            raise StepLimitExceeded(f"exceeded {MAX_STEPS} steps at t = {stepper.t:g}")
        stepper.step()
        steps += 1
        due = int(np.searchsorted(ahead, sign * stepper.t, side="right"))
        passed = end is None and sign * reads[-1] < sign * stepper.t
        if due > done or passed:
            dense = stepper.dense_output()
            # A sample reads only the emitter row, as much as |c_e| = |a| needs.
            index = order[done:due]
            rows[index] = dense(reads[index], columns).T
            done = due
            if passed:
                end = dense(reads[-1])
            del dense  # seven states; not kept through the next step
    if stepper.status == "failed":
        raise StepLimitExceeded(f"step size underflow at t = {stepper.t:g}")
    # A last read on the run's end, as the direct run's always is, takes the stepper's own state.
    end = (stepper.y if end is None else end).reshape(n, columns)
    periods = int(turns[-1])
    if periods:
        u = _frame(params, grid, bound).conj()[:, None] * stepper.y.reshape(n, n)
        defect = periods * float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
        if defect > NORM_TOLERANCE:
            raise NormDrift(f"the one-period propagator drifts by {defect:g} over {periods} periods")
        # Its polar factor, so powering adds no drift of its own.
        left, _, right = np.linalg.svd(u)
        u = left @ right
    # Whole periods with no sample only advance v, one u @ v each; the samples
    # with k whole periods read their rows off v = u^k v0, and the end off u^periods v0.
    amplitudes = np.empty(pending.size, dtype=complex)
    k, first = 0, 0
    for stop in np.append(np.flatnonzero(np.diff(turns)) + 1, turns.size):
        for _ in range(k, int(turns[first])):
            v = u @ v
        k = int(turns[first])
        amplitudes[first:stop] = rows[first:stop] @ v
        first = stop
    return back * (end @ v), np.abs(amplitudes) ** 2


def _check_norm(y: np.ndarray, where: str) -> None:
    drift = abs(_norm_sq(y) - 1.0)
    if drift > NORM_TOLERANCE:
        raise NormDrift(f"norm drifted by {drift:g} {where}")


def propagate(params: SystemParams, grid: MomentumGrid, initial: OneQuantumState, t_final: float) -> OneQuantumState:
    """Propagate a normalized state to t_final (earlier times allowed).

    A non-finite time, a c_k of other than N entries, or amplitudes whose
    squared norm is not within NORM_TOLERANCE of 1 raise InvalidArgument
    before anything is integrated.
    """
    for name, t in (("t_final", t_final), ("initial.time", initial.time)):
        if not math.isfinite(t):
            raise InvalidArgument(f"{name} must be finite, got {t!r}")
    if np.shape(initial.c_k) != (grid.n_cavities,):
        raise InvalidArgument(f"c_k must hold {grid.n_cavities} amplitudes, got shape {np.shape(initial.c_k)}")
    y0 = np.concatenate(([initial.c_e], initial.c_k)).astype(complex)
    norm_sq = np.vdot(y0, y0).real  # inf or nan, with no overflow warning, for an amplitude past the float range
    if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:
        raise InvalidArgument(f"the initial squared norm is {norm_sq:g}, not 1")
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
