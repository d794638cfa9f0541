"""Exact propagation in the one-excitation subspace, used as ground truth.

Solves i dc/dt = H(t) c for the amplitude vector (c_e, c_k1 .. c_kN)
with the time-dependent Hamiltonian

    H_ee   = +(omega + A cos(nu t)) / 2
    H_kk   = -(omega + A cos(nu t)) / 2 + eps_k
    H_ek   = g / sqrt(N)

in the interaction picture of its diagonal. Modes k_j and k_{N-j} are
degenerate and couple alike, so for each pair j = 1 .. ceil(N/2) - 1
only the bright (|j> + |N-j>)/sqrt(2) couples, with g sqrt(2/N); the
dark (|j> - |N-j>)/sqrt(2) only turns with its free phase. j = 0, and
j = N/2 for even N, stay single modes with g / sqrt(N). The integrated
state is therefore the emitter and the S - 1 = floor(N/2) + 1 bright
modes, S amplitudes instead of N+1. The diagonal phases have the closed
form Phi(t) = int_0^t H_ee = t (omega + A sinc(nu t)) / 2, so with

    c_e = exp(-i Phi(t)) a,    c_j = exp(-i (eps_j t - Phi(t))) b_j

DOP853, the 8th-order Dormand-Prince pair (`dop853`, numpy alone, step
for step scipy's), integrates only the coupling,

    a'   = -i (g / sqrt(N)) sum_j w_j exp(+i theta_j(t)) b_j
    b_j' = -i (g / sqrt(N)) w_j exp(-i theta_j(t)) a

with theta_j(t) = (omega - eps_j) t + A t sinc(nu t) and the weight
w_j = sqrt(2) for a pair, else 1, and never has to resolve the
emitter's or the modes' own rotation. |c_e| = |a|, and the frame and
the bright/dark basis are unitary, so the norm is the same throughout.

H(t) repeats with the drive period T = 2 pi / nu, so U(t0 + kT + r, t0)
= U(t0 + r, t0) U(t0 + T, t0)^k, and one DOP853 run serves both routes.
Past c(N) = (MAP_SETUP + MAP_OVERHEAD + S^2) / (MAP_OVERHEAD + S)
periods (1.95 at N = 41, S = 22) it carries the S x S propagator over
one period and powers it k times; the cost then grows with t only
through the k matrix-vector products, about 1 us each at N = 41.
Otherwise (a shorter run, a step-estimate rate times T below 1, or
more than MAP_MAX_ENTRIES entries) it carries the state vector itself
to t1, with k = 0. Either way a sample reads only its emitter row off
the step interpolant; only the end read builds the full state.

The phase is the elementary integral of the drive, not the Bessel
expansion the Floquet layer uses, and nothing here touches the Floquet
construction or the perturbative decay formulas; agreement between the
two is a genuine cross-check, not a shared-code artifact.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath import MomentumGrid
from .dop853 import DOP853 as RK45  # the name by which the benchmark's tracer replaces the stepper
from .errors import InvalidArgument, NonFiniteResult, NormDrift, StepLimitExceeded
from .params import SurvivalCurve, SystemParams, check_times

NORM_TOLERANCE = 1e-7
# DOP853 settings, read at each call. Its RMS error norm divides by the
# square root of the state size, which the bright basis about halves, so
# these are sqrt(2) times the values once used on all N+1 amplitudes and a
# step accepts the same emitter error. The direct route holds the norm drift
# to 3.7e-13 at g = 0.05 and 2.3e-12 at g = 0.25 out to t = 100/xi.
RTOL = 1.4e-11
ATOL = 1.4e-13
MAX_STEPS = 1_000_000
# A run that spans more drive periods than c(N) = (MAP_SETUP + MAP_OVERHEAD
# + S^2) / (MAP_OVERHEAD + S), S = floor(N/2) + 2, integrates one period of
# the propagator and powers it, which costs about c(N) direct periods. On a
# 2-core VM, in fresh processes (g = 0.05, 100 samples), c was 1.4, 1.7,
# 4.5, 7.4, 43 and 113 at N = 11, 41, 101, 201, 463 and 925; a log fit over
# thirteen N gives (465, 1149), within 31% of each. MAP_SETUP is rounded up
# because at A = 0 (8 steps a period) 1.9 periods at N = 41 ran faster direct.
# Since a step builds its stage times' phase rows in one exp, c reads 1.6 at
# N = 41 and 17 at N = 201 in process (1.3-1.4 and 14 before, same runs); the
# constants stay as fitted, because a refit moves which route a run takes and
# with it the last bits of its output.
MAP_OVERHEAD = 1150.0
MAP_SETUP = 650.0
# Ceiling on the map's complex entries, S (S + samples); past it a run
# integrates directly. DOP853 keeps about 37 S^2 arrays: a 169 MB peak RSS
# at N = 925 with 100 samples, where c(N) asks for 135 periods. A sample
# reads only its emitter row off the step interpolant (one entry direct, S
# on the map), so a step's samples are read in one call.
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


def _frame(params: SystemParams, energies: np.ndarray, t: float) -> np.ndarray:
    """exp(i (Phi, eps t - Phi)) at absolute time t, for modes of these energies: lab amplitudes times this are frame amplitudes."""
    phi = 0.5 * t * (params.omega + params.drive_amp * _sinc(params.drive_freq * t))  # Phi(t)
    if not math.isfinite(abs(phi) + abs(t) * float(np.max(np.abs(energies), initial=0.0))):
        raise NonFiniteResult(f"the frame phase overflows at t = {t:g}")
    return np.exp(1j * np.concatenate(([phi], energies * t - phi)))


class _Coupling:
    """The frame equation's right-hand side for `columns` states side by side, a flattened (S x columns) matrix.

    Called as fun(t, y) it returns y'(t), the plain form scipy's steppers
    take. DOP853 instead names all the stage times of a step at once
    (`at`), which builds their phase rows in one exp, and then has each
    stage written into its row of the stepper (`stage`). At N = 41 (on a
    shared 2-core VM) a stage costs 1.8 us for a state vector and 5.4 us
    for the map's 22 columns, and `at` 12.6 us for a step's 12 times, 7 of
    them in the drive scalars; a plain call costs 7.3 and 11.4 us.
    """

    def __init__(self, params: SystemParams, grid: MomentumGrid, columns: int):
        # The emitter and the bright modes j = 0 .. floor(N/2); a pair's bright
        # mode couples with weight sqrt(2), carried in the exponent as log sqrt(2).
        n = grid.n_cavities
        self._exponent = -1j * (params.omega - grid.energies)
        self._log_weight = np.zeros(self._exponent.size, dtype=complex)
        self._log_weight[1 : (n + 1) // 2] = 0.5 * math.log(2.0)
        self._coupling = -1j * params.g / math.sqrt(n)
        self._amp, self._nu, self._columns = params.drive_amp, params.drive_freq, columns
        self._table = np.empty((0, self._exponent.size), dtype=complex)  # a phase row per time, grown on demand
        self.stage = self._state_stage if columns == 1 else self._columns_stage

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        self.at(np.array([t], dtype=float))
        self.stage(0, y, out)
        return out

    def at(self, times: np.ndarray) -> None:
        """Readies the equation at each of these times, for `stage`."""
        # w_j exp(-i (omega - eps_j) t) over the bright modes, all times in one
        # exp. The rows are kept apart from the stepper's stage rows, so a
        # stage's product is never made in place: numpy rounds a complex
        # product of one entry (N = 1) in place differently, and the oracle's
        # bytes are those of the out-of-place product.
        if len(self._table) < times.size:
            self._table = np.empty((times.size, self._exponent.size), dtype=complex)
        phases = self._table[: times.size]
        np.multiply(self._exponent, times[:, None], out=phases)
        phases += self._log_weight
        np.exp(phases, out=phases)
        if self._columns > 1:
            self._conj_phases = phases.conj()
        # The drive's common phase exp(-i A t sinc(nu t)) as one scalar on the
        # emitter amplitude: together w_j exp(-i theta_j(t)). A float nu t
        # overflows to inf without a warning.
        coupling, amp, nu = self._coupling, self._amp, self._nu
        drives = [cmath.exp(-1j * (amp * t * _sinc(nu * t))) for t in times.tolist()]
        # Per time, the coupling times the drive scalar and times its conjugate.
        self._drives = [(coupling * drive, coupling * drive.conjugate()) for drive in drives]

    def _state_stage(self, i: int, y: np.ndarray, out: np.ndarray) -> None:
        """Writes y'(times[i]) into out."""
        phases = self._table[i]
        drive, drive_conj = self._drives[i]
        # vdot conjugates the rotation back for the emitter row.
        out[0] = drive_conj * np.vdot(phases, y[1:])
        np.multiply(phases, drive * y[0], out=out[1:])

    def _columns_stage(self, i: int, y: np.ndarray, out: np.ndarray) -> None:
        # The same equation for each column of the matrix.
        out, y = out.reshape(-1, self._columns), y.reshape(-1, self._columns)
        drive, drive_conj = self._drives[i]
        np.multiply(drive_conj, self._conj_phases[i] @ y[1:], out=out[0])
        np.multiply(self._table[i][:, None], drive * y[0], out=out[1:])


def _map_pays(params: SystemParams, rate: float, span: float, columns: int, samples: int) -> bool:
    # The route rule. The map integrates one period of S columns, which
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
    # Returns (y(t1), |c_e|^2 at sample_times) for the lab amplitudes
    # y0 = (c_e, b_0 .. b_floor(N/2)) of the emitter and the bright modes at
    # t0; sample_times must be increasing and lie in [t0, t1]. Backward runs
    # (t1 < t0) are allowed and used by the time-reversal checks; no
    # sampling there.
    pending = np.asarray(sample_times if sample_times is not None else [], dtype=float)
    if t1 == t0:
        return y0.copy(), [abs(y0[0]) ** 2] * pending.size
    n = y0.size
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
    # g, and over eleven configurations a direct run took 1.5x (A = 60) to
    # 3.3x (one mode) this rate times its span in steps; only a coupling far
    # below that rate (omega = 1e6: 0.65x) steps faster. The map spans one
    # period, and each power counts as a step, though it costs less (0.8,
    # 3.3 and 7.7 us at N = 41, 201 and 463). An inf estimate is refused.
    estimate = rate * abs(bound - t0) + turns[-1]
    if not estimate <= MAX_STEPS:
        raise StepLimitExceeded(f"an estimated {estimate:.3g} steps to t = {t1:g} exceed the limit of {MAX_STEPS}")
    columns = basis.shape[1]
    start = (_frame(params, grid.energies, t0)[:, None] * basis).ravel()
    back = _frame(params, grid.energies, float(reads[-1])).conj()
    sign = math.copysign(1.0, bound - t0)
    order = np.argsort(sign * reads[:-1], kind="stable")
    ahead = sign * reads[order]
    rows = np.empty((pending.size, columns), dtype=complex)
    stepper = RK45(_Coupling(params, grid, columns), t0, start, bound, rtol=RTOL, atol=ATOL)
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
        u = _frame(params, grid.energies, bound).conj()[:, None] * stepper.y.reshape(n, n)
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
    # Modes j and N - j, for j = 1 .. ceil(N/2) - 1, form the bright and dark
    # pair (c_j +- c_{N-j}) / sqrt(2). A dark mode does not couple, so only
    # its free lab-frame phase turns; the emitter and the bright modes are integrated.
    n, pairs = grid.n_cavities, np.arange(1, (grid.n_cavities + 1) // 2)
    plus, minus = y0[1 + pairs], y0[1 + n - pairs]
    bright = y0[: n // 2 + 2].copy()
    bright[1 + pairs] = (plus + minus) * math.sqrt(0.5)
    y, _ = _integrate(params, grid, bright, initial.time, t_final)
    free = _frame(params, grid.energies[pairs], initial.time) * _frame(params, grid.energies[pairs], t_final).conj()
    dark = (plus - minus) * math.sqrt(0.5) * free[1:]
    y = np.concatenate((y, np.empty(n - 1 - n // 2, dtype=complex)))
    y[1 + n - pairs] = (y[1 + pairs] - dark) * math.sqrt(0.5)
    y[1 + pairs] = (y[1 + pairs] + dark) * math.sqrt(0.5)
    _check_norm(y, f"propagating {initial.time:g} -> {t_final:g}")
    return OneQuantumState(c_e=complex(y[0]), c_k=y[1:], time=t_final)


def survival_curve_exact(params: SystemParams, grid: MomentumGrid, times):
    """P_e(t_i) = |c_e(t_i)|^2 along one continued propagation from t = 0."""
    times = check_times(times, positive=False)
    y0 = np.zeros(grid.n_cavities // 2 + 2, dtype=complex)  # the excited emitter, with no dark part
    y0[0] = 1.0
    y, probs = _integrate(params, grid, y0, 0.0, float(times[-1]), sample_times=times)
    _check_norm(y, f"propagating 0 -> {times[-1]:g}")
    return SurvivalCurve(times=times, probabilities=np.array(probs), method="oracle")
