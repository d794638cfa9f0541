"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist.
Every test prints `[PASS]`/`[FAIL] criterion N: ...` before asserting, so
a red run still shows the full scorecard.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from floquet_zeno.bath import build_grid, memory_function
from floquet_zeno.cli import run
from floquet_zeno.decay import (
    decay_rate_continuum,
    decay_rate_finite,
    decay_rate_longtime,
    decay_rate_overlap,
)
from floquet_zeno.floquet import build_floquet_matrix, edge_weights, quasi_energies, reduced_hamiltonian
from floquet_zeno.oracle import excited_state, propagate, survival_curve_exact
from floquet_zeno.params import SystemParams, validate
from floquet_zeno.specfun import bessel_j, bessel_j_zero
from floquet_zeno.bath import spectral_density

J0_ROOT = 2.4048255576957733


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def fig3(delta: float, chi: float) -> SystemParams:
    return make(omega_c=2.0 + delta, drive_amp=chi * 6.0)


def verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_decoupling_suppression():
    start = time.perf_counter()
    p_root = fig3(3.0, J0_ROOT)
    grid = build_grid(p_root)
    curve_max = max(decay_rate_finite(p_root, grid, 0, t) for t in np.linspace(0.1, 20.0, 80))
    r_rounded = decay_rate_finite(fig3(3.0, 2.4), grid, 0, 10.0)
    r_reference = decay_rate_finite(fig3(3.0, 1.0), grid, 0, 10.0)
    suppression = r_rounded / r_reference
    elapsed = time.perf_counter() - start
    ok = curve_max <= 1e-10 and suppression <= 1e-4 and elapsed < 1.0
    verdict(1, f"decoupling suppression (max R {curve_max:.2e}, ratio {suppression:.2e})", ok)


def test_criterion_02_zeno_regime_growth():
    start = time.perf_counter()
    p = fig3(1.0, 1.0)
    grid = build_grid(p)
    r2 = decay_rate_finite(p, grid, 0, 2.0)
    r10 = decay_rate_finite(p, grid, 0, 10.0)
    elapsed = time.perf_counter() - start
    ok = r10 > r2 > 0.0 and elapsed < 1.0
    verdict(2, f"Zeno regime R(10)={r10:.4g} > R(2)={r2:.4g} > 0", ok)


def test_criterion_03_anti_zeno_regime_descent():
    start = time.perf_counter()
    p = fig3(3.0, 1.0)
    grid = build_grid(p)
    r2 = decay_rate_finite(p, grid, 0, 2.0)
    r10 = decay_rate_finite(p, grid, 0, 10.0)
    elapsed = time.perf_counter() - start
    ok = r10 < r2 and elapsed < 1.0
    verdict(3, f"anti-Zeno regime R(10)={r10:.4g} < R(2)={r2:.4g}", ok)


def test_criterion_04_golden_rule_limit():
    start = time.perf_counter()
    worst = 0.0
    cases = [(0.0, 1.0, 0), (1.0, 1.0, 0), (-1.5, 1.0, 0), (4.5, 1.2, -1)]
    for delta, chi, n in cases:
        p = make(omega_c=2.0 + delta, drive_amp=chi * 6.0)
        golden = decay_rate_longtime(p, n).rate
        late = decay_rate_continuum(p, n, 200.0)
        worst = max(worst, abs(late - golden) / golden)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 5.0
    verdict(4, f"golden-rule limit at t=200 (worst rel dev {worst:.2e})", ok)


def test_criterion_05_oracle_consistency():
    start = time.perf_counter()
    p = make(g=0.05, drive_amp=0.0)
    grid = build_grid(p)
    times = np.linspace(0.5, 5.0, 10)
    exact = survival_curve_exact(p, grid, times).probabilities
    from floquet_zeno.decay import survival_probability

    perturbative = np.array([survival_probability(p, grid, 0, float(t)) for t in times])
    worst = float(np.max(np.abs(exact - perturbative)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and elapsed < 10.0
    verdict(5, f"perturbative vs oracle P_e, t <= 5 (worst abs dev {worst:.2e})", ok)


def test_criterion_06_spectral_density_normalization():
    start = time.perf_counter()
    mass, _ = quad(lambda w: spectral_density(1.0, w), -2.0 + 1e-6, 2.0 - 1e-6, limit=200)
    elapsed = time.perf_counter() - start
    ok = abs(mass - 1.0) <= 2e-3 and elapsed < 1.0
    verdict(6, f"spectral density integrates to 1 (defect {abs(mass - 1.0):.2e})", ok)


def test_criterion_07_continuum_memory_identity():
    start = time.perf_counter()
    p = make(omega_c=2.0, g=1.0, n_cavities=401, drive_amp=0.0)
    grid = build_grid(p)
    worst = max(
        abs(memory_function(grid, p, 0, float(t)) - bessel_j(0, 2.0 * t))
        for t in np.linspace(0.0, 10.0, 41)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 1.0
    verdict(7, f"lattice memory kernel vs J_0(2 xi t), N=401 (worst {worst:.2e})", ok)


def test_criterion_08_floquet_ladder_property():
    start = time.perf_counter()
    p = make(n_cavities=21)
    fm = build_floquet_matrix(p, build_grid(p), 12)
    spectrum = quasi_energies(fm)
    interior = spectrum.eigenvalues[edge_weights(fm, spectrum) < 1e-10]
    ladder_dev = max(
        float(np.min(np.abs(spectrum.eigenvalues - (e + shift))))
        for shift in (p.drive_freq, -p.drive_freq)
        for e in interior
    )
    p0 = make(n_cavities=11, drive_amp=0.0)
    grid0 = build_grid(p0)
    full = quasi_energies(build_floquet_matrix(p0, grid0, 6)).eigenvalues
    static = quasi_energies(reduced_hamiltonian(p0, grid0, 0)).eigenvalues
    replicas = np.sort(np.concatenate([static + m * p0.drive_freq for m in range(-6, 7)]))
    static_dev = float(np.max(np.abs(full - replicas)))
    elapsed = time.perf_counter() - start
    ok = interior.size > 100 and ladder_dev <= 1e-8 and static_dev <= 1e-10 and elapsed < 10.0
    verdict(8, f"quasi-energy ladder (shift dev {ladder_dev:.2e}, A=0 dev {static_dev:.2e})", ok)


def test_criterion_09_two_route_rate_equality():
    start = time.perf_counter()
    points = [
        (1.0, 1.0, 0, 5.0),
        (3.0, 1.0, 0, 5.0),
        (3.0, J0_ROOT, 0, 5.0),
        (0.0, 0.5, 0, 3.0),
        (2.5, 1.2, -1, 8.0),
    ]
    worst = 0.0
    for delta, chi, n, t in points:
        p = make(omega_c=2.0 + delta, drive_amp=chi * 6.0)
        a = decay_rate_overlap(p, n, t)
        b = decay_rate_continuum(p, n, t)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 10.0
    verdict(9, f"overlap route vs sinc-sum route at 5 points (worst rel {worst:.2e})", ok)


def test_criterion_10_property_suites(tmp_path):
    start = time.perf_counter()
    sum_rule = max(
        abs(bessel_j(0, x) ** 2 + 2.0 * math.fsum(bessel_j(q, x) ** 2 for q in range(1, 60)) - 1.0)
        for x in (1.0, 10.0, 30.0)
    )
    recurrence = max(
        abs(bessel_j(q - 1, x) + bessel_j(q + 1, x) - (2.0 * q / x) * bessel_j(q, x))
        for q in (1, 4, 9)
        for x in (0.7, 6.0, 23.0)
    )
    parity_ok = all(
        bessel_j(-q, x) == (-1) ** q * bessel_j(q, x) and bessel_j(q, -x) == (-1) ** q * bessel_j(q, x)
        for q in (1, 2, 5)
        for x in (0.9, 7.7)
    )
    root_residual = abs(bessel_j(0, bessel_j_zero(0, 1)))

    p = make()
    grid = build_grid(p)
    drift = abs(propagate(p, grid, excited_state(grid), 100.0).norm_sq() - 1.0)
    forward = propagate(p, grid, excited_state(grid), 7.3)
    back = propagate(p, grid, forward, 0.0)
    reversal = abs(back.c_e - 1.0) + float(np.max(np.abs(back.c_k)))

    argv = ["decay-rate", "--delta", "1", "--chi", "1", "--t-steps", "40", "--t-max", "10"]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        assert run(["--out", str(path)] + argv) == 0
    deterministic = paths[0].read_bytes() == paths[1].read_bytes()

    elapsed = time.perf_counter() - start
    ok = (
        sum_rule <= 1e-10
        and recurrence <= 1e-9
        and parity_ok
        and root_residual <= 1e-10
        and drift <= 1e-9
        and reversal <= 1e-7
        and deterministic
        and elapsed < 30.0
    )
    verdict(
        10,
        "property suites (sum rule {:.1e}, recurrence {:.1e}, drift {:.1e}, reversal {:.1e}, CSV {})".format(
            sum_rule, recurrence, drift, reversal, "byte-identical" if deterministic else "differs"
        ),
        ok,
    )
