"""Metamorphic relations: the model's own symmetries checked over seeded draws, with no reference values.

Each relation maps one input onto another that the physics says must give
the same result, so it checks a whole class of inputs at once. Each names
a mutant of the package that it kills.
"""

import dataclasses

import numpy as np

from floquet_zeno import decay, oracle
from floquet_zeno.bath import build_grid
from floquet_zeno.params import SystemParams, validate


def _params(rng: np.random.Generator, n_cavities: int, omega: float, delta: float, **fields) -> SystemParams:
    nu = rng.uniform(0.5, 8.0)
    return validate(SystemParams(
        omega=omega, omega_c=omega + delta, xi=fields.get("xi", rng.uniform(0.3, 2.0)), g=rng.uniform(0.01, 1.0),
        n_cavities=n_cavities, drive_amp=rng.uniform(0.0, 4.0) * nu, drive_freq=nu,
    ))


def test_band_mirror_takes_delta_and_n_to_minus_delta_and_minus_n():
    # At even N, k -> k + pi maps the ring onto itself and cos k onto -cos k, so the detunings
    # delta - 2 xi cos k + n nu at (delta, n) are minus those at (-delta, -n); sinc^2 is even and
    # J_-n(chi)^2 = J_n(chi)^2, so R(t; delta, n) = R(t; -delta, -n). Every ring the sum runs on
    # (N itself, or a power of two) is even. 200 draws, N up to 798 and t up to 50: worst relative
    # gap 2.5e-14. Kills a fold that counts node N/2 twice at even N (bath.ring_sum over
    # terms[..., 1:end + 1]), which weighs the two band edges unequally.
    rng = np.random.default_rng(35)
    worst = 0.0
    for _ in range(200):
        n_cavities, omega, delta = 2 * int(rng.integers(1, 400)), rng.uniform(-3.0, 3.0), rng.uniform(-6.0, 6.0)
        n, times = int(rng.integers(-3, 4)), np.sort(rng.uniform(0.01, 50.0, 4))
        p = _params(rng, n_cavities, omega, delta)
        mirrored = validate(dataclasses.replace(p, omega_c=omega - delta))
        rates = decay.decay_curve(p, build_grid(p), n, times).rates
        mirror = decay.decay_curve(mirrored, build_grid(mirrored), -n, times).rates
        worst = max(worst, float(np.max(np.abs(rates - mirror) / np.maximum(rates, mirror))))
    assert worst <= 1e-13, worst


def test_a_common_energy_shift_leaves_the_oracle_survival_unchanged():
    # (omega, omega_c) -> (omega + s, omega_c + s) adds s times the identity to H(t), a global
    # phase, so the exact P_e(t) does not move. 6 draws, N = 3..29, 20 times up to t = 8 (both
    # the direct run and the period map): worst gap 3.1e-15. Kills mode energies that drop
    # omega_c (bath.build_grid's eps_j = -2 xi cos k_j), with which the phases (omega - eps_k) t
    # move by s t.
    rng = np.random.default_rng(36)
    worst = 0.0
    for _ in range(6):
        n_cavities, omega, delta = int(rng.integers(3, 30)), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        p = _params(rng, n_cavities, omega, delta, xi=1.0)
        s = rng.uniform(-5.0, 5.0)
        shifted = validate(dataclasses.replace(p, omega=p.omega + s, omega_c=p.omega_c + s))
        times = np.linspace(0.0, 8.0, 21)[1:]
        probs = oracle.survival_curve_exact(p, build_grid(p), times).probabilities
        moved = oracle.survival_curve_exact(shifted, build_grid(shifted), times).probabilities
        worst = max(worst, float(np.max(np.abs(probs - moved))))
    assert worst <= 1e-13, worst

