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


def test_doubling_g_multiplies_every_perturbative_rate_by_four_bit_for_bit():
    # Each perturbative rate is g^2 times a factor free of g, and (2g)^2 = 4 g^2. Scaling by a power
    # of two is exact in floats outside the subnormals, so it commutes with every rounding: R at 2g
    # is 4 R at g bit for bit, on the lattice sum, the continuum sum, the frequency-domain overlap
    # and the golden rule alike. 120 draws, N up to 3000 and t up to 200 (none of 1200 differed).
    # Kills decay._point handing the kernels params.g in place of params.g_squared, with which R
    # is linear in g.
    def rates(p: SystemParams, n: int, times: np.ndarray) -> np.ndarray:
        t = float(times[-1])
        return np.array([*decay.decay_curve(p, build_grid(p), n, times).rates, decay.decay_rate_continuum(p, n, t),
                         decay.decay_rate_overlap(p, n, t), decay.decay_rate_longtime(p, n).rate])

    rng = np.random.default_rng(37)
    moved = []
    for _ in range(120):
        n_cavities, omega, delta = int(rng.integers(1, 3001)), rng.uniform(-3.0, 3.0), rng.uniform(-6.0, 6.0)
        n, times = int(rng.integers(-3, 4)), np.sort(rng.uniform(0.01, 200.0, 4))
        p = _params(rng, n_cavities, omega, delta)
        doubled = validate(dataclasses.replace(p, g=2.0 * p.g))
        if (4.0 * rates(p, n, times)).tobytes() != rates(doubled, n, times).tobytes():
            moved.append((p, n, times))
    assert not moved, moved


def test_swapping_modes_j_and_minus_j_swaps_them_in_the_propagated_state_bit_for_bit():
    # The reflection k -> -k maps mode j onto N - j (mod N) and commutes with H(t): eps_j = eps_{N-j},
    # and every mode couples to the emitter alike. propagate splits each pair into (c_j +- c_{N-j})/sqrt(2),
    # so swapping c_j and c_{N-j} in the start state keeps the bright part bit for bit and flips the
    # dark part's sign: the end state has them swapped and c_e unchanged, bit for bit. 30 draws, N = 2..40
    # odd and even, t0 and t_final in [-3, 3]. Kills a split that pairs c_j with another mode than
    # c_{N-j} (oracle.propagate's minus = y0[1 + n - pairs][::-1]), which keeps the norm.
    rng = np.random.default_rng(38)
    for _ in range(30):
        n_cavities = int(rng.integers(2, 41))
        p = _params(rng, n_cavities, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        grid = build_grid(p)
        c = rng.normal(size=n_cavities + 1) + 1j * rng.normal(size=n_cavities + 1)
        c /= np.linalg.norm(c)
        mirror = -np.arange(n_cavities) % n_cavities
        t0, t_final = rng.uniform(-3.0, 3.0, 2)
        end = oracle.propagate(p, grid, oracle.OneQuantumState(c_e=complex(c[0]), c_k=c[1:], time=t0), t_final)
        swapped = oracle.OneQuantumState(c_e=complex(c[0]), c_k=c[1:][mirror], time=t0)
        end_swapped = oracle.propagate(p, grid, swapped, t_final)
        assert end_swapped.c_e == end.c_e
        assert end_swapped.c_k.tobytes() == end.c_k[mirror].tobytes()


def test_a_common_energy_shift_leaves_the_perturbative_survival_unchanged():
    # (omega, omega_c) -> (omega + s, omega_c + s) keeps delta = omega_c - omega, and omega enters the
    # perturbative C_e(t) only as its phase exp(-i omega t / 2), so |C_e(t)|^2 does not move. delta is
    # rounded anew, and so are the phase's cos and sin: 60 draws at weak g (P_e >= 0.94, no clipping),
    # N up to 2000 and t up to 50, worst gap 4.4e-16. Kills a detuning read from the band center alone
    # (decay._point handing the kernels params.omega_c in place of params.delta).
    rng = np.random.default_rng(39)
    worst = 0.0
    for _ in range(60):
        n_cavities, omega, delta = int(rng.integers(1, 2001)), rng.uniform(-3.0, 3.0), rng.uniform(-6.0, 6.0)
        n, times = int(rng.integers(-3, 4)), np.sort(rng.uniform(0.0, 50.0, 8))
        p = validate(dataclasses.replace(_params(rng, n_cavities, omega, delta), g=rng.uniform(0.005, 0.05)))
        s = rng.uniform(-5.0, 5.0)
        shifted = validate(dataclasses.replace(p, omega=p.omega + s, omega_c=p.omega_c + s))
        probs = decay.survival_curve(p, build_grid(p), n, times).probabilities
        moved = decay.survival_curve(shifted, build_grid(shifted), n, times).probabilities
        worst = max(worst, float(np.max(np.abs(probs - moved))))
    assert worst <= 1e-14, worst
