"""Momentum grid, reservoir spectral density, memory function."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from floquet_zeno.bath import (
    build_grid,
    memory_function,
    response_spectrum,
    spectral_density,
)
from floquet_zeno.errors import BandEdgeSingularity
from floquet_zeno.params import SystemParams, validate
from floquet_zeno.specfun import bessel_j

J0_ROOT = 2.4048255576957733


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def test_grid_single_cavity():
    grid = build_grid(make(n_cavities=1))
    assert grid.momenta.tolist() == [0.0]
    assert grid.energies.tolist() == [3.0 - 2.0]


def test_grid_carries_cos_k_for_the_energies():
    p = make(n_cavities=41, omega_c=-1.3, xi=0.7)
    grid = build_grid(p)
    assert np.array_equal(grid.cos_k, np.cos(grid.momenta))
    assert np.array_equal(grid.energies, p.omega_c - 2.0 * p.xi * np.cos(grid.momenta))


def test_grid_four_cavities():
    grid = build_grid(make(n_cavities=4, omega_c=0.0))
    assert grid.energies == pytest.approx([-2.0, 0.0, 2.0, 0.0], abs=1e-15)


def test_grid_band_extremes():
    p = make(n_cavities=41)
    grid = build_grid(p)
    assert grid.energies.min() == pytest.approx(p.omega_c - 2.0 * p.xi, abs=1e-15)
    expected_max = p.omega_c + 2.0 * p.xi * math.cos(math.pi / 41.0)
    assert grid.energies.max() == pytest.approx(expected_max, rel=1e-15)
    loose = 2.0 * p.xi * (1.0 - math.cos(math.pi * 40.0 / 41.0))
    assert p.omega_c + 2.0 * p.xi - grid.energies.max() <= loose


def test_grid_band_bounds_and_reflection():
    p = make(n_cavities=12, omega_c=-1.0, xi=0.7)
    grid = build_grid(p)
    assert np.all(grid.energies >= p.omega_c - 2.0 * p.xi - 1e-12)
    assert np.all(grid.energies <= p.omega_c + 2.0 * p.xi + 1e-12)
    for j in range(1, 12):
        assert grid.energies[j] == pytest.approx(grid.energies[12 - j], abs=1e-12)


def test_memory_function_at_zero_time():
    p = make()
    grid = build_grid(p)
    jn = bessel_j(0, p.chi)
    assert memory_function(grid, p, 0, 0.0) == pytest.approx(p.g**2 * jn * jn, rel=1e-14)


def test_memory_function_undriven_reduction():
    # A = 0, n = 0 drops the Bessel factor entirely (J_0(0) = 1).
    p = make(drive_amp=0.0)
    grid = build_grid(p)
    t = 1.7
    direct = p.g**2 / 41 * np.exp(1j * t * 2.0 * p.xi * np.cos(grid.momenta)).sum()
    assert memory_function(grid, p, 0, t) == pytest.approx(direct, rel=1e-14)


def test_memory_function_conjugate_symmetry():
    p = make()
    grid = build_grid(p)
    for t in (0.3, 2.9, 7.1):
        forward = memory_function(grid, p, 0, t)
        backward = memory_function(grid, p, 0, -t)
        assert backward == pytest.approx(forward.conjugate(), rel=1e-14)


def test_memory_function_bounded_by_initial_value():
    p = make()
    grid = build_grid(p)
    bound = abs(memory_function(grid, p, 0, 0.0))
    for t in np.linspace(0.1, 20.0, 40):
        assert abs(memory_function(grid, p, 0, t)) <= bound + 1e-14


def test_memory_function_continuum_identity():
    # (1/N) sum_k exp(i t 2 xi cos k) approaches J_0(2 xi t) for large N.
    p = make(n_cavities=401, g=1.0, drive_amp=0.0)
    grid = build_grid(p)
    for t in np.linspace(0.0, 10.0, 41):
        discrete = memory_function(grid, p, 0, float(t))
        assert abs(discrete - bessel_j(0, 2.0 * t)) < 1e-3


def test_spectral_density_values():
    assert spectral_density(1.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert spectral_density(1.0, 3.0) == 0.0
    assert spectral_density(1.0, -3.0) == 0.0
    # (2 xi)^2 underflows to 0 at xi = 1e-239; the value itself is finite.
    assert spectral_density(1e-239, 0.0) == pytest.approx(1.0 / (2.0 * math.pi * 1e-239), rel=1e-15)
    assert spectral_density(1e-239, 1e-239) == pytest.approx(1.0 / (math.pi * math.sqrt(3.0) * 1e-239), rel=1e-15)


def test_spectral_density_even():
    for omega in (0.5, 1.0, 2.2):
        assert spectral_density(1.3, omega) == spectral_density(1.3, -omega)


def test_spectral_density_band_edge_guard():
    for omega in (2.0, -2.0, 2.0 + 5e-10, 2.0 - 5e-10):
        with pytest.raises(BandEdgeSingularity):
            spectral_density(1.0, omega)


def test_spectral_density_normalization():
    delta = 1e-6
    value, _ = quad(lambda w: spectral_density(1.0, w), -2.0 + delta, 2.0 - delta, limit=200)
    assert abs(value - 1.0) <= 2e-3


def test_response_spectrum_zero_coupling():
    p = make(g=0.0)
    assert response_spectrum(p, 0, 0.5) == 0.0


def test_response_spectrum_at_decoupling_point():
    p = make(drive_amp=J0_ROOT * 6.0)
    assert response_spectrum(p, 0, 0.5) <= 1e-18 * p.g**2 * spectral_density(p.xi, 0.5)


def test_response_spectrum_undriven_value():
    p = make(g=0.25, drive_amp=0.0)
    assert response_spectrum(p, 0, 0.0) == pytest.approx(0.0625 / (2.0 * math.pi), rel=1e-14)
