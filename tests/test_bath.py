"""Momentum grid, reservoir spectral density, memory function."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from floquet_zeno.bath import (
    build_grid,
    memory_function,
    response_spectrum,
    ring_sum,
    spectral_density,
)
from floquet_zeno.errors import BandEdgeSingularity, InvalidArgument, NonFiniteResult
from floquet_zeno.params import SystemParams, validate
from floquet_zeno.specfun import bessel_j

J0_ROOT = 2.4048255576957733


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def cos_k(n: int) -> np.ndarray:
    """cos k_j on all N momenta k_j = 2 pi j / N of the ring."""
    return np.cos(2.0 * math.pi * np.arange(n) / n)


def test_grid_single_cavity():
    grid = build_grid(make(n_cavities=1))
    assert grid.nodes.tolist() == [1.0]
    assert grid.energies.tolist() == [3.0 - 2.0]


def test_grid_carries_cos_k_for_the_energies():
    # The nodes are cos k_j for j = 0 .. N // 2, the energies' own values; end
    # marks the paired nodes 1 .. end - 1, so a ring sum counts N modes. The
    # grid holds nothing of N entries.
    for n_cavities in (1, 2, 3, 4, 41, 42):
        p = make(n_cavities=n_cavities, omega_c=-1.3, xi=0.7)
        grid = build_grid(p)
        nodes = cos_k(n_cavities)[: n_cavities // 2 + 1]
        assert np.array_equal(grid.nodes, nodes)
        assert np.array_equal(grid.energies, p.omega_c - 2.0 * p.xi * nodes)
        assert grid.end == (n_cavities + 1) // 2
        assert ring_sum(np.ones(grid.nodes.size), grid.end) == n_cavities
        assert not hasattr(grid, "momenta")


def test_grid_four_cavities():
    grid = build_grid(make(n_cavities=4, omega_c=0.0))
    assert grid.energies == pytest.approx([-2.0, 0.0, 2.0], abs=1e-15)


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
    # Mode j and its partner 12 - j read one node, min(j, 12 - j).
    ring = p.omega_c - 2.0 * p.xi * cos_k(12)
    for j in range(12):
        assert grid.energies[min(j, 12 - j)] == pytest.approx(ring[j], abs=1e-12)


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
    direct = p.g**2 / 41 * np.exp(1j * t * 2.0 * p.xi * cos_k(41)).sum()
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


@pytest.mark.parametrize(
    "xi, omega, error",
    [
        (1.0, math.nan, InvalidArgument),
        (math.nan, 0.0, InvalidArgument),
        (1.0, math.inf, InvalidArgument),
        (math.inf, 0.0, InvalidArgument),
        (0.0, 0.0, InvalidArgument),
        (-1.0, 0.0, InvalidArgument),
        (5e-324, 0.0, NonFiniteResult),  # rho = 1 / (2 pi xi) passes the float range
        (5e-324, 1e-323, BandEdgeSingularity),  # the edge itself, where the 1e-9 xi guard underflows
    ],
)
def test_spectral_density_outside_its_domain_is_a_typed_error(xi, omega, error):
    # nan and inf gave nan, (0, 0) a ZeroDivisionError, a negative xi 0.
    with pytest.raises(error):
        spectral_density(xi, omega)


def test_response_spectrum_and_memory_function_refuse_non_finite_arguments():
    p = make()
    grid = build_grid(p)
    for omega in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument):
            response_spectrum(p, 0, omega)
    for t in (math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            memory_function(grid, p, 0, t)
    # g^2 = 1e308 times rho = 1.6e299 (xi = 1e-300) passes the float range.
    with pytest.raises(NonFiniteResult, match="g_n"):
        response_spectrum(make(g=1e154, xi=1e-300), 0, 0.0)


def test_memory_function_phase_past_the_float_range_is_refused():
    # t 2 xi overflows at t = 1e308; numpy printed a RuntimeWarning and returned nan.
    p = make()
    grid = build_grid(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteResult, match="phase"):
            memory_function(grid, p, 0, 1e308)
        assert math.isfinite(abs(memory_function(grid, p, 0, -1e307)))
