"""The waveguide as a structured reservoir.

A ring of N cavities with hopping xi carries one band of width 4 xi,
dispersion eps_k = omega_c - 2 xi cos k on momenta k_j = 2 pi j / N.
Seen from the emitter, the band acts as a reservoir whose density of
states is the arcsine law: rho(omega) = (1/pi) / sqrt(4 xi^2 - omega^2)
for |omega| < 2 xi (omega measured from the band center omega_c),
normalized so the band integrates to one. rho diverges at the band
edges, so evaluation within eps_edge = 1e-9 xi of |omega| = 2 xi is a
typed error rather than an infinity.

The memory function g_n(t) is the reservoir correlation function seen
through drive sideband n; its Fourier transform is the response
spectrum g_n(omega) = g^2 J_n(chi)^2 rho(omega).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandEdgeSingularity
from .params import SystemParams, check_size
from .specfun import bessel_j

EDGE_GUARD = 1e-9  # in units of xi

# A grid and one lattice sum over it take about 57 bytes per cavity; at this
# ceiling a one-time decay-rate call peaks near 85 MB (see the README).
MAX_CAVITIES = 1 << 20


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    n_cavities: int
    momenta: np.ndarray  # k_j = 2 pi j / N, j = 0..N-1
    cos_k: np.ndarray  # cos k_j, shared by the energies and every lattice sum
    energies: np.ndarray  # eps_k = omega_c - 2 xi cos k


def build_grid(params: SystemParams) -> MomentumGrid:
    n = check_size("n_cavities", params.n_cavities, MAX_CAVITIES)
    momenta = 2.0 * math.pi * np.arange(n) / n
    cos_k = np.cos(momenta)
    energies = params.omega_c - 2.0 * params.xi * cos_k
    return MomentumGrid(n_cavities=n, momenta=momenta, cos_k=cos_k, energies=energies)


def memory_function(grid: MomentumGrid, params: SystemParams, n: int, t: float) -> complex:
    """g_n(t) = (g^2/N) J_n(chi)^2 sum_k exp(i t 2 xi cos k).

    Negative t is allowed and satisfies g_n(-t) = conj(g_n(t)).
    """
    jn = bessel_j(n, params.chi)
    phases = np.exp(1j * t * 2.0 * params.xi * grid.cos_k)
    return (params.g_squared / grid.n_cavities) * jn * jn * complex(phases.sum())


def spectral_density(xi: float, omega: float) -> float:
    """Arcsine reservoir density of states of a band with hopping xi, zero outside the band."""
    half_width = 2.0 * xi
    gap = abs(abs(omega) - half_width)
    if gap < EDGE_GUARD * xi:
        raise BandEdgeSingularity(
            f"omega = {omega!r} within {EDGE_GUARD:g} xi of the band edge {half_width!r}"
        )
    if abs(omega) > half_width:
        return 0.0
    # Two roots, not sqrt(4 xi^2 - omega^2): the square underflows for tiny xi.
    return 1.0 / (math.pi * math.sqrt(half_width - abs(omega)) * math.sqrt(half_width + abs(omega)))


def response_spectrum(params: SystemParams, n: int, omega: float) -> float:
    """g_n(omega) = g^2 J_n(chi)^2 rho(omega)."""
    jn = bessel_j(n, params.chi)
    return params.g_squared * jn * jn * spectral_density(params.xi, omega)
