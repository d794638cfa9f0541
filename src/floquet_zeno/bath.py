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

from .errors import BandEdgeSingularity, InvalidArgument, NonFiniteResult
from .params import SystemParams, check_size
from .specfun import bessel_j

EDGE_GUARD = 1e-9  # in units of xi

# A grid and one lattice sum over its distinct nodes take about 24 bytes per
# cavity; at this ceiling a one-time decay-rate call peaks near 55 MB (see
# the README).
MAX_CAVITIES = 1 << 20


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    n_cavities: int
    nodes: np.ndarray  # cos k_j, k_j = 2 pi j / N, j = 0..N//2: the distinct modes, summed by ring_sum
    end: int  # (N + 1) // 2; nodes 1..end-1 stand for the pairs j, N - j, the rest for one mode each
    energies: np.ndarray  # eps_j = omega_c - 2 xi cos k_j at the nodes


def build_grid(params: SystemParams) -> MomentumGrid:
    n = check_size("n_cavities", params.n_cavities, MAX_CAVITIES)
    nodes = np.cos(2.0 * math.pi * np.arange(n // 2 + 1) / n)
    energies = params.omega_c - 2.0 * params.xi * nodes
    return MomentumGrid(n_cavities=n, nodes=nodes, end=(n + 1) // 2, energies=energies)


def ring_sum(terms: np.ndarray, end: int) -> np.ndarray:
    """Sum over the last axis counting every node once and nodes 1..end-1 once more.

    Modes k and -k (j and N - j) of a ring have one energy, so a sum over
    its N modes is one over its nodes j = 0..N//2 with end = (N + 1) // 2:
    node 0 and, for even N, node N/2 once, every other node twice. end = 1
    is a plain sum over every node. The second count is a second sum over
    the paired nodes, not a weight on each node.
    """
    return np.add.reduce(terms, axis=-1) + np.add.reduce(terms[..., 1:end], axis=-1)


def memory_function(grid: MomentumGrid, params: SystemParams, n: int, t: float) -> complex:
    """g_n(t) = (g^2/N) J_n(chi)^2 sum_k exp(i t 2 xi cos k), summed over the distinct nodes.

    Negative t is allowed and satisfies g_n(-t) = conj(g_n(t)).
    """
    if not math.isfinite(t):
        raise InvalidArgument(f"t must be finite, got {t!r}")
    phase = t * 2.0 * params.xi
    if not math.isfinite(phase):
        raise NonFiniteResult(f"the phase 2 xi t overflows at t = {t:g}")
    jn = bessel_j(n, params.chi)
    phases = np.exp(1j * phase * grid.nodes)
    return (params.g_squared / grid.n_cavities) * jn * jn * complex(ring_sum(phases, grid.end))


def spectral_density(xi: float, omega: float) -> float:
    """Arcsine reservoir density of states of a band with hopping xi, zero outside the band."""
    if not (math.isfinite(xi) and xi > 0.0 and math.isfinite(omega)):
        raise InvalidArgument(f"xi must be finite and > 0 and omega finite, got xi = {xi!r}, omega = {omega!r}")
    half_width = 2.0 * xi
    gap = abs(abs(omega) - half_width)
    if gap < EDGE_GUARD * xi or gap == 0.0:  # the guard underflows to 0 for a subnormal xi
        raise BandEdgeSingularity(
            f"omega = {omega!r} within {EDGE_GUARD:g} xi of the band edge {half_width!r}"
        )
    if abs(omega) > half_width:
        return 0.0
    # Two roots, not sqrt(4 xi^2 - omega^2): the square underflows for tiny xi.
    rho = 1.0 / (math.pi * math.sqrt(half_width - abs(omega)) * math.sqrt(half_width + abs(omega)))
    if rho == math.inf:
        raise NonFiniteResult(f"rho overflows at xi = {xi:g}")
    return rho


def response_spectrum(params: SystemParams, n: int, omega: float) -> float:
    """g_n(omega) = g^2 J_n(chi)^2 rho(omega); NonFiniteResult past the float range."""
    jn = bessel_j(n, params.chi)
    value = params.g_squared * jn * jn * spectral_density(params.xi, omega)
    if value == math.inf:
        raise NonFiniteResult(f"g_n(omega) overflows at omega = {omega:g}")
    return value
