"""Extended-space treatment of the periodically driven emitter.

For a drive A cos(nu t), the time-periodic problem becomes a static one
on the product of the one-excitation space {e, k_1..k_N} with Fourier
modes m, |m| <= M. The construction works in the rotated basis in which
the drive term is already diagonal, so the block-diagonal part carries

    E_m(e)  = omega/2 + m nu
    E_m(k)  = eps_k - omega/2 + m nu

and the emitter-field coupling between Fourier blocks m' (emitter) and
m (field) is g J_{m - m'}(chi) / sqrt(N). Quasi-energies repeat in
ladders spaced by nu; eigenvalues whose vectors touch the outermost
|m| = M blocks are truncation artifacts, which edge_weights quantifies.

The near-resonant reduction keeps the emitter at m = 0 and the field at
a single sideband n, giving an (N+1)-dimensional static matrix whose
coupling g J_n(chi) / sqrt(N) vanishes at the roots of J_n: the
dynamical decoupling points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bath import MomentumGrid
from .errors import EigenFailure, InvalidArgument, SingularResolvent, TruncationTooSmall
from .params import SystemParams, check_time, default_sideband
from .specfun import bessel_j

# System index of the excited-emitter state; photon mode j is 1 + j.
TLS = 0

# Default imaginary offset for resolvent evaluation, in units of xi.
RESOLVENT_ETA = 1e-8


@dataclass(frozen=True, eq=False)
class FloquetMatrix:
    truncation: int  # M; the reduced matrix uses 0 (single block)
    n_cavities: int
    entries: np.ndarray  # dense Hermitian, complex

    @property
    def dim(self) -> int:
        return (self.n_cavities + 1) * (2 * self.truncation + 1)

    def index(self, alpha: int, m: int) -> int:
        """Row index of system state alpha in Fourier block m.

        alpha = TLS (0) is the excited emitter, alpha = 1 + j the photon
        in grid mode j. Blocks are ordered m = -M .. M.
        """
        if abs(m) > self.truncation:
            raise IndexError(f"|m| = {abs(m)} exceeds truncation {self.truncation}")
        if not 0 <= alpha <= self.n_cavities:
            raise IndexError(f"alpha = {alpha} outside 0..{self.n_cavities}")
        return (m + self.truncation) * (self.n_cavities + 1) + alpha


@dataclass(frozen=True, eq=False)
class QuasiEnergySpectrum:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns aligned with eigenvalues


def default_truncation(params: SystemParams, n: int | None = None) -> int:
    """M = max(8, ceil(chi) + 6, |n| + 4); couplings die off beyond |q| ~ chi."""
    if n is None:
        n = default_sideband(params)
    return max(8, math.ceil(params.chi) + 6, abs(n) + 4)


def build_floquet_matrix(params: SystemParams, grid: MomentumGrid, m_max: int) -> FloquetMatrix:
    """Assemble the truncated extended-space Hamiltonian, |m| <= m_max."""
    n_star = default_sideband(params)
    if m_max < abs(n_star) + 2:
        raise TruncationTooSmall(
            f"M = {m_max} < |{n_star}| + 2 needed for the near-resonant sideband"
        )
    n = grid.n_cavities
    block = n + 1
    dim = block * (2 * m_max + 1)
    h = np.zeros((dim, dim), dtype=complex)
    couplings = {q: params.g * bessel_j(q, params.chi) / math.sqrt(n) for q in range(-2 * m_max, 2 * m_max + 1)}
    for m in range(-m_max, m_max + 1):
        base = (m + m_max) * block
        h[base, base] = 0.5 * params.omega + m * params.drive_freq
        diag = grid.energies - 0.5 * params.omega + m * params.drive_freq
        rows = np.arange(base + 1, base + block)
        h[rows, rows] = diag
        for mp in range(-m_max, m_max + 1):
            col = (mp + m_max) * block  # emitter in block mp
            c = couplings[m - mp]
            h[rows, col] = c
            h[col, rows] = c
    return FloquetMatrix(truncation=m_max, n_cavities=n, entries=h)


def reduced_hamiltonian(params: SystemParams, grid: MomentumGrid, n: int) -> FloquetMatrix:
    """Single-block (N+1)-dimensional near-resonant matrix for sideband n."""
    nc = grid.n_cavities
    h = np.zeros((nc + 1, nc + 1), dtype=complex)
    h[0, 0] = 0.5 * params.omega
    rows = np.arange(1, nc + 1)
    h[rows, rows] = grid.energies - 0.5 * params.omega + n * params.drive_freq
    c = params.g * bessel_j(n, params.chi) / math.sqrt(nc)
    h[rows, 0] = c
    h[0, rows] = c
    return FloquetMatrix(truncation=0, n_cavities=nc, entries=h)


def quasi_energies(fm: FloquetMatrix) -> QuasiEnergySpectrum:
    """Full real spectrum with orthonormal eigenvectors, ascending."""
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(fm.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return QuasiEnergySpectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def edge_weights(fm: FloquetMatrix, spectrum: QuasiEnergySpectrum) -> np.ndarray:
    """Per-eigenvector weight on the outermost |m| = M blocks.

    Small weight (say < 1e-10) marks an eigenvalue as interior, i.e.
    converged with respect to the truncation.
    """
    block = fm.n_cavities + 1
    v = spectrum.eigenvectors
    w = (np.abs(v[:block, :]) ** 2).sum(axis=0)
    if fm.truncation > 0:
        w = w + (np.abs(v[-block:, :]) ** 2).sum(axis=0)
    return w


def green_coefficient(
    fm: FloquetMatrix,
    energy: complex,
    beta: tuple[int, int],
    alpha0: tuple[int, int],
) -> complex:
    """<beta, m_beta | (E - H_F)^(-1) | alpha, 0> by direct linear solve.

    energy must carry a positive imaginary part (the resolvent
    regulator, default RESOLVENT_ETA in units of xi); alpha0 must sit in
    the m = 0 block.
    """
    if not energy.imag > 0.0:
        raise InvalidArgument(f"resolvent energy needs Im E > 0, got {energy!r}")
    alpha, m0 = alpha0
    if m0 != 0:
        raise InvalidArgument(f"source state must have m = 0, got m = {m0}")
    rhs = np.zeros(fm.dim, dtype=complex)
    rhs[fm.index(alpha, m0)] = 1.0
    shifted = np.asarray(energy * np.eye(fm.dim) - fm.entries)
    try:
        x = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from exc
    residual = np.linalg.norm(shifted @ x - rhs)
    if residual > 1e-8:
        raise SingularResolvent(f"solve residual {residual:g} exceeds 1e-8")
    return complex(x[fm.index(*beta)])


def averaged_transition_probability(fm: FloquetMatrix, alpha: int, beta: int, t: float) -> float:
    """Drive-phase-averaged probability alpha -> beta after time t.

    Propagates |alpha, m=0> with exp(-i H_F t) and sums the squared
    amplitude of beta over every Fourier block.
    """
    check_time(t, positive=False)
    spectrum = quasi_energies(fm)
    u = spectrum.eigenvectors
    src = fm.index(alpha, 0)
    amp = u @ (np.exp(-1j * spectrum.eigenvalues * t) * u.conj().T[:, src])
    total = 0.0
    for m in range(-fm.truncation, fm.truncation + 1):
        total += abs(amp[fm.index(beta, m)]) ** 2
    return float(total)
