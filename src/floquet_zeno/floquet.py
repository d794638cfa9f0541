"""Extended-space treatment of the periodically driven emitter.

For a drive A cos(nu t), the time-periodic problem becomes a static one
on the product of the one-excitation space {e, k_1..k_N} with Fourier
modes m, |m| <= M. The construction works in the rotated basis in which
the drive term is already diagonal, so the block-diagonal part carries

    E_m(e)  = omega/2 + m nu
    E_m(k)  = eps_k - omega/2 + m nu

and the emitter-field coupling between Fourier blocks m' (emitter) and
m (field) is C[m, m'] = g J_{m - m'}(chi) / sqrt(N), the same for every
mode k. Quasi-energies repeat in ladders spaced by nu; eigenvalues whose
vectors touch the outermost |m| = M blocks are truncation artifacts,
which edge_weights quantifies.

The matrix is real, and apart from the emitter rows and columns it is
diagonal, so it is kept as those three pieces (FloquetMatrix) and never
assembled for computation. The pieces are read-only, so a matrix is
diagonalized once: its bright eigensystem is computed on first use, kept
on the matrix as read-only arrays and shared by quasi_energies and every
averaged_transition_probability call, and freed with the matrix.

- Bright/dark split. Modes j and N - j are degenerate on the ring and
  couple to the emitter with the same amplitude, so the photon energies
  are held at the grid's distinct nodes j = 0 .. N/2, and in every block the
  dark combination (|j> - |N-j>)/sqrt(2) is an exact eigenvector with
  quasi-energy eps_j - omega/2 + m nu. Only the real symmetric bright
  block (emitter, j = 0, (|j> + |N-j>)/sqrt(2) with coupling sqrt(2) C,
  and j = N/2 for even N) is diagonalized: (2M+1)(floor(N/2) + 2) rows
  instead of (2M+1)(N+1). Index arithmetic maps both back: mode j sits
  in bright row 1 + min(j, N - j) with amplitude sqrt(1/2) for a pair
  and 1 otherwise, and a dark eigenvector is its +-sqrt(1/2) entries at
  modes j and N - j of one block.
- Schur-complement resolvent. Eliminating the diagonal photon part
  leaves a (2M+1)-dimensional emitter system
  [diag(E - E_e) - C^T diag(sum_k 1/(E - E_m(k))) C] x_e = b_e + ...,
  its sum over k a ring_sum over the nodes; the photon amplitudes follow
  from x_e in closed form, a photon source's own 1/(E - E_0(j)) on its mode.

The near-resonant reduction keeps the emitter at m = 0 and the field at
a single sideband n, giving an (N+1)-dimensional static matrix whose
coupling g J_n(chi) / sqrt(N) vanishes at the roots of J_n: the
dynamical decoupling points. It is the one-block case of the same
structure.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import MomentumGrid, ring_sum
from .errors import EigenFailure, InvalidArgument, NonFiniteResult, SingularResolvent, TruncationTooSmall
from .params import SystemParams, check_size, check_time, default_sideband
from .specfun import bessel_j

# System index of the excited-emitter state; photon mode j is 1 + j.
TLS = 0

RESIDUAL_TOLERANCE = 1e-8

# Ceilings on what a matrix of 2M+1 blocks over N modes allocates, chosen
# from costs measured on a 2-core VM (see the README): the structured
# entries (2M+1)(2M+1+floor(N/2)+1), 64 bytes each at green_coefficient's
# peak, and the bright rows (2M+1)(floor(N/2)+2), whose eigenvectors
# quasi_energies gathers into a dim x dim matrix with dim < 2 rows.
MAX_ENTRIES = 1 << 21
MAX_BRIGHT_ROWS = 3000


@dataclass(frozen=True, eq=False)
class FloquetMatrix:
    """Real symmetric extended-space matrix, held by its structure.

    Block s (Fourier index m = s - truncation) has the emitter diagonal
    entry emitter[s], the photon diagonal entries photon[s, j], and every
    photon of block s couples to the emitter of block s' with
    coupling[s, s'].
    """

    emitter: np.ndarray  # (2M+1,)
    photon: np.ndarray  # (2M+1, N//2 + 1): mode j's energy at its node min(j, N - j)
    coupling: np.ndarray  # (2M+1, 2M+1)
    n_cavities: int
    end: int  # the grid's (N + 1) // 2: nodes 1..end-1 stand for a pair of modes

    @property
    def truncation(self) -> int:
        """M; the reduced matrix has 0 (a single block)."""
        return self.emitter.size // 2

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

    @cached_property
    def _bright(self) -> tuple[np.ndarray, np.ndarray]:
        # Kept only on success, so an EigenFailure is raised again on the
        # next read; read through _bright_eigensystem, which checks the size.
        weight = np.ones(self.photon.shape[1])
        weight[1 : self.end] = math.sqrt(2.0)  # a pair's bright mode couples sqrt(2) times as strongly
        h = _bordered(self.emitter, self.photon, self.coupling[:, None, :] * weight[None, :, None])
        try:
            values, vectors = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(str(exc)) from exc
        return _read_only(values, vectors.reshape(self.emitter.size, self.photon.shape[1] + 1, -1))


def _fold(fm: FloquetMatrix, states) -> tuple[np.ndarray, np.ndarray]:
    # The bright row and amplitude of each state, 0 the emitter and 1 + j mode j (see the bright/dark split).
    rows = (fm.n_cavities + 2 - abs(fm.n_cavities + 2 - 2 * states)) // 2  # 1 + min(j, N - j), on ints or arrays
    return rows, np.where((rows > 1) & (rows <= fm.end), math.sqrt(0.5), 1.0)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _bordered(emitter: np.ndarray, photon: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of blocks [emitter, photon 0, photon 1, ...];
    coupling[s, k, s'] links photon k of block s to the emitter of block s'."""
    blocks, size = photon.shape[0], photon.shape[1] + 1
    h = np.zeros((blocks, size, blocks, size))
    s = np.arange(blocks)
    h[s, 0, s, 0] = emitter
    k = np.arange(1, size)
    h[s[:, None], k, s[:, None], k] = photon
    h[:, 1:, :, 0] = coupling
    h[:, 0, :, 1:] = np.transpose(coupling, (2, 0, 1))
    return h.reshape(blocks * size, blocks * size)


@dataclass(frozen=True, eq=False)
class QuasiEnergySpectrum:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns aligned with eigenvalues


def default_truncation(params: SystemParams) -> int:
    """M = max(8, ceil(chi) + 6, |n| + 4) for the default sideband n;
    couplings die off beyond |q| ~ chi."""
    return max(8, math.ceil(params.chi) + 6, abs(default_sideband(params)) + 4)


def _structured(params, grid, emitter_blocks, photon_blocks) -> FloquetMatrix:
    # Block s holds the emitter at Fourier index emitter_blocks[s] and the
    # field at photon_blocks[s]; the coupling order is their difference.
    nu = params.drive_freq
    orders = photon_blocks[:, None] - emitter_blocks[None, :]
    q = np.unique(orders)
    bessel = np.array([bessel_j(int(k), params.chi) for k in q])
    couplings = params.g * bessel / math.sqrt(grid.n_cavities)
    emitter, photon, coupling = _read_only(  # read-only, so the cached eigensystem cannot go stale
        0.5 * params.omega + emitter_blocks * nu,
        grid.energies[None, :] - 0.5 * params.omega + photon_blocks[:, None] * nu,
        couplings[np.searchsorted(q, orders)],
    )
    return FloquetMatrix(emitter=emitter, photon=photon, coupling=coupling, n_cavities=grid.n_cavities, end=grid.end)


def build_floquet_matrix(params: SystemParams, grid: MomentumGrid, m_max: int) -> FloquetMatrix:
    """The truncated extended-space Hamiltonian, |m| <= m_max."""
    n_star = default_sideband(params)
    if m_max < abs(n_star) + 2:
        raise TruncationTooSmall(
            f"M = {m_max} < |{n_star}| + 2 needed for the near-resonant sideband"
        )
    blocks = 2 * m_max + 1
    check_size("Floquet entries (2M+1)(2M+1+N//2+1)", blocks * (blocks + grid.nodes.size), MAX_ENTRIES)
    m = np.arange(-m_max, m_max + 1)
    return _structured(params, grid, m, m)


def reduced_hamiltonian(params: SystemParams, grid: MomentumGrid, n: int) -> FloquetMatrix:
    """Single-block (N+1)-dimensional near-resonant matrix for sideband n."""
    return _structured(params, grid, np.array([0]), np.array([n]))


def _bright_eigensystem(fm: FloquetMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The bright eigenvalues and eigenvectors, shaped (blocks, bright rows,
    values), read-only and computed once per matrix. In every block, row 0 is
    the emitter and row 1 + j node j, a pair's (|j> + |N-j>)/sqrt(2)."""
    rows = fm.emitter.size * (fm.n_cavities // 2 + 2)
    check_size("bright rows (2M+1)(floor(N/2)+2)", rows, MAX_BRIGHT_ROWS)
    return fm._bright


def quasi_energies(fm: FloquetMatrix) -> QuasiEnergySpectrum:
    """Full real spectrum with orthonormal eigenvectors, ascending.

    Each eigenvector is written once, straight into its ascending column:
    a bright one block by block, a dark one as its single +- pair.
    """
    values, vectors = _bright_eigensystem(fm)
    blocks, size = fm.emitter.size, fm.n_cavities + 1
    fold, amplitude = _fold(fm, np.arange(size))
    pairs = np.arange(1, fm.end)  # j with partner N - j != j
    values = np.concatenate((values, fm.photon[:, pairs].ravel()))  # bright, then dark by block
    order = np.argsort(values, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    bright_columns, dark_columns = column[: vectors.shape[2]], column[vectors.shape[2] :].reshape(blocks, -1)
    out = np.zeros((fm.dim, fm.dim))
    for s in range(blocks):
        rows = vectors[s][fold]  # a copy: the shared eigenvectors stay unscaled
        rows *= amplitude[:, None]
        out[s * size : (s + 1) * size, bright_columns] = rows
    offsets = size * np.arange(blocks)[:, None]
    out[offsets + 1 + pairs, dark_columns] = math.sqrt(0.5)
    out[offsets + size - pairs, dark_columns] = -math.sqrt(0.5)
    return QuasiEnergySpectrum(eigenvalues=values[order], eigenvectors=out)


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
    """<beta, m_beta | (E - H_F)^(-1) | alpha, 0> through the emitter Schur complement.

    energy must be finite and carry a positive imaginary part (the
    resolvent regulator); alpha0 must sit in the m = 0 block. An energy
    so large or so close to a photon energy that 1/(E - E_m(k))
    overflows raises NonFiniteResult.
    """
    if not cmath.isfinite(energy):
        raise InvalidArgument(f"resolvent energy must be finite, got {energy!r}")
    if not energy.imag > 0.0:
        raise InvalidArgument(f"resolvent energy needs Im E > 0, got {energy!r}")
    alpha, m0 = alpha0
    if m0 != 0:
        raise InvalidArgument(f"source state must have m = 0, got m = {m0}")
    fm.index(alpha, m0)  # IndexError for alpha outside 0..N
    zero, c = fm.truncation, fm.coupling
    try:
        with np.errstate(over="raise", invalid="raise"):
            inverse = 1.0 / (energy - fm.photon)
    except FloatingPointError as exc:
        raise NonFiniteResult(f"the photon resolvent at E = {energy!r}: {exc}") from exc
    # A photon source adds its own 1/(E - E_0(j)) to its mode j alone, not to
    # its partner N - j; the emitters see it through rhs.
    node = _fold(fm, alpha)[0] - 1
    own = 0j if alpha == TLS else complex(inverse[zero, node])
    rhs = c[zero] * own
    rhs[zero] += alpha == TLS
    sums = ring_sum(inverse, fm.end)
    schur = np.diag(energy - fm.emitter) - c.T @ (sums[:, None] * c)
    try:
        x_e = np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from exc
    # The photon amplitudes inverse * (c @ x_e) solve the photon rows to one
    # rounding, so only the emitter (Schur) rows can lose the solve.
    residual = np.linalg.norm(schur @ x_e - rhs)
    if not residual <= RESIDUAL_TOLERANCE:
        raise SingularResolvent(f"solve residual {residual:g} exceeds {RESIDUAL_TOLERANCE:g}")
    fm.index(*beta)  # IndexError for a target outside the matrix
    target, block = beta[0], beta[1] + zero
    # A photon target reads its block of inverse * (c @ x_e), every photon mode but the source, by node.
    value = x_e[block] if target == TLS else (inverse[block] * (c @ x_e)[block])[_fold(fm, target)[0] - 1]
    return complex(value + own * ((target, block) == (alpha, zero)))


def averaged_transition_probability(fm: FloquetMatrix, alpha: int, beta: int, t: float) -> float:
    """Drive-phase-averaged probability alpha -> beta after time t.

    Propagates |alpha, m=0> with exp(-i H_F t) and sums the squared
    amplitude of beta over every Fourier block. Only the eigenvector rows
    of alpha and beta are built: a dark eigenvector lives in one block and
    one pair, so it enters only the m = 0 amplitude between its two photons.
    A t at which max |quasi-energy| t overflows raises NonFiniteResult.
    """
    check_time(t, positive=False)
    fm.index(alpha, 0), fm.index(beta, 0)  # IndexError for a state outside 0..N
    values, vectors = _bright_eigensystem(fm)
    if not math.isfinite(abs(t) * float(np.max(np.abs(values)))):
        raise NonFiniteResult(f"the quasi-energy phase overflows at t = {t:g}")
    fold, amplitude = _fold(fm, np.array([alpha, beta]))
    rows = amplitude[:, None] * vectors[:, fold]  # (blocks, 2, values)
    zero = fm.truncation
    amp = rows[:, 1] @ (np.exp(-1j * values * t) * rows[zero, 0])
    if fold[0] == fold[1] and amplitude[0] < 1.0:  # photons of one pair: dark +-sqrt(1/2)
        energy = fm.photon[zero, fold[0] - 1]
        amp[zero] += np.exp(-1j * energy * t) * math.sqrt(0.5) * math.sqrt(0.5) * (-1) ** (alpha != beta)
    return float((np.abs(amp) ** 2).sum())
