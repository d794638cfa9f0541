"""Extended-space Hamiltonian: structure, spectra, resolvent, reduction."""

import math
import tracemalloc

import numpy as np
import pytest

from floquet_zeno import floquet
from floquet_zeno.bath import build_grid
from floquet_zeno.errors import (
    EigenFailure,
    InvalidArgument,
    NonFiniteResult,
    SingularResolvent,
    SizeTooLarge,
    TruncationTooSmall,
)
from floquet_zeno.floquet import (
    TLS,
    averaged_transition_probability,
    build_floquet_matrix,
    default_truncation,
    edge_weights,
    green_coefficient,
    quasi_energies,
    reduced_hamiltonian,
)
from floquet_zeno.oracle import OneQuantumState, propagate
from floquet_zeno.params import SystemParams, validate
from floquet_zeno.specfun import bessel_j

J0_ROOT = 2.4048255576957733
J1_AT_1 = 0.44005058574493355  # independent series oracle
J1_AT_18 = 0.5815169517311651


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return validate(SystemParams(**fields))


def ring_energies(p: SystemParams) -> np.ndarray:
    """eps_k = omega_c - 2 xi cos k on all N momenta k_j = 2 pi j / N, each pair's modes apart."""
    return p.omega_c - 2.0 * p.xi * np.cos(2.0 * math.pi * np.arange(p.n_cavities) / p.n_cavities)


def static_matrix(p: SystemParams) -> np.ndarray:
    energies = ring_energies(p)
    h = np.zeros((p.n_cavities + 1, p.n_cavities + 1))
    h[0, 0] = 0.5 * p.omega
    for j in range(p.n_cavities):
        h[1 + j, 1 + j] = energies[j] - 0.5 * p.omega
        h[1 + j, 0] = h[0, 1 + j] = p.g / math.sqrt(p.n_cavities)
    return h


def dense_matrix(fm: floquet.FloquetMatrix) -> np.ndarray:
    """The matrix entry by entry as the module docstring states it, independent of floquet's own assembly.

    Block s (m = s - M) holds the emitter at index(TLS, m), with diagonal
    omega/2 + m nu = emitter[s], and mode j at index(1 + j, m), with diagonal
    eps_k - omega/2 + m nu = photon[s, min(j, N - j)]; every mode of block s
    couples to the emitter of block s' with coupling[s, s'], in both triangles.
    """
    n, blocks = fm.n_cavities, fm.emitter.size
    modes = np.arange(n)
    h = np.zeros((blocks, n + 1, blocks, n + 1))
    for s in range(blocks):
        h[s, 0, s, 0] = fm.emitter[s]
        h[s, 1 + modes, s, 1 + modes] = fm.photon[s, np.minimum(modes, n - modes)]
        h[s, 1:, :, 0] = fm.coupling[s]
        h[:, 0, s, 1:] = fm.coupling[s][:, None]
    return h.reshape(fm.dim, fm.dim)


def test_index_bijection():
    p = make(n_cavities=3)
    fm = build_floquet_matrix(p, build_grid(p), 2)
    seen = set()
    for m in range(-2, 3):
        for alpha in range(4):
            seen.add(fm.index(alpha, m))
    assert seen == set(range(fm.dim))
    with pytest.raises(IndexError):
        fm.index(0, 3)
    with pytest.raises(IndexError):
        fm.index(4, 0)


def test_zero_coupling_matrix_is_diagonal():
    p = make(g=0.0, n_cavities=3)
    grid = build_grid(p)
    fm = build_floquet_matrix(p, grid, 2)
    h = dense_matrix(fm)
    energies = ring_energies(p)
    assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
    for m in range(-2, 3):
        assert h[fm.index(TLS, m), fm.index(TLS, m)] == pytest.approx(
            0.5 * p.omega + m * p.drive_freq, abs=1e-15
        )
        for j in range(3):
            expected = energies[j] - 0.5 * p.omega + m * p.drive_freq
            assert h[fm.index(1 + j, m), fm.index(1 + j, m)] == pytest.approx(expected, abs=1e-14)


def test_undriven_coupling_is_block_diagonal():
    p = make(drive_amp=0.0, n_cavities=2)
    fm = build_floquet_matrix(p, build_grid(p), 3)
    h = dense_matrix(fm)
    c = p.g / math.sqrt(2)
    for m in range(-3, 4):
        for mp in range(-3, 4):
            entry = h[fm.index(1, m), fm.index(TLS, mp)]
            assert entry == pytest.approx(c if m == mp else 0.0, abs=1e-15)


def test_coupling_entry_carries_bessel_factor():
    # N = 1, g = 0.1, chi = 1: the (photon, m=1) <-> (emitter, m'=0) entry
    # is g J_1(chi) / sqrt(1). M = 2 is the smallest legal truncation here.
    p = make(n_cavities=1, g=0.1, drive_amp=1.0, drive_freq=1.0, omega_c=2.5)
    fm = build_floquet_matrix(p, build_grid(p), 2)
    entry = dense_matrix(fm)[fm.index(1, 1), fm.index(TLS, 0)]
    assert entry == pytest.approx(0.1 * J1_AT_1, abs=1e-14)


@pytest.mark.parametrize("m_max, chi, n", [(2, 1.0, 0), (5, J0_ROOT, -3), (8, 4.7, 7), (11, 0.0, -1)])
def test_every_coupling_is_g_bessel_of_the_block_offset_over_sqrt_n(m_max, chi, n):
    # C[m, m'] = g J_{m-m'}(chi) / sqrt(N) entry for entry, bit for bit, over every order -2M..2M
    # of the full matrix and the one order n of the reduced matrix; it pins the order -> coupling
    # indexing, and test_specfun pins the Bessel values themselves.
    p = make(n_cavities=7, g=0.3, drive_amp=chi * 6.0)
    grid = build_grid(p)
    coupling = build_floquet_matrix(p, grid, m_max).coupling
    m = range(-m_max, m_max + 1)
    expected = [[0.3 * bessel_j(a - b, p.chi) / math.sqrt(7) for b in m] for a in m]
    assert coupling.tolist() == expected
    assert reduced_hamiltonian(p, grid, n).coupling.tolist() == [[0.3 * bessel_j(n, p.chi) / math.sqrt(7)]]


def test_hermiticity():
    # Exact, not approximate: every coupling entry is written to both
    # triangles from the same real value. Odd and even N, and chi at a
    # J_0 root, where the q = 0 coupling is zero to rounding.
    for n_cavities, chi in ((5, 1.0), (4, 1.0), (6, J0_ROOT)):
        p = make(n_cavities=n_cavities, drive_amp=chi * 6.0)
        h = dense_matrix(build_floquet_matrix(p, build_grid(p), 4))
        assert np.array_equal(h, h.conj().T)


def test_truncation_too_small():
    p = make()  # delta=1, nu=6 -> nearest sideband 0, so M >= 2
    grid = build_grid(p)
    with pytest.raises(TruncationTooSmall):
        build_floquet_matrix(p, grid, 1)
    p9 = make(omega_c=11.0, drive_freq=10.0)  # delta=9 -> sideband -1, M >= 3
    with pytest.raises(TruncationTooSmall):
        build_floquet_matrix(p9, build_grid(p9), 2)
    build_floquet_matrix(p9, build_grid(p9), 3)


def test_floquet_sizes_are_checked_at_their_ceilings(monkeypatch):
    # N = 5, M = 3: 7 blocks, 7 (7 + 5 // 2 + 1) = 70 structured entries and
    # 7 (5 // 2 + 2) = 28 bright rows; each ceiling admits its size exactly.
    p = make(n_cavities=5)
    grid = build_grid(p)
    monkeypatch.setattr(floquet, "MAX_ENTRIES", 70)
    monkeypatch.setattr(floquet, "MAX_BRIGHT_ROWS", 28)
    fm = build_floquet_matrix(p, grid, 3)
    quasi_energies(fm)
    averaged_transition_probability(fm, TLS, TLS, 1.0)
    monkeypatch.setattr(floquet, "MAX_BRIGHT_ROWS", 27)
    with pytest.raises(SizeTooLarge, match="bright rows"):
        quasi_energies(fm)
    with pytest.raises(SizeTooLarge, match="bright rows"):
        averaged_transition_probability(fm, TLS, TLS, 1.0)
    monkeypatch.setattr(floquet, "MAX_ENTRIES", 69)
    with pytest.raises(SizeTooLarge, match="Floquet entries"):
        build_floquet_matrix(p, grid, 3)


def test_default_truncation_floor_and_growth():
    assert default_truncation(make()) == 8
    assert default_truncation(make(drive_amp=9.5 * 6.0)) == math.ceil(9.5) + 6
    assert default_truncation(make(omega_c=56.0)) == 13  # delta = 54: default sideband -9


def test_quasi_energies_zero_coupling():
    p = make(g=0.0, n_cavities=3)
    fm = build_floquet_matrix(p, build_grid(p), 2)
    spectrum = quasi_energies(fm)
    expected = np.sort(np.real(np.diag(dense_matrix(fm))))
    assert spectrum.eigenvalues == pytest.approx(expected, abs=1e-12)
    assert np.all(np.diff(spectrum.eigenvalues) >= 0.0)


def test_quasi_energies_resonant_splitting():
    # Single cavity tuned to the emitter (delta = 2 xi): the m = 0 block is
    # a 2x2 with eigenvalues omega/2 +- g.
    p = make(n_cavities=1, omega=2.0, omega_c=4.0, g=0.1, drive_amp=0.0, drive_freq=10.0)
    spectrum = quasi_energies(build_floquet_matrix(p, build_grid(p), 2))
    for target in (1.0 - 0.1, 1.0 + 0.1):
        assert np.min(np.abs(spectrum.eigenvalues - target)) <= 1e-10


def test_quasi_energy_ladder_for_interior_states():
    p = make(n_cavities=21)
    fm = build_floquet_matrix(p, build_grid(p), 12)
    spectrum = quasi_energies(fm)
    weights = edge_weights(fm, spectrum)
    interior = spectrum.eigenvalues[weights < 1e-10]
    assert interior.size > 100
    for shift in (p.drive_freq, -p.drive_freq):
        for e in interior:
            assert np.min(np.abs(spectrum.eigenvalues - (e + shift))) <= 1e-8


def test_truncation_convergence_of_interior_spectrum():
    p = make(n_cavities=21)
    fm = build_floquet_matrix(p, build_grid(p), 8)
    spectrum = quasi_energies(fm)
    interior = spectrum.eigenvalues[edge_weights(fm, spectrum) < 1e-10]
    bigger = quasi_energies(build_floquet_matrix(p, build_grid(p), 10)).eigenvalues
    for e in interior:
        assert np.min(np.abs(bigger - e)) <= 1e-8


def test_undriven_spectrum_is_static_plus_ladder():
    p = make(n_cavities=11, drive_amp=0.0)
    m_max = 6
    full = quasi_energies(build_floquet_matrix(p, build_grid(p), m_max)).eigenvalues
    static = np.linalg.eigvalsh(static_matrix(p))
    ladder = np.sort(np.concatenate([static + m * p.drive_freq for m in range(-m_max, m_max + 1)]))
    assert full == pytest.approx(ladder, abs=1e-10)


def test_reduced_hamiltonian_matches_static_when_undriven():
    p = make(n_cavities=7, drive_amp=0.0)
    reduced = reduced_hamiltonian(p, build_grid(p), 0)
    assert np.abs(dense_matrix(reduced) - static_matrix(p)).max() <= 1e-14


def test_reduced_hamiltonian_sideband_offset_and_coupling():
    p = make(n_cavities=2, g=0.2, drive_amp=1.8, drive_freq=1.0, omega_c=2.5)
    grid = build_grid(p)
    reduced = reduced_hamiltonian(p, grid, 1)
    assert reduced.dim == 3
    expected = 0.2 * J1_AT_18 / math.sqrt(2)
    assert dense_matrix(reduced)[1, 0] == pytest.approx(expected, abs=1e-14)
    assert dense_matrix(reduced)[1, 1] == pytest.approx(grid.energies[0] - 1.0 + 1.0, abs=1e-14)


def test_reduced_hamiltonian_decouples_at_bessel_root():
    p = make(drive_amp=J0_ROOT * 6.0)
    reduced = reduced_hamiltonian(p, build_grid(p), 0)
    assert np.abs(dense_matrix(reduced)[1:, 0]).max() <= 1e-12 * p.g


def test_green_zero_coupling_is_diagonal_resolvent():
    p = make(g=0.0, n_cavities=2)
    fm = build_floquet_matrix(p, build_grid(p), 2)
    energy = 0.4 + 1e-6j
    g_ee = green_coefficient(fm, energy, (TLS, 0), (TLS, 0))
    assert g_ee == pytest.approx(1.0 / (energy - 0.5 * p.omega), rel=1e-10)
    assert abs(green_coefficient(fm, energy, (TLS, 1), (TLS, 0))) <= 1e-15
    assert abs(green_coefficient(fm, energy, (1, 0), (TLS, 0))) <= 1e-15


def test_green_matches_eigen_decomposition():
    p = make(n_cavities=5)
    fm = build_floquet_matrix(p, build_grid(p), 4)
    spectrum = quasi_energies(fm)
    u = spectrum.eigenvectors
    energy = 0.37 + 1e-6j
    src = fm.index(TLS, 0)
    for beta in ((TLS, 0), (TLS, 1), (2, 0), (3, -2)):
        direct = green_coefficient(fm, energy, beta, (TLS, 0))
        row = fm.index(*beta)
        via_eigh = np.sum(u[row, :] * np.conj(u[src, :]) / (energy - spectrum.eigenvalues))
        assert abs(direct - via_eigh) <= 1e-8


def test_green_poles_sit_at_quasi_energies():
    p = make(n_cavities=5)
    fm = build_floquet_matrix(p, build_grid(p), 4)
    spectrum = quasi_energies(fm)
    weights = np.abs(spectrum.eigenvectors[fm.index(TLS, 0), :]) ** 2
    e_star = float(spectrum.eigenvalues[np.argmax(weights)])
    scan = np.arange(e_star - 0.4, e_star + 0.4, 0.02)
    magnitudes = [abs(green_coefficient(fm, complex(e, 1e-5), (TLS, 0), (TLS, 0))) for e in scan]
    peak = scan[int(np.argmax(magnitudes))]
    assert np.min(np.abs(spectrum.eigenvalues - peak)) <= 0.03


def test_green_residual_check_rejects_a_lost_solve():
    # Im E = 1e-20 on a photon energy: 1/(E - E_m(k)) ~ 1e20 amplifies
    # rounding far beyond the 1e-8 residual bound.
    p = make(n_cavities=5)
    fm = build_floquet_matrix(p, build_grid(p), 4)
    with pytest.raises(SingularResolvent):
        green_coefficient(fm, complex(fm.photon[4, 0], 1e-20), (TLS, 0), (TLS, 0))


def test_green_input_validation():
    p = make(n_cavities=2)
    fm = build_floquet_matrix(p, build_grid(p), 2)
    with pytest.raises(ValueError):
        green_coefficient(fm, 0.4 + 0.0j, (TLS, 0), (TLS, 0))
    with pytest.raises(ValueError):
        green_coefficient(fm, 0.4 + 1e-6j, (TLS, 0), (TLS, 1))


@pytest.mark.parametrize(
    "energy, error",
    [
        (complex(math.nan, 1.0), InvalidArgument),
        (complex(math.inf, 1.0), InvalidArgument),
        (complex(1.0, math.inf), InvalidArgument),
        (1e308 + 1e308j, NonFiniteResult),  # 1/(E - E_m(k)) overflows inside numpy's complex divide
        (1e-320j, NonFiniteResult),  # 1/E on the photon energy 0 (k = 0, m = 0) is about 1e320
    ],
)
def test_green_non_finite_or_overflowing_energy_is_a_typed_error(energy, error):
    # Both raised a numpy RuntimeWarning (an error in this suite) and, with
    # warnings off, a SingularResolvent that blamed a nan residual.
    p = make(n_cavities=11)
    fm = build_floquet_matrix(p, build_grid(p), 8)
    with pytest.raises(error):
        green_coefficient(fm, energy, (TLS, 0), (TLS, 0))


def test_averaged_probability_identity_at_zero_time():
    p = make(n_cavities=3)
    fm = build_floquet_matrix(p, build_grid(p), 3)
    assert averaged_transition_probability(fm, TLS, TLS, 0.0) == pytest.approx(1.0, abs=1e-12)
    for beta in (1, 2, 3):
        assert averaged_transition_probability(fm, TLS, beta, 0.0) <= 1e-20


def test_averaged_probability_sums_to_one():
    p = make(n_cavities=4)
    fm = build_floquet_matrix(p, build_grid(p), 4)
    total = sum(averaged_transition_probability(fm, TLS, beta, 3.7) for beta in range(5))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_averaged_probability_zero_coupling_is_stationary():
    p = make(g=0.0, n_cavities=3)
    fm = build_floquet_matrix(p, build_grid(p), 2)
    assert averaged_transition_probability(fm, TLS, TLS, 5.0) == pytest.approx(1.0, abs=1e-12)


def test_averaged_probability_phase_overflow_is_a_typed_error():
    # max |quasi-energy| t passes the float range at t = 5e307: the call
    # returned nan after two RuntimeWarnings.
    p = make(n_cavities=11)
    fm = build_floquet_matrix(p, build_grid(p), 8)
    assert math.isfinite(averaged_transition_probability(fm, TLS, TLS, 1e300))
    with pytest.raises(NonFiniteResult):
        averaged_transition_probability(fm, TLS, TLS, 5e307)


def counting_eigh(monkeypatch, fail_first=False):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        if fail_first and len(calls) == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(floquet.np.linalg, "eigh", counted)
    return calls


def test_one_eigen_decomposition_per_matrix(monkeypatch):
    calls = counting_eigh(monkeypatch)
    p = make(n_cavities=11)
    grid = build_grid(p)
    fm = build_floquet_matrix(p, grid, 8)
    first = quasi_energies(fm)
    bright = [a.tobytes() for a in floquet._bright_eigensystem(fm)]
    probabilities = [averaged_transition_probability(fm, a, b, t) for a, b in ((TLS, TLS), (1, 10)) for t in (0.7, 3.7)]
    again = quasi_energies(fm)
    assert len(calls) == 1
    assert [a.tobytes() for a in floquet._bright_eigensystem(fm)] == bright
    assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()
    assert again.eigenvectors.tobytes() == first.eigenvectors.tobytes()
    # A new matrix from the same params is diagonalized again, to the same bytes.
    fresh = build_floquet_matrix(p, grid, 8)
    assert [averaged_transition_probability(fresh, a, b, t) for a, b in ((TLS, TLS), (1, 10)) for t in (0.7, 3.7)] == (
        probabilities
    )
    assert len(calls) == 2
    assert quasi_energies(fresh).eigenvectors.tobytes() == first.eigenvectors.tobytes()
    assert len(calls) == 2


def test_an_eigen_failure_is_not_kept(monkeypatch):
    calls = counting_eigh(monkeypatch, fail_first=True)
    p = make(n_cavities=5)
    fm = build_floquet_matrix(p, build_grid(p), 3)
    with pytest.raises(EigenFailure):
        quasi_energies(fm)
    quasi_energies(fm)
    averaged_transition_probability(fm, TLS, TLS, 1.0)
    assert len(calls) == 2


def test_the_matrix_and_its_eigensystem_are_read_only():
    # The eigensystem is kept on the matrix, so neither may change under it.
    p = make(n_cavities=5)
    fm = build_floquet_matrix(p, build_grid(p), 3)
    arrays = [fm.emitter, fm.photon, fm.coupling, *floquet._bright_eigensystem(fm)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        fm.photon *= 2.0
    reduced = reduced_hamiltonian(p, build_grid(p), 0)
    with pytest.raises(ValueError, match="read-only"):
        reduced.photon[0, 0] = 1.0


def dense_transition_probability(fm, alpha, beta, t):
    # exp(-i H t) |alpha, 0> from numpy's eigendecomposition of the
    # assembled matrix, summed over the Fourier blocks of beta.
    values, vectors = np.linalg.eigh(dense_matrix(fm))
    psi = vectors @ (np.exp(-1j * values * t) * vectors[fm.index(alpha, 0)])
    blocks = range(-fm.truncation, fm.truncation + 1)
    return float(sum(abs(psi[fm.index(beta, m)]) ** 2 for m in blocks))


@pytest.mark.parametrize("n_cavities", [1, 2, 4, 5, 41])
def test_averaged_probability_matches_dense(n_cavities):
    # Emitter and photon sources and targets; photon j = 1 -> its ring
    # partner N - 1 (itself for N = 2) runs through the dark states. The
    # reduced matrix is a single block, where the dark states weigh most.
    p = make(n_cavities=n_cavities)
    grid = build_grid(p)
    n = n_cavities
    pairs = [(TLS, TLS), (TLS, n), (n, TLS), (1, 1)]
    if n >= 2:
        pairs += [(2, n), (2, 2)]
    for fm in (build_floquet_matrix(p, grid, default_truncation(p)), reduced_hamiltonian(p, grid, 0)):
        for alpha, beta in pairs:
            for t in (0.7, 3.7):
                expected = dense_transition_probability(fm, alpha, beta, t)
                got = averaged_transition_probability(fm, alpha, beta, t)
                assert abs(got - expected) <= 1e-12, (fm.truncation, alpha, beta, t)


def test_averaged_probability_builds_only_the_rows_it_reads():
    # The full eigenvector matrix at N = 41, M = 8 is 714 x 714 floats (4.1 MB);
    # the rows of alpha and beta in each block need a fraction of that. The
    # reduced matrix at N = 1001 needs about three bright-block squares,
    # 3 (floor(N/2) + 2)^2 floats (6.1 MB), less than one (N+1)^2 array (8 MB).
    p = make()
    big = make(n_cavities=1001)
    cases = (
        (build_floquet_matrix(p, build_grid(p), 8), 4e6),
        (reduced_hamiltonian(big, build_grid(big), 0), 3 * (1001 // 2 + 2) ** 2 * 8),
    )
    for fm, bound in cases:
        tracemalloc.start()
        try:
            averaged_transition_probability(fm, TLS, TLS, 3.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (fm.n_cavities, peak)


def traced_peak(compute) -> int:
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_grid_holds_only_its_distinct_nodes():
    # At the ceiling N = 2^20 the grid's nodes and energies are floor(N/2)+1
    # floats each, 4.2 MB; building them peaks at three such arrays (12.6 MB).
    # A grid that also held all N momenta and energies peaked at 33.6 MB.
    n = 1 << 20
    peak = traced_peak(lambda: build_grid(make(n_cavities=n)))
    assert peak < 4 * 8 * (n // 2 + 1), peak


def test_green_coefficient_memory_grows_with_the_distinct_nodes():
    # The README's MAX_ENTRIES row, N = 400000 and M = 2: (2M+1)(2M+1+floor(N/2)+1)
    # = 1.0M entries, and the resolvent peaks at 64 bytes each (61 MiB). With
    # photon energies over all N modes it peaked at 153 MiB.
    p = make(n_cavities=400000)
    fm = build_floquet_matrix(p, build_grid(p), 2)
    entries = fm.emitter.size * (fm.emitter.size + fm.photon.shape[1])
    for source in ((TLS, 0), (2, 0)):
        peak = traced_peak(lambda: green_coefficient(fm, 0.37 + 1e-3j, (TLS, 0), source))
        assert peak < 70 * entries, (source, peak / entries)


def bright_dark_basis(n):
    # One block's real orthogonal basis change, as dense columns: the
    # emitter, modes j = 0 .. N/2 with each pair merged into the bright
    # (|j> + |N-j>)/sqrt(2), then the darks (|j> - |N-j>)/sqrt(2).
    half = n // 2
    pairs = np.arange(1, (n + 1) // 2)
    basis = np.zeros((n + 1, n + 1))
    basis[np.arange(half + 2), np.arange(half + 2)] = 1.0
    dark = np.arange(half + 2, n + 1)
    basis[1 + pairs, 1 + pairs] = basis[1 + n - pairs, 1 + pairs] = math.sqrt(0.5)
    basis[1 + pairs, dark] = math.sqrt(0.5)
    basis[1 + n - pairs, dark] = -math.sqrt(0.5)
    return basis[:, : half + 2], basis[:, dark]


@pytest.mark.parametrize("n_cavities, m_max", [(200, 2), (41, 9)])
def test_quasi_energies_write_each_eigenvector_once(n_cavities, m_max):
    # The same spectrum as stacking the bright columns beside the
    # block-diagonal dark ones and reordering them, which peaked at about
    # 18.5 bytes per dim^2 entry; writing each column into its ascending
    # place peaks at about 11 (10.91 at N = 200, M = 2, dim 1005).
    p = make(n_cavities=n_cavities)
    fm = build_floquet_matrix(p, build_grid(p), m_max)
    tracemalloc.start()
    try:
        spectrum = quasi_energies(fm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * fm.dim**2, peak / fm.dim**2
    bright, dark = bright_dark_basis(n_cavities)
    values, vectors = floquet._bright_eigensystem(fm)
    stacked = np.hstack(((bright @ vectors).reshape(fm.dim, -1), np.kron(np.eye(fm.emitter.size), dark)))
    values = np.concatenate((values, fm.photon[:, 1 : 1 + dark.shape[1]].ravel()))
    order = np.argsort(values, kind="stable")
    assert spectrum.eigenvalues.tobytes() == values[order].tobytes()
    # Equal entries; the kron's off-block zeros carry a sign (-0.0), the written ones do not.
    assert np.array_equal(spectrum.eigenvectors, stacked[:, order])


def dense_solve(fm, energy, source):
    rhs = np.zeros(fm.dim, dtype=complex)
    rhs[fm.index(*source)] = 1.0
    return np.linalg.solve(energy * np.eye(fm.dim) - dense_matrix(fm), rhs)


@pytest.mark.parametrize("n_cavities", [1, 2, 3, 4, 41, 42])
def test_structured_algebra_matches_dense(n_cavities):
    # The bright/dark eigensolve and the Schur-complement resolvent against
    # dense algebra on the assembled matrix; odd and even N, chi at a J_0 root.
    # Photon sources and targets on paired modes, each read at its partner
    # (mode 1 and mode N - 1, states 2 and N), and on node N/2 for even N.
    p = make(n_cavities=n_cavities, drive_amp=J0_ROOT * 6.0)
    fm = build_floquet_matrix(p, build_grid(p), default_truncation(p))
    h = dense_matrix(fm)
    spectrum = quasi_energies(fm)
    values, vectors = spectrum.eigenvalues, spectrum.eigenvectors
    dense = np.linalg.eigvalsh(h)
    scale = 1.0 + np.abs(dense).max()
    assert values.shape == (fm.dim,) and vectors.shape == (fm.dim, fm.dim)
    assert np.abs(values - dense).max() <= 1e-12 * scale
    assert np.abs(h @ vectors - vectors * values).max() <= 1e-12 * scale
    assert np.abs(vectors.T @ vectors - np.eye(fm.dim)).max() <= 1e-12
    n = n_cavities
    targets = [(TLS, 0), (TLS, 2), (TLS, -3), (1, -1), (n, 1), (n, 0), (2, 0), (n // 2 + 1, 0)]
    targets = [beta for beta in targets if beta[0] <= n]
    sources = [(TLS, 0), (1, 0), (n, 0)] + [(2, 0)] * (n >= 2) + [(n // 2 + 1, 0)] * (n % 2 == 0)
    for energy in (0.37 + 1e-3j, 1.9 + 0.05j):
        for source in sources:
            x = dense_solve(fm, energy, source)
            for beta in targets:
                direct = green_coefficient(fm, energy, beta, source)
                assert abs(direct - x[fm.index(*beta)]) <= 1e-12 * np.abs(x).max()


def fold(energies, nu):
    """Map quasi-energies into the zone (-nu/2, nu/2]."""
    return nu / 2.0 - np.mod(nu / 2.0 - np.asarray(energies), nu)


@pytest.mark.parametrize("n_cavities", [4, 5])
def test_interior_quasi_energies_match_one_period_propagation(n_cavities):
    # Independent reference: the one-period propagator U(T) of the exact
    # time-dependent Hamiltonian, built column by column by the oracle.
    # Its eigenphases are the quasi-energies; every interior Sambe
    # eigenvalue at the default truncation must be one of them, and each
    # of them must be found among the interior ones.
    for chi in (1.0, J0_ROOT, 4.0):
        for delta in (1.0, 3.0, -2.5):
            p = make(n_cavities=n_cavities, omega_c=2.0 + delta, drive_amp=chi * 6.0)
            grid = build_grid(p)
            columns = []
            for i in range(n_cavities + 1):
                c = np.zeros(n_cavities + 1, dtype=complex)
                c[i] = 1.0
                state = propagate(p, grid, OneQuantumState(c_e=c[0], c_k=c[1:], time=0.0), p.period)
                columns.append(np.concatenate(([state.c_e], state.c_k)))
            phases = -np.angle(np.linalg.eigvals(np.array(columns).T)) / p.period
            reference = fold(phases, p.drive_freq)
            fm = build_floquet_matrix(p, grid, default_truncation(p))
            spectrum = quasi_energies(fm)
            interior = fold(spectrum.eigenvalues[edge_weights(fm, spectrum) < 1e-10], p.drive_freq)
            gap = np.abs(fold(interior[:, None] - reference[None, :], p.drive_freq))
            assert gap.min(axis=1).max() <= 1e-8, (chi, delta)
            assert gap.min(axis=0).max() <= 1e-8, (chi, delta)
