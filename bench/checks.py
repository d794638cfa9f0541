"""Correctness checks for benchmark outputs.

Each check raises CheckFailed with a reason, or returns the number of
result values the op produced. References are written here from the
model's formulas with numpy alone, so they share no code with the
program: J_n comes from the trapezoid rule on Bessel's integral, which
is exact to rounding for a periodic integrand sampled finely enough.

Tolerances follow tests/test_acceptance.py where a criterion covers the
quantity; frozen seed values are compared loosely enough that a
last-digit change is not a failure.
"""

import math

import numpy as np

ROUTES_REL = 1e-3  # criterion 9: overlap vs continuum route
GOLDEN_REL = 0.02  # criterion 4: R(t = 200) vs golden rule
ORACLE_ABS = 1e-2  # criterion 5: oracle vs perturbative at weak g
LADDER_ABS = 1e-8  # criterion 8: interior quasi-energy ladder
SUPPRESSED_MAX = 1e-10  # criterion 1: rate at the J_0 root
NORM_ABS = 1e-7  # oracle norm drift and forward/back reversal
ROOT_ABS = 1e-10  # criterion 10: J_0 root
INTERIOR_WEIGHT = 1e-10
LATTICE_REL = 1e-9  # lattice sum vs the reference re-implementation
SPECTRAL_REL = 1e-8  # resolvent / propagator vs eigen-decomposition
FROZEN_REL = 1e-8  # rates and probabilities vs frozen seed values
FROZEN_ROUTE_REL = 1e-6  # quadrature routes vs frozen seed values
FROZEN_ORACLE_ABS = 1e-7


class CheckFailed(Exception):
    """An op returned a value outside its tolerance."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    require(arr.size > 0, f"{what}: empty")
    require(bool(np.all(np.isfinite(arr))), f"{what}: non-finite value")
    return arr


def close(actual, expected, rel: float, abs_tol: float, what: str) -> None:
    """|actual - expected| <= max(rel |expected|, abs_tol), elementwise."""
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    require(a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}")
    err = np.abs(a - e)
    allowed = np.maximum(rel * np.abs(e), abs_tol)
    bad = err > allowed
    if np.any(bad):
        i = int(np.argmax(err - allowed))
        raise CheckFailed(f"{what}: {a.flat[i]!r} vs {e.flat[i]!r} (err {err.flat[i]:.3g})")


def exit_code(actual: int, expected: int, what: str) -> None:
    require(actual == expected, f"{what}: exit code {actual}, expected {expected}")


# --- reference formulas -------------------------------------------------


def bessel_ref(n: int, x: float) -> float:
    """J_n(x) = (1/2pi) sum over one period of cos(n tau - x sin tau)."""
    samples = 2 * int(abs(x) + abs(n)) + 64
    tau = 2.0 * math.pi * np.arange(samples) / samples
    return float(np.mean(np.cos(n * tau - x * np.sin(tau))))


def lattice_rates(delta, chi, g, n_cavities, times, xi=1.0, sideband=0, nu=6.0) -> np.ndarray:
    """R(t) = (t g^2 / N) J_n(chi)^2 sum_k sinc^2((omega_f - 2 xi cos k) t / 2)."""
    k = 2.0 * math.pi * np.arange(n_cavities) / n_cavities
    omega_f = delta + sideband * nu
    t = np.asarray(times, dtype=float)[:, None]
    x = (omega_f - 2.0 * xi * np.cos(k))[None, :] * t / 2.0
    s = np.sinc(x / math.pi)
    jn = bessel_ref(sideband, chi)
    return t[:, 0] * g * g / n_cavities * jn * jn * (s * s).sum(axis=1)


def golden_rate(delta, chi, g, xi=1.0, sideband=0, nu=6.0) -> float:
    omega_f = delta + sideband * nu
    if abs(omega_f) >= 2.0 * xi:
        return 0.0
    rho = 1.0 / (math.pi * math.sqrt(4.0 * xi * xi - omega_f * omega_f))
    return 2.0 * math.pi * g * g * bessel_ref(sideband, chi) ** 2 * rho


# --- CSV ------------------------------------------------------------------


def csv_table(text: str, header: str, rows: int, what: str) -> list[list[str]]:
    require(text.endswith("\n") and "\r" not in text, f"{what}: not LF-terminated CSV")
    lines = text.splitlines()
    require(bool(lines) and lines[0] == header, f"{what}: header {lines[:1]!r}, expected {header!r}")
    require(len(lines) == rows + 1, f"{what}: {len(lines) - 1} rows, expected {rows}")
    return [line.split(",") for line in lines[1:]]


def numeric_cells(table: list[list[str]], columns, what: str) -> int:
    """Every listed column parses as a finite float; returns the cell count."""
    count = 0
    for row in table:
        for c in columns:
            try:
                value = float(row[c])
            except (IndexError, ValueError):
                raise CheckFailed(f"{what}: bad cell in row {row!r}") from None
            require(math.isfinite(value), f"{what}: non-finite cell in row {row!r}")
            count += 1
    return count
