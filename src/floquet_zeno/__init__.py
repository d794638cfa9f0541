"""Driven two-level emitter in a one-dimensional coupled-cavity waveguide.

Computes Floquet quasi-energies, finite-time decay rates, and survival
probabilities for an emitter whose splitting is modulated as A cos(nu t),
classifies parameter regimes (Zeno, anti-Zeno, dynamically decoupled),
and cross-checks everything against exact propagation of the
time-dependent amplitude equations.
"""

from .bath import MomentumGrid, build_grid, memory_function, response_spectrum, spectral_density
from .decay import (
    DecayCurve,
    RegimeReport,
    SurvivalCurve,
    classify_regime,
    decay_curve,
    decay_rate_continuum,
    decay_rate_finite,
    decay_rate_longtime,
    decay_rate_overlap,
    modulation_spectrum,
    survival_amplitude,
    survival_curve,
    survival_probability,
)
from .floquet import (
    FloquetMatrix,
    QuasiEnergySpectrum,
    averaged_transition_probability,
    build_floquet_matrix,
    default_truncation,
    edge_weights,
    green_coefficient,
    quasi_energies,
    reduced_hamiltonian,
)
from .oracle import OneQuantumState, excited_state, propagate, survival_curve_exact
from .params import SystemParams, default_sideband, from_mapping, parse_config, validate
from .specfun import bessel_j, bessel_j_zero, sinc

__version__ = "0.1.0"

__all__ = [
    "MomentumGrid",
    "build_grid",
    "memory_function",
    "response_spectrum",
    "spectral_density",
    "DecayCurve",
    "RegimeReport",
    "SurvivalCurve",
    "classify_regime",
    "decay_curve",
    "decay_rate_continuum",
    "decay_rate_finite",
    "decay_rate_longtime",
    "decay_rate_overlap",
    "modulation_spectrum",
    "survival_amplitude",
    "survival_curve",
    "survival_probability",
    "FloquetMatrix",
    "QuasiEnergySpectrum",
    "averaged_transition_probability",
    "build_floquet_matrix",
    "default_truncation",
    "edge_weights",
    "green_coefficient",
    "quasi_energies",
    "reduced_hamiltonian",
    "OneQuantumState",
    "excited_state",
    "propagate",
    "survival_curve_exact",
    "SystemParams",
    "default_sideband",
    "from_mapping",
    "parse_config",
    "validate",
    "bessel_j",
    "bessel_j_zero",
    "sinc",
    "__version__",
]
