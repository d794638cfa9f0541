"""The Floquet resolvent and averaged probability: finite values or a typed error.

Over validated parameters on rings of N in {1, 2, 3, 4, 41, 42}, the full
matrix at a small truncation M and the reduced one, any source and target
state, resolvent energies with Im E from 1e-20 to 1 (Re E on a photon
energy, at +-1e308, anywhere up to +-1.7e308 or within 100 of zero) and
times from 0 to the float range, green_coefficient and averaged_transition_probability
return finite values or raise a FloquetZenoError. RuntimeWarning stays an
error (see pyproject.toml), so an overflow that numpy only reports also
fails.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_zeno.bath import build_grid
from floquet_zeno.errors import FloquetZenoError
from floquet_zeno.floquet import (
    averaged_transition_probability,
    build_floquet_matrix,
    green_coefficient,
    reduced_hamiltonian,
)
from floquet_zeno.params import SystemParams, default_sideband, validate

IMAG = st.one_of(st.sampled_from((1e-20, 1.0)), st.floats(math.log(1e-20), 0.0).map(math.exp))
TIMES = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(math.log(1e-300), math.log(1.7e308)).map(math.exp))


@st.composite
def matrices(draw):
    # |delta| <= 10 and nu >= 2 keep the default sideband, and so M, small.
    nu = draw(st.floats(2.0, 20.0))
    params = validate(
        SystemParams(
            omega=draw(st.floats(-5.0, 5.0)),
            omega_c=draw(st.floats(-5.0, 5.0)),
            xi=draw(st.floats(1e-3, 10.0)),
            g=draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0))),
            n_cavities=draw(st.sampled_from((1, 2, 3, 4, 41, 42))),
            drive_amp=draw(st.floats(0.0, 10.0)) * nu,
            drive_freq=nu,
        )
    )
    grid = build_grid(params)
    if draw(st.booleans()):
        return reduced_hamiltonian(params, grid, default_sideband(params))
    return build_floquet_matrix(params, grid, abs(default_sideband(params)) + 2 + draw(st.integers(0, 2)))


@st.composite
def energies(draw, fm):
    # Re E on a photon energy, near the float range's ends, or near the blocks.
    blocks, nodes = fm.photon.shape
    real = draw(
        st.one_of(
            st.builds(lambda s, j: float(fm.photon[s, j]), st.integers(0, blocks - 1), st.integers(0, nodes - 1)),
            st.sampled_from((1.0, -1.0)).map(lambda sign: sign * 1e308),
            st.floats(-1.0, 1.0).map(lambda x: x * 1.7e308),
            st.floats(-100.0, 100.0),
        )
    )
    return complex(real, draw(IMAG))


def _outcome(compute):
    # The value, or None for a typed refusal; any other exception fails the test.
    try:
        return compute()
    except FloquetZenoError:
        return None


def _state(fm):
    return st.integers(0, fm.n_cavities)


def _block(fm):
    return st.integers(-fm.truncation, fm.truncation)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_floquet_functions_give_finite_values_or_a_typed_error(data):
    fm = data.draw(matrices())
    alpha, beta = data.draw(_state(fm)), data.draw(_state(fm))
    energy = data.draw(energies(fm))
    value = _outcome(lambda: green_coefficient(fm, energy, (beta, data.draw(_block(fm))), (alpha, 0)))
    if value is not None:
        assert math.isfinite(value.real) and math.isfinite(value.imag), (energy, value)
    t = data.draw(TIMES)
    probability = _outcome(lambda: averaged_transition_probability(fm, alpha, beta, t))
    if probability is not None:
        assert math.isfinite(probability) and probability >= 0.0, (t, probability)
