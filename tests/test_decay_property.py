"""The decay layer over its whole time axis: finite values or a typed error.

Over validated parameters and sorted times drawn from {0}, the subnormals
and [1e-300, 1.7e308], every public time kernel returns finite values
(R >= 0, P_e in [0, 1]) or raises a FloquetZenoError. RuntimeWarning stays
an error (see pyproject.toml), so an overflow that numpy only reports also
fails. Curve rows equal the one-time calls bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floquet_zeno.bath import build_grid
from floquet_zeno.decay import decay_curve, decay_rate_finite, survival_amplitude, survival_curve, survival_probability
from floquet_zeno.errors import FloquetZenoError
from floquet_zeno.params import SystemParams, validate

SMALLEST_NORMAL = 2.2250738585072014e-308
TIMES = st.one_of(
    st.just(0.0),
    st.floats(5e-324, SMALLEST_NORMAL, exclude_max=True),
    st.floats(1e-300, 1.7e308),
    st.floats(math.log(1e-300), math.log(1.7e308)).map(math.exp),
)


@st.composite
def points(draw):
    nu = draw(st.floats(1e-2, 1e2))
    params = validate(
        SystemParams(
            omega=draw(st.floats(-1e3, 1e3)),
            omega_c=draw(st.floats(-1e3, 1e3)),
            xi=draw(st.floats(1e-3, 1e3)),
            g=draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0))),
            n_cavities=draw(st.sampled_from((1, 2, 3, 41))),
            drive_amp=draw(st.floats(0.0, 50.0)) * nu,
            drive_freq=nu,
        )
    )
    return params, draw(st.integers(-2, 2))


def _outcome(compute):
    # The value, or None for a typed refusal; any other exception fails the test.
    try:
        return compute()
    except FloquetZenoError:
        return None


DEFAULTS = validate(SystemParams(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0))
STRONG = dataclasses.replace(DEFAULTS, g=10.0)
# One cavity exactly on resonance: R(t) = t g^2 grows without bound.
RESONANT = validate(SystemParams(omega=-1e3, omega_c=1e3, xi=1e3, g=10.0, n_cavities=1, drive_amp=0.0, drive_freq=1.0))
# delta = 1e308 and nu = 0.9e308: at n = -1 every detuning is finite, about
# 1e307, though |delta| + 2 xi + |n nu| overflows.
FAR = validate(dataclasses.replace(DEFAULTS, omega_c=DEFAULTS.omega + 1e308, drive_amp=0.9e308, drive_freq=0.9e308))


@pytest.mark.filterwarnings("ignore:perturbative P_e up to")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(point=points(), times=st.lists(TIMES, min_size=1, max_size=5, unique=True).map(sorted))
@example(point=(DEFAULTS, 0), times=[0.0, 1.0, 1e154, 1e308])  # t^2 overflows at 1e308, x^2 at 1e154
@example(point=(DEFAULTS, 0), times=[0.0])
@example(point=(STRONG, 0), times=[1e153])  # |C_e|^2 past the float range
@example(point=(RESONANT, 0), times=[1e100, 1e160])  # R(t) t past the float range
@example(point=(RESONANT, 0), times=[1e307, 1.7e308])  # R(t) past the float range
@example(point=(FAR, -1), times=[100.0])  # detuning * t overflows at every mode
def test_time_kernels_give_finite_values_or_a_typed_error(point, times):
    params, n = point
    grid = build_grid(params)
    later = [t for t in times if t > 0.0]
    if later:
        curve = _outcome(lambda: decay_curve(params, grid, n, later))
        for i, t in enumerate(later):
            rate = _outcome(lambda: decay_rate_finite(params, grid, n, t))
            if rate is not None:
                assert math.isfinite(rate) and rate >= 0.0, (t, rate)
            if curve is not None:
                assert rate is not None and np.float64(rate).tobytes() == curve.rates[i].tobytes(), (t, rate)
    for method in ("perturbative", "exponential"):
        curve = _outcome(lambda: survival_curve(params, grid, n, times, method))
        if curve is None:
            continue
        assert np.all((curve.probabilities >= 0.0) & (curve.probabilities <= 1.0)), curve.probabilities
        for t, p in zip(times, curve.probabilities):
            assert np.float64(survival_probability(params, grid, n, t, method)).tobytes() == p.tobytes(), (t, method)
    for t in times:
        amplitude = _outcome(lambda: survival_amplitude(params, grid, n, t))
        if amplitude is not None:
            assert math.isfinite(amplitude.real) and math.isfinite(amplitude.imag), (t, amplitude)


def test_far_detunings_take_the_scaled_rows():
    # Each detuning * t overflows at t = 100, so every term is its phase
    # average; the curve row is decay_rate_finite's, bit for bit.
    grid = build_grid(FAR)
    rate = decay_rate_finite(FAR, grid, -1, 100.0)
    assert np.float64(rate).tobytes() == decay_curve(FAR, grid, -1, [100.0]).rates[0].tobytes()
    probs = survival_curve(FAR, grid, -1, [0.0, 100.0], "exponential").probabilities
    assert probs.tolist() == [1.0, math.exp(-rate * 100.0)]
