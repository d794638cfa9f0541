"""Bessel implementation against frozen series oracles and scipy cross-checks.

Frozen literals were produced by an independent 30-term ascending series
(and 60-term bisection for roots) written separately from the package
code. scipy.special is never the source of a frozen value; it is the
test-only reference for the documented absolute error bound, which the
property tests below check over the advertised domain.
"""

import math
import random

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floquet_zeno import specfun
from floquet_zeno.errors import ArgumentOutOfRange, InvalidArgument, OrderTooLarge
from floquet_zeno.specfun import MAX_ORDER, _bessel_column, _checked, bessel_j, bessel_j_zero, sinc

# 30-term ascending series, summed independently of the package.
SERIES_ORACLE = {
    (0, 1.0): 0.7651976865579666,
    (1, 1.0): 0.44005058574493355,
    (2, 1.0): 0.11490348493190047,
    (1, 1.8): 0.5815169517311651,
    (1, 2.0): 0.5767248077568736,
    (0, 2.4): 0.00250768329724386,
}

# Bisection on the independent series evaluation.
ROOT_ORACLE = {
    (0, 1): 2.4048255576957733,
    (0, 2): 5.5200781102863115,
    (1, 1): 3.8317059702075125,
}


def test_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


@pytest.mark.parametrize("key", sorted(SERIES_ORACLE))
def test_series_oracle_values(key):
    n, x = key
    assert bessel_j(n, x) == pytest.approx(SERIES_ORACLE[key], abs=1e-13)


def test_first_root_of_j0_is_a_zero():
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
@pytest.mark.parametrize("x", [0.3, 1.0, 5.0, 11.9, 12.1, 20.0, 35.0, 50.0, 200.0, 1000.0])
def test_dual_route_against_scipy(n, x):
    assert bessel_j(n, x) == pytest.approx(scipy.special.jv(n, x), abs=1e-12)


# Orders: mostly small, where J_n(x) is not negligible, plus the full range.
ORDERS = st.one_of(st.integers(-40, 40), st.integers(-MAX_ORDER, MAX_ORDER))
# |x| <= 50, with tiny and subnormal arguments drawn on purpose.
NEAR_ARGUMENTS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-1e-6, 1e-6),
    st.sampled_from([5e-324, -5e-324, 1e-300, 1e-100, 1e-8, 9.999999999999999e-9]),
)
FAR_ARGUMENTS = st.one_of(st.floats(50.0, 2000.0, exclude_min=True), st.floats(-2000.0, -50.0, exclude_max=True))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(n=ORDERS, x=NEAR_ARGUMENTS)
@example(n=0, x=11.0)
@example(n=3, x=9.5)
@example(n=MAX_ORDER, x=50.0)
def test_absolute_error_bound_up_to_50(n, x):
    assert abs(bessel_j(n, x) - scipy.special.jv(n, x)) <= 2e-15


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(-200, 200), x=FAR_ARGUMENTS)
@example(n=0, x=2000.0)
@example(n=200, x=-1999.5)
def test_absolute_error_bound_up_to_2000(n, x):
    assert abs(bessel_j(n, x) - scipy.special.jv(n, x)) <= 5e-14


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-100])
def test_tiny_and_subnormal_arguments(x):
    # 0.5 * 5e-324 underflows to 0; J_0 is still exactly 1.
    assert bessel_j(0, x) == 1.0
    assert bessel_j(0, -x) == 1.0
    for n in (1, 2, 7, 1024, -3):
        value = bessel_j(n, x)
        assert math.isfinite(value) and abs(value) <= x


@pytest.mark.parametrize("x", [0.5, 2.0, 5.0, 10.0])
def test_sum_rule(x):
    total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(n, x) ** 2 for n in range(1, 41))
    assert abs(total - 1.0) <= 1e-10


@pytest.mark.parametrize("x", [0.5, 1.0, 3.7, 8.0, 12.5, 20.0])
def test_recurrence_residual(x):
    for n in range(-20, 21):
        residual = bessel_j(n - 1, x) + bessel_j(n + 1, x) - (2.0 * n / x) * bessel_j(n, x)
        assert abs(residual) <= 1e-9


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8])
@pytest.mark.parametrize("x", [0.7, 4.2, 15.0])
def test_parity(n, x):
    assert bessel_j(n, -x) == (-1.0) ** n * bessel_j(n, x)
    assert bessel_j(-n, x) == (-1.0) ** n * bessel_j(n, x)


def _column_draws(rng: random.Random) -> dict:
    """Seeded (n, x) draws by order over every bessel_j branch, a few past its order or argument ceiling."""
    draws = {}
    for _ in range(48):
        n = rng.choice([rng.randint(-40, 40), rng.randint(-MAX_ORDER, MAX_ORDER)])
        draws[n] = [
            0.0, -0.0, rng.choice([5e-324, -5e-324, 1e-310]), rng.uniform(-1e-8, 1e-8),
            rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0), rng.uniform(-2000.0, 2000.0),
        ]
    for _ in range(8):  # the rescaling region: a large order at a small argument
        draws[rng.choice((-1, 1)) * rng.randint(300, MAX_ORDER)] = [rng.uniform(1e-8, 10.0) for _ in range(6)]
    # Columns long enough for the array recurrence, one of them in the rescaling region.
    for n, top in ((rng.randint(-3, 3), 50.0), (rng.randint(-40, 40), 20.0), (rng.randint(300, 400), 10.0)):
        draws[n] = [0.0, 1e-9] + [rng.uniform(-top, top) for _ in range(80)]
    # Sweep-sized columns on both sides of the switch from _miller's loop to the array recurrence.
    for n, size in ((1, 20), (2, 50), (-3, 400)):
        draws[n] = [rng.uniform(0.0, 5.0) for _ in range(size)]
    draws.setdefault(rng.randint(-40, 40), []).append(rng.choice((-1, 1)) * rng.uniform(1e5, 1e6))
    draws.setdefault(0, []).extend([rng.choice((-1e6, 1e6)), 1.0000001e6, math.inf, math.nan])
    draws[MAX_ORDER + 1] = [1.0]
    draws[-MAX_ORDER - 1 - rng.randint(0, 1000)] = [0.0, 2.0]
    return draws


@pytest.mark.parametrize("seed", [3, 17])
def test_column_equals_scalar_bit_for_bit(seed):
    # A sweep checks each point as bessel_j would, then evaluates each order's
    # checked points as one column; values, signed zeros and errors must match.
    for n, xs in _column_draws(random.Random(seed)).items():
        checked, scalar = [], []
        for x in xs:
            try:
                expected = bessel_j(n, x)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    _checked(n, x)
                continue
            assert _checked(n, x) == (n, x)
            checked.append(x)
            scalar.append(expected)
        if checked:
            column = _bessel_column(n, np.array(checked))
            assert column.tobytes() == np.array(scalar).tobytes(), (n, checked)


def test_column_runs_a_lone_large_argument_by_itself(monkeypatch):
    # The array recurrence steps over the entries begun, so one entry with a
    # far larger start order runs alone in the scalar loop instead of making
    # the array take its million steps.
    arrays = []
    real = specfun._miller_array

    def recorded(n, x, starts):
        arrays.append((x.size, starts[0]))
        return real(n, x, starts)

    monkeypatch.setattr(specfun, "_miller_array", recorded)
    x = np.append(np.linspace(0.0, 5.0, 101), 1e6)
    column = _bessel_column(1, x)
    [(size, start)] = arrays  # of the 100 entries past the series branch, with start orders up to 39
    assert size >= 90 and start <= 39
    assert column[-1] == bessel_j(1, 1e6)


def test_large_order_underflows_to_zero():
    assert bessel_j(1024, 1.0) == 0.0
    assert bessel_j(500, 30.0) == 0.0


@pytest.mark.parametrize("key", sorted(ROOT_ORACLE))
def test_root_oracle_values(key):
    n, k = key
    root = bessel_j_zero(n, k)
    expected = ROOT_ORACLE[key]
    assert abs(root - expected) / expected <= 1e-10
    assert abs(bessel_j(n, root)) <= 1e-10


@pytest.mark.parametrize("n", [150, 200])
@pytest.mark.parametrize("k", [1, 2])
def test_large_order_roots_against_scipy(n, k):
    # J_n(x) underflows to 0.0 for x well below its first root; those
    # stretches are not roots. The bisection stops at a width of 1e-12.
    assert bessel_j_zero(n, k) == pytest.approx(scipy.special.jn_zeros(n, k)[-1], abs=1e-12)


@pytest.mark.parametrize("n", [1, 5, 50, 150])
def test_root_scan_from_x_equal_n(n):
    # J_n has no positive root at or below n, so the scan starts there.
    assert bessel_j(n, float(n)) > 0.0
    for k in (1, 2):
        assert bessel_j_zero(n, k) == pytest.approx(scipy.special.jn_zeros(n, k)[-1], abs=1e-12)


def test_second_j0_root_bracket():
    root = bessel_j_zero(0, 2)
    assert 5.0 < root < 6.0


def test_roots_interlace():
    # Roots of J_0 and J_1 alternate; a cheap structural sanity check.
    j0_roots = [bessel_j_zero(0, k) for k in (1, 2, 3)]
    j1_roots = [bessel_j_zero(1, k) for k in (1, 2)]
    assert j0_roots[0] < j1_roots[0] < j0_roots[1] < j1_roots[1] < j0_roots[2]


def test_order_ceiling():
    with pytest.raises(OrderTooLarge):
        bessel_j(1025, 1.0)
    with pytest.raises(OrderTooLarge):
        bessel_j(-1025, 1.0)
    with pytest.raises(OrderTooLarge):
        bessel_j_zero(-1, 1)
    with pytest.raises(OrderTooLarge):
        bessel_j_zero(1025, 1)


def test_argument_ceiling():
    with pytest.raises(ArgumentOutOfRange):
        bessel_j(0, 1.1e6)
    with pytest.raises(ArgumentOutOfRange):
        bessel_j(0, float("nan"))


def test_order_must_be_an_integer():
    # int(1.5) would silently give J_1; nan and inf name no order.
    for n in (1.5, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument):
            bessel_j(n, 1.0)
    assert bessel_j(2.0, 1.0) == bessel_j(2, 1.0)


def test_root_index_must_be_positive():
    # A non-integral or non-finite k names no root (k = inf never ends the scan).
    for k in (0, -1, 1.5, math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            bessel_j_zero(0, k)


def test_sinc():
    assert sinc(0.0) == 1.0
    assert sinc(2.0) == math.sin(2.0) / 2.0
    assert sinc(1e-5) == pytest.approx(1.0 - 1e-10 / 6.0, abs=1e-18)
    # continuity across the series branch boundary
    assert sinc(1.0001e-4) == pytest.approx(sinc(0.9999e-4), abs=1e-12)
