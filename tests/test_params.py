"""Parameter validation, derived quantities, sideband choice, config parsing."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from floquet_zeno.errors import (
    ConfigError,
    InvalidArgument,
    Negative,
    NonFinite,
    NonPositive,
    OrderTooLarge,
    SizeTooLarge,
    ZeroCavities,
)
from floquet_zeno.params import (
    SystemParams,
    check_size,
    default_sideband,
    from_mapping,
    nearest_sideband,
    parse_config,
    resonant_sidebands,
    validate,
)


def make(**overrides) -> SystemParams:
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields.update(overrides)
    return SystemParams(**fields)


def test_check_size_admits_its_ceiling_and_refuses_one_more():
    assert check_size("rows", 7, 7) == 7
    with pytest.raises(SizeTooLarge, match=r"^rows = 8 exceeds the ceiling 7$"):
        check_size("rows", 8, 7)


def test_derived_fields():
    p = validate(make())
    assert p.delta == 1.0
    assert p.chi == 1.0
    assert p.period == pytest.approx(2.0 * math.pi / 6.0, rel=1e-15)


def test_chi_definition():
    p = validate(make(drive_amp=2.4, drive_freq=1.0))
    assert p.chi == 2.4


def test_validate_is_idempotent():
    p = make()
    assert validate(validate(p)) is validate(p)


def test_nonpositive_fields():
    with pytest.raises(NonPositive) as exc:
        validate(make(xi=0.0))
    assert exc.value.field == "xi"
    assert str(exc.value) == "xi must be > 0, got 0.0"
    with pytest.raises(NonPositive):
        validate(make(drive_freq=0.0))
    with pytest.raises(NonPositive):
        validate(make(xi=-1.0))


def test_negative_fields():
    with pytest.raises(Negative) as exc:
        validate(make(g=-0.1))
    assert str(exc.value) == "g must be >= 0, got -0.1"
    with pytest.raises(Negative):
        validate(make(drive_amp=-2.0))


def test_non_finite_fields():
    with pytest.raises(NonFinite) as exc:
        validate(make(omega=math.inf))
    assert exc.value.field == "omega"
    assert str(exc.value) == "omega must be finite, got inf"
    with pytest.raises(NonFinite):
        validate(make(g=math.nan))


def test_zero_cavities():
    with pytest.raises(ZeroCavities) as exc:
        validate(make(n_cavities=0))
    assert str(exc.value) == "n_cavities must be >= 1, got 0"


def test_zero_coupling_and_drive_are_allowed():
    p = validate(make(g=0.0, drive_amp=0.0))
    assert p.chi == 0.0


@pytest.mark.parametrize(
    "delta, nu, expected",
    [
        (1.0, 10.0, 0),
        (9.0, 10.0, -1),
        (5.0, 10.0, 0),  # tie with n = -1; smaller |n| wins
        (-5.0, 10.0, 0),  # mirrored tie
        (3.0, 6.0, 0),  # tie with n = -1; smaller |n| wins
        (-9.0, 10.0, 1),
        (14.0, 6.0, -2),
    ],
)
def test_default_sideband(delta, nu, expected):
    p = validate(make(omega=0.0, omega_c=delta, drive_freq=nu, drive_amp=0.0))
    assert default_sideband(p) == expected


@pytest.mark.parametrize("delta", [-7.3, -2.0, 0.0, 0.49, 3.01, 11.7])
@pytest.mark.parametrize("nu", [1.0, 3.7, 6.0])
def test_default_sideband_folds_into_half_window(delta, nu):
    p = validate(make(omega=0.0, omega_c=delta, drive_freq=nu, drive_amp=0.0))
    n = default_sideband(p)
    assert abs(delta + n * nu) <= nu / 2.0 + 1e-12


SUBNORMAL = 5e-324
HUGE = 1.7e308


REFUSED_NU = st.sampled_from((0.0, -0.0, -1.0, math.inf, -math.inf, math.nan))


@given(st.lists(st.tuples(st.floats(), st.one_of(st.floats(SUBNORMAL, HUGE), REFUSED_NU)), min_size=1, max_size=12))
@example([(-(k + 0.5) * nu, nu) for nu in (6.0, 1.0, 0.5) for k in range(-3, 3)])  # exact ties
@example([(0.0, 6.0), (-0.0, 6.0), (0.0, SUBNORMAL), (-0.0, HUGE)])
@example([(-(2.0**52 - 0.5), 1.0), (2.0**52 + 1.0, 1.0), (-(2.0**53 + 2.0), 1.0), (2.0**53 + 6.0, 1.0),
          (-(2.0**52) * 3.0, 3.0), (2.0**60 + 2.0**8, 0.7), (-1e300, 1.0)])  # |-delta / nu| near and past 2**52
@example([(2.5e-323, 1e-323), (-2.5e-323, 1e-323), (1e-320, SUBNORMAL)])  # subnormal nu, a tie among them
@example([(8.5e307, HUGE), (-8.5e307, HUGE), (1e308, HUGE), (-HUGE, HUGE)])  # n nu overflows beside the nearest
@example([(1.0, 6.0), (1e300, 1e-300)])  # the ratio overflows: OrderTooLarge for the entry, nan in the column
# A nu that validate refuses: InvalidArgument for the entry, nan in the column, beside entries that pass.
@example([(1.0, 0.0)])
@example([(1.0, -0.0)])
@example([(0.0, -1.0)])
@example([(1.0, math.inf)])
@example([(math.inf, math.inf)])
@example([(1.0, math.nan)])
@example([(math.nan, 6.0), (math.inf, 6.0), (-math.inf, 1.0)])  # delta is not finite: OrderTooLarge
@example([(1.0, 6.0), (1e300, 1e-300), (1.0, 0.0)])
@example([(1.0, 6.0), (1.0, math.nan), (1e300, 1e-300)])
def test_nearest_sideband_over_columns_is_the_one_point_rule_entry_by_entry(pairs):
    # A column entry is nan exactly where the one-point call raises, and the column call raises nothing.
    delta, nu = np.array(pairs).T
    expected = []
    for d, v in pairs:
        try:
            expected.append(float(nearest_sideband(d, v)))
        except (InvalidArgument, OrderTooLarge):
            expected.append(math.nan)
    orders = nearest_sideband(delta, nu)
    assert orders.dtype == float and np.array_equal(orders, expected, equal_nan=True)
    assert np.array_equal(nearest_sideband(delta.reshape(1, -1), nu.reshape(1, -1)), [expected], equal_nan=True)


@pytest.mark.parametrize(
    "delta, nu, expected",
    [
        (1.0, 6.0, [0]),
        (3.0, 6.0, []),
        (2.0, 6.0, []),  # |delta| = 2 xi is the band edge, not inside the band
        (1.4, 3.0, [-1, 0]),
        (1.0, 1.0, [-2, -1, 0]),
        (-1.0, 0.5, [-1, 0, 1, 2, 3, 4, 5]),
    ],
)
def test_resonant_sidebands(delta, nu, expected):
    p = validate(make(omega=0.0, omega_c=delta, drive_freq=nu))
    assert list(resonant_sidebands(p)) == expected


def test_resonant_sidebands_for_a_tiny_drive_frequency():
    # (-2 xi - delta) / nu = -3e308 overflows; the range stays finite.
    orders = resonant_sidebands(validate(make(drive_freq=1e-308)))
    assert 0 in orders and -(10**307) in orders and 2 * 10**308 not in orders


def test_parse_config_roundtrip():
    text = """
# reference parameters
omega = 2.0
omega_c = 3.0
xi = 1.0
g = 0.25

n_cavities = 41
drive_amp = 6.0
drive_freq = 6.0
"""
    fields = parse_config(text)
    p = from_mapping(fields)
    assert p.n_cavities == 41
    assert isinstance(p.n_cavities, int)
    assert p.delta == 1.0


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("omega = 2.0\ncoupling = 0.3\n")


def test_parse_config_rejects_bad_syntax():
    with pytest.raises(ConfigError):
        parse_config("omega 2.0\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("omega = two\n")
    with pytest.raises(ConfigError):
        parse_config("n_cavities = 41.5\n")


def test_from_mapping_requires_all_fields():
    with pytest.raises(ConfigError):
        from_mapping({"omega": 2.0})


def test_from_mapping_rejects_extras():
    fields = dict(omega=2.0, omega_c=3.0, xi=1.0, g=0.25, n_cavities=41, drive_amp=6.0, drive_freq=6.0)
    fields["extra"] = 1.0
    with pytest.raises(ConfigError):
        from_mapping(fields)
