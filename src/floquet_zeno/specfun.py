"""Bessel functions of the first kind for integer order, self-contained.

The drive enters every coupling in this package through J_n(chi), and the
dynamical-decoupling points sit at the roots of J_n, so these routines are
implemented here from scratch rather than pulled from a special-function
library: the decoupling tests must not be tautological against the same
code that produced the expected values.

Algorithms:
  * |x| < 1e-8: the leading term (x/2)^n / n!, built as a running product
    so large orders underflow cleanly to zero; the next term is smaller
    by (x/2)^2 / (n+1) < 2.5e-17, below double-precision resolution.
  * every larger |x|: Miller's downward recurrence (DLMF 3.6(iii)) from a
    padded start order, normalized with the linear sum rule
    J_0(x) + 2*sum_m J_{2m}(x) = 1, which also fixes the overall sign.
    Below 1e-8 its step factor 2m/x would overflow the rescaling.
  * a column J_n(x_i) at one order (a sweep's): the same two branches run
    over the array, bit for bit the scalar values.
  * roots: sign-change bracketing on a 0.1 grid from x = n, then bisection.

Absolute error is at most 2e-15 for |x| <= 50 (all |n| <= 1024) and
5e-14 for 50 < |x| <= 2000 (|n| <= 200), measured against
scipy.special.jv, which tests/test_specfun.py uses as a test-only reference.
"""

import math

import numpy as np

from .errors import ArgumentOutOfRange, InvalidArgument, NumericalError, OrderTooLarge

MAX_ORDER = 1024
MAX_ARGUMENT = 1.0e6
# Below this |x| the leading series term is J_n(x) to double precision.
TINY_ARGUMENT = 1.0e-8

# Rescaling threshold for the downward recurrence; iterates grow roughly
# like (2m/x)^(m) above the turning point and would overflow without it.
_RESCALE_AT = 1.0e250
_RESCALE_BY = 1.0e-250
# One step of the array recurrence costs about this many steps of _miller's
# loop (about 8 us against 0.2 us on a 2-core VM, numpy 2.4).
_ARRAY_STEP = 40


def _start_order(top: int) -> int:
    # Miller's start order, padded well above the turning point top = max(n, int(x)).
    return top + int(math.sqrt(40.0 * top)) + 20


def _miller(n: int, x: float) -> float:
    # Downward recurrence J_{m-1} = (2m/x) J_m - J_{m+1} seeded with an
    # arbitrary tiny value well above the turning point max(n, x).
    start = _start_order(max(n, int(x)))
    j_up = 0.0
    j = 1e-30
    norm = 0.0
    captured = 0.0
    have = False
    for m in range(start, 0, -1):
        j_dn = (2.0 * m / x) * j - j_up
        j_up, j = j, j_dn
        order = m - 1
        if order == n:
            captured = j
            have = True
        if order % 2 == 0:
            norm += j if order == 0 else 2.0 * j
        if abs(j) > _RESCALE_AT:
            j *= _RESCALE_BY
            j_up *= _RESCALE_BY
            norm *= _RESCALE_BY
            if have:
                captured *= _RESCALE_BY
    return captured / norm


def _miller_column(n: int, x: np.ndarray) -> np.ndarray:
    # _miller(n, x_i) for n >= 0 and each x_i >= TINY_ARGUMENT, entries sorted
    # by start order, largest first. The leading entries whose steps would run
    # with few others begun take _miller's loop instead: `alone` minimizes
    # the array steps, each worth _ARRAY_STEP scalar ones, plus their own steps.
    tops, level = np.unique(np.maximum(n, x.astype(np.int64)), return_inverse=True)
    starts = np.array([_start_order(int(top)) for top in tops])[level]
    by_start = np.argsort(-starts, kind="stable")
    x, starts = x[by_start], starts[by_start]
    ahead = np.concatenate(([0], np.cumsum(starts)))
    alone = int(np.argmin(_ARRAY_STEP * np.append(starts, 0) + ahead))
    out = np.empty(x.size)
    out[by_start[:alone]] = [_miller(n, value) for value in x[:alone].tolist()]
    if alone < x.size:
        out[by_start[alone:]] = _miller_array(n, x[alone:], starts[alone:].tolist())
    return out


def _miller_array(n: int, x: np.ndarray, starts: list[int]) -> np.ndarray:
    # _miller's loop over an array, step for step the same arithmetic, with
    # starts falling. The entries begun at step m are a prefix, so the work is
    # the sum of the start orders. Each start order exceeds n + 1, so every
    # entry has begun when order n is captured.
    j, j_up, step, norm = np.empty(x.size), np.empty(x.size), np.empty(x.size), np.zeros(x.size)
    captured = None
    active = 0
    for m in range(starts[0], 0, -1):
        begun = active
        while active < x.size and starts[active] >= m:
            active += 1
        if active > begun:
            j[begun:active], j_up[begun:active] = 1e-30, 0.0
        jm, up, factor = j[:active], j_up[:active], step[:active]
        np.divide(2.0 * m, x[:active], out=factor)
        np.multiply(factor, jm, out=factor)
        np.subtract(factor, up, out=up)
        j, j_up = j_up, j  # the new J_{m-1} was written over J_{m+1}
        jm, up = j[:active], j_up[:active]
        order = m - 1
        if order == n:
            captured = jm.copy()
        if order % 2 == 0:
            norm[:active] += jm if order == 0 else 2.0 * jm
        if jm.max() > _RESCALE_AT or jm.min() < -_RESCALE_AT:
            big = np.abs(jm) > _RESCALE_AT
            jm[big] *= _RESCALE_BY
            up[big] *= _RESCALE_BY
            norm[:active][big] *= _RESCALE_BY
            if captured is not None:
                captured[big] *= _RESCALE_BY
    return captured / norm


def _checked(n, x) -> tuple[int, float]:
    """(n, x) as an int and a float, or the error bessel_j(n, x) raises for them."""
    if not n % 1 == 0:
        raise InvalidArgument(f"Bessel order must be an integer, got {n!r}")
    n = int(n)
    if abs(n) > MAX_ORDER:
        raise OrderTooLarge(f"|n| = {abs(n)} exceeds ceiling {MAX_ORDER}")
    x = float(x)
    if not abs(x) <= MAX_ARGUMENT:
        raise ArgumentOutOfRange(f"|x| = {abs(x)!r} exceeds ceiling {MAX_ARGUMENT:g}")
    return n, x


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n, |n| <= 1024, |x| <= 1e6.

    Uses J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x) to reduce
    to n >= 0, x >= 0.
    """
    n, x = _checked(n, x)
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -sign
    if x < TINY_ARGUMENT:
        term = 1.0
        for k in range(1, n + 1):
            term *= 0.5 * x / k
        return sign * term
    return sign * _miller(n, x)


def _bessel_column(n: int, x: np.ndarray) -> np.ndarray:
    """bessel_j(n, x_i) for each entry of a float array, bit for bit, where _checked passed n and each x_i.

    Entries below TINY_ARGUMENT (zero included) take the series branch, the
    rest one Miller recurrence over the array.
    """
    negative = x < 0.0
    x = np.where(negative, -x, x)
    sign = np.ones(x.size)
    if n % 2:
        sign[negative] = -1.0
        if n < 0:
            sign = -sign
    n = abs(n)
    out = np.empty(x.size)
    tiny = x < TINY_ARGUMENT
    if tiny.any():
        half, term = 0.5 * x[tiny], np.ones(np.count_nonzero(tiny))
        for k in range(1, n + 1):
            term *= half / k
        out[tiny] = term
    if not tiny.all():
        out[~tiny] = _miller_column(n, x[~tiny])
    return sign * out


def bessel_j_zero(n: int, k: int) -> float:
    """k-th positive root of J_n, n >= 0, k >= 1.

    Brackets by sampling J_n at step 0.1, then bisects to an interval width
    of 1e-12. The scan starts at x = 0.05 for n = 0 and at x = n for n >= 1:
    J_n has no positive root at or below n, and the trivial zero at the
    origin is not counted.
    """
    n = int(n)
    if n < 0 or n > MAX_ORDER:
        raise OrderTooLarge(f"root order must be in [0, {MAX_ORDER}], got {n}")
    if not (k >= 1 and k % 1 == 0):
        raise InvalidArgument(f"root index must be an integer >= 1, got {k}")
    step = 0.1
    x_prev = max(0.05, float(n))
    f_prev = bessel_j(n, x_prev)
    found = 0
    x = x_prev
    # First root of J_n lies below n + 2 n^(1/3) + 3; successive roots are
    # separated by less than pi + 1, so this ceiling cannot be hit first.
    limit = n + 2.0 * n ** (1.0 / 3.0) + 3.0 + (k + 1) * (math.pi + 1.0)
    while x < limit:
        x = x_prev + step
        f = bessel_j(n, x)
        if (f_prev < 0.0) != (f < 0.0):
            found += 1
            if found == k:
                return _bisect(n, x_prev, x, f_prev)
        x_prev, f_prev = x, f
    raise NumericalError(f"root {k} of J_{n} not found below {limit:g}")  # pragma: no cover


def _bisect(n: int, lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = bessel_j(n, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def sinc(x: float) -> float:
    """sin(x)/x with the removable singularity filled in.

    Series branch below 1e-4 keeps the value smooth through x = 0.
    """
    x = float(x)
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x
