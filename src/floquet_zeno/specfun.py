"""Bessel functions of the first kind for integer order, self-contained.

The drive enters every coupling in this package through J_n(chi), and the
dynamical-decoupling points sit at the roots of J_n, so these routines are
implemented here from scratch rather than pulled from a special-function
library: the decoupling tests must not be tautological against the same
code that produced the expected values.

Algorithms:
  * |x| <= 12: ascending power series, first term evaluated in log space
    so large orders underflow cleanly to zero instead of overflowing the
    factorial.
  * |x| > 12: Miller's downward recurrence from a padded start order,
    normalized with the linear sum rule J_0(x) + 2*sum_m J_{2m}(x) = 1,
    which also fixes the overall sign.
  * roots: sign-change bracketing on a 0.1 grid, then bisection.

Absolute error is at or below ~5e-13 for |x| <= 50 (dominated by roundoff
of the largest series term near the |x| = 12 crossover).
"""

import math

from .errors import ArgumentOutOfRange, InvalidArgument, NumericalError, OrderTooLarge

MAX_ORDER = 1024
MAX_ARGUMENT = 1.0e6

# Rescaling threshold for the downward recurrence; iterates grow roughly
# like (2m/x)^(m) above the turning point and would overflow without it.
_RESCALE_AT = 1.0e250
_RESCALE_BY = 1.0e-250


def _series(n: int, x: float) -> float:
    # Ascending series sum_m (-1)^m (x/2)^(n+2m) / (m! (n+m)!), n >= 0,
    # 0 < x <= 12. Terms are generated multiplicatively; fsum removes the
    # summation roundoff that would otherwise dominate near the crossover.
    log_t0 = n * math.log(0.5 * x) - math.lgamma(n + 1.0)
    if log_t0 < -760.0:
        # First term underflows; remaining terms cannot lift the sum back
        # above the double-precision floor for x <= 12.
        return 0.0
    term = math.exp(log_t0)
    terms = [term]
    running = term
    q = 0.25 * x * x
    for m in range(1, 400):
        term *= -q / (m * (n + m))
        terms.append(term)
        running += term
        if abs(term) <= 1e-18 * max(abs(running), 1e-300):
            break
    return math.fsum(terms)


def _miller(n: int, x: float) -> float:
    # Downward recurrence J_{m-1} = (2m/x) J_m - J_{m+1} seeded with an
    # arbitrary tiny value well above the turning point max(n, x).
    top = max(n, int(x))
    start = top + int(math.sqrt(40.0 * top)) + 20
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


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n, |n| <= 1024, |x| <= 1e6.

    Uses J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x) to reduce
    to n >= 0, x >= 0.
    """
    n = int(n)
    if abs(n) > MAX_ORDER:
        raise OrderTooLarge(f"|n| = {abs(n)} exceeds ceiling {MAX_ORDER}")
    x = float(x)
    if not abs(x) <= MAX_ARGUMENT:
        raise ArgumentOutOfRange(f"|x| = {abs(x)!r} exceeds ceiling {MAX_ARGUMENT:g}")
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -sign
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= 12.0:
        return sign * _series(n, x)
    return sign * _miller(n, x)


def bessel_j_zero(n: int, k: int) -> float:
    """k-th positive root of J_n, n >= 0, k >= 1.

    Brackets by sampling J_n at step 0.1 starting just above x = 0 (the
    trivial zero of J_n at the origin for n >= 1 is not counted), then
    bisects to an interval width of 1e-12.
    """
    n = int(n)
    if n < 0 or n > MAX_ORDER:
        raise OrderTooLarge(f"root order must be in [0, {MAX_ORDER}], got {n}")
    if not (k >= 1 and k % 1 == 0):
        raise InvalidArgument(f"root index must be an integer >= 1, got {k}")
    step = 0.1
    x_prev = 0.05
    f_prev = bessel_j(n, x_prev)
    found = 0
    x = x_prev
    # First root of J_n lies below n + 2 n^(1/3) + 3; successive roots are
    # separated by less than pi + 1, so this ceiling cannot be hit first.
    limit = n + 2.0 * n ** (1.0 / 3.0) + 3.0 + (k + 1) * (math.pi + 1.0)
    while x < limit:
        x = x_prev + step
        f = bessel_j(n, x)
        if f == 0.0:
            found += 1
            if found == k:
                return x
            x_prev, f_prev = x + 1e-6, bessel_j(n, x + 1e-6)
            continue
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
