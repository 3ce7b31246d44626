"""Special functions needed by the closed-form network expressions.

Everything here is pure, self-contained and scalar in stdlib ``math``. Each
function documents its accuracy target; the test suite checks them against
independent brute-force oracles.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "DomainError",
    "zeta",
    "hurwitz_zeta",
    "lambert_w0",
    "li2",
    "exp_integral_e1",
    "exp_integral_e1_imag",
    "exp_integral_e1_imag_scaled",
    "lower_incomplete_gamma",
    "gamma_fn",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015328606


class DomainError(ValueError):
    """Argument outside the mathematical domain of a function."""


# Bernoulli numbers B_2, B_4, ... B_12 for the Euler-Maclaurin tail.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def zeta(s: float) -> float:
    """Riemann zeta function for real s > 1 (hurwitz_zeta(s, 1)), computed once per
    float(s) for the last 64 values of s."""
    return _zeta(float(s))


@functools.lru_cache(maxsize=64)
def _zeta(s: float) -> float:
    return hurwitz_zeta(s, 1)


def hurwitz_zeta(s: float, n: int, scaled: bool = False) -> float:
    """Hurwitz zeta sum_{i>=n} i^-s for real s > 1 and integer n >= 1, or with
    `scaled` n^s times it, sum_{i>=n} (i/n)^-s, which stays in the float
    range where zeta(s, n) underflows.

    Direct sum up to i = N - 1, N = max(n, 25 (60 when s < 2), 2s), plus
    an Euler-Maclaurin correction at N; the neglected remainder is below
    1e-14 relative (worst seen 8e-15 against direct sums to 40 digits).
    """
    if not s > 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"hurwitz_zeta requires an integer n >= 1, got {n}")
    # The sum is its first term where the second underflows, (n+1)^-s <= 2^-1075,
    # or (scaled) is below e^-64 of it; a huge s then does not sum 2s terms.
    if s * math.log1p(1.0 / n) > 64.0 if scaled else s > 1075:
        return 1.0 if scaled else n ** -s
    unit = n if scaled else 1.0  # every power is taken of i / unit
    big = max(n, 25 if s >= 2 else 60, math.ceil(2.0 * s))
    total = sum((k / unit) ** -s for k in range(n, big))
    # Euler-Maclaurin: integral term, half term, and B_2j corrections.
    total += (big / unit) ** (1 - s) * unit / (s - 1) + 0.5 * (big / unit) ** -s
    rising = s  # s (s+1) ... (s+2j-2)
    fact = 1.0  # (2j)!
    power = (big / unit) ** (-s - 1) / unit
    for j, b in enumerate(_BERNOULLI, start=1):
        fact *= (2 * j - 1) * (2 * j)
        term = b / fact * rising * power
        total += term
        if abs(term) < 1e-17 * total:
            break
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= big * big
    return total


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, x >= -1/e.

    Halley iteration from a branch-aware initial guess; converges to
    ~1e-14 relative in a handful of steps.
    """
    branch_point = -1.0 / math.e
    if x < branch_point:
        # Tolerate representation noise right at the branch point.
        if x > branch_point - 1e-14:
            return -1.0
        raise DomainError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    # Initial guess.
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    elif x < 1.0:
        w = x * (1.0 - x + 1.5 * x * x) / (1.0 + 0.5 * x)
    else:
        w = math.log(x)
        if w > 1.0:
            w -= math.log(w)
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0) if w != -1.0 else ew
        w_next = w - f / denom
        if abs(w_next - w) <= 1e-15 * max(1.0, abs(w_next)):
            return w_next
        w = w_next
    return w


def _li2_core(z: float) -> float:
    """Dilogarithm series sum_{k>=1} z^k / k^2 for |z| <= 0.5, summed until
    a term falls below 1e-17 of the total."""
    total = power = z
    for k in range(2, 200):
        power *= z
        term = power / (k * k)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def li2(z: float) -> float:
    """Real dilogarithm Li2(z) = sum_{k>=1} z^k / k^2 for z <= 0.5."""
    if z > 0.5:
        raise DomainError(f"li2 requires z <= 0.5, got {z}")
    if z < -1.0:
        # Inversion: Li2(z) = -pi^2/6 - log^2(-z)/2 - Li2(1/z)
        lg = math.log(-z)
        return -math.pi ** 2 / 6 - 0.5 * lg * lg - li2(1.0 / z)
    if z < -0.3:
        # Landen: Li2(z) = -Li2(z/(z-1)) - log^2(1-z)/2, argument in (0, 1/2]
        lg = math.log1p(-z)
        return -_li2_core(z / (z - 1.0)) - 0.5 * lg * lg
    return _li2_core(z)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = integral from 1 to inf of exp(-x t)/t dt, x > 0.

    Power series below the switchover at 1, the continued fraction _gamma_cf
    above it; E1(inf) = 0.
    """
    if not x > 0:
        raise DomainError(f"exp_integral_e1 requires x > 0, got {x}")
    if x < 1.0:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        k = 1
        while True:
            term *= -x / k
            delta = -term / k
            total += delta
            if abs(delta) < 1e-17 * max(abs(total), 1e-30):
                break
            k += 1
        return total
    return _gamma_cf(0.0, x) * math.exp(-x)


def _gamma_cf(a: float, z: float | complex) -> float | complex:
    """e^z z^-a Gamma(a, z) = 1/(z+1-a- 1(1-a)/(z+3-a- 2(2-a)/(z+5-a- ...))) for real z >= 1
    or, at a = 0, z = iy with y >= 2; at a = 0 it is e^z E1(z), finite where e^z is not.
    Evaluated backward from a depth n set in advance: the n-th approximant is the n-point
    Gauss-Laguerre rule for int_0^inf t^-a e^-t/(z+t) dt (Gautschi, SIAM Review 1967), whose
    error falls like exp(-4 Re sqrt(n z)), so n = 90/(Re sqrt z)^2 + a/2 + 6 reaches double
    precision (within 1e-15 of mpmath on iy, 1e-14 on real z; the a/2 checked to a = 51)."""
    n = math.ceil(180.0 / (abs(z) + z.real) + 0.5 * a) + 6  # (Re sqrt z)^2 = (|z| + Re z)/2
    if a >= 1 and a % 1 == 0:  # the fraction ends before i = a, whose numerator is 0
        n = min(n, int(a) - 1)
    z1 = z + 1.0 - a
    t = z1 + 2 * n
    for i in range(n, 0, -1):  # b_(i-1) afresh: a running b -= 2 would carry b_n's rounding
        t = z1 + (2 * i - 2) - i * (i - a) / t
    return 1.0 / t


def exp_integral_e1_imag(y: float) -> complex:
    """E1 evaluated on the positive imaginary axis: E1(i y) for y > 0; E1(i inf) = 0.

    e^(-iy) times the continued fraction from y = 2; below it, the power series of
    Ci and Si in E1(iy) = -Ci(y) + i (Si(y) - pi/2), whose terms cancel little there.
    """
    if not y > 0:
        raise DomainError(f"exp_integral_e1_imag requires y > 0, got {y}")
    if y == math.inf:
        return 0j
    if y >= 2.0:
        return complex(math.cos(y), -math.sin(y)) * _gamma_cf(0.0, complex(0.0, y))
    ci = EULER_GAMMA + math.log(y)
    si = 0.0
    y2 = y * y
    term_c = 1.0  # y^(2k) / (2k)!, starting k=0
    term_s = y
    for k in range(1, 121):
        term_c *= -y2 / ((2 * k - 1) * (2 * k))
        ci += term_c / (2 * k)
        si += term_s / (2 * k - 1)
        term_s *= -y2 / ((2 * k) * (2 * k + 1))
        if abs(term_c) < 1e-18 and abs(term_s) < 1e-18:
            break
    return complex(-ci, si - math.pi / 2)


def exp_integral_e1_imag_scaled(y: float) -> complex:
    """e^(iy) E1(iy) for y > 0.

    For y >= 2 this is the continued fraction itself, never multiplied by
    e^(-iy) and back, so its real part (about 1/y^2 against a modulus of
    about 1/y) keeps full relative accuracy as y grows, to 0 at y = inf.
    """
    if y >= 2.0:
        return _gamma_cf(0.0, complex(0.0, y))
    return complex(math.cos(y), math.sin(y)) * exp_integral_e1_imag(y)


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma gamma(a, x) for a > 0, x >= 0; gamma(a, inf) = Gamma(a)."""
    if not a > 0:
        raise DomainError(f"lower_incomplete_gamma requires a > 0, got a={a}")
    if not x >= 0:
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return gamma_fn(a)
    if x < a + 1.0:
        # Series gamma(a,x) = x^a e^-x sum x^n / (a (a+1) ... (a+n))
        ap = a
        total = 1.0 / a
        term = total
        for _ in range(500):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return total * math.exp(-x + a * math.log(x))
    # Continued fraction for the upper tail, then subtract from Gamma(a).
    return gamma_fn(a) - math.exp(-x + a * math.log(x)) * _gamma_cf(a, x)


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0: math.gamma, within 4 ulps on (0, 171] (mpmath)."""
    if not x > 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)
