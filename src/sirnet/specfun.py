"""Special functions needed by the closed-form network expressions.

Everything here is pure, scalar, and self-contained (stdlib ``math`` only).
Each function documents its accuracy target; the test suite checks them
against independent brute-force oracles (series, quadrature, recurrences).
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "zeta",
    "hurwitz_zeta",
    "lambert_w0",
    "dilog",
    "exp_integral_e1",
    "exp_integral_e1_imag",
    "exp_integral_e1_imag_scaled",
    "cos_integral",
    "sin_integral",
    "lower_incomplete_gamma",
    "gamma_fn",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015328606

_TINY = 1e-300


class DomainError(ValueError):
    """Argument outside the mathematical domain of a function."""


# Bernoulli numbers B_2, B_4, ... B_12 for the Euler-Maclaurin tail.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def zeta(s: float) -> float:
    """Riemann zeta function for real s > 1 (hurwitz_zeta(s, 1))."""
    return hurwitz_zeta(s, 1)


def hurwitz_zeta(s: float, n: int) -> float:
    """Hurwitz zeta sum_{i>=n} i^-s for real s > 1 and integer n >= 1.

    Direct sum up to i = N - 1, N = max(n, 25 (60 when s < 2), 2s), plus
    an Euler-Maclaurin correction at N; the neglected remainder is below
    1e-14 relative (worst seen 8e-15 against direct sums to 40 digits).
    """
    if not s > 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"hurwitz_zeta requires an integer n >= 1, got {n}")
    if s > 1075:
        # (n+1)^-s <= 2^-s underflows to 0, so the sum is its first term (and
        # a huge s does not sum 2s terms).
        return n ** -s
    big = max(n, 25 if s >= 2 else 60, math.ceil(2.0 * s))
    total = sum(k ** -s for k in range(n, big))
    # Euler-Maclaurin: integral term, half term, and B_2j corrections.
    total += big ** (1 - s) / (s - 1) + 0.5 * big ** -s
    rising = s  # s (s+1) ... (s+2j-2)
    fact = 1.0  # (2j)!
    power = big ** (-s - 1)
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
    """Dilogarithm series sum_{k>=1} z^k / k^2 for |z| <= 0.5."""
    total = 0.0
    term = z
    k = 1
    while abs(term) > 1e-17 * max(1.0, abs(total)):
        total += term / (k * k)
        k += 1
        term *= z
        if k > 200:
            break
    return total


def _li2(z: float) -> float:
    """Real dilogarithm Li2(z) for z <= 0.5 (all that the dilog op needs)."""
    if z > 0.5:
        raise DomainError("internal Li2 only implemented for z <= 0.5")
    if z < -1.0:
        # Inversion: Li2(z) = -pi^2/6 - log^2(-z)/2 - Li2(1/z)
        lg = math.log(-z)
        return -math.pi ** 2 / 6 - 0.5 * lg * lg - _li2(1.0 / z)
    if z < -0.3:
        # Landen: Li2(z) = -Li2(z/(z-1)) - log^2(1-z)/2, argument in (0, 1/2]
        lg = math.log1p(-z)
        return -_li2_core(z / (z - 1.0)) - 0.5 * lg * lg
    return _li2_core(z)


def dilog(x: float) -> float:
    """dilog(x) = integral from 1 to x of log(t)/(1-t) dt, for x >= 1.

    Evaluated as Li2(1-x); the defining integral is kept as a test oracle.
    dilog(1) = 0 and dilog(x) <= 0 for x >= 1.
    """
    if x < 1.0:
        raise DomainError(f"dilog requires x >= 1, got {x}")
    if x == 1.0:
        return 0.0
    return _li2(1.0 - x)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = integral from 1 to inf of exp(-x t)/t dt, x > 0.

    Power series below the switchover at 1, modified-Lentz continued
    fraction above it.
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
    # Continued fraction E1(x) = e^-x * 1/(x+1- 1/(x+3- 4/(x+5- ...)))
    b = x + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def _e1_imag_cf(y: float) -> complex:
    """e^(iy) E1(iy) by the modified-Lentz continued fraction, good for y >= 2."""
    z = complex(0.0, y)
    b = z + 1.0
    c = complex(1.0 / _TINY, 0.0)
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        a = complex(-i * i, 0.0)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _cisi(y: float) -> tuple[float, float]:
    """Cosine and sine integrals (Ci(y), Si(y)) for y > 0."""
    if y < 2.0:
        # Power series; no appreciable cancellation for y < 2.
        ci = EULER_GAMMA + math.log(y)
        si = 0.0
        y2 = y * y
        term_c = 1.0  # y^(2k) / (2k)!, starting k=0
        term_s = y
        k = 1
        while True:
            term_c *= -y2 / ((2 * k - 1) * (2 * k))
            ci += term_c / (2 * k)
            si += term_s / (2 * k - 1)
            term_s *= -y2 / ((2 * k) * (2 * k + 1))
            if abs(term_c) < 1e-18 and abs(term_s) < 1e-18:
                break
            k += 1
            if k > 120:
                break
        return ci, si
    e1 = complex(math.cos(y), -math.sin(y)) * _e1_imag_cf(y)
    return -e1.real, math.pi / 2 + e1.imag


def cos_integral(y: float) -> float:
    """Cosine integral Ci(y) for y > 0."""
    if not y > 0:
        raise DomainError(f"cos_integral requires y > 0, got {y}")
    return _cisi(y)[0]


def sin_integral(y: float) -> float:
    """Sine integral Si(y) for y > 0."""
    if not y > 0:
        raise DomainError(f"sin_integral requires y > 0, got {y}")
    return _cisi(y)[1]


def exp_integral_e1_imag(y: float) -> complex:
    """E1 evaluated on the positive imaginary axis: E1(i y) for y > 0.

    Uses the identity E1(iy) = -Ci(y) + i (Si(y) - pi/2).
    """
    if not y > 0:
        raise DomainError(f"exp_integral_e1_imag requires y > 0, got {y}")
    ci, si = _cisi(y)
    return complex(-ci, si - math.pi / 2)


def exp_integral_e1_imag_scaled(y: float) -> complex:
    """e^(iy) E1(iy) for y > 0.

    For y >= 2 this is the continued fraction itself, never multiplied by
    e^(-iy) and back, so its real part (about 1/y^2 against a modulus of
    about 1/y) keeps full relative accuracy as y grows.
    """
    if y >= 2.0:
        return _e1_imag_cf(y)
    return complex(math.cos(y), math.sin(y)) * exp_integral_e1_imag(y)


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma gamma(a, x) for a > 0, x >= 0."""
    if not a > 0:
        raise DomainError(f"lower_incomplete_gamma requires a > 0, got a={a}")
    if x < 0:
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
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
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    upper = math.exp(-x + a * math.log(x)) * h
    return gamma_fn(a) - upper


# Lanczos approximation, g = 7, 9 coefficients. Max relative error below
# 1e-13 on (0, 20] (checked against the Gamma(x+1) = x Gamma(x) recurrence
# and exact half-integer values in the test suite).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0 via the Lanczos approximation."""
    if not x > 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum in its accurate range.
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    xx = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (xx + i)
    t = xx + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (xx + 0.5) * math.exp(-t) * acc
