"""Closed-form spatial contention gamma for every supported network class.

Spatial contention is the slope of the outage probability with respect to
the ALOHA transmit probability at p = 0 (for TDMA line networks: the slope
with respect to (1/m)^alpha). Its inverse is the spatial efficiency.
"""

from __future__ import annotations

import math

from .model import Fading, FadingCase, unit_ball_volume
from .specfun import DomainError, dilog, gamma_fn, zeta

__all__ = [
    "UnsupportedClassError",
    "gamma_single",
    "c_d_constant",
    "gamma_ppp",
    "gamma_ppp_nonfading_alpha4",
    "gamma_exp_pathloss",
    "gamma_explicit",
    "gamma_line_alpha2",
    "gamma_line_alpha4",
    "gamma_line_taylor",
    "gamma_tdma_line",
    "equivalent_disk_radius",
    "transmission_capacity_density",
]


class UnsupportedClassError(ValueError):
    """No closed form is available for this network class."""


def _finite(gamma: float) -> float:
    if gamma == math.inf:
        raise OverflowError("spatial contention exceeds the float range")
    return gamma


def gamma_single(case: FadingCase, xi: float) -> float:
    """Single-interferer spatial contention as a function of xi = r^alpha/theta.

    Outage is exactly linear in p, p_s = 1 - p gamma: 1/1 -> 1/(1+xi);
    1/0 -> 1-exp(-1/xi); 0/1 -> exp(-xi); 0/0 -> indicator[xi <= 1];
    1/m -> 1 - (1 + 1/(m xi))^-m; m/1 -> (1 + xi/m)^-m. Nakagami on one side
    tends to the static case as m grows. All values lie in [0, 1].
    """
    if not 0 <= xi < math.inf:
        raise DomainError(f"xi must be finite and >= 0, got {xi}")
    d, i = case.desired, case.interferer
    if d.is_rayleigh and i.is_rayleigh:
        return 1.0 / (1.0 + xi)
    if d.is_rayleigh and i.is_static:
        return 1.0 if xi == 0.0 else -math.expm1(-1.0 / xi)
    if d.is_static and i.is_rayleigh:
        return math.exp(-xi)
    if d.is_static and i.is_static:
        return 1.0 if xi <= 1.0 else 0.0
    if d.is_rayleigh:
        # 1/m: 1 - m^m / (1/xi + m)^m, stable via log1p.
        return 1.0 if xi == 0.0 else 1.0 - math.exp(-i.m * math.log1p(1.0 / (xi * i.m)))
    if i.is_rayleigh:
        # m/1: (m/xi / (1 + m/xi))^m
        return 1.0 if xi == 0.0 else math.exp(-d.m * math.log1p(xi / d.m))
    raise UnsupportedClassError(
        f"single-interferer fading case {case.label!r} has no closed form"
    )


def c_d_constant(d: int, alpha: float) -> float:
    """Geometry constant C_d(alpha) = c_d (d pi/alpha) csc(d pi/alpha).

    c_d is the volume of the d-dimensional unit ball. Diverges as
    alpha decreases to d, hence alpha > d is required.
    """
    if not (isinstance(d, int) and d >= 1):
        raise DomainError(f"dimension must be an integer >= 1, got {d}")
    if not d < alpha < math.inf:
        raise DomainError(f"finite alpha > d required (alpha={alpha}, d={d})")
    x = d * math.pi / alpha
    return unit_ball_volume(d) * x / math.sin(x)


def gamma_ppp(d: int, alpha: float, theta: float, interferer_fading: Fading) -> float:
    """PPP spatial contention.

    Rayleigh interferers: theta^(d/alpha) C_d(alpha) for d in {1, 2, 3}
    (d = 3 uses the conjectured C_d generalization; callers should report
    it as such). Static interferers (Rayleigh desired link): d = 2 only,
    pi Gamma(1 - 2/alpha) theta^(2/alpha).
    """
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    if interferer_fading.is_rayleigh:
        if d not in (1, 2, 3):
            raise UnsupportedClassError(f"PPP contention supports d in 1..3, got {d}")
        return _finite(c_d_constant(d, alpha) * theta ** (d / alpha))  # checks alpha first
    if interferer_fading.is_static:
        if d != 2:
            raise UnsupportedClassError(
                "static-interferer PPP contention is only available for d = 2"
            )
        if not 2 < alpha < math.inf:
            raise DomainError(f"finite alpha > 2 required, got {alpha}")
        return _finite(math.pi * gamma_fn(1.0 - 2.0 / alpha) * theta ** (2.0 / alpha))
    raise UnsupportedClassError(
        f"no PPP contention closed form for interferer fading {interferer_fading.symbol!r}"
    )


def gamma_ppp_nonfading_alpha4(theta: float) -> float:
    """Contention of the fully non-fading 2-D PPP with alpha = 4: pi sqrt(theta)."""
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    return math.pi * math.sqrt(theta)


def gamma_exp_pathloss(delta: float, theta: float) -> float:
    """2-D PPP contention under exponential path loss exp(-delta r).

    gamma = -2 pi dilog(theta + 1) / delta^2; grows only like log^2(theta).
    It overflows where delta^2 underflows (delta below about 1e-162).
    """
    if not (delta > 0 and theta > 0):
        raise DomainError("delta and theta must be positive")
    d2 = delta ** 2
    return _finite(-2.0 * math.pi * dilog(theta + 1.0) / d2 if d2 > 0 else math.inf)


def gamma_explicit(xis: list[float], interferer_fading: Fading) -> float:
    """Contention of fixed interferers with effective distances xi_i.

    The desired link is Rayleigh, and gamma is the sum of the single-
    interferer values: sum 1/(1+xi_i) for Rayleigh interferers, and
    sum (1 - exp(-1/xi_i)) for static ones, which requires all xi_i > 0.
    """
    if interferer_fading.is_static:
        for xi in xis:
            if not xi > 0:
                raise DomainError(f"static interferers require xi > 0, got {xi}")
    elif not interferer_fading.is_rayleigh:
        raise UnsupportedClassError(
            f"no explicit-geometry contention for interferer fading {interferer_fading.symbol!r}"
        )
    case = FadingCase(Fading.rayleigh(), interferer_fading)
    return sum(gamma_single(case, xi) for xi in xis)


def gamma_line_alpha2(theta: float) -> float:
    """One-sided regular line, Rayleigh/Rayleigh, alpha = 2.

    gamma = (pi sqrt(theta) coth(pi sqrt(theta)) - 1) / 2, bounded between
    (pi sqrt(theta) - 1)/2 and pi sqrt(theta)/2.
    """
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    x = math.pi * math.sqrt(theta)
    # x coth x - 1 without cancellation for small x.
    if x < 1e-4:
        xcothx_m1 = x * x / 3.0 - x ** 4 / 45.0
    else:
        xcothx_m1 = x / math.tanh(x) - 1.0
    return 0.5 * xcothx_m1


def gamma_line_alpha4(theta: float, mode: str = "exact") -> float:
    """One-sided regular line, Rayleigh/Rayleigh, alpha = 4.

    mode='exact' evaluates the closed form in y = pi theta^(1/4)/sqrt(2);
    mode='approx' returns pi theta^(1/4)/(2 sqrt 2) - 1/2, accurate for
    theta > 1. For y > 30 the exact form is evaluated with the e^(2y)
    factors cancelled to avoid overflow.
    """
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    y = math.pi * theta ** 0.25 / math.sqrt(2.0)
    if mode == "approx":
        return 0.5 * y - 0.5
    if mode != "exact":
        raise DomainError(f"mode must be 'exact' or 'approx', got {mode!r}")
    cy, sy = math.cos(y), math.sin(y)
    if y <= 30.0:
        e2 = math.exp(2.0 * y)
        num = (y - 1.0) * e2 + 4.0 * cy * cy + 4.0 * y * cy * sy - 2.0 - (y + 1.0) / e2
        den = math.sinh(y) ** 2 + sy * sy  # == cosh^2 y - cos^2 y
        return num / (8.0 * den)
    # Scale numerator and denominator by e^(-2y).
    e2m = math.exp(-2.0 * y)
    num = (y - 1.0) + (4.0 * cy * cy + 4.0 * y * cy * sy - 2.0) * e2m
    den = 0.25 + (0.5 - cy * cy) * e2m
    return num / (8.0 * den)


def gamma_line_taylor(alpha: float, theta: float, terms: int) -> float:
    """Alternating zeta series for the one-sided Rayleigh line network.

    gamma = zeta(alpha) theta - zeta(2 alpha) theta^2 + ... Useful only for
    theta < 1/2 where the series converges quickly.
    """
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    if not (0.0 < theta < 0.5):
        raise DomainError(f"series form requires 0 < theta < 1/2, got {theta}")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    total = 0.0
    for i in range(1, terms + 1):
        total -= (-1) ** i * zeta(alpha * i) * theta ** i
    return total


def gamma_tdma_line(alpha: float, theta: float) -> float:
    """TDMA line-network contention (slope w.r.t. (1/m)^alpha): zeta(alpha) theta."""
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    return _finite(zeta(alpha) * theta)


def equivalent_disk_radius(gamma: float, link_distance: float = 1.0) -> float:
    """Radius of the equivalent interference-free disk: R sqrt(gamma/pi)."""
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if not link_distance > 0:
        raise DomainError(f"link distance must be positive, got {link_distance}")
    return link_distance * math.sqrt(gamma / math.pi)


def transmission_capacity_density(epsilon: float, sigma: float) -> float:
    """Maximum density of concurrent transmitters at outage constraint epsilon.

    Small-epsilon linearization: p = epsilon sigma.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return epsilon * sigma
