"""Closed-form success probabilities p_s (the SIR ccdf) and their bounds.

Under ALOHA the success probability is sandwiched between 1 - p*gamma and
exp(-p*gamma), where gamma is the spatial contention; TDMA lines have their
own universal bounds. :class:`SuccessProbability` carries the bounds
alongside the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import contention
from .model import Fading, FadingCase
from .specfun import DomainError, zeta
from .throughput import tdma_ps_one_sided

__all__ = [
    "SuccessProbability",
    "sandwich",
    "ps_single",
    "ps_ppp",
    "ps_ppp_nonfading_alpha4",
    "ps_exp_pathloss",
    "ps_explicit",
    "ps_explicit_partial_exact",
    "ps_line_alpha2_aloha",
    "ps_line_alpha4_aloha",
    "ps_tdma_line",
]

# Probabilities below this are clamped to zero.
_CLAMP = 1e-300


@dataclass(frozen=True)
class SuccessProbability:
    """Success probability with its bounds and the method that produced it.

    ``method`` is ``closed-form``, or ``product`` for the TDMA line's
    infinite product at alpha outside {2, 4}. Values below 1e-300 are
    clamped to zero.
    """

    value: float
    lower_bound: float
    upper_bound: float
    method: str = "closed-form"


def _clamp_ps(x: float) -> float:
    return 0.0 if 0.0 < x < _CLAMP else min(max(x, 0.0), 1.0)


def sandwich(value: float, p: float, gamma: float) -> SuccessProbability:
    """An ALOHA value with its contention bounds 1 - p gamma and exp(-p gamma)."""
    lower = max(0.0, 1.0 - p * gamma)
    upper = math.exp(-p * gamma) if p * gamma < 690 else 0.0
    return SuccessProbability(_clamp_ps(value), lower, upper)


def _check_p(p: float, upper: float = 1.0) -> None:
    if not (0.0 <= p <= upper):
        raise DomainError(f"transmit probability must be in [0, {upper}], got {p}")


def ps_single(case: FadingCase, xi: float, p: float) -> float:
    """Single-interferer success probability 1 - p gamma_single(case, xi).

    Outage is exactly linear in p in every fading case, Nakagami included.
    """
    _check_p(p)
    return 1.0 - p * contention.gamma_single(case, xi)


def ps_ppp(d: int, alpha: float, theta: float, p: float, interferer_fading: Fading) -> float:
    """PPP success probability exp(-p gamma); exact for Rayleigh desired link."""
    _check_p(p)
    gamma = contention.gamma_ppp(d, alpha, theta, interferer_fading)
    return math.exp(-p * gamma)


def ps_ppp_nonfading_alpha4(theta: float, p: float) -> float:
    """Fully non-fading 2-D PPP, alpha = 4: p_s = 1 - erf(pi^(3/2) p sqrt(theta)/2)."""
    _check_p(p)
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    return 1.0 - math.erf(math.pi ** 1.5 * p * math.sqrt(theta) / 2.0)


def ps_exp_pathloss(delta: float, theta: float, p: float) -> float:
    """2-D Rayleigh PPP with exponential path loss: exp(-p gamma_exp)."""
    _check_p(p)
    return math.exp(-p * contention.gamma_exp_pathloss(delta, theta))


def ps_explicit(xis: list[float], p: float) -> SuccessProbability:
    """Fixed interferers, Rayleigh/Rayleigh: p_s = prod (1 - p/(1+xi_i)).

    p_s is convex in p, so 1 - p*gamma is a lower and exp(-p*gamma) an
    upper bound, with gamma = sum 1/(1+xi_i).
    """
    _check_p(p)
    for xi in xis:
        if xi < 0:
            raise DomainError(f"xi must be >= 0, got {xi}")
    gamma = contention.gamma_explicit(list(xis), Fading.rayleigh())
    log_ps = 0.0
    for xi in xis:
        factor = 1.0 - p / (1.0 + xi)
        if factor <= 0.0:
            return sandwich(0.0, p, gamma)
        log_ps += math.log(factor)
    return sandwich(math.exp(log_ps), p, gamma)


def ps_explicit_partial_exact(xis: list[float], p: float) -> float:
    """Fixed static interferers, fading desired link (1/0): prod(1 - p(1 - exp(-1/xi_i))).

    Exact under Bernoulli access; its slope at p = 0 is gamma_explicit with
    static interferers.
    """
    _check_p(p)
    for xi in xis:
        if not xi > 0:
            raise DomainError(
                f"static interferer at xi = {xi} makes the 1/0 sum diverge"
            )
    return math.prod(1.0 - p * -math.expm1(-1.0 / xi) for xi in xis)


def _sinh_ratio(a: float, b: float) -> float:
    """sinh(a)/sinh(b) without overflow, for a <= b, b > 0."""
    if b <= 30.0:
        return math.sinh(a) / math.sinh(b)
    # sinh x = e^x (1 - e^(-2x)) / 2
    return math.exp(a - b) * (-math.expm1(-2.0 * a)) / (-math.expm1(-2.0 * b))


def ps_line_alpha2_aloha(theta: float, p: float) -> float:
    """One-sided Rayleigh line network, alpha = 2, slotted ALOHA.

    p_s = sinh(pi sqrt(theta (1-p))) / (sqrt(1-p) sinh(pi sqrt(theta))).
    The p -> 1 limit (removable singularity) is the m = 1 TDMA closed form.
    """
    _check_p(p)
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    y = math.pi * math.sqrt(theta)
    if p == 1.0:
        return y / math.sinh(y) if y <= 690 else 0.0
    q = math.sqrt(1.0 - p)
    return _sinh_ratio(y * q, y) / q


def _cc_ratio(a: float, b: float) -> float:
    """(cosh^2 a - cos^2 a) / (cosh^2 b - cos^2 b) without overflow, a <= b."""
    if b <= 30.0:
        num = math.sinh(a) ** 2 + math.sin(a) ** 2
        den = math.sinh(b) ** 2 + math.sin(b) ** 2
        return num / den
    # cosh^2 x - cos^2 x = e^(2x)/4 + 1/2 + e^(-2x)/4 - cos^2 x; scale by e^(-2b).
    def scaled(x: float, ref: float) -> float:
        e = math.exp(2.0 * (x - ref))
        return e / 4.0 + math.exp(-2.0 * ref) * (0.5 - math.cos(x) ** 2 + math.exp(-2.0 * x) / 4.0)

    return scaled(a, b) / scaled(b, b)


def ps_line_alpha4_aloha(theta: float, p: float) -> float:
    """One-sided Rayleigh line network, alpha = 4, slotted ALOHA.

    p_s = [cosh^2(y u) - cos^2(y u)] / [sqrt(1-p) (cosh^2 y - cos^2 y)]
    with y = pi theta^(1/4)/sqrt(2) and u = (1-p)^(1/4).
    """
    _check_p(p)
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    y = math.pi * theta ** 0.25 / math.sqrt(2.0)
    if p == 1.0:
        den = math.sinh(y) ** 2 + math.sin(y) ** 2
        return 2.0 * y * y / den if y <= 345 else 0.0
    u = (1.0 - p) ** 0.25
    return _cc_ratio(y * u, y) / (u * u)


def ps_tdma_line(alpha: float, theta: float, m: int, sided: str = "one") -> SuccessProbability:
    """TDMA regular line network with reuse factor m, Rayleigh fading.

    Closed forms for alpha in {2, 4}, else the exact infinite product
    (method ``product``), with the universal bounds
    exp(-z') <= p_s <= 1/(1 + z' + (zeta-1) theta'^2), theta' = theta/m^alpha
    and z' = zeta(alpha) theta'. Two-sided networks square the one-sided results.
    """
    if not alpha > 1:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"reuse factor must be an integer >= 1, got {m}")
    if sided not in ("one", "two"):
        raise DomainError(f"sided must be 'one' or 'two', got {sided!r}")
    z = zeta(alpha)
    theta_p = theta / m ** alpha
    lower = math.exp(-z * theta_p) if z * theta_p < 690 else 0.0
    upper = 1.0 / (1.0 + z * theta_p + (z - 1.0) * theta_p ** 2)
    method = "closed-form"
    if alpha == 2:
        value = ps_line_alpha2_aloha(theta_p, 1.0)
    elif alpha == 4:
        value = ps_line_alpha4_aloha(theta_p, 1.0)
    else:
        value, method = tdma_ps_one_sided(alpha, theta, m), "product"
    value = _clamp_ps(value)
    if sided == "two":
        value *= value
        lower *= lower
        upper *= upper
    return SuccessProbability(value, lower, upper, method)
