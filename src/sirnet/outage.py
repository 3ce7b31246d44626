"""Success probabilities p_s (the SIR ccdf) with their bounds, and the closed
forms beyond exp(-p*gamma) and 1 - p*gamma; `sirnet.analytic` gives every p_s.

Under ALOHA p_s is sandwiched between 1 - p*gamma and exp(-p*gamma), where
gamma is the spatial contention; TDMA lines have their own universal bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Fading
from .specfun import DomainError, zeta
from .throughput import (_ps_line_tdma_alpha2, _ps_line_tdma_alpha4, _tdma_closed_form,
                         tdma_ps_one_sided)

__all__ = [
    "SuccessProbability",
    "sandwich",
    "ps_ppp_nonfading_alpha4",
    "ps_line_alpha2_aloha",
    "ps_line_alpha4_aloha",
    "ps_tdma_line",
]

# Probabilities below this are clamped to zero.
_CLAMP = 1e-300


@dataclass(frozen=True)
class SuccessProbability:
    """Success probability with its bounds and the method that produced it.

    ``method`` is ``closed-form``, or ``product`` for a line's infinite product
    (at alpha 3 on a Rayleigh TDMA line, its Gamma product) where the alpha in
    {2, 4} closed forms do not apply. Values below 1e-300 are clamped to zero.
    """

    value: float
    lower_bound: float
    upper_bound: float
    method: str = "closed-form"


def _clamp_ps(x: float) -> float:
    return 0.0 if 0.0 < x < _CLAMP else min(max(x, 0.0), 1.0)


def sandwich(value: float, p: float, gamma: float, method: str = "closed-form") -> SuccessProbability:
    """An ALOHA value with its contention bounds 1 - p gamma and exp(-p gamma)."""
    lower = max(0.0, 1.0 - p * gamma)
    upper = math.exp(-p * gamma) if p * gamma < 690 else 0.0
    return SuccessProbability(_clamp_ps(value), lower, upper, method)


def _check_p(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"transmit probability must be in [0, 1], got {p}")


def ps_ppp_nonfading_alpha4(theta: float, p: float) -> float:
    """Fully non-fading 2-D PPP, alpha = 4: p_s = 1 - erf(pi^(3/2) p sqrt(theta)/2)."""
    _check_p(p)
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    return 1.0 - math.erf(math.pi ** 1.5 * p * math.sqrt(theta) / 2.0)


def ps_line_alpha2_aloha(theta: float, p: float) -> float:
    """One-sided Rayleigh line network, alpha = 2, slotted ALOHA.

    p_s = sinh(pi sqrt(theta (1-p))) / (sqrt(1-p) sinh(pi sqrt(theta))).
    The p -> 1 limit (removable singularity) is the m = 1 TDMA closed form.
    """
    _check_p(p)
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    if p == 1.0:
        return _ps_line_tdma_alpha2(theta)
    y = math.pi * math.sqrt(theta)
    q = math.sqrt(1.0 - p)
    if y <= 30.0:
        return math.sinh(y * q) / math.sinh(y) / q
    # sinh x = e^x (1 - e^(-2x))/2 avoids overflow; y q - y = -y p/(1 + q) keeps its digits.
    return (math.exp(-y * p / (1.0 + q)) * (-math.expm1(-2.0 * y * q))
            / (-math.expm1(-2.0 * y)) / q)


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
    if p == 1.0:
        return _ps_line_tdma_alpha4(theta)
    y = math.pi * theta ** 0.25 / math.sqrt(2.0)
    u = (1.0 - p) ** 0.25
    return _cc_ratio(y * u, y) / (u * u)


def ps_tdma_line(alpha: float, theta: float, m: int, sided: str = "one",
                 interferer_fading: Fading = Fading.rayleigh()) -> SuccessProbability:
    """TDMA regular line network with reuse factor m, a Rayleigh desired link
    and interferer fading h: p_s = prod_i L_h(theta'/i^alpha), theta' = theta/m^alpha.

    exp(-z') for static interferers, the closed forms that tdma_ps_one_sided
    also takes for Rayleigh interferers at alpha in {2, 4} (so both give the
    same bits), else its exact infinite product (method ``product``), with
    the bounds exp(-z') <= p_s <= 1/(1 + z' + (zeta-1) theta'^2), z' = zeta(alpha) theta'.
    The lower one is Jensen's, for any fading; the upper one needs L_h(x) <=
    1/(1 + x), as static and Nakagami m >= 1 meet, and is 1 for m < 1.
    Two-sided networks square the one-sided results.
    """
    if not (1 < alpha < math.inf and theta > 0):
        raise DomainError(f"TDMA p_s needs finite alpha > 1 and theta > 0, got {alpha}, {theta}")
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"reuse factor must be an integer >= 1, got {m}")
    if sided not in ("one", "two"):
        raise DomainError(f"sided must be 'one' or 'two', got {sided!r}")
    z = zeta(alpha)
    theta_p = theta / m ** alpha
    lower = math.exp(-z * theta_p) if z * theta_p < 690 else 0.0
    # theta_p * theta_p is inf past the float range (upper = 0); ** 2 would raise.
    upper = 1.0 / (1.0 + z * theta_p + (z - 1.0) * (theta_p * theta_p))
    if not interferer_fading.is_static and interferer_fading.m < 1.0:
        upper = 1.0
    closed = _tdma_closed_form(alpha, interferer_fading)
    if interferer_fading.is_static:  # the lower bound's own expression, so value >= lower
        value, method = math.exp(-z * theta_p), "closed-form"
    elif closed:
        value, method = closed(theta_p), "closed-form"
    else:
        value, method = tdma_ps_one_sided(alpha, theta, m, interferer_fading), "product"
    value = _clamp_ps(value)
    if sided == "two":
        value *= value
        lower *= lower
        upper *= upper
    return SuccessProbability(value, lower, upper, method)
