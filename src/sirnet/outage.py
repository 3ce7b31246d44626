"""Success probabilities p_s (the SIR ccdf) with their bounds, and every line
p_s; `sirnet.analytic` gives every p_s.

Under ALOHA p_s is sandwiched between 1 - p*gamma and exp(-p*gamma), where
gamma is the spatial contention; TDMA lines have their own universal bounds.
A TDMA line is the ALOHA line product at p = 1 and theta' = theta/m^alpha:
`_line_forms` picks a line's forms for both MACs and every interferer fading.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .contention import (aloha_line_exponent, gamma_line, gamma_line_alpha2, gamma_line_alpha4,
                         interference_log_ps, line_exponent, line_sums, power_series)
from .model import Fading, _value_type
from .specfun import DomainError, zeta

__all__ = [
    "SuccessProbability",
    "sandwich",
    "ps_ppp_nonfading_alpha4",
    "ps_line_alpha2_aloha",
    "ps_line_alpha4_aloha",
    "ps_tdma_line",
    "tdma_ps_one_sided",
]

# Probabilities below this are clamped to zero.
_CLAMP = 1e-300


@_value_type
class SuccessProbability:
    """Success probability with its bounds and the method that produced it.

    ``method`` is ``closed-form``, or ``product`` for a line's infinite product
    where neither the alpha in {2, 4} closed forms nor, under TDMA, the static
    exp(-z') apply. Values below 1e-300 are clamped to zero.
    """

    value: float
    lower_bound: float
    upper_bound: float
    method: str = "closed-form"


def _clamp_ps(x: float) -> float:
    return 0.0 if 0.0 < x < _CLAMP else min(max(x, 0.0), 1.0)


def _bounded(value: float, lower: float, upper: float, method: str) -> SuccessProbability:
    """value with its bounds. The gap between the bounds is second order in p gamma (or
    z'), below an ulp at theta ~ 1e-9, and the value's own rounding can leave it a few
    ulps past either (11 at most on the line classes); a bound at most 32 ulps past is
    moved to the value. One further off stays, so lower <= value <= upper still fails."""
    slack = 32 * math.ulp(value)
    if value < lower <= value + slack:
        lower = value
    if upper < value <= upper + slack:
        upper = value
    return SuccessProbability(value, lower, upper, method)


def sandwich(value: float, p: float, gamma: float, method: str = "closed-form",
             linear: bool = False) -> SuccessProbability:
    """An ALOHA value with its contention bounds 1 - p gamma and exp(-p gamma); a
    `linear` value (one interferer) is 1 - p gamma itself, so its own lower bound."""
    lower = _clamp_ps(value) if linear else max(0.0, 1.0 - p * gamma)
    return _bounded(_clamp_ps(value), lower, _clamp_ps(math.exp(-p * gamma)), method)


def _check(theta: float, p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"transmit probability must be in [0, 1], got {p}")
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")


def ps_ppp_nonfading_alpha4(theta: float, p: float) -> float:
    """Fully non-fading 2-D PPP, alpha = 4: p_s = 1 - erf(pi^(3/2) p sqrt(theta)/2)."""
    _check(theta, p)
    return 1.0 - math.erf(math.pi ** 1.5 * p * math.sqrt(theta) / 2.0)


def _ps_line_tdma_alpha2(theta_p: float | np.ndarray) -> float | np.ndarray:
    """One-sided Rayleigh line, alpha = 2, every node transmitting (ALOHA's p = 1):
    p_s = y / sinh y with y = pi sqrt(theta'), for a float (giving a float) or an array."""
    y = np.pi * np.sqrt(theta_p)
    # sinh sees y in [1e-300, 690], so nothing warns: y = 0 (theta' = 0, where m^alpha
    # overflows) gives 1, adding 1e-300 moves no other y (the least is 7e-162), and
    # past 690 p_s is 0.
    ys = np.fmin(y, 690.0) + 1e-300
    ps = ys / np.sinh(ys) * (y <= 690.0)
    return ps if isinstance(ps, np.ndarray) else float(ps)


def _ps_line_tdma_alpha4(theta_p: float | np.ndarray) -> float | np.ndarray:
    """One-sided Rayleigh line, alpha = 4, every node transmitting (ALOHA's p = 1):
    p_s = 2 y^2 / (sinh^2 y + sin^2 y) with y = pi theta'^(1/4) / sqrt(2), for a float
    (giving a float) or an array."""
    # pi (theta'/4)^(1/4) rounds y once less: p_s carries 2y times y's rounding.
    y = np.pi * np.power(theta_p / 4.0, 0.25)
    # As at alpha 2; 1e-100 keeps y^2 from underflowing and moves no other y (the
    # least is 4.7e-81), and the cut at 345 comes before sinh(y)^2 overflows at 355.
    ys = np.fmin(y, 345.0) + 1e-100
    sh, sn = np.sinh(ys), np.sin(ys)
    ps = 2.0 * ys * ys / (sh * sh + sn * sn) * (y <= 345.0)
    return ps if isinstance(ps, np.ndarray) else float(ps)


def _ps_line_static(z: float, theta_p: float | np.ndarray) -> float | np.ndarray:
    """exp(-z theta') with z = zeta(alpha), the p = 1 line product of static interferers
    and the lower bound of every TDMA line, for a float (giving a float) or an array."""
    ps = np.exp(-z * theta_p)
    return ps if isinstance(ps, np.ndarray) else float(ps)


def _ps_line_nakagami(alpha: float, m: float, theta_p: float | np.ndarray) -> float | np.ndarray:
    """exp(-m S(theta'/m)) by line_exponent, -log L_h(x) being m log(1 + x/m): the p = 1 line
    product of Nakagami-m interferers (Rayleigh at m = 1), for a float or an array."""
    ps = np.exp(-m * line_exponent(alpha, np.divide(theta_p, m)))
    return ps if isinstance(ps, np.ndarray) else float(ps)


def ps_line_alpha2_aloha(theta: float, p: float) -> float:
    """One-sided Rayleigh line network, alpha = 2, slotted ALOHA.

    p_s = sinh(pi sqrt(theta (1-p))) / (sqrt(1-p) sinh(pi sqrt(theta))).
    The p -> 1 limit (removable singularity) is the m = 1 TDMA closed form.
    """
    _check(theta, p)
    if p == 1.0:
        return _ps_line_tdma_alpha2(theta)
    y = math.pi * math.sqrt(theta)
    q = math.sqrt(1.0 - p)
    # sinh x = e^x (1 - e^(-2x))/2 never overflows; y q - y = -y p/(1 + q) keeps its digits.
    return (math.exp(-y * p / (1.0 + q)) * (-math.expm1(-2.0 * y * q))
            / (-math.expm1(-2.0 * y)) / q)


def ps_line_alpha4_aloha(theta: float, p: float) -> float:
    """One-sided Rayleigh line network, alpha = 4, slotted ALOHA.

    p_s = [cosh^2(y u) - cos^2(y u)] / [sqrt(1-p) (cosh^2 y - cos^2 y)]
    with y = pi theta^(1/4)/sqrt(2) and u = (1-p)^(1/4).
    """
    _check(theta, p)
    if p == 1.0:
        return _ps_line_tdma_alpha4(theta)
    y = math.pi * (theta / 4.0) ** 0.25  # as in _ps_line_tdma_alpha4: one rounding less
    u = (1.0 - p) ** 0.25
    x, e = y * u, math.exp(-2.0 * y)
    # cosh^2 x - cos^2 x = sinh^2 x + sin^2 x, scaled by e^(-2y) as
    # (e^(x-y) (1 - e^(-2x))/2)^2 + e^(-2y) sin^2 x: no term cancels or overflows, and
    # x - y = -y p/((1 + u)(1 + u^2)) keeps its digits where y u - y would lose y ulps.
    return (((math.exp(-y * p / ((1.0 + u) * (1.0 + u * u))) * math.expm1(-2.0 * x)) ** 2 / 4.0
             + e * math.sin(x) ** 2)
            / (math.expm1(-2.0 * y) ** 2 / 4.0 + e * math.sin(y) ** 2) / (u * u))


# Rayleigh interferers: p_s(theta') at p = 1, the ALOHA p_s(theta, p) and gamma(theta).
_RAYLEIGH_LINE_FORMS = {2.0: (_ps_line_tdma_alpha2, ps_line_alpha2_aloha, gamma_line_alpha2),
                        4.0: (_ps_line_tdma_alpha4, ps_line_alpha4_aloha, gamma_line_alpha4)}


def _line_forms(alpha: float, h: Fading) -> tuple:
    """A one-sided line's forms with a Rayleigh desired link and interferer fading h:
    (p_s(theta') at p = 1, the ALOHA p_s(theta, p), gamma(theta), the ALOHA method).
    Only static and Nakagami interferers under ALOHA take contention.line_sums."""
    if h.is_rayleigh and alpha in _RAYLEIGH_LINE_FORMS:
        return (*_RAYLEIGH_LINE_FORMS[alpha], "closed-form")
    if h.is_static:
        tdma = lambda theta_p: _ps_line_static(zeta(alpha), theta_p)
    else:
        tdma = partial(_ps_line_nakagami, alpha, h.m)
    if h.is_rayleigh:
        aloha = lambda theta, p: math.exp(-aloha_line_exponent(alpha, theta, p))
    else:
        aloha = lambda theta, p: math.exp(-line_sums(
            alpha, [theta], partial(interference_log_ps, p=p, fading=h), power_series(h, p))[0])
    return tdma, aloha, partial(gamma_line, alpha, interferer_fading=h), "product"


def _theta_prime(alpha: float, theta: float | np.ndarray, m: int | np.ndarray) -> float | np.ndarray:
    """theta' = theta/m^alpha by numpy's pow, for an int m or an array, so that every TDMA
    caller rounds m^alpha alike; m^alpha = inf gives theta' = 0, its limit. An int m whose
    m^alpha is finite skips np.errstate, which costs more than the pow."""
    if isinstance(m, int) and alpha * math.log(m) < 709.0:
        return theta / float(np.power(float(m), alpha))
    with np.errstate(over="ignore"):
        return theta / np.asarray(m, dtype=float) ** alpha


def tdma_ps_one_sided(
    alpha: float, theta: float | np.ndarray, m: float | np.ndarray,
    interferer_fading: Fading = Fading.rayleigh(),
) -> float | np.ndarray:
    """Exact one-sided TDMA line p_s = prod_i L_h(theta'/i^alpha), theta' = theta/m^alpha,
    for interferer fading power h; Rayleigh gives 1 / prod_i (1 + theta'/i^alpha).

    Valid for any alpha > 1 and real m >= 1 (m enters only through theta/m^alpha). theta
    and m may be scalars or arrays that broadcast; scalars give a float, arrays an array.

    The p = 1 form of _line_forms runs in numpy over the whole array: exp(-zeta theta')
    for static interferers, y/sinh y and 2y^2/(sinh^2 y + sin^2 y) at alpha 2 and 4 for
    Rayleigh ones, and else exp(-m S(theta'/m)) with contention.line_exponent's S, whose
    work is bounded at every theta'. Against an mpmath reference the relative error is
    below 1e-13 for alpha in [1.5, 5] and theta' in [1e-6, 1e4], and at alpha 3 wherever
    p_s > 1e-200. Each element depends only on its own theta', so an array call returns
    exactly what scalar calls return.
    """
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    theta, m = np.asarray(theta, dtype=float), np.asarray(m, dtype=float)
    if not (np.all(theta > 0) and np.all(m >= 1)):
        raise DomainError("theta must be positive and m >= 1")
    return _line_forms(alpha, interferer_fading)[0](_theta_prime(alpha, theta, m))


def ps_tdma_line(alpha: float, theta: float, m: int, sided: str = "one",
                 interferer_fading: Fading = Fading.rayleigh()) -> SuccessProbability:
    """TDMA regular line network with reuse factor m, a Rayleigh desired link
    and interferer fading h: p_s = prod_i L_h(theta'/i^alpha), theta' = theta/m^alpha.

    The p = 1 form of _line_forms, as tdma_ps_one_sided takes it: exp(-z') for static
    interferers, the lower bound's own bits, and the alpha 2 and 4 forms for Rayleigh
    ones (method ``closed-form``); else the exact infinite product exp(-m S(theta'/m))
    (method ``product``). The bounds are exp(-z') <= p_s <= 1/(1 + z' + (zeta-1)
    theta'^2), z' = zeta(alpha) theta'. The lower one is Jensen's, for any fading; the
    upper one needs L_h(x) <= 1/(1 + x), as static and Nakagami m >= 1 meet, and is 1
    for m < 1. Two-sided networks square the one-sided results.
    """
    if not (1 < alpha < math.inf and theta > 0):
        raise DomainError(f"TDMA p_s needs finite alpha > 1 and theta > 0, got {alpha}, {theta}")
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"reuse factor must be an integer >= 1, got {m}")
    if sided not in ("one", "two"):
        raise DomainError(f"sided must be 'one' or 'two', got {sided!r}")
    z = zeta(alpha)
    theta_p = float(_theta_prime(alpha, theta, m))  # the theta' of tdma_ps_one_sided
    lower = _clamp_ps(_ps_line_static(z, theta_p))
    # theta_p * theta_p is inf past the float range (upper = 0); ** 2 would raise.
    upper = 1.0 / (1.0 + z * theta_p + (z - 1.0) * (theta_p * theta_p))
    if not interferer_fading.is_static and interferer_fading.m < 1.0:
        upper = 1.0
    form, _, _, method = _line_forms(alpha, interferer_fading)
    value = _clamp_ps(form(theta_p))
    if interferer_fading.is_static:
        method = "closed-form"
    if sided == "two":
        value *= value
        lower *= lower
        upper *= upper
    return _bounded(value, lower, upper, method)
