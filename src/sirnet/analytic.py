"""One path from a network model, a MAC scheme and a threshold to its
closed forms: spatial contention gamma, success probability p_s and ergodic
capacity.

Each function picks the closed form, series, product or quadrature that
applies to the model, and raises :class:`UnsupportedClassError` naming the
geometry, path loss, fading case and MAC when none does. The CLI and the
validation sweep compute every analytic number through these three
functions, so a label can never be paired with another class's formula.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from . import capacity, contention, outage
from .contention import UnsupportedClassError
from .model import (
    RAYLEIGH,
    Aloha,
    ExponentialLaw,
    MacScheme,
    NetworkModel,
    PowerLaw,
    Ppp,
    RegularLine,
    SingleInterferer,
    Tdma,
    effective_distance,
)

__all__ = ["spatial_contention", "contention_method", "success_probability", "ergodic_capacity"]

def _named(model: NetworkModel, mac: MacScheme, why: object) -> UnsupportedClassError:
    return UnsupportedClassError(
        f"no closed form for {model.geometry!r}, {model.path_loss!r}, fading "
        f"{model.fading.label}, {type(mac).__name__}: {why}")


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise UnsupportedClassError(why)


def _forms(model: NetworkModel, mac: MacScheme,
           theta: float) -> tuple[float, Callable[[float], float] | None, str]:
    """(gamma, the ALOHA p_s as a function of p or None under TDMA, and the
    method of that p_s). With a Rayleigh desired link and power-law path loss
    both come from the interferer fading's Laplace transform: the PPP's
    E[h^(d/alpha)], or a product over the interferers of a line (at p = 1 under
    TDMA) or an explicit set. Other classes raise a bare
    UnsupportedClassError(reason)."""
    g, pl, case = model.geometry, model.path_loss, model.fading
    if isinstance(pl, ExponentialLaw):
        _require(g == Ppp(2) and case == RAYLEIGH and isinstance(mac, Aloha),
                 "exponential path loss needs the 2-D PPP, case 1/1 and ALOHA")
        gamma = contention.gamma_exp_pathloss(pl.delta, theta)
        return gamma, lambda p: math.exp(-p * gamma), "closed-form"
    if isinstance(g, SingleInterferer) and isinstance(mac, Aloha):
        gamma, q = contention._single_outage(case, effective_distance(g.r, pl.alpha, theta))
        return gamma, lambda p: (1.0 - p) + p * q, "closed-form"
    if isinstance(g, Ppp) and case.label == "0/0" and isinstance(mac, Aloha):
        _require(g.d == 2 and pl.alpha == 4.0, "the non-fading PPP needs d = 2 and alpha = 4")
        return (contention.gamma_ppp_nonfading_alpha4(theta),
                partial(outage.ps_ppp_nonfading_alpha4, theta), "closed-form")
    _require(case.desired.is_rayleigh, "the desired link must be Rayleigh")
    sides = 2 if isinstance(g, RegularLine) and g.sided == "two" else 1
    if isinstance(g, RegularLine) and isinstance(mac, Tdma):
        return sides * contention.gamma_tdma_line(pl.alpha, theta), None, "closed-form"
    _require(isinstance(mac, Aloha), "TDMA needs a line network")
    h = case.interferer
    if isinstance(g, Ppp):
        gamma = contention.gamma_ppp(g.d, pl.alpha, theta, h)
        return gamma, lambda p: math.exp(-p * gamma), "closed-form"
    if isinstance(g, RegularLine):
        _, aloha_ps, line_gamma, method = outage._line_forms(pl.alpha, h)
        gamma, ps = line_gamma(theta), partial(aloha_ps, theta)
    else:  # an explicit set of interferers
        method = "closed-form"
        x = contention.interference_x([effective_distance(r, pl.alpha, theta) for r in g.distances])
        gamma = math.fsum(contention.interference_gamma(x, h).tolist())
        ps = lambda p: math.exp(-math.fsum(contention.interference_log_ps(x, p, h).tolist()))
    return sides * gamma, lambda p: ps(p) ** sides, method


def spatial_contention(model: NetworkModel, mac: MacScheme, theta: float) -> float:
    """Spatial contention gamma of ``model`` at threshold ``theta``.

    Under ALOHA it is the slope of the outage in p at p = 0 and does not
    depend on p; under TDMA (line networks) it is the slope with respect
    to (1/m)^alpha. Two-sided lines have twice the one-sided value.
    """
    return contention_method(model, mac, theta)[0]


def contention_method(model: NetworkModel, mac: MacScheme, theta: float) -> tuple[float, str]:
    """:func:`spatial_contention` and the method that gave it: closed-form or product."""
    try:
        gamma, _, method = _forms(model, mac, theta)
        return gamma, method
    except UnsupportedClassError as exc:
        raise _named(model, mac, exc) from None


def success_probability(model: NetworkModel, mac: MacScheme,
                        theta: float) -> outage.SuccessProbability:
    """Success probability p_s = P(SIR > theta) with its bounds.

    Under ALOHA the bounds are 1 - p gamma and exp(-p gamma), with gamma
    from :func:`spatial_contention`; TDMA lines carry their own bounds.
    """
    try:
        gamma, ps, method = _forms(model, mac, theta)
        if isinstance(mac, Tdma):
            return outage.ps_tdma_line(model.path_loss.alpha, theta, mac.m,
                                       model.geometry.sided, model.fading.interferer)
        return outage.sandwich(ps(mac.p), mac.p, gamma, method, isinstance(model.geometry, SingleInterferer))
    except UnsupportedClassError as exc:
        raise _named(model, mac, exc) from None


def ergodic_capacity(model: NetworkModel, mac: MacScheme) -> capacity.CapacityResult:
    """Ergodic capacity E log(1 + SIR) in nats.

    Covers the Rayleigh PPP under ALOHA and the one-sided Rayleigh TDMA
    line, both with power-law path loss.
    """
    g, pl = model.geometry, model.path_loss
    if model.fading == RAYLEIGH and isinstance(pl, PowerLaw):
        if isinstance(g, Ppp) and isinstance(mac, Aloha):
            return capacity.ergodic_capacity_ppp(pl.alpha, g.d, mac.p)
        if g == RegularLine("one") and isinstance(mac, Tdma):
            return capacity.ergodic_capacity_tdma(pl.alpha, mac.m)
    raise _named(model, mac, "capacity needs a Rayleigh PPP under ALOHA or a one-sided "
                             "Rayleigh TDMA line, with power path loss")
