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

from functools import partial
from typing import Callable

from . import capacity, contention, outage
from .contention import UnsupportedClassError
from .model import (
    Aloha,
    Explicit,
    ExponentialLaw,
    Fading,
    FadingCase,
    MacScheme,
    NetworkModel,
    PowerLaw,
    Ppp,
    RegularLine,
    SingleInterferer,
    Tdma,
    effective_distance,
)

__all__ = ["spatial_contention", "success_probability", "ergodic_capacity"]

_RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())
_STATIC = FadingCase(Fading.none(), Fading.none())


def _named(model: NetworkModel, mac: MacScheme, why: object) -> UnsupportedClassError:
    return UnsupportedClassError(
        f"no closed form for {model.geometry!r}, {model.path_loss!r}, fading "
        f"{model.fading.label}, {type(mac).__name__}: {why}")


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise UnsupportedClassError(why)


def _forms(model: NetworkModel, mac: MacScheme,
           theta: float) -> tuple[float, Callable[[float], float] | None]:
    """(gamma, the ALOHA p_s as a function of p, or None where only gamma
    has a form). Other classes raise a bare UnsupportedClassError(reason)."""
    g, pl, case = model.geometry, model.path_loss, model.fading
    if isinstance(pl, ExponentialLaw):
        _require(g == Ppp(2) and case == _RAY and isinstance(mac, Aloha),
                 "exponential path loss needs the 2-D PPP, case 1/1 and ALOHA")
        return (contention.gamma_exp_pathloss(pl.delta, theta),
                partial(outage.ps_exp_pathloss, pl.delta, theta))
    if isinstance(g, SingleInterferer) and isinstance(mac, Aloha):
        xi = effective_distance(g.r, pl.alpha, theta)
        return contention.gamma_single(case, xi), partial(outage.ps_single, case, xi)
    if isinstance(g, RegularLine):
        _require(case == _RAY, "line networks need case 1/1")
        sides = 2 if g.sided == "two" else 1
        if isinstance(mac, Tdma):
            return sides * contention.gamma_tdma_line(pl.alpha, theta), None
        if pl.alpha == 2.0:
            gamma, ps = contention.gamma_line_alpha2(theta), outage.ps_line_alpha2_aloha
        elif pl.alpha == 4.0:
            gamma, ps = contention.gamma_line_alpha4(theta), outage.ps_line_alpha4_aloha
        else:
            # The zeta series converges fast only for theta < 1/2.
            _require(theta < 0.5, "line contention needs alpha in {2, 4} or theta < 0.5")
            return sides * contention.gamma_line_taylor(pl.alpha, theta, terms=30), None
        if sides == 2:
            return 2 * gamma, lambda p: ps(theta, p) * ps(theta, p)
        return gamma, partial(ps, theta)
    _require(isinstance(mac, Aloha), "TDMA needs a line network")
    if isinstance(g, Ppp) and case == _STATIC:
        _require(g.d == 2 and pl.alpha == 4.0, "the non-fading PPP needs d = 2 and alpha = 4")
        return (contention.gamma_ppp_nonfading_alpha4(theta),
                partial(outage.ps_ppp_nonfading_alpha4, theta))
    _require(case.desired.is_rayleigh, "the desired link must be Rayleigh")
    if isinstance(g, Explicit):
        xis = [effective_distance(r, pl.alpha, theta) for r in g.distances]
        ps = (partial(outage.ps_explicit_partial_exact, xis) if case.interferer.is_static
              else lambda p: outage.ps_explicit(xis, p).value)
        return contention.gamma_explicit(xis, case.interferer), ps
    return (contention.gamma_ppp(g.d, pl.alpha, theta, case.interferer),
            partial(outage.ps_ppp, g.d, pl.alpha, theta, interferer_fading=case.interferer))


def spatial_contention(model: NetworkModel, mac: MacScheme, theta: float) -> float:
    """Spatial contention gamma of ``model`` at threshold ``theta``.

    Under ALOHA it is the slope of the outage in p at p = 0 and does not
    depend on p; under TDMA (line networks) it is the slope with respect
    to (1/m)^alpha. Two-sided lines have twice the one-sided value.
    """
    try:
        return _forms(model, mac, theta)[0]
    except UnsupportedClassError as exc:
        raise _named(model, mac, exc) from None


def success_probability(model: NetworkModel, mac: MacScheme,
                        theta: float) -> outage.SuccessProbability:
    """Success probability p_s = P(SIR > theta) with its bounds.

    Under ALOHA the bounds are 1 - p gamma and exp(-p gamma), with gamma
    from :func:`spatial_contention`; TDMA lines carry their own bounds.
    """
    try:
        gamma, ps = _forms(model, mac, theta)
        if isinstance(mac, Tdma):
            return outage.ps_tdma_line(model.path_loss.alpha, theta, mac.m,
                                       sided=model.geometry.sided)
        _require(ps is not None, "line ALOHA needs alpha in {2, 4}")
        return outage.sandwich(ps(mac.p), mac.p, gamma)
    except UnsupportedClassError as exc:
        raise _named(model, mac, exc) from None


def ergodic_capacity(model: NetworkModel, mac: MacScheme) -> capacity.CapacityResult:
    """Ergodic capacity E log(1 + SIR) in nats.

    Covers the Rayleigh PPP under ALOHA and the one-sided Rayleigh TDMA
    line, both with power-law path loss.
    """
    g, pl = model.geometry, model.path_loss
    if model.fading == _RAY and isinstance(pl, PowerLaw):
        if isinstance(g, Ppp) and isinstance(mac, Aloha):
            return capacity.ergodic_capacity_ppp(pl.alpha, g.d, mac.p)
        if g == RegularLine("one") and isinstance(mac, Tdma):
            return capacity.ergodic_capacity_tdma(pl.alpha, mac.m)
    raise _named(model, mac, "capacity needs a Rayleigh PPP under ALOHA or a one-sided "
                             "Rayleigh TDMA line, with power path loss")
