"""Analytic-vs-Monte-Carlo cross-validation sweep.

Each case pairs a closed form (or certified numeric form) with a matched
simulation and reports the z-score of the discrepancy. The sweep passes
when at least 99% of z-scores are below 3 and every bound ordering holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import capacity, contention, outage
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
from .montecarlo import SimConfig, estimate_capacity, simulate_ps
from .throughput import tdma_ps_one_sided

__all__ = ["ValidationRow", "validation_cases", "run_validation", "validation_passed"]

_RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())
_RAY_STATIC = FadingCase(Fading.rayleigh(), Fading.none())
_STATIC_RAY = FadingCase(Fading.none(), Fading.rayleigh())
_STATIC = FadingCase(Fading.none(), Fading.none())


@dataclass(frozen=True)
class ValidationRow:
    name: str
    quantity: str
    analytic: float
    estimate: float
    stderr: float
    z: float
    ok: bool


@dataclass(frozen=True)
class _Case:
    name: str
    model: NetworkModel
    mac: MacScheme | None
    theta: float
    analytic: float
    quantity: str = "ps"  # or "capacity"


def _pick_p(gamma: float) -> float:
    """Transmit probability giving outage around 25%, clamped to [0.02, 0.5]."""
    return min(0.5, max(0.02, 0.3 / gamma))


def _single_cases() -> list[_Case]:
    cases = []
    r, alpha, p = 1.2, 4.0, 0.5
    for theta in (0.1, 1.0, 10.0):
        xi = effective_distance(r, alpha, theta)
        cases.append(_Case(
            f"single-1/1-th{theta:g}",
            NetworkModel(SingleInterferer(r), PowerLaw(alpha), _RAY),
            Aloha(p), theta, outage.ps_single(_RAY, xi, p),
        ))
    xi = effective_distance(r, alpha, 1.0)
    for label, case in (("1/0", _RAY_STATIC), ("0/1", _STATIC_RAY), ("0/0", _STATIC)):
        cases.append(_Case(
            f"single-{label}",
            NetworkModel(SingleInterferer(r), PowerLaw(alpha), case),
            Aloha(p), 1.0, outage.ps_single(case, xi, p),
        ))
    naka_i = FadingCase(Fading.rayleigh(), Fading.nakagami(4.0))
    naka_d = FadingCase(Fading.nakagami(4.0), Fading.rayleigh())
    naka_h = FadingCase(Fading.rayleigh(), Fading.nakagami(0.5))
    for label, case in (("1/m4", naka_i), ("m4/1", naka_d), ("1/m0.5", naka_h)):
        cases.append(_Case(
            f"single-{label}",
            NetworkModel(SingleInterferer(r), PowerLaw(alpha), case),
            Aloha(p), 1.0, outage.ps_single(case, xi, p),
        ))
    xi3 = effective_distance(r, 3.0, 1.0)
    cases.append(_Case(
        "single-1/1-a3",
        NetworkModel(SingleInterferer(r), PowerLaw(3.0), _RAY),
        Aloha(p), 1.0, outage.ps_single(_RAY, xi3, p),
    ))
    return cases


def _explicit_cases() -> list[_Case]:
    alpha, theta, p = 4.0, 1.0, 0.3
    dists = (1.0, 2.0, 3.0)
    xis = [effective_distance(r, alpha, theta) for r in dists]
    cases = [_Case(
        "explicit-1/1",
        NetworkModel(Explicit(dists), PowerLaw(alpha), _RAY),
        Aloha(p), theta, outage.ps_explicit(xis, p).value,
    )]
    dists2 = (1.5, 2.5)
    xis2 = [effective_distance(r, alpha, theta) for r in dists2]
    cases.append(_Case(
        "explicit-1/0",
        NetworkModel(Explicit(dists2), PowerLaw(alpha), _RAY_STATIC),
        Aloha(p), theta, outage.ps_explicit_partial_exact(xis2, p),
    ))
    return cases


def _ppp_cases() -> list[_Case]:
    cases = []
    for alpha, thetas in ((4.0, (0.1, 1.0, 10.0)), (3.0, (0.1, 1.0))):
        for theta in thetas:
            gamma = contention.gamma_ppp(2, alpha, theta, Fading.rayleigh())
            p = _pick_p(gamma)
            cases.append(_Case(
                f"ppp2-a{alpha:g}-th{theta:g}",
                NetworkModel(Ppp(2), PowerLaw(alpha), _RAY),
                Aloha(p), theta, outage.ps_ppp(2, alpha, theta, p, Fading.rayleigh()),
            ))
    for theta in (0.1, 1.0):
        gamma = contention.gamma_ppp(2, 4.0, theta, Fading.none())
        p = _pick_p(gamma)
        cases.append(_Case(
            f"ppp2-1/0-th{theta:g}",
            NetworkModel(Ppp(2), PowerLaw(4.0), _RAY_STATIC),
            Aloha(p), theta, outage.ps_ppp(2, 4.0, theta, p, Fading.none()),
        ))
        gamma = contention.gamma_ppp_nonfading_alpha4(theta)
        p = _pick_p(gamma)
        cases.append(_Case(
            f"ppp2-0/0-th{theta:g}",
            NetworkModel(Ppp(2), PowerLaw(4.0), _STATIC),
            Aloha(p), theta, outage.ps_ppp_nonfading_alpha4(theta, p),
        ))
        gamma = contention.gamma_exp_pathloss(1.0, theta)
        p = _pick_p(gamma)
        cases.append(_Case(
            f"ppp2-exp-th{theta:g}",
            NetworkModel(Ppp(2), ExponentialLaw(1.0), _RAY),
            Aloha(p), theta, outage.ps_exp_pathloss(1.0, theta, p),
        ))
    for alpha in (2.0, 3.0, 4.0):
        for theta in (0.1, 1.0, 10.0):
            gamma = contention.gamma_ppp(1, alpha, theta, Fading.rayleigh())
            p = _pick_p(gamma)
            cases.append(_Case(
                f"ppp1-a{alpha:g}-th{theta:g}",
                NetworkModel(Ppp(1), PowerLaw(alpha), _RAY),
                Aloha(p), theta, outage.ps_ppp(1, alpha, theta, p, Fading.rayleigh()),
            ))
    return cases


def _line_cases() -> list[_Case]:
    cases = []
    one = NetworkModel(RegularLine("one"), PowerLaw(2.0), _RAY)
    for theta in (0.1, 1.0, 10.0):
        p = _pick_p(contention.gamma_line_alpha2(theta))
        cases.append(_Case(
            f"line1-a2-th{theta:g}", one, Aloha(p), theta,
            outage.ps_line_alpha2_aloha(theta, p),
        ))
    one4 = NetworkModel(RegularLine("one"), PowerLaw(4.0), _RAY)
    for theta in (0.1, 1.0):
        p = _pick_p(contention.gamma_line_alpha4(theta))
        cases.append(_Case(
            f"line1-a4-th{theta:g}", one4, Aloha(p), theta,
            outage.ps_line_alpha4_aloha(theta, p),
        ))
    two = NetworkModel(RegularLine("two"), PowerLaw(2.0), _RAY)
    cases.append(_Case(
        "line2-a2-th1", two, Aloha(0.2), 1.0,
        outage.ps_line_alpha2_aloha(1.0, 0.2) ** 2,
    ))
    two4 = NetworkModel(RegularLine("two"), PowerLaw(4.0), _RAY)
    cases.append(_Case(
        "line2-a4-th1", two4, Aloha(0.2), 1.0,
        outage.ps_line_alpha4_aloha(1.0, 0.2) ** 2,
    ))
    cases.append(_Case(
        "line1-a4-th10", one4, Aloha(0.1), 10.0,
        outage.ps_line_alpha4_aloha(10.0, 0.1),
    ))
    return cases


def _tdma_cases() -> list[_Case]:
    cases = []
    one2 = NetworkModel(RegularLine("one"), PowerLaw(2.0), _RAY)
    for m in (1, 2, 4, 8):
        cases.append(_Case(
            f"tdma-a2-m{m}", one2, Tdma(m), 1.0,
            outage.ps_tdma_line(2.0, 1.0, m).value,
        ))
    for theta in (0.1, 10.0):
        cases.append(_Case(
            f"tdma-a2-m2-th{theta:g}", one2, Tdma(2), theta,
            outage.ps_tdma_line(2.0, theta, 2).value,
        ))
    one4 = NetworkModel(RegularLine("one"), PowerLaw(4.0), _RAY)
    for m in (1, 2):
        cases.append(_Case(
            f"tdma-a4-m{m}", one4, Tdma(m), 1.0,
            outage.ps_tdma_line(4.0, 1.0, m).value,
        ))
    two2 = NetworkModel(RegularLine("two"), PowerLaw(2.0), _RAY)
    cases.append(_Case(
        "tdma-a2-m2-two", two2, Tdma(2), 1.0,
        outage.ps_tdma_line(2.0, 1.0, 2, sided="two").value,
    ))
    one3 = NetworkModel(RegularLine("one"), PowerLaw(3.0), _RAY)
    cases.append(_Case(
        "tdma-a3-m2", one3, Tdma(2), 1.0, tdma_ps_one_sided(3.0, 1.0, 2),
    ))
    return cases


def _capacity_cases() -> list[_Case]:
    one2 = NetworkModel(RegularLine("one"), PowerLaw(2.0), _RAY)
    ppp = NetworkModel(Ppp(2), PowerLaw(4.0), _RAY)
    return [
        _Case(
            "capacity-tdma-a2-m2", one2, Tdma(2), 1.0,
            capacity.ergodic_capacity_tdma(2.0, 2).value, quantity="capacity",
        ),
        _Case(
            "capacity-ppp2-a4-p0.1", ppp, Aloha(0.1), 1.0,
            capacity.ergodic_capacity_ppp(4.0, 2, 0.1).value, quantity="capacity",
        ),
    ]


def validation_cases() -> list[_Case]:
    return (
        _single_cases()
        + _explicit_cases()
        + _ppp_cases()
        + _line_cases()
        + _tdma_cases()
        + _capacity_cases()
    )


def _bound_checks() -> list[tuple[str, bool]]:
    """Orderings that must hold exactly: lower <= value <= upper."""
    checks = []
    for alpha in (2.0, 3.0, 4.0):
        for m in (1, 2, 4):
            for theta in (0.1, 1.0, 10.0):
                sp = outage.ps_tdma_line(alpha, theta, m)
                value = tdma_ps_one_sided(alpha, theta, m) if sp.value is None else sp.value
                ok = sp.lower_bound <= value * (1 + 1e-9) and value <= sp.upper_bound * (1 + 1e-9)
                checks.append((f"tdma-bounds-a{alpha:g}-m{m}-th{theta:g}", ok))
    for theta in (0.1, 1.0, 10.0):
        for p in (0.05, 0.2, 0.5):
            gamma = contention.gamma_line_alpha2(theta)
            ps = outage.ps_line_alpha2_aloha(theta, p)
            ok = max(0.0, 1.0 - p * gamma) <= ps <= math.exp(-p * gamma) + 1e-12
            checks.append((f"line-sandwich-th{theta:g}-p{p:g}", ok))
    return checks


def run_validation(
    cfg: SimConfig, cases: list[_Case] | None = None
) -> tuple[list[ValidationRow], list[tuple[str, bool]]]:
    """Simulate `cases` (default: every validation case) and run the bound checks."""
    rows = []
    for case in validation_cases() if cases is None else cases:
        if case.quantity == "capacity":
            est = estimate_capacity(case.model, case.mac, cfg, theta_ref=20.0)
        else:
            est = simulate_ps(case.model, case.mac, case.theta, cfg)
        z = abs(est.z_score(case.analytic))
        rows.append(ValidationRow(
            case.name, case.quantity, case.analytic, est.mean, est.stderr, z, z < 3.0,
        ))
    return rows, _bound_checks()


def validation_passed(rows: list[ValidationRow], checks: list[tuple[str, bool]]) -> bool:
    ok_fraction = sum(r.ok for r in rows) / len(rows)
    return ok_fraction >= 0.99 and all(ok for _, ok in checks)
