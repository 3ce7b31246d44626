"""Analytic-vs-Monte-Carlo cross-validation sweep.

Each case pairs a closed form (or certified numeric form) with a matched
simulation and reports the z-score of the discrepancy. The sweep passes
when at least 99% of z-scores are below 3 and every bound ordering holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analytic
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
)
from .montecarlo import SimConfig, estimate_capacity, simulate_ps

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
    """A simulation matched to the analytic value of its own model."""

    name: str
    model: NetworkModel
    mac: MacScheme
    theta: float
    quantity: str = "ps"  # or "capacity"


def _pick_p(gamma: float) -> float:
    """Transmit probability giving outage around 25%, clamped to [0.02, 0.5]."""
    return min(0.5, max(0.02, 0.3 / gamma))


def _picked(name: str, model: NetworkModel, theta: float) -> _Case:
    """An ALOHA case at the p that _pick_p derives from the model's gamma
    (which does not depend on p)."""
    gamma = analytic.spatial_contention(model, Aloha(1.0), theta)
    return _Case(name, model, Aloha(_pick_p(gamma)), theta)


def _single_cases() -> list[_Case]:
    r, p = 1.2, Aloha(0.5)

    def single(case: FadingCase, alpha: float = 4.0) -> NetworkModel:
        return NetworkModel(SingleInterferer(r), PowerLaw(alpha), case)

    cases = [_Case(f"single-1/1-th{theta:g}", single(_RAY), p, theta)
             for theta in (0.1, 1.0, 10.0)]
    naka_i = FadingCase(Fading.rayleigh(), Fading.nakagami(4.0))
    naka_d = FadingCase(Fading.nakagami(4.0), Fading.rayleigh())
    naka_h = FadingCase(Fading.rayleigh(), Fading.nakagami(0.5))
    for case in (_RAY_STATIC, _STATIC_RAY, _STATIC, naka_i, naka_d, naka_h):
        cases.append(_Case(f"single-{case.label}", single(case), p, 1.0))
    cases.append(_Case("single-1/1-a3", single(_RAY, 3.0), p, 1.0))
    return cases


def _explicit_cases() -> list[_Case]:
    p = Aloha(0.3)
    return [
        _Case("explicit-1/1", NetworkModel(Explicit((1.0, 2.0, 3.0)), PowerLaw(4.0), _RAY),
              p, 1.0),
        _Case("explicit-1/0",
              NetworkModel(Explicit((1.5, 2.5)), PowerLaw(4.0), _RAY_STATIC), p, 1.0),
    ]


def _ppp_cases() -> list[_Case]:
    cases = []
    for alpha, thetas in ((4.0, (0.1, 1.0, 10.0)), (3.0, (0.1, 1.0))):
        model = NetworkModel(Ppp(2), PowerLaw(alpha), _RAY)
        cases += [_picked(f"ppp2-a{alpha:g}-th{theta:g}", model, theta) for theta in thetas]
    for theta in (0.1, 1.0):
        for label, model in (
            ("1/0", NetworkModel(Ppp(2), PowerLaw(4.0), _RAY_STATIC)),
            ("0/0", NetworkModel(Ppp(2), PowerLaw(4.0), _STATIC)),
            ("exp", NetworkModel(Ppp(2), ExponentialLaw(1.0), _RAY)),
        ):
            cases.append(_picked(f"ppp2-{label}-th{theta:g}", model, theta))
    for alpha in (2.0, 3.0, 4.0):
        model = NetworkModel(Ppp(1), PowerLaw(alpha), _RAY)
        cases += [_picked(f"ppp1-a{alpha:g}-th{theta:g}", model, theta)
                  for theta in (0.1, 1.0, 10.0)]
    return cases


def _line(alpha: float, sided: str = "one") -> NetworkModel:
    return NetworkModel(RegularLine(sided), PowerLaw(alpha), _RAY)


def _line_cases() -> list[_Case]:
    cases = [_picked(f"line1-a2-th{theta:g}", _line(2.0), theta) for theta in (0.1, 1.0, 10.0)]
    cases += [_picked(f"line1-a4-th{theta:g}", _line(4.0), theta) for theta in (0.1, 1.0)]
    cases += [
        _Case("line2-a2-th1", _line(2.0, "two"), Aloha(0.2), 1.0),
        _Case("line2-a4-th1", _line(4.0, "two"), Aloha(0.2), 1.0),
        _Case("line1-a4-th10", _line(4.0), Aloha(0.1), 10.0),
    ]
    return cases


def _tdma_cases() -> list[_Case]:
    cases = [_Case(f"tdma-a2-m{m}", _line(2.0), Tdma(m), 1.0) for m in (1, 2, 4, 8)]
    cases += [_Case(f"tdma-a2-m2-th{theta:g}", _line(2.0), Tdma(2), theta)
              for theta in (0.1, 10.0)]
    cases += [_Case(f"tdma-a4-m{m}", _line(4.0), Tdma(m), 1.0) for m in (1, 2)]
    cases += [
        _Case("tdma-a2-m2-two", _line(2.0, "two"), Tdma(2), 1.0),
        _Case("tdma-a3-m2", _line(3.0), Tdma(2), 1.0),
    ]
    return cases


def _capacity_cases() -> list[_Case]:
    return [
        _Case("capacity-tdma-a2-m2", _line(2.0), Tdma(2), 1.0, quantity="capacity"),
        _Case("capacity-ppp2-a4-p0.1", NetworkModel(Ppp(2), PowerLaw(4.0), _RAY), Aloha(0.1),
              1.0, quantity="capacity"),
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
                sp = analytic.success_probability(_line(alpha), Tdma(m), theta)
                ok = (sp.lower_bound <= sp.value * (1 + 1e-9)
                      and sp.value <= sp.upper_bound * (1 + 1e-9))
                checks.append((f"tdma-bounds-a{alpha:g}-m{m}-th{theta:g}", ok))
    for theta in (0.1, 1.0, 10.0):
        for p in (0.05, 0.2, 0.5):
            sp = analytic.success_probability(_line(2.0), Aloha(p), theta)
            ok = sp.lower_bound <= sp.value <= sp.upper_bound + 1e-12
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
            value = analytic.ergodic_capacity(case.model, case.mac).value
        else:
            est = simulate_ps(case.model, case.mac, case.theta, cfg)
            value = analytic.success_probability(case.model, case.mac, case.theta).value
        z = abs(est.z_score(value))
        rows.append(ValidationRow(
            case.name, case.quantity, value, est.mean, est.stderr, z, z < 3.0,
        ))
    return rows, _bound_checks()


def validation_passed(rows: list[ValidationRow], checks: list[tuple[str, bool]]) -> bool:
    ok_fraction = sum(r.ok for r in rows) / len(rows)
    return ok_fraction >= 0.99 and all(ok for _, ok in checks)
