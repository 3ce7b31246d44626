"""Ergodic capacity C = E log(1 + SIR) of a unit-distance link (in nats).

Built from the SIR ccdf via C = integral of p_s(theta)/(1+theta), or
equivalently from the exponentially distributed (d/alpha)-th SIR moment for
PPP networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contention import c_d_constant
from .optimize import _prescan_grid, golden_section_max
from .quadrature import _decaying_rule, integrate_decaying
from .specfun import (
    DomainError,
    _gamma_cf,
    exp_integral_e1,
    exp_integral_e1_imag_scaled,
    lower_incomplete_gamma,
    zeta,
)
from .throughput import tdma_ps_one_sided

__all__ = [
    "CapacityResult",
    "ergodic_capacity_ppp",
    "ergodic_capacity_ppp_lower",
    "ergodic_capacity_cp",
    "ergodic_capacity_cp_lower",
    "spatial_capacity_opt",
    "ergodic_capacity_tdma",
    "ergodic_capacity_tdma_bounds",
    "tdma_sir_moments",
    "tdma_sqrt_sir_cdf",
    "tdma_spatial_capacity",
]


@dataclass(frozen=True)
class CapacityResult:
    """Ergodic capacity in nats with the method that produced it.

    abs_err is 0.0 for closed forms and otherwise the quadrature's own
    error estimate: the sum over Gauss-Legendre panels of |Q_2n - Q_n|.
    """

    value: float
    method: str
    c_p: float | None = None
    abs_err: float = 0.0


# Geometric panel counts for the capacity integrals.
_CP_PANELS = 24
_TDMA_PANELS = 8
# c_p values that _capacity_values integrates in one pass: about 100 KB of temporaries.
_CP_BLOCK = 4
# Reuse factors that tdma_spatial_capacity integrates in one pass at alpha 2: under 100 KB.
_TDMA_M_BLOCK = 12


def _check_reuse(m) -> None:
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"reuse factor must be an integer >= 1, got {m}")


def _c_p(alpha: float, d: int, p: float) -> float:
    cd = c_d_constant(d, alpha)  # checks d, then alpha
    if not 0.0 < p <= 1.0:
        raise DomainError(f"transmit probability must be in (0, 1], got {p}")
    cp = p * cd
    if cp == 0.0:
        raise DomainError(f"c_p = p C_d(alpha) underflows to 0 at d = {d}, alpha = {alpha}")
    return cp


def ergodic_capacity_ppp(alpha: float, d: int = 2, p: float = 1.0) -> CapacityResult:
    """Ergodic capacity of a Rayleigh PPP network link under ALOHA.

    The (d/alpha)-th moment of the SIR is exponential with mean 1/c_p,
    c_p = p C_d(alpha), so C = c_p int log(1 + t^(alpha/d)) exp(-c_p t) dt.
    For the quadratic boost exponent (alpha = 2d) this reduces to a
    closed form in E1(j c_p); otherwise Gauss-Legendre quadrature is
    used. A 1-D network has the same capacity as a 2-D one with twice the
    path loss exponent.
    """
    cp = _c_p(alpha, d, p)  # checks d before alpha / d
    return ergodic_capacity_cp(alpha / d, cp)


def ergodic_capacity_cp(boost: float, cp: float) -> CapacityResult:
    """Capacity as a function of the boost exponent alpha/d and c_p directly."""
    if not (boost > 1 and cp > 0):
        raise DomainError(f"need boost > 1 and c_p > 0, got {boost}, {cp}")
    if boost == 2.0:
        return CapacityResult(value=_capacity_boost2(cp), method="closed-form", c_p=cp)
    _check_integrand(boost, cp)
    # The integrand behaves like u^boost near 0, which is not analytic for
    # non-integer boost: geometric panels reach down to 60 * 2^-23.
    value, err = integrate_decaying(lambda u: _integrand(u, np.exp(-u), boost, cp),
                                    cutoff=60.0, pieces=_CP_PANELS)
    return CapacityResult(value=value, method="quadrature", c_p=cp, abs_err=err)


def _capacity_boost2(cp: float) -> float:
    # C = 2 Re[e^(j c_p) E1(j c_p)]
    return 2.0 * exp_integral_e1_imag_scaled(cp).real


def _check_integrand(boost: float, cp: float) -> None:
    # Refuse where (u/c_p)^boost would pass the float range (e^709.78) at a node u <= 60.
    if boost * math.log(60.0 / cp) > 709.0:
        raise DomainError(f"capacity integrand overflows at boost {boost}, c_p {cp}")


def _integrand(u: np.ndarray, exp_minus_u: np.ndarray, boost: float, cp) -> np.ndarray:
    # u = c_p t; C = int log(1 + (u/c_p)^boost) exp(-u) du
    return np.log1p((u / cp) ** boost) * exp_minus_u


def _capacity_values(boost: float):
    """c_p values -> [ergodic_capacity_cp(boost, c).value ...], `==` and with the
    same refusals, from nodes and e^-u built once, _CP_BLOCK c_p at a time."""
    if boost == 2.0:
        return lambda cps: [_capacity_boost2(c) for c in cps]
    nodes, value = _decaying_rule(60.0, _CP_PANELS)
    exp_minus_nodes = np.exp(-nodes)

    def values(cps) -> list[float]:
        out = []
        for i in range(0, len(cps), _CP_BLOCK):
            block = cps[i:i + _CP_BLOCK]
            for cp in block:
                _check_integrand(boost, cp)
            cp_column = np.array(block, dtype=float)[:, None, None]
            out += value(_integrand(nodes, exp_minus_nodes, boost, cp_column)).tolist()
        return out

    return values


def ergodic_capacity_ppp_lower(alpha: float, d: int = 2, p: float = 1.0) -> CapacityResult:
    """Analytic lower bound on the PPP ergodic capacity.

    Piecewise bound in the boost exponent b = alpha/d:
    log(2) (c^(-b) gamma(1+b, c) + (b/2 - 1) e^(-sqrt(2) c) + e^(-c))
    + b E1(sqrt(2) c). Also computes the high-SIR bound b E1(c) and
    returns whichever is tighter.
    """
    cp = _c_p(alpha, d, p)  # checks d before alpha / d
    return ergodic_capacity_cp_lower(alpha / d, cp)


def ergodic_capacity_cp_lower(b: float, cp: float) -> CapacityResult:
    """Lower bound as a function of the boost exponent b = alpha/d and c_p."""
    if not (b > 1 and cp > 0):
        raise DomainError(f"need boost > 1 and c_p > 0, got {b}, {cp}")
    piecewise = math.log(2.0) * (
        cp ** -b * lower_incomplete_gamma(1.0 + b, cp)
        + (b / 2.0 - 1.0) * math.exp(-math.sqrt(2.0) * cp)
        + math.exp(-cp)
    ) + b * exp_integral_e1(math.sqrt(2.0) * cp)
    high_sir = b * exp_integral_e1(cp)
    if piecewise >= high_sir:
        return CapacityResult(value=piecewise, method="lower-bound", c_p=cp)
    return CapacityResult(value=high_sir, method="lower-bound-high-sir", c_p=cp)


def spatial_capacity_opt(alpha: float, d: int = 2, duplex: str = "full") -> tuple[float, float]:
    """Transmit probability maximizing the spatial capacity p C(p) (or p(1-p)C(p)).

    Returns (p_opt, spatial_capacity). The half-duplex optimum sits near
    p = 1/9 for all alpha. C(p) is ergodic_capacity_ppp(alpha, d, p).value,
    from one evaluator built for the search; the prescan's points share one
    call to it.
    """
    if duplex not in ("full", "half"):
        raise DomainError(f"duplex must be 'full' or 'half', got {duplex!r}")
    cd = _c_p(alpha, d, 1.0)  # C_d(alpha), so p * cd == _c_p(alpha, d, p)
    capacities = _capacity_values(alpha / d)

    def weight(p: float) -> float:
        return p * (1.0 - p) if duplex == "half" else p

    a, b = 1e-6, 1.0 - 1e-6
    xs = _prescan_grid(a, b)
    prescanned = {p: weight(p) * c for p, c in zip(xs, capacities([p * cd for p in xs]))}

    def objective(p: float) -> float:
        if p in prescanned:
            return prescanned[p]
        return weight(p) * capacities([p * cd])[0]

    return golden_section_max(objective, a, b, tol=1e-7)


def ergodic_capacity_tdma(alpha: float, m: int) -> CapacityResult:
    """Ergodic capacity of a one-sided TDMA line network with reuse factor m.

    alpha = 2 has the exact kernel
    C = int log(1 + (m t/pi)^2) (t cosh t - sinh t)/sinh^2 t dt (the SIR
    density under the substitution t = pi sqrt(theta)/m); other alpha fall
    back to quadrature of p_s(theta)/(1+theta) with throughput's
    tdma_ps_one_sided: its closed form at alpha 4, Gamma product at alpha 3,
    line sums elsewhere. That integral calls tdma_ps_one_sided twice: once on
    the candidate cutoffs, to pick the first where p_s is negligible, and once
    on the nodes of all its panels. Both report the panel error estimate in
    abs_err.
    """
    _check_reuse(m)
    if alpha == 2:
        return _tdma_capacity_alpha2(m)
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    return _tdma_capacity_ccdf(alpha, m)


def _tdma_alpha2_integrand(t: np.ndarray, m) -> np.ndarray:
    # (t cosh t - sinh t)/sinh^2 t = 2 e^-t (t (2 + e) + e)/e^2 with
    # e = expm1(-2t), which cancels for small t: there the series is used.
    small = t < 1e-3
    ts = np.where(small, 1.0, t)
    em = np.expm1(-2.0 * ts)
    kernel = np.where(small, t / 3.0 - t ** 3 / 30.0,
                      2.0 * np.exp(-ts) * (ts * (2.0 + em) + em) / em ** 2)
    return np.log1p((m * t / math.pi) ** 2) * kernel


def _tdma_capacity_alpha2(m: int) -> CapacityResult:
    value, err = integrate_decaying(lambda t: _tdma_alpha2_integrand(t, m),
                                    cutoff=60.0, pieces=_TDMA_PANELS)
    return CapacityResult(value=value, method="closed-kernel", abs_err=err)


def _tdma_capacity_ccdf(alpha: float, m: int) -> CapacityResult:
    # C = int p_s(theta)/(1+theta) dtheta; substitute theta = e^v - 1 so the
    # integrand p_s(e^v - 1) decays like exp(-zeta (e^v-1)/m^alpha) in v.
    def integrand_v(v):
        return tdma_ps_one_sided(alpha, np.expm1(v), m)

    # p_s decays like exp(-const theta^(1/alpha)); grow the cutoff by 1.5 until the
    # integrand is negligible (its tail then decays faster than e^-v) or the cutoff
    # reaches 1e4. One probe call evaluates every candidate; e^v - 1 = inf past
    # v = 709.78 gives p_s = 0.
    candidates = [math.log1p(60.0 * m ** alpha / zeta(alpha))]
    while candidates[-1] < 1e4:
        candidates.append(candidates[-1] * 1.5)
    with np.errstate(over="ignore"):
        probe = integrand_v(np.array(candidates))
    cutoff = next((c for c, ps in zip(candidates, probe.tolist()) if not ps > 1e-13),
                  candidates[-1])
    value, err = integrate_decaying(integrand_v, cutoff=cutoff, pieces=_TDMA_PANELS)
    return CapacityResult(value=value, method="quadrature", abs_err=err)


def ergodic_capacity_tdma_bounds(alpha: float, m: int) -> tuple[float, float | None]:
    """(lower, upper) bounds for the TDMA line-network ergodic capacity.

    General alpha lower bound: exp(z) E1(z) with z = zeta(alpha)/m^alpha.
    For alpha = 2 the specific bounds 2 log(2m/pi) (tight for large m) and
    the Jensen upper bound log(1 + 7 zeta(3) m^2 / pi^2) are also applied;
    upper is None when alpha != 2.
    """
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    _check_reuse(m)
    z = zeta(alpha) / m ** alpha
    lower = _gamma_cf(0.0, z) if z >= 1.0 else math.exp(z) * exp_integral_e1(z)
    if alpha == 2:
        lower = max(lower, 2.0 * math.log(2.0 * m / math.pi))
        upper = math.log1p(7.0 * zeta(3.0) * m * m / math.pi ** 2)
        return lower, upper
    return lower, None


def tdma_sir_moments(m: int) -> tuple[float, float]:
    """(E sqrt(SIR), E SIR) for the alpha = 2 one-sided TDMA line network.

    E sqrt(SIR) = pi m / 4 and E SIR = 7 zeta(3) m^2 / pi^2.
    """
    _check_reuse(m)
    return math.pi * m / 4.0, 7.0 * zeta(3.0) * m * m / math.pi ** 2


def tdma_sqrt_sir_cdf(t: float) -> float:
    """cdf of pi sqrt(SIR)/m for the alpha = 2 TDMA line: (e^2t - 2t e^t - 1)/(e^2t - 1)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    if t > 30.0:
        return 1.0 - 2.0 * t * math.exp(-t)
    e = math.exp(t)
    return (e * e - 2.0 * t * e - 1.0) / (e * e - 1.0)


def tdma_spatial_capacity(alpha: float, m_range: range = range(1, 11)) -> tuple[int, float, dict[int, float]]:
    """Reuse factor maximizing the spatial capacity C(m)/m of a TDMA line.

    Returns (m_opt, C/m at the optimum, the full {m: C/m} table). The
    optimum is m = 2 for alpha = 2 and m = 3 for alpha = 4. C(m) is
    ergodic_capacity_tdma(alpha, m).value; at alpha = 2, whose kernel has the
    same nodes for every m, a block of m is integrated in one pass.
    """
    if alpha == 2:  # `==` to ergodic_capacity_tdma(2, m).value, whose nodes these are
        nodes, value = _decaying_rule(60.0, _TDMA_PANELS)
        caps = []
        for i in range(0, len(m_range), _TDMA_M_BLOCK):
            block = m_range[i:i + _TDMA_M_BLOCK]
            for m in block:
                _check_reuse(m)
            ms = np.array(block, dtype=float)[:, None, None]
            caps += value(_tdma_alpha2_integrand(nodes, ms)).tolist()
    else:
        caps = [ergodic_capacity_tdma(alpha, m).value for m in m_range]
    table = {m: c / m for m, c in zip(m_range, caps)}
    m_opt = max(table, key=table.__getitem__)
    return m_opt, table[m_opt], table
