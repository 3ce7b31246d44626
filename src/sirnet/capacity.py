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
from .optimize import golden_section_max
from .quadrature import integrate_decaying
from .specfun import (
    DomainError,
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


# Gauss-Legendre points per panel (n; the error estimate also uses 2n) and
# geometric panel counts for the capacity integrals.
_NODES = 16
_CP_PANELS = 24
_TDMA_PANELS = 8


def _c_p(alpha: float, d: int, p: float) -> float:
    if d not in (1, 2):
        raise DomainError(f"d must be 1 or 2, got {d}")
    if not d < alpha < math.inf:
        raise DomainError(f"finite alpha > d required, got alpha={alpha}, d={d}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"transmit probability must be in (0, 1], got {p}")
    return p * c_d_constant(d, alpha)


def ergodic_capacity_ppp(alpha: float, d: int = 2, p: float = 1.0) -> CapacityResult:
    """Ergodic capacity of a Rayleigh PPP network link under ALOHA.

    The (d/alpha)-th moment of the SIR is exponential with mean 1/c_p,
    c_p = p C_d(alpha), so C = c_p int log(1 + t^(alpha/d)) exp(-c_p t) dt.
    For the quadratic boost exponent (alpha = 2d) this reduces to a
    cosine/sine-integral closed form; otherwise adaptive quadrature is
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
        # C = 2 Re[e^(j c_p) E1(j c_p)]
        value = 2.0 * exp_integral_e1_imag_scaled(cp).real
        return CapacityResult(value=value, method="closed-form", c_p=cp)

    def integrand(u: np.ndarray) -> np.ndarray:
        # u = c_p t; C = int log(1 + (u/c_p)^boost) exp(-u) du
        return np.log1p((u / cp) ** boost) * np.exp(-u)

    # Refuse where (u/c_p)^boost would pass the float range (e^709.78) at a node u <= 60.
    if boost * math.log(60.0 / cp) > 709.0:
        raise DomainError(f"capacity integrand overflows at boost {boost}, c_p {cp}")
    # The integrand behaves like u^boost near 0, which is not analytic for
    # non-integer boost: geometric panels reach down to 60 * 2^-23.
    value, err = integrate_decaying(integrand, cutoff=60.0, pieces=_CP_PANELS, nodes=_NODES)
    return CapacityResult(value=value, method="quadrature", c_p=cp, abs_err=err)


def ergodic_capacity_ppp_lower(alpha: float, d: int = 2, p: float = 1.0) -> CapacityResult:
    """Analytic lower bound on the PPP ergodic capacity.

    Piecewise bound in the boost exponent b = alpha/d:
    log(2) (c^(-b) gamma(1+b, c) + (b/2 - 1) e^(-sqrt(2) c) + e^(-c))
    + b E1(sqrt(2) c). Also computes the high-SIR bound b E1(c) and
    returns whichever is tighter.
    """
    cp = _c_p(alpha, d, p)
    b = alpha / d
    return ergodic_capacity_cp_lower(b, cp)


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
    p = 1/9 for all alpha.
    """
    if duplex not in ("full", "half"):
        raise DomainError(f"duplex must be 'full' or 'half', got {duplex!r}")

    def objective(p: float) -> float:
        c = ergodic_capacity_ppp(alpha, d, p).value
        weight = p * (1.0 - p) if duplex == "half" else p
        return weight * c

    return golden_section_max(objective, 1e-6, 1.0 - 1e-6, tol=1e-7)


def ergodic_capacity_tdma(alpha: float, m: int) -> CapacityResult:
    """Ergodic capacity of a one-sided TDMA line network with reuse factor m.

    alpha = 2 has the exact kernel
    C = int log(1 + (m t/pi)^2) (t cosh t - sinh t)/sinh^2 t dt (the SIR
    density under the substitution t = pi sqrt(theta)/m); other alpha fall
    back to quadrature of p_s(theta)/(1+theta) using the exact infinite
    product for p_s. Both report the panel error estimate in abs_err.
    """
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"reuse factor must be an integer >= 1, got {m}")
    if alpha == 2:
        return _tdma_capacity_alpha2(m)
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    return _tdma_capacity_ccdf(alpha, m)


def _tdma_capacity_alpha2(m: int) -> CapacityResult:
    def integrand(t: np.ndarray) -> np.ndarray:
        # (t cosh t - sinh t)/sinh^2 t = 2 e^-t (t (2 + e) + e)/e^2 with
        # e = expm1(-2t), which cancels for small t: there the series is used.
        small = t < 1e-3
        ts = np.where(small, 1.0, t)
        em = np.expm1(-2.0 * ts)
        kernel = np.where(small, t / 3.0 - t ** 3 / 30.0,
                          2.0 * np.exp(-ts) * (ts * (2.0 + em) + em) / em ** 2)
        return np.log1p((m * t / math.pi) ** 2) * kernel

    value, err = integrate_decaying(integrand, cutoff=60.0, pieces=_TDMA_PANELS, nodes=_NODES)
    return CapacityResult(value=value, method="closed-kernel", abs_err=err)


def _tdma_capacity_ccdf(alpha: float, m: int) -> CapacityResult:
    # C = int p_s(theta)/(1+theta) dtheta; substitute theta = e^v - 1 so the
    # integrand p_s(e^v - 1) decays like exp(-zeta (e^v-1)/m^alpha) in v.
    def integrand_v(v):
        return tdma_ps_one_sided(alpha, np.expm1(v), m)

    # p_s decays like exp(-const theta^(1/alpha)); grow the cutoff until the
    # integrand is negligible (its tail then decays faster than e^-v).
    cutoff = math.log1p(60.0 * m ** alpha / zeta(alpha))
    while integrand_v(cutoff) > 1e-13 and cutoff < 1e4:
        cutoff *= 1.5
    value, err = integrate_decaying(integrand_v, cutoff=cutoff, pieces=_TDMA_PANELS, nodes=_NODES)
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
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"reuse factor must be an integer >= 1, got {m}")
    z = zeta(alpha) / m ** alpha
    lower = math.exp(z) * exp_integral_e1(z)
    if alpha == 2:
        lower = max(lower, 2.0 * math.log(2.0 * m / math.pi))
        upper = math.log1p(7.0 * zeta(3.0) * m * m / math.pi ** 2)
        return lower, upper
    return lower, None


def tdma_sir_moments(m: int) -> tuple[float, float]:
    """(E sqrt(SIR), E SIR) for the alpha = 2 one-sided TDMA line network.

    E sqrt(SIR) = pi m / 4 and E SIR = 7 zeta(3) m^2 / pi^2.
    """
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"reuse factor must be an integer >= 1, got {m}")
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
    optimum is m = 2 for alpha = 2 and m = 3 for alpha = 4.
    """
    table = {m: ergodic_capacity_tdma(alpha, m).value / m for m in m_range}
    m_opt = max(table, key=table.__getitem__)
    return m_opt, table[m_opt], table
