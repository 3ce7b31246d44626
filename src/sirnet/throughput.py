"""Probabilistic throughput optima: ALOHA transmit probability, TDMA reuse
factor, and the optimal SIR threshold / transmission rate. The p_s they
optimize comes from `sirnet.outage`; this module defines no p_s."""

from __future__ import annotations

import math

import numpy as np

from .contention import c_d_constant
from .model import _value_type
from .optimize import golden_section_max
from .outage import tdma_ps_one_sided
from .specfun import DomainError, lambert_w0, zeta

__all__ = [
    "ThroughputResult",
    "RateOptimum",
    "aloha_p_opt",
    "aloha_p_opt_half",
    "tdma_m_opt",
    "theta_opt_fullduplex",
    "optimize_rate",
]


@_value_type
class ThroughputResult:
    """An optimized operating point and the throughput it achieves."""

    value: float
    p_opt: float | None = None
    m_opt: int | None = None
    lower_bound: float | None = None
    m_hat: int | None = None
    m_bounds: tuple[float, float] | None = None


@_value_type
class RateOptimum:
    theta_opt: float
    p_opt: float
    t_max: float


def aloha_p_opt_half(gamma: float) -> float:
    """Closed-form half-duplex optimizer of p(1-p)exp(-p gamma).

    p_opt = 1/gamma + (1 - sqrt(1 + 4/gamma^2))/2; tends to 1/2 as
    gamma -> 0 and to 1/gamma as gamma -> infinity.
    """
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    # Evaluated as 1 / (1 + g/2 + hypot(1, g/2)), equal to the form above,
    # which loses digits to cancellation for small g and overflows below 1e-154.
    return 1.0 / (1.0 + 0.5 * gamma + math.hypot(1.0, 0.5 * gamma))


def aloha_p_opt(gamma: float, duplex: str = "full") -> ThroughputResult:
    """Optimal ALOHA transmit probability for p_s = exp(-p gamma).

    Full duplex: p_opt = min(1/gamma, 1), throughput p_opt exp(-p_opt gamma).
    Half duplex: closed-form p_opt plus the lower bound
    (1+gamma)/(2+gamma)^2 exp(-gamma/(2+gamma)), which is within 1.4% of
    the true maximum for all gamma.
    """
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if duplex == "full":
        p = min(1.0 / gamma, 1.0)
        return ThroughputResult(value=p * math.exp(-p * gamma), p_opt=p)
    if duplex == "half":
        p = aloha_p_opt_half(gamma)
        bound = (1.0 + gamma) / (2.0 + gamma) ** 2 * math.exp(-gamma / (2.0 + gamma))
        return ThroughputResult(
            value=p * (1.0 - p) * math.exp(-p * gamma), p_opt=p, lower_bound=bound
        )
    raise DomainError(f"duplex must be 'full' or 'half', got {duplex!r}")


# The largest reuse factor tdma_m_opt scans (its arrays grow with it).
_M_SCAN_MAX = 1_000_000


def tdma_m_opt(alpha: float, theta: float) -> ThroughputResult:
    """Optimal TDMA reuse factor for a two-sided line network.

    p_T(m) = p_s(m)^2 / m with the exact one-sided p_s of outage.tdma_ps_one_sided
    (closed forms at alpha = 2 and 4, contention.line_exponent elsewhere).
    Reports both the exact integer maximizer (exhaustive scan
    up to twice the analytic upper bound) and the closed-form estimate
    m_hat = round((theta zeta(alpha) (2 alpha - 1/2))^(1/alpha)).
    """
    if not (1 < alpha < math.inf and theta > 0):
        raise DomainError(f"reuse scan needs finite alpha > 1 and theta > 0, got {alpha}, {theta}")
    z = zeta(alpha)
    m_lower = (theta * z * (2.0 * alpha - 1.0)) ** (1.0 / alpha)
    m_upper = (theta * z * 2.0 * alpha) ** (1.0 / alpha)
    m_hat = max(1, round((theta * z * (2.0 * alpha - 0.5)) ** (1.0 / alpha)))

    scan_max = max(2, 2 * math.ceil(m_upper))
    if scan_max > _M_SCAN_MAX:
        raise DomainError(f"theta = {theta} needs a reuse scan to m = {scan_max}, "
                          f"above {_M_SCAN_MAX}")
    ms = np.arange(1, scan_max + 1)
    p_t = tdma_ps_one_sided(alpha, theta, ms) ** 2 / ms
    k = int(np.argmax(p_t))
    return ThroughputResult(
        value=float(p_t[k]),
        m_opt=k + 1,
        m_hat=m_hat,
        m_bounds=(m_lower, m_upper),
    )


def theta_opt_fullduplex(alpha: float, d: int) -> float:
    """Optimal SIR threshold for full-duplex ALOHA with gamma = c theta^(d/alpha).

    theta_opt = exp(W(-(alpha/d) e^(-alpha/d)) + alpha/d) - 1 via the
    principal Lambert W branch; independent of the constant c.
    """
    c_d_constant(d, alpha)  # checks d, then alpha
    k = alpha / d
    w = lambert_w0(-k * math.exp(-k))
    return math.expm1(w + k)


def optimize_rate(alpha: float, d: int, duplex: str = "full") -> RateOptimum:
    """Jointly optimal (theta, p) for throughput p_T log(1 + theta).

    gamma(theta) = c theta^(d/alpha), with c = C_d(alpha) of the Rayleigh PPP.
    Full duplex uses the Lambert-W closed form; half duplex nests the
    closed-form p optimization inside a golden-section search over
    log(theta) on [-40 dB, +60 dB].
    """
    c = c_d_constant(d, alpha)  # checks d, then alpha

    def gamma_of(theta: float) -> float:
        return c * theta ** (d / alpha)

    if duplex == "full":
        theta = theta_opt_fullduplex(alpha, d)
        gamma = gamma_of(theta)
        p = min(1.0 / gamma, 1.0)
        t_max = p * math.exp(-p * gamma) * math.log1p(theta)
        return RateOptimum(theta_opt=theta, p_opt=p, t_max=t_max)
    if duplex != "half":
        raise DomainError(f"duplex must be 'full' or 'half', got {duplex!r}")

    def t_of_log_theta(lt: float) -> float:
        theta = math.exp(lt)
        gamma = gamma_of(theta)
        p = aloha_p_opt_half(gamma)
        return p * (1.0 - p) * math.exp(-p * gamma) * math.log1p(theta)

    lt, t_max = golden_section_max(
        t_of_log_theta, math.log(1e-4), math.log(1e6), tol=1e-8
    )
    theta = math.exp(lt)
    return RateOptimum(theta_opt=theta, p_opt=aloha_p_opt_half(gamma_of(theta)), t_max=t_max)
