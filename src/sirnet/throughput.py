"""Probabilistic throughput optima: ALOHA transmit probability, TDMA reuse
factor, and the optimal SIR threshold / transmission rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contention import c_d_constant, interference_log_ps, line_sums, power_series
from .model import Fading
from .optimize import golden_section_max
from .specfun import DomainError, _log_cube_product, lambert_w0, zeta

__all__ = [
    "ThroughputResult",
    "RateOptimum",
    "aloha_p_opt",
    "aloha_p_opt_half",
    "tdma_m_opt",
    "tdma_ps_one_sided",
    "theta_opt_fullduplex",
    "optimize_rate",
]


@dataclass(frozen=True)
class ThroughputResult:
    """An optimized operating point and the throughput it achieves."""

    value: float
    p_opt: float | None = None
    m_opt: int | None = None
    lower_bound: float | None = None
    m_hat: int | None = None
    m_bounds: tuple[float, float] | None = None


@dataclass(frozen=True)
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


def _tdma_closed_form(alpha: float, interferer_fading: Fading):
    """p_s(theta') of a one-sided Rayleigh TDMA line at alpha 2 or 4 (closed-form), else None."""
    if not interferer_fading.is_rayleigh:
        return None
    return {2: _ps_line_tdma_alpha2, 4: _ps_line_tdma_alpha4}.get(alpha)


def tdma_ps_one_sided(
    alpha: float, theta: float | np.ndarray, m: float | np.ndarray,
    interferer_fading: Fading = Fading.rayleigh(),
) -> float | np.ndarray:
    """Exact one-sided TDMA line p_s = prod_i L_h(theta'/i^alpha), theta' = theta/m^alpha,
    for interferer fading power h; Rayleigh gives 1 / prod_i (1 + theta'/i^alpha).

    Valid for any alpha > 1 and real m >= 1 (m enters only through
    theta/m^alpha). theta and m may be scalars or arrays that broadcast;
    scalars give a float, arrays an array.

    Rayleigh interferers take the closed forms y/sinh y and 2y^2/(sinh^2 y + sin^2 y)
    at alpha 2 and 4 and the Gamma product of specfun._log_cube_product at alpha 3, each
    in numpy over the whole array. Otherwise log(1/p_s) = sum_i -log L_h(theta'/i^alpha)
    is a contention.line_sums of the ALOHA term interference_log_ps at p = 1. Against an
    mpmath reference the relative error is below 1e-13 for alpha in [1.5, 5] and theta' in
    [1e-6, 1e4], and at alpha 3 wherever p_s > 1e-200. Each element depends only on its
    own theta', so an array call returns exactly what scalar calls return.
    """
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    theta, m = np.asarray(theta, dtype=float), np.asarray(m, dtype=float)
    if not (np.all(theta > 0) and np.all(m >= 1)):
        raise DomainError("theta must be positive and m >= 1")
    with np.errstate(over="ignore"):  # m^alpha = inf gives theta' = 0, its limit
        tp = theta / m ** alpha
    closed = _tdma_closed_form(alpha, interferer_fading)
    if closed:
        return closed(tp)
    # -log L_h(x) >= log(1 + 2x)/2 for any m >= 1/2 or static. At q = theta'^(1/alpha)
    # >= 1100, log(1/p_s) >= sum_{i<=1100} log(1 + 2q/i)/2 > 900, so p_s underflows.
    live = tp ** (1.0 / alpha) < 1100.0
    log_inv = np.full(tp.shape, math.inf)
    if alpha == 3 and interferer_fading.is_rayleigh:
        log_inv[live] = _log_cube_product(tp[live])
    else:
        log_inv[live] = line_sums(
            alpha, tp[live].tolist(), lambda x: interference_log_ps(x, 1.0, interferer_fading),
            power_series(interferer_fading, 1.0))
    ps = np.exp(-log_inv)
    return float(ps) if ps.ndim == 0 else ps


# The largest reuse factor tdma_m_opt scans (its arrays grow with it).
_M_SCAN_MAX = 1_000_000


def tdma_m_opt(alpha: float, theta: float) -> ThroughputResult:
    """Optimal TDMA reuse factor for a two-sided line network.

    p_T(m) = p_s(m)^2 / m with the exact one-sided p_s of tdma_ps_one_sided
    (closed forms at alpha = 2 and 4, the Gamma product at alpha = 3, the line
    sums elsewhere). Reports both the exact integer maximizer (exhaustive scan
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
