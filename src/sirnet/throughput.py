"""Probabilistic throughput optima: ALOHA transmit probability, TDMA reuse
factor, and the optimal SIR threshold / transmission rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contention import c_d_constant
from .optimize import golden_section_max
from .specfun import DomainError, hurwitz_zeta, lambert_w0, zeta

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


def tdma_ps_one_sided(
    alpha: float, theta: float | np.ndarray, m: float | np.ndarray
) -> float | np.ndarray:
    """Exact one-sided TDMA line p_s = 1 / prod_i (1 + theta'/i^alpha), theta' = theta/m^alpha.

    Valid for any alpha > 1 and real m >= 1 (m enters only through
    theta/m^alpha). theta and m may be scalars or arrays that broadcast;
    scalars give a float, arrays an array.

    log(1/p_s) is a head sum of log1p(theta'/i^alpha) over i < N plus the
    tail sum_k (-1)^(k+1) theta'^k/k zeta(k alpha, N) (Hurwitz zeta). N is
    the least power of two >= 32 with x = theta'/N^alpha <= 0.05, so the
    tail converges like x^k; it is summed until x^k drops below 2^-56.
    The relative error of p_s is the absolute error of log(1/p_s), so the
    head and tail terms are added by math.fsum, correctly rounded. Against
    an mpmath reference the relative error is below 1e-13 for alpha in
    [1.5, 5] and theta' in [1e-6, 1e4]. N, the terms and their sum depend
    only on each element's own theta', so an array call returns exactly
    what scalar calls return.
    """
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    theta, m = np.asarray(theta, dtype=float), np.asarray(m, dtype=float)
    if not (np.all(theta > 0) and np.all(m >= 1)):
        raise DomainError("theta must be positive and m >= 1")
    with np.errstate(over="ignore"):  # m^alpha = inf gives theta' = 0, its limit
        tp = theta / m ** alpha
    per_head = {}  # N -> (i^-alpha for i < N, tail coefficients)
    log_inv = np.empty_like(tp)
    for j, t in enumerate(tp.ravel().tolist()):
        if t ** (1.0 / alpha) >= 1100.0:
            # The first 1100 factors are each >= 2, so p_s <= 2^-1100 underflows.
            log_inv.flat[j] = math.inf
            continue
        # (t/0.05)^(1/alpha) = f 2^e with f in [0.5, 1), so N = 2^e.
        n = 1 << max(math.frexp((t / 0.05) ** (1.0 / alpha))[1], 5)
        if n not in per_head:
            # x <= 0.05 needs at most 13 tail terms for x^k < 2^-56.
            per_head[n] = (np.arange(1, n, dtype=float) ** -alpha,
                           [(-1.0) ** (k + 1) / k * hurwitz_zeta(k * alpha, n)
                            for k in range(1, 14)])
        i_pow, coefs = per_head[n]
        x = t / n ** alpha
        terms = math.ceil(-56.0 * math.log(2.0) / math.log(x)) if x > 0.0 else 0
        parts = np.log1p(t * i_pow).tolist()
        parts += [c * t ** k for k, c in enumerate(coefs[:terms], start=1)]
        log_inv.flat[j] = math.fsum(parts)
    ps = np.exp(-log_inv)
    return float(ps) if ps.ndim == 0 else ps


# The largest reuse factor tdma_m_opt scans (its arrays grow with it).
_M_SCAN_MAX = 1_000_000


def tdma_m_opt(alpha: float, theta: float) -> ThroughputResult:
    """Optimal TDMA reuse factor for a two-sided line network.

    p_T(m) = p_s(m)^2 / m with the exact one-sided p_s. Reports both the
    exact integer maximizer (exhaustive scan up to twice the analytic
    upper bound) and the closed-form estimate
    m_hat = round((theta zeta(alpha) (2 alpha - 1/2))^(1/alpha)).
    """
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
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
    if d not in (1, 2):
        raise DomainError(f"d must be 1 or 2, got {d}")
    if not d < alpha < math.inf:
        raise DomainError(f"finite alpha > d required, got alpha={alpha}, d={d}")
    k = alpha / d
    w = lambert_w0(-k * math.exp(-k))
    return math.expm1(w + k)


def optimize_rate(alpha: float, d: int, duplex: str = "full", c: float | None = None) -> RateOptimum:
    """Jointly optimal (theta, p) for throughput p_T log(1 + theta).

    gamma(theta) = c theta^(d/alpha), with c = C_d(alpha) by default.
    Full duplex uses the Lambert-W closed form; half duplex nests the
    closed-form p optimization inside a golden-section search over
    log(theta) on [-40 dB, +60 dB].
    """
    if d not in (1, 2):
        raise DomainError(f"d must be 1 or 2, got {d}")
    if not d < alpha < math.inf:
        raise DomainError(f"finite alpha > d required, got alpha={alpha}, d={d}")
    if c is None:
        c = c_d_constant(d, alpha)
    if not c > 0:
        raise DomainError(f"contention constant must be positive, got {c}")

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
