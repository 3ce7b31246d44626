"""Closed-form spatial contention gamma for every supported network class.

Spatial contention is the slope of the outage probability with respect to
the ALOHA transmit probability at p = 0 (for TDMA line networks: the slope
with respect to (1/m)^alpha). Its inverse is the spatial efficiency.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import Fading, FadingCase, unit_ball_volume
from .specfun import DomainError, hurwitz_zeta, li2, zeta

__all__ = [
    "UnsupportedClassError",
    "gamma_single",
    "c_d_constant",
    "gamma_ppp",
    "gamma_ppp_nonfading_alpha4",
    "gamma_exp_pathloss",
    "gamma_line_alpha2",
    "gamma_line_alpha4",
    "gamma_line",
    "gamma_tdma_line",
    "equivalent_disk_radius",
]


class UnsupportedClassError(ValueError):
    """No closed form is available for this network class."""


def _finite(gamma: float) -> float:
    if gamma == math.inf:
        raise OverflowError("spatial contention exceeds the float range")
    return gamma


def _log_laplace(x: np.ndarray, fading: Fading) -> np.ndarray:
    """log L_h(x) = log E exp(-x h) of unit-mean fading power h, elementwise."""
    if fading.is_static:
        return -x
    if fading.is_rayleigh:  # the general form's x/1 and -1 y, with no errstate
        return -np.log1p(x)
    with np.errstate(over="ignore"):  # x/m = inf gives -inf, the limit
        return -fading.m * np.log1p(x / fading.m)


def interference_gamma(x: np.ndarray, fading: Fading) -> np.ndarray:
    """1 - L_h(x), the outage that one interferer at x = theta r^-alpha = 1/xi
    causes a Rayleigh desired link; x = inf (xi = 0) gives its limit 1."""
    return -np.expm1(_log_laplace(x, fading))


def interference_log_ps(x: np.ndarray, p: float, fading: Fading) -> np.ndarray:
    """-log(1 - p (1 - L_h(x))), the same interferer under ALOHA (-log L_h(x)
    at p = 1); in log space where p (1 - L_h) >= 1/2, exact at large x."""
    log_l = _log_laplace(x, fading)
    if p == 1.0:
        return -log_l
    pg = -p * np.expm1(log_l)
    with np.errstate(divide="ignore"):  # log(0) in the branch not taken
        return np.where(pg < 0.5, -np.log1p(-pg),
                        -np.logaddexp(np.log1p(-p), np.log(p) + log_l))


def interference_x(xis: float | list[float]) -> np.ndarray:
    """x = 1/xi of effective distances xi >= 0 (inf at xi = 0)."""
    xi = np.asarray(xis, dtype=float)
    if not (xi >= 0).all():
        raise DomainError(f"effective distances must be >= 0, got {xis}")
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / xi


def gamma_single(case: FadingCase, xi: float) -> float:
    """Single-interferer spatial contention as a function of xi = r^alpha/theta.

    Outage is exactly linear in p, p_s = 1 - p gamma. A Rayleigh desired link
    gives 1 - L_hi(1/xi), a Rayleigh interferer L_hd(xi), and 0/0 the
    indicator [xi <= 1]. All values lie in [0, 1].
    """
    if not 0 <= xi < math.inf:
        raise DomainError(f"xi must be finite and >= 0, got {xi}")
    d, i = case.desired, case.interferer
    if d.is_rayleigh:
        return float(interference_gamma(1.0 / xi if xi else math.inf, i))
    if i.is_rayleigh:
        return float(np.exp(_log_laplace(xi, d)))
    if d.is_static and i.is_static:
        return 1.0 if xi <= 1.0 else 0.0
    raise UnsupportedClassError(
        f"single-interferer fading case {case.label!r} has no closed form"
    )


def c_d_constant(d: int, alpha: float) -> float:
    """Geometry constant C_d(alpha) = c_d (d pi/alpha) csc(d pi/alpha).

    c_d is the volume of the d-dimensional unit ball. Diverges as
    alpha decreases to d, hence alpha > d is required.
    """
    if not (isinstance(d, int) and d >= 1):
        raise DomainError(f"dimension must be an integer >= 1, got {d}")
    if not d < alpha < math.inf:
        raise DomainError(f"finite alpha > d required (alpha={alpha}, d={d})")
    x = d * math.pi / alpha
    return unit_ball_volume(d) * x / math.sin(x)


def gamma_ppp(d: int, alpha: float, theta: float, interferer_fading: Fading) -> float:
    """PPP spatial contention with a Rayleigh desired link, any d >= 1:
    gamma = c_d theta^delta E[h^delta] Gamma(1 - delta), delta = d/alpha, for
    interferer fading power h. Rayleigh has E[h^delta] Gamma(1 - delta) =
    pi delta / sin(pi delta), so gamma = C_d(alpha) theta^delta.
    """
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    c, delta = c_d_constant(d, alpha), d / alpha  # checks d and alpha first
    if not interferer_fading.is_rayleigh:
        c = unit_ball_volume(d) * _moment(interferer_fading, delta) * math.gamma(1.0 - delta)
    return _finite(c * theta ** delta)


def _moment(h: Fading, delta: float) -> float:
    """E[h^delta], 0 < delta < 1: 1 if static, else Gamma(m + delta)/(Gamma(m)
    m^delta), off by 3e-14 at m = 100 and inf past 171; from m = 100 on, the
    log of Stirling's series to 1/m^3, whose next term is below 4e-15."""
    m = h.m
    if m is None:
        return 1.0
    if m < 100.0:
        return math.gamma(m + delta) / (math.gamma(m) * m ** delta)
    u = math.log1p(delta / m)
    return math.exp(m * (u - delta / m) + (delta - 0.5) * u - delta / (12.0 * m * (m + delta))
                    - ((m + delta) ** -3 - m ** -3) / 360.0)


def gamma_ppp_nonfading_alpha4(theta: float) -> float:
    """Contention of the fully non-fading 2-D PPP with alpha = 4: pi sqrt(theta)."""
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    return math.pi * math.sqrt(theta)


def gamma_exp_pathloss(delta: float, theta: float) -> float:
    """2-D PPP contention under exponential path loss exp(-delta r).

    gamma = -2 pi dilog(theta + 1) / delta^2 = -2 pi Li2(-theta) / delta^2,
    evaluated as Li2(-theta): forming theta + 1 would drop a small theta. It
    grows only like log^2(theta). It overflows where delta^2 underflows (delta
    below about 1e-162).
    """
    if not (delta > 0 and theta > 0):
        raise DomainError("delta and theta must be positive")
    d2 = delta ** 2
    return _finite(-2.0 * math.pi * li2(-theta) / d2 if d2 > 0 else math.inf)


# line_sums' longest head; a larger theta is refused.
_MAX_HEAD = 1 << 16


@functools.lru_cache(maxsize=32)
def power_series(fading: Fading, p: float | None = None) -> tuple[float, ...]:
    """Coefficients c_1 .. c_13 of x^k at x = 0 of 1 - L_h(x) or, given p, of
    -log(1 - p (1 - L_h(x))) = sum_j (p (1 - L_h))^j / j."""
    k = np.arange(1.0, 14.0)
    ratio = -1.0 / k if fading.is_static else ((1.0 - k) / fading.m - 1.0) / k
    g = np.concatenate(([0.0], -np.cumprod(ratio)))  # 1 - L_h, from L_h(0) = 1
    if p is None:
        return tuple(g[1:].tolist())
    f, power = np.zeros_like(g), np.ones(1)
    for j in range(1, 14):
        power = np.convolve(power, p * g)[:g.size]
        f[:power.size] += power / j
    return tuple(f[1:].tolist())


@functools.lru_cache(maxsize=32)
def _line_head(alpha: float, n: int, series: tuple[float, ...]):
    """i^-alpha for i < n (read-only), the tail's (k, c_k zeta(k alpha, n)) and
    n^alpha; past the float range of n^alpha, inf and c_k n^(k alpha) zeta."""
    i_pow = np.arange(1, n, dtype=float) ** -alpha
    i_pow.flags.writeable = False
    n_alpha = n ** alpha if alpha * math.log2(n) < 1024.0 else math.inf
    return i_pow, [(k, c * hurwitz_zeta(k * alpha, n, n_alpha == math.inf))
                   for k, c in enumerate(series, start=1)], n_alpha


def line_sums(alpha: float, ts: list[float], term, series) -> list[float]:
    """sum_{i>=1} term(t i^-alpha) for each t in ts, for a vectorised term with
    term(0) = 0 and power series coefficients `series` at 0 (radius >= 1/2).

    A head sum over i < N plus the tail sum_k c_k t^k zeta(k alpha, N),
    added by math.fsum. N is the least power of two >= 32 with x = t/N^alpha
    <= 0.05, so the tail converges like x^k; it is summed until x^k < 2^-56,
    which takes at most the 13 terms of `series`. Past the float range of
    N^alpha, the tail is sum_k c_k N^(k alpha) zeta(k alpha, N) x^k.
    The ts are grouped by N, with one term() call per 1,024 head terms;
    N, the tail and math.fsum act per t, so each sum depends only on its
    own t. The last 32 (alpha, N, series) heads are cached (16 MB at most).
    alpha must be finite and above 1; a t that needs N above 2^16 is refused.
    """
    series, inv = tuple(series), 1.0 / alpha
    log_n = []  # log2 N of each t
    for t in ts:
        q = (t / 0.05) ** inv if t < 1e300 else t ** inv * 20.0 ** inv
        if not q < _MAX_HEAD:
            raise DomainError(f"theta {t:g} at alpha {alpha:g} needs over {_MAX_HEAD} line terms")
        log_n.append(max(math.frexp(q)[1], 5))  # q = f 2^e with f in [0.5, 1), so N = 2^e
    t_all, log_n, sums = np.asarray(ts, dtype=float), np.array(log_n), [0.0] * len(ts)
    for e in sorted(set(log_n.tolist())):
        i_pow, tail, n_alpha = _line_head(alpha, 1 << e, series)
        group, step = np.flatnonzero(log_n == e), max(1, 1024 >> e)
        for rows in (group[i:i + step] for i in range(0, group.size, step)):
            for j, t, parts in zip(rows.tolist(), t_all[rows].tolist(),
                                   term(t_all[rows, None] * i_pow).tolist()):
                x = t / n_alpha if n_alpha < math.inf else (t ** inv / (1 << e)) ** alpha
                terms = math.ceil(-56.0 * math.log(2.0) / math.log(x)) if x > 0.0 else 0
                base = t if n_alpha < math.inf else x
                try:
                    parts += [c * base ** k for k, c in tail[:terms]]
                except OverflowError:  # t^k passes the float range, c t^k does not
                    parts += [math.copysign(math.exp(k * math.log(t) + math.log(abs(c))), c)
                              if c else 0.0 for k, c in tail[:terms]]
                sums[j] = math.fsum(parts)
    return sums


def gamma_line(alpha: float, theta: float, interferer_fading: Fading) -> float:
    """One-sided regular line with a Rayleigh desired link, any alpha > 1:
    gamma = sum_i (1 - L_h(theta/i^alpha)), by line_sums."""
    if not (1 < alpha < math.inf and theta > 0):
        raise DomainError(f"line sums need finite alpha > 1 and theta > 0, got {alpha}, {theta}")
    return line_sums(alpha, [theta], lambda x: interference_gamma(x, interferer_fading),
                     power_series(interferer_fading))[0]


def gamma_line_alpha2(theta: float) -> float:
    """One-sided regular line, Rayleigh/Rayleigh, alpha = 2.

    gamma = (pi sqrt(theta) coth(pi sqrt(theta)) - 1) / 2, bounded between
    (pi sqrt(theta) - 1)/2 and pi sqrt(theta)/2; below theta = 0.01, where
    that difference cancels, the line sum gives it.
    """
    if not theta >= 0.01:  # the line sum, which refuses theta <= 0 and nan
        return gamma_line(2.0, theta, Fading.rayleigh())
    x = math.pi * math.sqrt(theta)
    return 0.5 * (x / math.tanh(x) - 1.0)


def gamma_line_alpha4(theta: float) -> float:
    """One-sided regular line, Rayleigh/Rayleigh, alpha = 4.

    The closed form in y = pi theta^(1/4)/sqrt(2), which tends to y/2 - 1/2
    for large theta (the line sum below theta = 0.01, where it cancels). Its
    numerator and denominator are scaled by e^(-2y), so neither overflows.
    """
    if not theta >= 0.01:  # the line sum, which refuses theta <= 0 and nan
        return gamma_line(4.0, theta, Fading.rayleigh())
    y = math.pi * theta ** 0.25 / math.sqrt(2.0)
    cy, sy, e = math.cos(y), math.sin(y), math.exp(-2.0 * y)
    num = (y - 1.0) + (4.0 * cy * cy + 4.0 * y * cy * sy - 2.0) * e - (y + 1.0) * e * e
    # 8 e^(-2y) (cosh^2 y - cos^2 y) = 8 e^(-2y) (sinh^2 y + sin^2 y)
    return num / (2.0 * (1.0 - e) ** 2 + 8.0 * sy * sy * e)


def gamma_tdma_line(alpha: float, theta: float) -> float:
    """TDMA line-network contention (slope w.r.t. (1/m)^alpha): zeta(alpha)
    theta, for any unit-mean interferer fading."""
    if not (1 < alpha < math.inf and theta > 0):
        raise DomainError(f"TDMA gamma needs finite alpha > 1 and theta > 0, got {alpha}, {theta}")
    return _finite(zeta(alpha) * theta)


def equivalent_disk_radius(gamma: float) -> float:
    """Radius sqrt(gamma/pi) of the equivalent interference-free disk (link distance 1)."""
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    return math.sqrt(gamma / math.pi)

