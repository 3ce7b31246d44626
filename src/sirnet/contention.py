"""Closed-form spatial contention gamma for every supported network class.

Spatial contention is the slope of the outage probability with respect to
the ALOHA transmit probability at p = 0 (for TDMA line networks: the slope
with respect to (1/m)^alpha). Its inverse is the spatial efficiency.

A regular line's outage and contention sum over its interferers: below z_c(alpha),
for any interferer fading, _line_sum takes a head over the nearest 2^e plus a
Hurwitz-zeta tail; from z_c on, a Rayleigh line takes a Mellin expansion.
"""

from __future__ import annotations

import functools
import math
import sys

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


# The longest line head, 2^16 terms: line_sums refuses a theta that needs more.
_MAX_LOG2_HEAD = 16
_LOG_MAX = math.log(sys.float_info.max)
_LOG_2PI = math.log(2.0 * math.pi)
_PI = np.longdouble("3.14159265358979323846")  # to the x87 format's 64 bits
# Head elements per block of rows in _line_sum: each temporary stays at 32 KB.
_BLOCK = 4096
_K = np.arange(1.0, 14.0)
# The series of log(1 + x), sum_k (-1)^(k+1) x^k/k, and of x/(1 + x), its x d/dx, from
# Python floats: numpy arithmetic at import touches 128 KB more in every sirnet process.
_LOG1P = np.array([(-1.0) ** (k + 1) / k for k in range(1, 14)])
_ALTERNATING = np.array([(-1.0) ** (k + 1) for k in range(1, 14)])


@functools.lru_cache(maxsize=32)
def power_series(fading: Fading, p: float | None = None) -> tuple[float, ...]:
    """Coefficients c_1 .. c_13 of x^k at x = 0 of 1 - L_h(x) or, given p, of
    -log(1 - p (1 - L_h(x))) = sum_j (p (1 - L_h))^j / j."""
    ratio = -1.0 / _K if fading.is_static else ((1.0 - _K) / fading.m - 1.0) / _K
    g = np.concatenate(([0.0], -np.cumprod(ratio)))  # 1 - L_h, from L_h(0) = 1
    if p is None:
        return tuple(g[1:].tolist())
    f, power = np.zeros_like(g), np.ones(1)
    for j in range(1, 14):
        power = np.convolve(power, p * g)[:g.size]
        f[:power.size] += power / j
    return tuple(f[1:].tolist())


def _head_log2(alpha: float, z: np.ndarray) -> np.ndarray:
    """log2 N of each z's line head, N the least power of two >= 32 with z/N^alpha <= 0.05
    (nan at z = nan, inf at z = inf)."""
    with np.errstate(divide="ignore"):  # log2(0) = -inf gives N = 32
        return np.maximum(np.ceil((np.log2(z) + math.log2(20.0)) / alpha), 5.0)


@functools.lru_cache(maxsize=32)
def _line_head(alpha: float, e: int) -> tuple[np.ndarray, np.ndarray]:
    """i^-alpha for i < 2^e and the scaled zeta(k alpha, 2^e) = sum_{i>=2^e} (i/2^e)^(-k alpha)
    for k <= 13, read-only: one line head and its tail, for every term and series."""
    n = 1 << e
    i_pow = np.arange(1, n, dtype=float) ** -alpha
    zetas = np.array([hurwitz_zeta(k * alpha, n, True) for k in range(1, 14)])
    i_pow.flags.writeable = zetas.flags.writeable = False
    return i_pow, zetas


def _line_sum(alpha: float, z: np.ndarray, term, series, log_top: float = math.inf) -> np.ndarray:
    """sum_{i>=1} term(z i^-alpha) for a 1-D array of finite z >= 0, for a vectorised term
    with term(0) = 0 and power series coefficients c_1 .. c_13 at 0 (radius >= 1/2) in
    `series`; each element depends only on its own z. A head over i < N (_head_log2; its
    callers keep N <= 2^16) in blocks of rows, plus the tail sum_k c_k zeta(k alpha, N) z^k
    in x = z/N^alpha <= 0.05, sum_k c_k N^(k alpha) zeta(k alpha, N) x^k by Horner's rule,
    cut where x^k < 2^-56 at the largest x the head sums for z below e^log_top."""
    log2_n, s = _head_log2(alpha, z), np.empty_like(z)
    for e in set(log2_n.astype(int).tolist()):
        group, (i_pow, zetas) = np.flatnonzero(log2_n == e), _line_head(alpha, e)
        terms = math.ceil(56.0 * math.log(2.0) / max(math.log(20.0), e * alpha * math.log(2.0) - log_top))
        s[group] = _power_sum(z[group] * 0.5 ** (e * alpha), zetas[:terms] * series[:terms])
        step = max(1, _BLOCK >> e)
        for rows in (group[i:i + step] for i in range(0, group.size, step)):
            s[rows] += term(z[rows, None] * i_pow).sum(axis=1)
    return s


def line_sums(alpha: float, ts: list[float], term, series) -> list[float]:
    """sum_{i>=1} term(t i^-alpha) for each t in ts by _line_sum, for finite alpha > 1; a t
    whose head would pass 2^16 terms, nan or inf, is refused."""
    t = np.array(ts, dtype=float)
    refused = t[~(_head_log2(alpha, t) <= _MAX_LOG2_HEAD)]
    if refused.size:
        raise DomainError(f"theta {refused[0]:g} at alpha {alpha:g} needs over {1 << _MAX_LOG2_HEAD} line terms")
    return _line_sum(alpha, t, term, series).tolist()


@functools.lru_cache(maxsize=32)
def _exponent_constants(alpha: float) -> tuple[float, float]:
    """(z_c, log z_c) of line_exponent at one alpha. z_c puts the Mellin series' remainder
    e^(-2 pi sin(pi/alpha) z^(1/alpha)) below 2^-53 (within 6e-4 of alpha 1 it stops at a
    2^16-term head, the remainder below 2e-9 S)."""
    if not 1 < alpha < math.inf:
        raise DomainError(f"line exponents need finite alpha > 1, got {alpha}")
    log_zc = min(alpha * math.log(53.0 * math.log(2.0) / (2.0 * math.pi * math.sin(math.pi / alpha))),
                 math.log(0.05) + alpha * _MAX_LOG2_HEAD * math.log(2.0))
    return math.exp(log_zc) if log_zc < _LOG_MAX else math.inf, log_zc


@functools.lru_cache(maxsize=32)
def _mellin_constants(alpha: float) -> tuple:
    """(the read-only (-1)^(k+1) zeta(-alpha k)/k, k <= K; alpha, pi/sin(pi/alpha) and
    (alpha/2) log 2 pi in np.longdouble) of the Mellin branch, built on its first use: a
    process that stays below z_c maps no long double code. K stops before the first
    envelope 2 Gamma(1 + alpha k)/((2 pi)^(1 + alpha k) k z_c^k) below 2^-53 max(1, S(z_c)).
    zeta(-x) = -2 sin(pi x/2) Gamma(1+x) zeta(1+x)/(2 pi)^(1+x), sin taken at x mod 2
    folded into [0, 1] (0 at even x)."""
    log_zc = _exponent_constants(alpha)[1]
    a = np.longdouble(alpha)
    c = _PI / np.sin(_PI / a)
    s_c = float(c) * math.exp(log_zc / alpha) - (log_zc + alpha * _LOG_2PI) / 2
    k = 1
    while (math.log(2.0 / k) + math.lgamma(1.0 + alpha * k) - k * log_zc
           - (1.0 + alpha * k) * _LOG_2PI > math.log(2.0 ** -53 * max(1.0, s_c))):
        k += 1
    series = []
    for j, x in ((j, alpha * j) for j in range(1, k)):
        fold = math.sin(math.pi / 2 * min(x % 2, 2 - x % 2)) * (1 if x % 4 < 2 else -1)
        series.append((-1) ** j * 2 * fold * math.gamma(1 + x) * zeta(1 + x)
                      / float((2 * _PI) ** (1 + x)) / j)
    series = np.array(series)
    series.flags.writeable = False
    return series, a, c, a * np.log(2 * _PI) / 2


def _power_sum(w, coefficients: np.ndarray):
    """sum_k c_k w^k (k >= 1) by Horner's rule."""
    f = 0.0  # (0 + c_K) w: the first step is c_K w
    for k in range(coefficients.size, 0, -1):
        f = (f + coefficients[k - 1]) * w
    return f


def line_exponent(alpha: float, z, derivative: bool = False) -> np.ndarray:
    """S(z) = sum_{i>=1} log(1 + x_i), x_i = z i^-alpha, or with `derivative` z S'(z) =
    sum_i x_i/(1 + x_i), for an array of z >= 0: a Rayleigh line's -log p_s at p = 1, or
    its contention. Each element depends only on its own z, with bounded work.

    Below z_c, _line_sum of log(1 + x) or of x/(1 + x): a head of 32 or 64 terms from
    alpha 1.5 on, plus the tail sum_k (-1)^(k+1) zeta(k alpha, N) z^k/k or its z d/dz. From
    z_c on, the Mellin expansion pi z^(1/alpha)/sin(pi/alpha) - log(z)/2 - (alpha/2) log 2 pi
    + sum_{k<=K} (-1)^(k+1) zeta(-alpha k)/(k z^k) (Flajolet, Gourdon & Dumas, TCS 1995),
    or its z d/dz, the leading terms in np.longdouble so that S keeps half an ulp on x87.
    """
    zc, log_zc = _exponent_constants(alpha)
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):
        raise DomainError(f"line exponents need z >= 0, got {z}")
    flat = z.ravel()
    s = np.empty_like(flat)
    near = np.flatnonzero(flat < zc)
    if derivative:
        s[near] = _line_sum(alpha, flat[near], lambda x: x / (1.0 + x), _ALTERNATING, log_zc)
    else:
        s[near] = _line_sum(alpha, flat[near], np.log1p, _LOG1P, log_zc)
    far = np.flatnonzero(flat >= zc)
    if far.size:
        series, a, c, shift = _mellin_constants(alpha)
        log_z = np.log(flat[far].astype(np.longdouble))
        root = c * np.exp(log_z / a)  # inf at z = inf, where log_z is cut to keep S from nan
        if derivative:
            s[far] = root / a - 0.5 - _power_sum(1.0 / flat[far], np.arange(1.0, series.size + 1) * series)
        else:
            s[far] = root - np.fmin(log_z, _LOG_MAX + 1.0) / 2 - shift + _power_sum(1.0 / flat[far], series)
    return s.reshape(z.shape)


def aloha_line_exponent(alpha: float, theta: float, p: float) -> float:
    """-log p_s = S(theta) - S((1 - p) theta) of a Rayleigh line under ALOHA. Within a
    branch of line_exponent it is taken term by term, by expm1 and log1p: the head's
    -log(1 - p x_i/(1 + x_i)), each power of z times 1 - (1 - p)^k, and the leading
    pi/sin(pi/alpha) theta^(1/alpha) (1 - (1 - p)^(1/alpha)) + log(1 - p)/2. Across z_c
    the two sums are subtracted."""
    if not (theta > 0 and 0.0 <= p <= 1.0):
        raise DomainError(f"ALOHA lines need theta > 0 and p in [0, 1], got {theta}, {p}")
    zc, log_zc = _exponent_constants(alpha)
    if p == 1.0:
        return float(line_exponent(alpha, theta))
    if theta < zc:
        return float(_line_sum(alpha, np.array([theta]), lambda x: interference_log_ps(x, p, Fading.rayleigh()),
                               _LOG1P * -np.expm1(_K * math.log1p(-p)), log_zc)[0])
    if (1.0 - p) * theta >= zc:
        series, a, c, _ = _mellin_constants(alpha)
        v = np.log1p(-np.longdouble(p))
        weights = -np.expm1(-np.arange(1.0, series.size + 1) * math.log1p(-p))
        return float(v / 2 - c * np.exp(np.log(np.longdouble(theta)) / a) * np.expm1(v / a)
                     + _power_sum(1.0 / theta, series * weights))
    s = line_exponent(alpha, [theta, (1.0 - p) * theta])
    return float(s[0] - s[1])


def gamma_line(alpha: float, theta: float, interferer_fading: Fading) -> float:
    """One-sided regular line with a Rayleigh desired link, any alpha > 1:
    gamma = sum_i (1 - L_h(theta/i^alpha)), by line_exponent for Rayleigh interferers."""
    if not (1 < alpha < math.inf and theta > 0):
        raise DomainError(f"line sums need finite alpha > 1 and theta > 0, got {alpha}, {theta}")
    if interferer_fading.is_rayleigh:
        return float(line_exponent(alpha, theta, True))
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

