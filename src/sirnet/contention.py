"""Closed-form spatial contention gamma for every supported network class.

Spatial contention is the slope of the outage probability with respect to
the ALOHA transmit probability at p = 0 (for TDMA line networks: the slope
with respect to (1/m)^alpha). Its inverse is the spatial efficiency.
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


# The longest line head; line_sums refuses a theta that needs more.
_MAX_HEAD = 1 << 16
_LOG_MAX = math.log(sys.float_info.max)
_LOG_2PI = math.log(2.0 * math.pi)
_PI = np.longdouble("3.14159265358979323846")  # to the x87 format's 64 bits
# Head elements per block of rows in line_exponent: each temporary stays at 32 KB.
_BLOCK = 4096


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
    N^alpha, the tail is sum_k c_k N^(k alpha) zeta(k alpha, N) x^k. The last
    32 (alpha, N, series) heads are cached (16 MB at most). alpha must be
    finite and above 1; a t that needs N above 2^16 is refused.
    """
    series, inv, sums = tuple(series), 1.0 / alpha, []
    for t in ts:
        q = (t / 0.05) ** inv if t < 1e300 else t ** inv * 20.0 ** inv
        if not q < _MAX_HEAD:
            raise DomainError(f"theta {t:g} at alpha {alpha:g} needs over {_MAX_HEAD} line terms")
        e = max(math.frexp(q)[1], 5)  # q = f 2^e with f in [0.5, 1), so N = 2^e
        i_pow, tail, n_alpha = _line_head(alpha, 1 << e, series)
        x = t / n_alpha if n_alpha < math.inf else (t ** inv / (1 << e)) ** alpha
        terms = math.ceil(-56.0 * math.log(2.0) / math.log(x)) if x > 0.0 else 0
        base = t if n_alpha < math.inf else x
        parts = term(t * i_pow).tolist()
        try:
            parts += [c * base ** k for k, c in tail[:terms]]
        except OverflowError:  # t^k passes the float range, c t^k does not
            parts += [math.copysign(math.exp(k * math.log(t) + math.log(abs(c))), c)
                      if c else 0.0 for k, c in tail[:terms]]
        sums.append(math.fsum(parts))
    return sums


@functools.lru_cache(maxsize=32)
def _exponent_constants(alpha: float) -> tuple:
    """(z_c, log z_c, i^-alpha for i < N(z_c), {log2 n: (n^-alpha, the tail's
    (-1)^(k+1) n^(k alpha) zeta(k alpha, n)/k)}) of line_exponent at one alpha, read-only.
    z_c puts the Mellin series' remainder e^(-2 pi sin(pi/alpha) z^(1/alpha)) below 2^-53
    (within 6e-4 of alpha 1 it stops at a 2^16-term head, the remainder below 2e-9 S); a
    tail in x = z/n^alpha <= min(0.05, z_c/n^alpha) is summed to x^k < 2^-56."""
    if not 1 < alpha < math.inf:
        raise DomainError(f"line exponents need finite alpha > 1, got {alpha}")
    log_zc = min(alpha * math.log(53.0 * math.log(2.0) / (2.0 * math.pi * math.sin(math.pi / alpha))),
                 math.log(0.05) + alpha * math.log(_MAX_HEAD))
    top = max(math.frexp(math.exp((min(log_zc, _LOG_MAX) + math.log(20.0)) / alpha))[1], 5)
    heads = {}
    for e in range(5, top + 1):  # line_sums' heads n = 2^e, up to the one at z_c
        terms = math.ceil(56.0 * math.log(2.0) / max(math.log(20.0), e * alpha * math.log(2.0) - log_zc))
        heads[e] = 0.5 ** (e * alpha), np.array(
            [(-1) ** (j + 1) * hurwitz_zeta(j * alpha, 1 << e, True) / j for j in range(1, terms + 1)])
        heads[e][1].flags.writeable = False
    i_pow = np.arange(1, 1 << top, dtype=float) ** -alpha
    i_pow.flags.writeable = False
    return math.exp(log_zc) if log_zc < _LOG_MAX else math.inf, log_zc, i_pow, heads


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


def _power_sums(w, coefficients: np.ndarray, derivative: bool):
    """sum_k c_k w^k and, with `derivative`, sum_k k c_k w^k (k >= 1), by Horner's rule."""
    f, d = np.zeros_like(w), (np.zeros_like(w) if derivative else None)
    for k in range(coefficients.size, 0, -1):
        f = (f + coefficients[k - 1]) * w
        if derivative:
            d = (d + k * coefficients[k - 1]) * w
    return f, d


def line_exponent(alpha: float, z, derivative: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """S(z) = sum_{i>=1} log(1 + x_i), x_i = z i^-alpha, and z S'(z) = sum_i x_i/(1 + x_i)
    (None with `derivative=False`) for an array of z >= 0: a Rayleigh line's -log p_s at
    p = 1 and its contention. Each element depends only on its own z, with bounded work.

    Below z_c, line_sums' head for z (32 or 64 terms from alpha 1.5 on) in blocks of rows,
    plus the tail sum_k (-1)^(k+1) zeta(k alpha, N) z^k/k. From z_c on, the Mellin
    expansion pi z^(1/alpha)/sin(pi/alpha) - log(z)/2 - (alpha/2) log 2 pi
    + sum_{k<=K} (-1)^(k+1) zeta(-alpha k)/(k z^k) (Flajolet, Gourdon & Dumas, TCS 1995),
    its leading terms in np.longdouble so that S keeps half an ulp on x87.
    """
    zc, _, i_pow, heads = _exponent_constants(alpha)
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):
        raise DomainError(f"line exponents need z >= 0, got {z}")
    flat = z.ravel()
    s, ds = np.empty_like(flat), np.empty_like(flat) if derivative else None
    near = np.flatnonzero(flat < zc)
    log_n = np.maximum(np.frexp((flat[near] / 0.05) ** (1.0 / alpha))[1], 5)  # line_sums' N
    for e in sorted(set(log_n.tolist())):
        group, step = near[log_n == e], max(1, _BLOCK >> e)
        s[group], d = _power_sums(flat[group] * heads[e][0], heads[e][1], derivative)
        if derivative:
            ds[group] = d
        for rows in (group[i:i + step] for i in range(0, group.size, step)):
            x = flat[rows, None] * i_pow[:(1 << e) - 1]
            s[rows] += np.log1p(x).sum(axis=1)
            if derivative:
                x /= 1.0 + x
                ds[rows] += x.sum(axis=1)
    far = np.flatnonzero(flat >= zc)
    if far.size:
        series, a, c, shift = _mellin_constants(alpha)
        log_z = np.log(flat[far].astype(np.longdouble))
        root = c * np.exp(log_z / a)  # inf at z = inf, where log_z is cut to keep S from nan
        f, d = _power_sums(1.0 / flat[far], series, derivative)
        s[far] = root - np.fmin(log_z, _LOG_MAX + 1.0) / 2 - shift + f
        if derivative:
            ds[far] = root / a - 0.5 - d
    return s.reshape(z.shape), ds.reshape(z.shape) if derivative else None


def aloha_line_exponent(alpha: float, theta: float, p: float) -> float:
    """-log p_s = S(theta) - S((1 - p) theta) of a Rayleigh line under ALOHA. Within a
    branch of line_exponent it is taken term by term, by expm1 and log1p: the head's
    -log(1 - p x_i/(1 + x_i)), each power of z times 1 - (1 - p)^k, and the leading
    pi/sin(pi/alpha) theta^(1/alpha) (1 - (1 - p)^(1/alpha)) + log(1 - p)/2. Across z_c
    the two sums are subtracted."""
    if not (theta > 0 and 0.0 <= p <= 1.0):
        raise DomainError(f"ALOHA lines need theta > 0 and p in [0, 1], got {theta}, {p}")
    zc, _, i_pow, heads = _exponent_constants(alpha)
    if p == 1.0:
        return float(line_exponent(alpha, theta, False)[0])
    if theta < zc:
        e = max(math.frexp((theta / 0.05) ** (1.0 / alpha))[1], 5)  # line_sums' N
        weights = -np.expm1(np.arange(1.0, heads[e][1].size + 1) * math.log1p(-p))
        return (math.fsum(interference_log_ps(theta * i_pow[:(1 << e) - 1], p, Fading.rayleigh()).tolist())
                + float(_power_sums(theta * heads[e][0], heads[e][1] * weights, False)[0]))
    if (1.0 - p) * theta >= zc:
        series, a, c, _ = _mellin_constants(alpha)
        v = np.log1p(-np.longdouble(p))
        weights = -np.expm1(-np.arange(1.0, series.size + 1) * math.log1p(-p))
        return float(v / 2 - c * np.exp(np.log(np.longdouble(theta)) / a) * np.expm1(v / a)
                     + _power_sums(1.0 / theta, series * weights, False)[0])
    s = line_exponent(alpha, [theta, (1.0 - p) * theta], False)[0]
    return float(s[0] - s[1])


def gamma_line(alpha: float, theta: float, interferer_fading: Fading) -> float:
    """One-sided regular line with a Rayleigh desired link, any alpha > 1:
    gamma = sum_i (1 - L_h(theta/i^alpha)), by line_exponent for Rayleigh interferers."""
    if not (1 < alpha < math.inf and theta > 0):
        raise DomainError(f"line sums need finite alpha > 1 and theta > 0, got {alpha}, {theta}")
    if interferer_fading.is_rayleigh:
        return float(line_exponent(alpha, theta)[1])
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

