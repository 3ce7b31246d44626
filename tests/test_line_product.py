"""The interferer product p_s = prod (1 - p (1 - L_h(x_i))) and its contention
sum gamma = sum (1 - L_h(x_i)) on lines and explicit sets: mpmath
references, the alpha in {2, 4} closed forms, and the simulator."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirnet import analytic
from sirnet.contention import (
    gamma_line,
    gamma_line_alpha2,
    gamma_line_alpha4,
    interference_log_ps,
    line_exponent,
    line_sums,
    power_series,
)
from sirnet.model import Aloha, Fading, class_model
from sirnet.montecarlo import SimConfig, simulate_ps
from sirnet.outage import ps_line_alpha2_aloha, ps_line_alpha4_aloha
from sirnet.specfun import DomainError
from sirnet.throughput import tdma_ps_one_sided

FADINGS = {"0": Fading.none(), "1": Fading.rayleigh(), "m4": Fading.nakagami(4.0),
           "m0.5": Fading.nakagami(0.5)}
ALPHAS = (1.5, 2.5, 3.0, 5.0)
THETAS = (1e-6, 1e-3, 0.3, 1.0, 30.0, 1e4)
PS = (0.01, 0.3, 1.0)


def line_ps(alpha, theta, p, fading):
    """One-sided line p_s through the dispatcher (the line product off alpha 2, 4)."""
    model = class_model("line1", alpha, "1/" + fading.symbol)
    return analytic.success_probability(model, Aloha(p), theta).value


def explicit(xis, label):
    """An explicit set whose distances are its effective distances (alpha 1, theta 1)."""
    return class_model("explicit", 1.0, "1/" + label, distances=xis)


def laplace(mp, fading, x):
    return mp.exp(-x) if fading.is_static else (1 + x / fading.m) ** -fading.m


def series(mp, fading, p, terms=40):
    """Coefficients 1..terms of x^k of 1 - L_h(x) (p None) or of
    -log(1 - p (1 - L_h(x))), in mpmath: the log of a power series a(x)
    with a_0 = 1 by b_k = a_k - sum_{j<k} j b_j a_(k-j) / k."""
    ell, m = [mp.mpf(1)], None if fading.is_static else mp.mpf(fading.m)
    for k in range(1, terms + 1):
        ell.append(-ell[-1] / k if m is None else ell[-1] * (1 - k - m) / (k * m))
    if p is None:
        return [-c for c in ell[1:]]
    a = [mp.mpf(1)] + [p * c for c in ell[1:]]  # 1 - p (1 - L_h)
    b = [mp.mpf(0)]
    for k in range(1, terms + 1):
        b.append(a[k] - mp.fsum(j * b[j] * a[k - j] for j in range(1, k)) / k)
    return [-c for c in b[1:]]


def zeta_reference(mp, s, n, terms=20):
    """zeta(s, n) as an exact head to N - 1 = n + 2s + 39 plus the
    Euler-Maclaurin tail at N, whose remainder is below 1e-30 of the sum here;
    mpmath.zeta(s, n) itself is off by 2.4e-10 at (30, 1024)."""
    big = n + int(2 * s) + 40
    head = mp.fsum(mp.mpf(i) ** -s for i in range(n, big))
    big, rising = mp.mpf(big), s  # rising = s (s + 1) ... (s + 2j - 2)
    tail = [big ** (1 - s) / (s - 1), big ** -s / 2]
    for j in range(1, terms + 1):
        tail.append(mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising * big ** (1 - s - 2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return head + mp.fsum(tail)


def test_hurwitz_reference_matches_a_direct_sum():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s, n in ((30, 1024), (60, 2154), (60, 16), (3.0, 16)):
            s = mpmath.mpf(s)
            if s > 10:  # terms fall below 1e-45 of the first within 10^(45/(s-1)) n
                direct = mpmath.fsum(mpmath.mpf(i) ** -s
                                     for i in range(n, int(n * 10 ** (45 / (s - 1))) + 1))
            else:  # mpmath.zeta is right at small n
                direct = mpmath.zeta(s, n)
            assert abs(zeta_reference(mpmath, s, n) / direct - 1) < 1e-30, (s, n)


def test_line_sums_match_mpmath_references():
    """gamma and p_s on a line against sum_i term(theta/i^alpha), term
    1 - L_h or -log((1 - p) + p L_h), taken as an exact head to n - 1 plus
    sum_k c_k theta^k zeta(k alpha, n); n is the first integer >= 16 where
    theta/n^alpha <= 0.1 (not the n of the code)."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        coefs = {(label, p): series(mpmath, fading, None if p is None else mpmath.mpf(p))
                 for label, fading in FADINGS.items() for p in (None,) + PS}
        for alpha in ALPHAS:
            for theta in THETAS:
                a, t = mpmath.mpf(alpha), mpmath.mpf(theta)
                n = max(16, math.ceil((theta / 0.1) ** (1.0 / alpha)))
                zetas = [t ** k * zeta_reference(mpmath, k * a, n) for k in range(1, 41)]
                for label, fading in FADINGS.items():
                    ells = [laplace(mpmath, fading, t / mpmath.mpf(i) ** a) for i in range(1, n)]
                    tail = {p: mpmath.fsum(c * z for c, z in zip(coefs[label, p], zetas))
                            for p in (None,) + PS}
                    gamma = mpmath.fsum(1 - ell for ell in ells) + tail[None]
                    got = gamma_line(alpha, theta, fading)
                    assert abs(got - gamma) <= 1e-13 * gamma, (alpha, theta, label)
                    for p in PS:
                        q = mpmath.mpf(p)
                        log_inv = mpmath.fsum(-mpmath.log(1 - q + q * ell) for ell in ells)
                        ref = float(mpmath.exp(-log_inv - tail[p]))
                        got = line_ps(alpha, theta, p, fading)
                        if ref == 0.0:  # below the double range
                            assert got == 0.0
                        else:
                            assert abs(got - ref) <= 1e-13 * ref, (alpha, theta, label, p)
                            worst = max(worst, abs(got - ref) / ref)
    assert worst > 0.0  # the comparison ran on values, not only on zeros


def test_line_sums_past_the_float_range_of_n_alpha_match_mpmath():
    """alpha 250 to 1000, where N^alpha passes the float range at N = 32 and
    the tail coefficients zeta(k alpha, N) underflow; at alpha 103, theta
    1e308 the head is N = 1024 and the tail, sum_k c_k N^(k alpha)
    zeta(k alpha, N) x^k with x = 0.0087, is about 1e-6 of the sum; at alpha
    150, theta 1e307, beyond z_c = inf, theta/0.05 passes the float range. The
    reference sums term(theta/i^alpha) directly until theta/i^alpha < 1e-50
    (mpmath.zeta(s, n) itself is off by 1e-9 at s = 103, n = 1024)."""
    mpmath = pytest.importorskip("mpmath")
    cases = [(a, t) for a in (250.0, 300.0, 1000.0) for t in (1.0, 1e100, 1e300)]
    with mpmath.workdps(40):
        for alpha, theta in cases + [(103.0, 1e308), (150.0, 1e307)]:
            a, t, xs = mpmath.mpf(alpha), mpmath.mpf(theta), []
            while not xs or xs[-1] > 1e-50:
                xs.append(t / mpmath.mpf(len(xs) + 1) ** a)
            log_inv = mpmath.fsum(mpmath.log1p(x) for x in xs)
            log1p_sum = line_sums(alpha, [theta], np.log1p, power_series(FADINGS["1"], 1.0))[0]
            assert log1p_sum == pytest.approx(float(log_inv), rel=1e-13, abs=0.0), (alpha, theta)
            ref = float(mpmath.exp(-log_inv))
            got = tdma_ps_one_sided(alpha, theta, 1)
            assert got == (0.0 if ref == 0.0 else pytest.approx(ref, rel=1e-13)), (alpha, theta)
            for label, fading in FADINGS.items():
                ells = [laplace(mpmath, fading, x) for x in xs]
                gamma = mpmath.fsum(1 - ell for ell in ells)
                assert gamma_line(alpha, theta, fading) == pytest.approx(
                    float(gamma), rel=1e-13), (alpha, theta, label)
                for p in PS:
                    q = mpmath.mpf(p)
                    log_ps = mpmath.fsum(-mpmath.log(1 - q + q * ell) for ell in ells)
                    ref = float(mpmath.exp(-log_ps))
                    got = line_ps(alpha, theta, p, fading)
                    assert got == (0.0 if ref == 0.0 else pytest.approx(ref, rel=1e-13)), (
                        alpha, theta, label, p)


@functools.lru_cache(maxsize=None)
def inverse_powers(alpha, n, prec):
    """i^-alpha for i < n in mpmath at `prec` bits."""
    import mpmath

    with mpmath.workprec(prec):
        return [mpmath.mpf(i) ** -mpmath.mpf(alpha) for i in range(1, n)]


def exponent_reference(mp, alpha, z, derivative=False, n=48, terms=7):
    """S(z) = sum_{i>=1} log(1 + z i^-alpha) in mpmath, or with `derivative` (S, z S'(z)), by
    Euler-Maclaurin at i = n: a head to n - 1 (the log of its product); the integral from n of log(1 + z t^-alpha),
    by parts -n f(n) + alpha z I, and of z t^-alpha/(1 + z t^-alpha), z I, with
    I = n^(1-alpha)/(alpha-1) 2F1(1, 1 - 1/alpha; 2 - 1/alpha; -x), x = z n^-alpha; and
    the Bernoulli terms, whose derivatives come from the Taylor series in s of
    log(1 + x (1 + s)^-alpha) and of 1 - 1/(1 + x (1 + s)^-alpha) at t = n (1 + s)."""
    a, z, big = mp.mpf(alpha), mp.mpf(z), mp.mpf(n)
    x = z * big ** -a
    u = [1 + x, -a * x]  # 1 + x (1 + s)^-alpha
    for k in range(2, 2 * terms):
        u.append(u[-1] * (-a - k + 1) / k)
    log, inv = [mp.log(u[0])], [1 / u[0]]
    for k in range(1, 2 * terms):
        log.append((u[k] - mp.fsum(j * log[j] * u[k - j] for j in range(1, k)) / k) / u[0])
        if derivative:
            inv.append(-mp.fsum(u[j] * inv[k - j] for j in range(1, k + 1)) / u[0])
    integral = z * big ** (1 - a) / (a - 1) * mp.hyp2f1(1, 1 - 1 / a, 2 - 1 / a, -x)
    xs = [z * c for c in inverse_powers(alpha, n, mp.mp.prec)]
    parts = [(log, [mp.log(mp.fprod(1 + y for y in xs))], a * integral - n * log[0])]
    if derivative:
        parts.append(([1 - inv[0]] + [-c for c in inv[1:]], [y / (1 + y) for y in xs], integral))
    sums = []
    for coefficients, head, whole in parts:
        bernoulli = [mp.bernoulli(2 * j) / (2 * j) * coefficients[2 * j - 1] / big ** (2 * j - 1)
                     for j in range(1, terms + 1)]
        sums.append(mp.fsum(head) + whole + coefficients[0] / 2 - mp.fsum(bernoulli))
    return sums if derivative else sums[0]


def test_exponent_reference_matches_loggamma_and_a_zeta_tail():
    """The Euler-Maclaurin reference against two independent ones: at alpha 3,
    S = -log(Gamma(1 + y) |Gamma(1 - y e^(i pi/3))|^2), y = z^(1/3); elsewhere a head plus
    the tail sum_k (-1)^(k+1) z^k zeta(k alpha, n)/k (and its z d/dz), n past z^(1/alpha)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = mpmath.exp(1j * mpmath.pi / 3)
        for z in (1e-6, 0.3, 40.0, 1e5, 1e12):
            y = mpmath.cbrt(mpmath.mpf(z))
            ref = -(mpmath.loggamma(1 + y) + mpmath.loggamma(1 - y * w)
                    + mpmath.loggamma(1 - y * mpmath.conj(w))).real
            assert abs(exponent_reference(mpmath, 3.0, z) / ref - 1) < 1e-25, z
        for alpha, z in ((1.5, 0.3), (1.5, 40.0), (2.5, 30.0), (5.0, 1e3)):
            a, t = mpmath.mpf(alpha), mpmath.mpf(z)
            n = 2 * math.ceil(z ** (1 / alpha)) + 8
            s = mpmath.fsum(mpmath.log1p(t / mpmath.mpf(i) ** a) for i in range(1, n))
            ds = mpmath.fsum(1 - 1 / (1 + t / mpmath.mpf(i) ** a) for i in range(1, n))
            for k in range(1, 200):
                term = (-1) ** (k + 1) * t ** k * zeta_reference(mpmath, k * a, n)
                s, ds = s + term / k, ds + term
                if abs(term) < 1e-45 * ds:
                    break
            got = exponent_reference(mpmath, alpha, z, derivative=True)
            assert abs(got[0] / s - 1) < 1e-25 and abs(got[1] / ds - 1) < 1e-25, (alpha, z)


def test_line_exponent_at_alpha_3_matches_mpmath_loggamma_to_y_1100():
    """S at alpha 3 is -(log Gamma(1+y) + log Gamma(1 - y w) + log Gamma(1 - y w*)),
    w = e^(i pi/3), y = z^(1/3): against mpmath.loggamma at the three points, on both
    sides of z_c and out to y = 1100 (values near 4,000)."""
    mpmath = pytest.importorskip("mpmath")
    ys = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 40), np.linspace(1.0, 30.0, 150),
                         np.linspace(30.0, 1100.0, 150)])
    values = line_exponent(3.0, ys ** 3)
    assert values[0] == 0.0
    with mpmath.workdps(40):
        w = mpmath.exp(1j * mpmath.pi / 3)
        for t, value in zip((ys ** 3).tolist(), values.tolist()):
            y = mpmath.cbrt(mpmath.mpf(t))
            ref = -(mpmath.loggamma(1 + y) + mpmath.loggamma(1 - y * w)
                    + mpmath.loggamma(1 - y * mpmath.conj(w)))
            assert abs(ref.imag) < 1e-30
            assert abs(value - ref.real) <= 2e-15 * max(1.0, abs(ref.real)), (t, value)


def test_mellin_coefficients_are_zeta_at_negative_arguments():
    """The series coefficients (-1)^(k+1) zeta(-alpha k)/k against mpmath.zeta at
    -alpha k, 0 where alpha k is even, for every k <= K."""
    from sirnet.contention import _mellin_constants

    mpmath = pytest.importorskip("mpmath")
    for alpha, size in ((1.5, 11), (2.5, 8), (3.0, 5), (3.5, 4), (5.0, 2), (8.0, 1)):
        series = _mellin_constants(alpha)[0]
        assert series.size == size, alpha
        for k, c in enumerate(series.tolist(), start=1):
            ref = (-1) ** (k + 1) * float(mpmath.zeta(-alpha * k)) / k
            assert c == pytest.approx(ref, rel=1e-15, abs=0.0), (alpha, k)


def test_rayleigh_aloha_lines_match_mpmath():
    """p_s and gamma of a Rayleigh line off alpha 2 and 4 within 1e-13 of 40-digit
    references up to theta = 1e12, for p in [1e-6, 0.999], wherever p_s > 1e-200: the grid
    and bound of test_aloha_line_forms_match_mpmath. Log p_s = S((1-p) theta) - S(theta)
    and gamma = z S'(z) at theta come from exponent_reference."""
    mpmath = pytest.importorskip("mpmath")
    ps_grid = np.logspace(-6, math.log10(0.999), 19).tolist()
    checked = 0
    with mpmath.workdps(40):
        for alpha in (1.5, 2.5, 3.0, 5.0):
            for theta in np.logspace(-6, 12, 55).tolist():
                s, ds = exponent_reference(mpmath, alpha, theta, derivative=True)
                assert gamma_line(alpha, theta, FADINGS["1"]) == pytest.approx(
                    float(ds), rel=1e-13, abs=0.0), (alpha, theta)
                for p in ps_grid:
                    if p * ds > 461:  # p_s <= exp(-p gamma) < 1e-200
                        break
                    log_ps = exponent_reference(mpmath, alpha, (1 - mpmath.mpf(p)) * theta) - s
                    if log_ps > mpmath.log(mpmath.mpf("1e-200")):
                        ref = mpmath.exp(log_ps)
                        value = line_ps(alpha, theta, p, FADINGS["1"])
                        assert abs(value - ref) <= 1e-13 * ref, (alpha, theta, p, value)
                        checked += 1
    assert checked > 2000


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(alpha=st.floats(1.2, 8.0), log_theta=st.floats(-8.0, 14.0),
       p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_rayleigh_aloha_line_lies_in_its_sandwich(alpha, log_theta, p):
    """1 - p gamma <= p_s <= exp(-p gamma) on a Rayleigh line, up to the rounding of
    p_s (a few ulps of 1 below, and of its log, -log p_s >= p gamma, above)."""
    theta = 10.0 ** log_theta
    ps, gamma = line_ps(alpha, theta, p, FADINGS["1"]), gamma_line(alpha, theta, FADINGS["1"])
    assert ps >= 1.0 - p * gamma - 4 * 2.0 ** -53, (ps, gamma)
    assert ps == 0.0 or math.log(ps) <= -p * gamma * (1.0 - 4 * 2.0 ** -53) + 2.0 ** -53, (ps, gamma)


def test_closed_forms_match_the_line_sum():
    """Within 1e-13 in log p_s, relative where |log p_s| > 1: p_s = exp(-L)
    carries the rounding of L (at theta 1e6, alpha 2, L is 500 and more).
    The thresholds reach down to 1e-8, where the first panel of a TDMA
    capacity integral lies."""
    ray = Fading.rayleigh()
    for theta in (1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.03, 0.3, 1.0, 10.0, 300.0, 1e4, 1e6):
        assert gamma_line_alpha2(theta) == pytest.approx(gamma_line(2.0, theta, ray), rel=1e-13)
        assert gamma_line_alpha4(theta) == pytest.approx(gamma_line(4.0, theta, ray), rel=1e-13)
        for p in (0.01, 0.1, 0.3, 0.7, 1.0):
            for alpha, closed in ((2.0, ps_line_alpha2_aloha), (4.0, ps_line_alpha4_aloha)):
                log_ps = line_sums(alpha, [theta], lambda x: interference_log_ps(x, p, ray),
                                   power_series(ray, p))[0]
                sum_, value = math.exp(-log_ps), closed(theta, p)
                if sum_ == 0.0:  # below the double range
                    assert value == 0.0
                    continue
                assert math.log(value) == pytest.approx(
                    math.log(sum_), rel=1e-13, abs=1e-13), (alpha, theta, p)


def test_line_product_limits_and_domain():
    for label, fading in FADINGS.items():
        assert line_ps(3.0, 1.0, 0.0, fading) == 1.0
        # more interferers or a larger p never help
        assert line_ps(3.0, 1.0, 0.5, fading) < line_ps(3.0, 1.0, 0.1, fading)
        assert line_ps(3.0, 2.0, 0.1, fading) < line_ps(3.0, 1.0, 0.1, fading)
    # Nakagami-m tends to the static case
    for m in (1e6, 1e300):
        assert gamma_line(3.0, 1.0, Fading.nakagami(m)) == pytest.approx(
            gamma_line(3.0, 1.0, Fading.none()), rel=1e-5)
    with pytest.raises(DomainError):
        gamma_line(3.0, 0.0, Fading.rayleigh())
    with pytest.raises(DomainError):
        line_ps(1.0, 1.0, 0.1, Fading.rayleigh())
    with pytest.raises(DomainError):  # a head above 2^16 terms
        gamma_line(3.0, 1e20, Fading.none())


def test_explicit_interferer_near_distance_zero():
    """x = 1/xi = 1.7e308 passes the float range in x/m = x/0.5 without a
    warning, and gives the limit L_h = 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analytic.success_probability(
            explicit((6e-309,), "m0.5"), Aloha(0.5), 1.0).value == 0.5
        # and 5e-324 gives x = inf
        assert analytic.spatial_contention(
            explicit((6e-309, 5e-324), "m0.5"), Aloha(0.5), 1.0) == 2.0


def test_explicit_sums_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xis = [0.3, 1.0, 2.5, 40.0]
    with mpmath.workdps(30):
        for label, fading in FADINGS.items():
            ells = [laplace(mpmath, fading, 1 / mpmath.mpf(xi)) for xi in xis]
            model = explicit(xis, label)
            assert analytic.spatial_contention(model, Aloha(0.5), 1.0) == pytest.approx(
                float(mpmath.fsum(1 - e for e in ells)), rel=1e-14), label
            for p in PS:
                ref = mpmath.fprod((1 - mpmath.mpf(p)) + p * e for e in ells)
                assert analytic.success_probability(model, Aloha(p), 1.0).value == pytest.approx(
                    float(ref), rel=1e-14), (label, p)


@pytest.mark.parametrize("cls,alpha,case,distances,p", [
    ("line1", 3.0, "1/1", None, 0.1),
    ("line1", 3.0, "1/0", None, 0.1),
    ("line2", 4.0, "1/m4", None, 0.1),
    ("explicit", 4.0, "1/m4", (1.0, 1.5, 2.5), 0.3),
])
def test_product_matches_the_simulator(cls, alpha, case, distances, p):
    model = class_model(cls, alpha, case, distances=distances)
    sp = analytic.success_probability(model, Aloha(p), 1.0)
    assert sp.method == ("closed-form" if cls == "explicit" else "product")
    if (cls, case) == ("line1", "1/1"):
        assert sp.value == pytest.approx(0.932381, abs=5e-7)
    est = simulate_ps(model, Aloha(p), 1.0, SimConfig(trials=200_000, seed=11))
    assert abs(est.z_score(sp.value)) < 3.5, (est.mean, est.stderr, sp.value)
