"""The interferer product p_s = prod (1 - p (1 - L_h(x_i))) and its contention
sum gamma = sum (1 - L_h(x_i)) on lines and explicit sets: mpmath
references, the alpha in {2, 4} closed forms, and the simulator."""

import math
import warnings

import numpy as np
import pytest

from sirnet import analytic
from sirnet.contention import (
    gamma_line,
    gamma_line_alpha2,
    gamma_line_alpha4,
    interference_log_ps,
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
    zeta(k alpha, N) x^k with x = 0.0087, is about 1e-6 of the sum. The
    reference sums term(theta/i^alpha) directly until theta/i^alpha < 1e-50
    (mpmath.zeta(s, n) itself is off by 1e-9 at s = 103, n = 1024)."""
    mpmath = pytest.importorskip("mpmath")
    cases = [(a, t) for a in (250.0, 300.0, 1000.0) for t in (1.0, 1e100, 1e300)]
    with mpmath.workdps(40):
        for alpha, theta in cases + [(103.0, 1e308)]:
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
