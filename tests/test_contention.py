"""Spatial contention closed forms vs direct numeric evaluation."""

import math
import random

import pytest

from sirnet.analytic import spatial_contention, success_probability
from sirnet.contention import (
    c_d_constant,
    equivalent_disk_radius,
    gamma_exp_pathloss,
    gamma_line,
    gamma_line_alpha2,
    gamma_line_alpha4,
    gamma_ppp,
    gamma_ppp_nonfading_alpha4,
    gamma_single,
    gamma_tdma_line,
)
from sirnet.model import Aloha, Fading, FadingCase, class_model
from sirnet.specfun import DomainError, zeta

RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())


def brute_line_gamma(alpha, theta, n=200000):
    # analytic tail keeps the truncation error below the comparison tolerances
    tail = theta * n ** (1.0 - alpha) / (alpha - 1.0)
    return sum(1.0 / (1.0 + i ** alpha / theta) for i in range(1, n + 1)) + tail


def test_geometry_constants():
    assert c_d_constant(2, 4.0) == pytest.approx(math.pi ** 2 / 2, abs=1e-12)
    assert c_d_constant(2, 3.0) == pytest.approx(4 * math.pi ** 2 / (3 * math.sqrt(3)), abs=1e-12)
    assert c_d_constant(1, 2.0) == pytest.approx(math.pi, abs=1e-12)
    assert c_d_constant(1, 4.0) == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
    assert c_d_constant(1, 4.0) ** 2 == pytest.approx(c_d_constant(2, 4.0), abs=1e-12)


def test_c_d_requires_alpha_above_d():
    with pytest.raises(DomainError):
        c_d_constant(2, 2.0)


def test_single_interferer_cases():
    assert gamma_single(RAY, 1.0) == 0.5
    case10 = FadingCase(Fading.rayleigh(), Fading.none())
    assert gamma_single(case10, 2.0) == pytest.approx(1 - math.exp(-0.5), rel=1e-12)
    case01 = FadingCase(Fading.none(), Fading.rayleigh())
    assert gamma_single(case01, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    case00 = FadingCase(Fading.none(), Fading.none())
    assert gamma_single(case00, 0.99) == 1.0
    assert gamma_single(case00, 1.01) == 0.0


def test_single_interferer_ordering():
    """Static interferers hurt; a static desired link helps (strictly)."""
    rng = random.Random(42)
    case10 = FadingCase(Fading.rayleigh(), Fading.none())
    case01 = FadingCase(Fading.none(), Fading.rayleigh())
    for _ in range(1000):
        xi = rng.uniform(1e-9, 100.0)
        g10 = gamma_single(case10, xi)
        g11 = gamma_single(RAY, xi)
        g01 = gamma_single(case01, xi)
        assert g10 > g11 > g01


def test_gamma_ppp_values():
    assert gamma_ppp(2, 4.0, 1.0, Fading.rayleigh()) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)
    assert gamma_ppp(2, 4.0, 4.0, Fading.rayleigh()) == pytest.approx(math.pi ** 2, rel=1e-12)
    assert gamma_ppp(1, 2.0, 1.0, Fading.rayleigh()) == pytest.approx(math.pi, rel=1e-12)
    # theta scaling exponent d/alpha
    g1 = gamma_ppp(2, 3.0, 1.0, Fading.rayleigh())
    g2 = gamma_ppp(2, 3.0, 8.0, Fading.rayleigh())
    assert g2 / g1 == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)


def test_gamma_ppp_static_interferers_exceed_rayleigh():
    for alpha in (2.5, 3.0, 4.0):
        g_static = gamma_ppp(2, alpha, 1.0, Fading.none())
        g_ray = gamma_ppp(2, alpha, 1.0, Fading.rayleigh())
        assert g_static > g_ray


def test_gamma_ppp_nonfading():
    assert gamma_ppp_nonfading_alpha4(1.0) == pytest.approx(math.pi, rel=1e-12)
    # less contention than any fading configuration at alpha=4
    assert gamma_ppp_nonfading_alpha4(1.0) < gamma_ppp(2, 4.0, 1.0, Fading.rayleigh())


def test_gamma_ppp_matches_mpmath():
    """gamma = c_d theta^delta E[h^delta] Gamma(1 - delta), delta = d/alpha,
    with c_d = pi^(d/2)/Gamma(1 + d/2) and E[h^delta] = Gamma(m + delta)/
    (Gamma(m) m^delta), from mpmath.gamma alone; within 1e-14 relative
    (the worst seen is 4.3e-15, at m = 100)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for d in (1, 2, 3):
            for alpha in (a / 4 for a in range(7, 25) if a / 4 > d):
                delta = mp.mpf(d) / mp.mpf(alpha)
                c_d = mp.pi ** (mp.mpf(d) / 2) / mp.gamma(1 + mp.mpf(d) / 2)
                for m in (None, 0.5, 1.0, 2.0, 4.0, 100.0, 1e4):
                    moment = 1 if m is None else mp.gamma(m + delta) / (
                        mp.gamma(m) * mp.mpf(m) ** delta)
                    for theta in (0.01, 1.0, 37.0):
                        ref = c_d * mp.mpf(theta) ** delta * moment * mp.gamma(1 - delta)
                        assert gamma_ppp(d, alpha, theta, Fading(m)) == pytest.approx(
                            float(ref), rel=1e-14, abs=0.0), (d, alpha, m, theta)


def test_gamma_ppp_rayleigh_is_c_d_and_large_m_tends_to_static():
    """The Rayleigh value is C_d(alpha) theta^(d/alpha) exactly, so gamma p
    stays the capacity's c_p; E[h^delta] tends to 1 as m grows, and Gamma(m)
    would overflow past m = 171."""
    for d, alpha, theta in ((1, 2.0, 0.3), (2, 3.0, 7.0), (2, 4.0, 1.0), (3, 4.5, 2.0)):
        assert gamma_ppp(d, alpha, theta, Fading.rayleigh()) == (
            c_d_constant(d, alpha) * theta ** (d / alpha))
        static = gamma_ppp(d, alpha, theta, Fading.none())
        for m in (171.5, 1e6, 1e300):
            assert gamma_ppp(d, alpha, theta, Fading(m)) == pytest.approx(
                static, rel=max(1.0 / m, 1e-15)), (d, alpha, m)


def test_gamma_exp_pathloss():
    # theta=1: -Li2(-1) = pi^2/12
    g = gamma_exp_pathloss(1.0, 1.0)
    assert g == pytest.approx(2 * math.pi * math.pi ** 2 / 12, rel=1e-12)
    # delta^-2 scaling
    assert gamma_exp_pathloss(2.0, 1.0) == pytest.approx(g / 4, rel=1e-12)


def test_gamma_explicit():
    def gamma(case, xis):  # at alpha 1 and theta 1 the distances are the xis
        model = class_model("explicit", 1.0, case, distances=xis)
        return spatial_contention(model, Aloha(0.5), 1.0)

    assert gamma("1/1", (1.0, 1.0)) == 1.0
    assert gamma("1/0", (2.0, 4.0)) == pytest.approx(
        2 - math.exp(-1 / 2) - math.exp(-1 / 4), rel=1e-12)
    # an interferer at effective distance 0 (x = 1/5e-324 = inf) causes an
    # outage whenever it sends
    assert gamma("1/0", (5e-324,)) == 1.0
    with pytest.raises(DomainError):
        class_model("explicit", 1.0, "1/0", distances=(-1.0,))


def test_gamma_line_alpha2_against_sum():
    for theta in (0.1, 1.0, 10.0):
        assert gamma_line_alpha2(theta) == pytest.approx(
            brute_line_gamma(2.0, theta), rel=1e-5
        )
    # small-theta series branch
    assert gamma_line_alpha2(1e-10) == pytest.approx(zeta(2.0) * 1e-10, rel=1e-6)


def test_gamma_line_alpha4_against_sum():
    for theta in (0.1, 1.0, 10.0, 1e4):
        assert gamma_line_alpha4(theta) == pytest.approx(
            brute_line_gamma(4.0, theta, n=10000), rel=1e-9
        )


@pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-4, 1e-2])
def test_small_theta_contention_against_mpmath(theta):
    """The line closed forms cancel and dilog(theta + 1) drops theta at small
    theta; the zeta series and Li2(-theta) keep full precision there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        th = mpmath.mpf(theta)
        for alpha, gamma in ((2, gamma_line_alpha2), (4, gamma_line_alpha4)):
            ref = mpmath.nsum(lambda i: th / (th + i ** alpha), [1, mpmath.inf])
            assert gamma(theta) == pytest.approx(float(ref), rel=1e-13, abs=0), alpha
        ref = -2 * mpmath.pi * mpmath.polylog(2, -th)
        assert gamma_exp_pathloss(1.0, theta) == pytest.approx(float(ref), rel=1e-13, abs=0)


def test_gamma_exp_pathloss_keeps_a_tiny_theta():
    gamma = gamma_exp_pathloss(1.0, 1e-300)  # -2 pi Li2(-theta) = 2 pi theta here
    assert gamma == pytest.approx(2 * math.pi * 1e-300, rel=1e-15, abs=0)


def test_gamma_line_alpha4_approx():
    # the asymptote pi theta^(1/4)/(2 sqrt 2) - 1/2 is good for large theta only
    approx = math.pi * 100.0 ** 0.25 / (2 * math.sqrt(2.0)) - 0.5
    assert approx == pytest.approx(gamma_line_alpha4(100.0), rel=1e-2)


def test_gamma_line_taylor():
    """The line sum against the alternating zeta series
    zeta(alpha) theta - zeta(2 alpha) theta^2 + ..., where it converges."""
    for alpha in (2.0, 3.0, 4.0):
        for theta in (0.1, 0.3):
            series = -sum((-theta) ** k * zeta(alpha * k) for k in range(1, 41))
            assert gamma_line(alpha, theta, Fading.rayleigh()) == pytest.approx(
                series, rel=1e-14)
            assert series == pytest.approx(brute_line_gamma(alpha, theta), rel=1e-6)
    with pytest.raises(DomainError):
        gamma_line(1.0, 0.7, Fading.rayleigh())


def test_gamma_tdma_line():
    assert gamma_tdma_line(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)


def test_equivalent_disk_radius():
    assert equivalent_disk_radius(math.pi) == pytest.approx(1.0, rel=1e-12)


def test_contention_is_outage_slope():
    """gamma matches the finite-difference slope of outage in p at p=0."""
    from sirnet.outage import ps_line_alpha2_aloha

    h = 1e-7
    slope = (1.0 - success_probability(class_model("ppp2", 4.0), Aloha(h), 1.0).value) / h
    assert slope == pytest.approx(gamma_ppp(2, 4.0, 1.0, Fading.rayleigh()), rel=1e-5)
    slope = (1.0 - ps_line_alpha2_aloha(1.0, h)) / h
    assert slope == pytest.approx(gamma_line_alpha2(1.0), rel=1e-5)
