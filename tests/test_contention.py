"""Spatial contention closed forms vs direct numeric evaluation."""

import math
import random

import pytest

from sirnet.contention import (
    UnsupportedClassError,
    c_d_constant,
    equivalent_disk_radius,
    gamma_exp_pathloss,
    gamma_explicit,
    gamma_line_alpha2,
    gamma_line_alpha4,
    gamma_line_taylor,
    gamma_ppp,
    gamma_ppp_nonfading_alpha4,
    gamma_single,
    gamma_tdma_line,
    transmission_capacity_density,
)
from sirnet.model import Fading, FadingCase
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


def test_gamma_ppp_unsupported():
    with pytest.raises(UnsupportedClassError):
        gamma_ppp(4, 5.0, 1.0, Fading.rayleigh())
    with pytest.raises(UnsupportedClassError):
        gamma_ppp(1, 2.0, 1.0, Fading.none())


def test_gamma_exp_pathloss():
    # theta=1: -dilog(2) = pi^2/12
    g = gamma_exp_pathloss(1.0, 1.0)
    assert g == pytest.approx(2 * math.pi * math.pi ** 2 / 12, rel=1e-12)
    # delta^-2 scaling
    assert gamma_exp_pathloss(2.0, 1.0) == pytest.approx(g / 4, rel=1e-12)


def test_gamma_explicit():
    assert gamma_explicit([1.0, 1.0], Fading.rayleigh()) == 1.0
    assert gamma_explicit([2.0, 4.0], Fading.none()) == pytest.approx(
        2 - math.exp(-1 / 2) - math.exp(-1 / 4), rel=1e-12)
    with pytest.raises(DomainError):
        gamma_explicit([0.0], Fading.none())


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


def test_gamma_line_alpha4_approx():
    # asymptotic form is good for large theta only
    exact = gamma_line_alpha4(100.0)
    approx = gamma_line_alpha4(100.0, mode="approx")
    assert approx == pytest.approx(exact, rel=1e-2)


def test_gamma_line_taylor():
    for alpha in (2.0, 3.0, 4.0):
        for theta in (0.1, 0.3):
            assert gamma_line_taylor(alpha, theta, terms=40) == pytest.approx(
                brute_line_gamma(alpha, theta), rel=1e-6
            )
    with pytest.raises(DomainError):
        gamma_line_taylor(2.0, 0.7, terms=10)


def test_gamma_tdma_line():
    assert gamma_tdma_line(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)


def test_equivalent_disk_radius():
    assert equivalent_disk_radius(math.pi) == pytest.approx(1.0, rel=1e-12)
    assert equivalent_disk_radius(math.pi, link_distance=2.0) == pytest.approx(2.0, rel=1e-12)


def test_transmission_capacity_density():
    assert transmission_capacity_density(0.1, 0.5) == pytest.approx(0.05, rel=1e-12)


def test_contention_is_outage_slope():
    """gamma matches the finite-difference slope of outage in p at p=0."""
    from sirnet.outage import ps_line_alpha2_aloha, ps_ppp

    h = 1e-7
    slope = (1.0 - ps_ppp(2, 4.0, 1.0, h, Fading.rayleigh())) / h
    assert slope == pytest.approx(gamma_ppp(2, 4.0, 1.0, Fading.rayleigh()), rel=1e-5)
    slope = (1.0 - ps_line_alpha2_aloha(1.0, h)) / h
    assert slope == pytest.approx(gamma_line_alpha2(1.0), rel=1e-5)
