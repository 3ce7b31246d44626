"""Success probability closed forms: values, limits, bounds, consistency."""

import math

import pytest

from sirnet.contention import gamma_line_alpha2, gamma_line_alpha4, gamma_single
from sirnet.model import Fading, FadingCase
from sirnet.outage import (
    ps_exp_pathloss,
    ps_explicit,
    ps_explicit_partial_exact,
    ps_line_alpha2_aloha,
    ps_line_alpha4_aloha,
    ps_ppp,
    ps_ppp_nonfading_alpha4,
    ps_single,
    ps_tdma_line,
)
from sirnet.specfun import DomainError, zeta
from sirnet.throughput import tdma_ps_one_sided

RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())


def line_product(alpha, theta, p, n=200000):
    """Truncated interferer-by-interferer product for the regular line."""
    log_ps = -p * theta * n ** (1.0 - alpha) / (alpha - 1.0)  # analytic tail
    for i in range(1, n + 1):
        log_ps += math.log1p(-p / (1.0 + i ** alpha / theta))
    return math.exp(log_ps)


def test_ps_single_values():
    assert ps_single(RAY, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert ps_single(RAY, 3.0, 0.5) == pytest.approx(1 - 0.5 / 4, rel=1e-12)


def test_ps_single_is_linear_in_p():
    for case in (RAY, FadingCase(Fading.rayleigh(), Fading.none()),
                 FadingCase(Fading.none(), Fading.rayleigh())):
        g = gamma_single(case, 2.0)
        for p in (0.0, 0.3, 1.0):
            assert ps_single(case, 2.0, p) == pytest.approx(1 - p * g, rel=1e-12)


def test_ps_single_nakagami_limits():
    """Large-m Nakagami converges to the corresponding static case."""
    m = 2.0 ** 10
    for xi in (0.5, 2.0, 10.0):
        naka_i = FadingCase(Fading.rayleigh(), Fading.nakagami(m))
        static_i = FadingCase(Fading.rayleigh(), Fading.none())
        assert ps_single(naka_i, xi, 1.0) == pytest.approx(
            ps_single(static_i, xi, 1.0), abs=2e-3
        )
        naka_d = FadingCase(Fading.nakagami(m), Fading.rayleigh())
        static_d = FadingCase(Fading.none(), Fading.rayleigh())
        assert ps_single(naka_d, xi, 1.0) == pytest.approx(
            ps_single(static_d, xi, 1.0), abs=2e-3
        )


def test_ps_single_nakagami_interpolates():
    # between the Rayleigh and static outage at moderate m
    xi, p = 2.0, 1.0
    ray = ps_single(RAY, xi, p)
    static = ps_single(FadingCase(Fading.rayleigh(), Fading.none()), xi, p)
    naka = ps_single(FadingCase(Fading.rayleigh(), Fading.nakagami(4.0)), xi, p)
    assert static < naka < ray


def test_ps_ppp():
    assert ps_ppp(2, 4.0, 1.0, 0.05, Fading.rayleigh()) == pytest.approx(
        math.exp(-0.05 * math.pi ** 2 / 2), rel=1e-12
    )


def test_ps_ppp_nonfading():
    v = ps_ppp_nonfading_alpha4(1.0, 0.05)
    assert v == pytest.approx(1 - math.erf(math.pi ** 1.5 * 0.05 / 2), rel=1e-12)
    assert ps_ppp_nonfading_alpha4(1.0, 0.0) == 1.0


def test_ps_exp_pathloss():
    assert ps_exp_pathloss(1.0, 1.0, 0.1) == pytest.approx(
        math.exp(-0.1 * math.pi ** 3 / 6), rel=1e-12
    )


def test_ps_explicit():
    r = ps_explicit([1.0, 1.0], 0.5)
    assert r.value == pytest.approx(0.5625, rel=1e-12)
    assert r.lower_bound == pytest.approx(0.5, rel=1e-12)
    assert r.upper_bound == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert r.lower_bound <= r.value <= r.upper_bound
    # single xi reduces to the single-interferer form
    assert ps_explicit([2.0], 0.7).value == pytest.approx(ps_single(RAY, 2.0, 0.7), rel=1e-12)
    assert ps_explicit([], 0.5).value == 1.0


def test_ps_explicit_matches_line_product():
    theta, p = 1.0, 0.3
    xis = [i ** 2 / theta for i in range(1, 10001)]
    assert ps_explicit(xis, p).value == pytest.approx(
        ps_line_alpha2_aloha(theta, p), rel=1e-3
    )


def test_ps_explicit_partial():
    with pytest.raises(DomainError):
        ps_explicit_partial_exact([0.0], 0.5)
    # static interferers hurt more than fading ones: the 1/0 product is
    # below the full-fading product
    import random

    rng = random.Random(3)
    for _ in range(100):
        xis = [rng.uniform(0.2, 20.0) for _ in range(rng.randint(1, 6))]
        p = rng.uniform(0.0, 1.0)
        exact = ps_explicit_partial_exact(xis, p)
        full = ps_explicit(xis, p).value
        assert exact <= full + 1e-12


def test_ps_line_alpha2():
    # closed form vs truncated product
    for theta, p in ((0.1, 0.2), (1.0, 0.3), (10.0, 0.5)):
        assert ps_line_alpha2_aloha(theta, p) == pytest.approx(
            line_product(2.0, theta, p), rel=1e-5
        )
    assert ps_line_alpha2_aloha(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    # p -> 1 continuous limit
    y = math.pi
    assert ps_line_alpha2_aloha(1.0, 1.0) == pytest.approx(y / math.sinh(y), rel=1e-12)
    assert ps_line_alpha2_aloha(1.0, 1.0 - 1e-10) == pytest.approx(
        ps_line_alpha2_aloha(1.0, 1.0), rel=1e-4
    )


def test_ps_line_alpha4():
    for theta, p in ((0.1, 0.2), (1.0, 0.3), (10.0, 0.5)):
        assert ps_line_alpha4_aloha(theta, p) == pytest.approx(
            line_product(4.0, theta, p, n=10000), rel=1e-8
        )
    y = math.pi / math.sqrt(2.0)
    expected = 2 * y * y / (math.cosh(y) ** 2 - math.cos(y) ** 2)
    assert ps_line_alpha4_aloha(1.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_ps_line_overflow_safe():
    # huge theta drives the hyperbolic terms past double range
    v = ps_line_alpha2_aloha(1e6, 0.5)
    assert 0.0 <= v <= 1.0
    v = ps_line_alpha4_aloha(1e12, 0.5)
    assert 0.0 <= v <= 1.0


def test_ps_monotone():
    for p in (0.1, 0.4):
        vals = [ps_line_alpha2_aloha(t, p) for t in (0.1, 0.5, 1.0, 5.0, 20.0)]
        assert vals == sorted(vals, reverse=True)
    vals = [ps_ppp(2, 4.0, 1.0, p, Fading.rayleigh()) for p in (0.0, 0.2, 0.5, 1.0)]
    assert vals == sorted(vals, reverse=True)


def test_ps_tdma_line_exact_cases():
    r = ps_tdma_line(2.0, 1.0, 1)
    assert r.value == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)
    # reuse factor m only rescales theta
    assert ps_tdma_line(2.0, 16.0, 4).value == pytest.approx(r.value, rel=1e-12)
    assert ps_tdma_line(4.0, 16.0, 2).value == pytest.approx(
        ps_tdma_line(4.0, 1.0, 1).value, rel=1e-12
    )


def test_ps_tdma_line_bounds():
    for alpha in (2.0, 3.0, 4.0):
        for theta in (0.1, 1.0, 10.0):
            for m in (1, 2, 4, 8):
                r = ps_tdma_line(alpha, theta, m)
                tp = theta / m ** alpha
                assert r.lower_bound == pytest.approx(math.exp(-zeta(alpha) * tp), rel=1e-12)
                assert r.lower_bound <= r.value <= r.upper_bound


def test_ps_tdma_line_general_alpha_has_no_value():
    """Outside alpha in {2, 4} the value is the exact infinite product."""
    r = ps_tdma_line(3.0, 1.0, 2)
    assert r.method == "product"
    assert r.value == tdma_ps_one_sided(3.0, 1.0, 2)
    assert 0 < r.lower_bound <= r.value <= r.upper_bound <= 1
    two = ps_tdma_line(3.0, 1.0, 2, sided="two")
    assert two.lower_bound <= two.value <= two.upper_bound


def test_ps_tdma_two_sided_squares():
    one = ps_tdma_line(2.0, 1.0, 2)
    two = ps_tdma_line(2.0, 1.0, 2, sided="two")
    assert two.value == pytest.approx(one.value ** 2, rel=1e-12)
    assert two.lower_bound == pytest.approx(one.lower_bound ** 2, rel=1e-12)
    assert two.upper_bound == pytest.approx(one.upper_bound ** 2, rel=1e-12)


def test_sandwich_bounds_hold():
    """1 - p*gamma <= p_s <= exp(-p*gamma) for Rayleigh-desired classes."""
    for theta in (0.1, 1.0, 10.0):
        g2 = gamma_line_alpha2(theta)
        g4 = gamma_line_alpha4(theta)
        for p in (0.05, 0.3, 0.7, 1.0):
            for ps, g in ((ps_line_alpha2_aloha(theta, p), g2),
                          (ps_line_alpha4_aloha(theta, p), g4)):
                assert max(0.0, 1.0 - p * g) <= ps + 1e-12
                assert ps <= math.exp(-p * g) + 1e-12


def test_invalid_p():
    with pytest.raises(DomainError):
        ps_ppp(2, 4.0, 1.0, 1.5, Fading.rayleigh())
    with pytest.raises(DomainError):
        ps_line_alpha2_aloha(1.0, -0.1)
