"""Success probability closed forms: values, limits, bounds, consistency."""

import math
from functools import partial

import numpy as np
import pytest

from sirnet.analytic import spatial_contention, success_probability
from sirnet.contention import (
    gamma_line_alpha2,
    gamma_line_alpha4,
    gamma_single,
    interference_log_ps,
    line_sums,
    power_series,
)
from sirnet import outage
from sirnet.model import Aloha, Fading, FadingCase, Tdma, class_model
from sirnet.outage import (
    ps_line_alpha2_aloha,
    ps_line_alpha4_aloha,
    ps_ppp_nonfading_alpha4,
    ps_tdma_line,
    sandwich,
)
from sirnet.specfun import DomainError, zeta
from sirnet.throughput import tdma_ps_one_sided

RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())


def ps(cls, case, p, alpha=1.0, theta=1.0, **where):
    """success_probability of class_model(cls, alpha, case, **where) under
    Aloha(p); at alpha 1 and theta 1 an interferer at r has xi = r."""
    return success_probability(class_model(cls, alpha, case, **where), Aloha(p), theta)


def line_product(alpha, theta, p, n=200000):
    """Truncated interferer-by-interferer product for the regular line."""
    log_ps = -p * theta * n ** (1.0 - alpha) / (alpha - 1.0)  # analytic tail
    for i in range(1, n + 1):
        log_ps += math.log1p(-p / (1.0 + i ** alpha / theta))
    return math.exp(log_ps)


def test_ps_single_values():
    assert ps("single", "1/1", 1.0, r=1.0).value == pytest.approx(0.5, rel=1e-12)
    assert ps("single", "1/1", 0.5, r=3.0).value == pytest.approx(1 - 0.5 / 4, rel=1e-12)


def test_ps_single_is_linear_in_p():
    for case in (RAY, FadingCase(Fading.rayleigh(), Fading.none()),
                 FadingCase(Fading.none(), Fading.rayleigh())):
        g = gamma_single(case, 2.0)
        for p in (0.0, 0.3, 1.0):
            assert ps("single", case.label, p, r=2.0).value == pytest.approx(1 - p * g, rel=1e-12)


def test_ps_single_nakagami_limits():
    """Large-m Nakagami converges to the corresponding static case."""
    for xi in (0.5, 2.0, 10.0):  # Nakagami m = 2^10
        assert ps("single", "1/m1024", 1.0, r=xi).value == pytest.approx(
            ps("single", "1/0", 1.0, r=xi).value, abs=2e-3
        )
        assert ps("single", "m1024/1", 1.0, r=xi).value == pytest.approx(
            ps("single", "0/1", 1.0, r=xi).value, abs=2e-3
        )


def test_ps_single_nakagami_interpolates():
    # between the Rayleigh and static outage at moderate m
    xi, p = 2.0, 1.0
    ray = ps("single", "1/1", p, r=xi).value
    static = ps("single", "1/0", p, r=xi).value
    naka = ps("single", "1/m4", p, r=xi).value
    assert static < naka < ray


def test_ps_ppp():
    assert ps("ppp2", "1/1", 0.05, alpha=4.0).value == pytest.approx(
        math.exp(-0.05 * math.pi ** 2 / 2), rel=1e-12
    )


def test_ps_ppp_nonfading():
    v = ps_ppp_nonfading_alpha4(1.0, 0.05)
    assert v == pytest.approx(1 - math.erf(math.pi ** 1.5 * 0.05 / 2), rel=1e-12)
    assert ps_ppp_nonfading_alpha4(1.0, 0.0) == 1.0


def test_ps_exp_pathloss():
    assert ps("exp2", "1/1", 0.1, delta=1.0).value == pytest.approx(
        math.exp(-0.1 * math.pi ** 3 / 6), rel=1e-12
    )


def test_ps_explicit():
    r = ps("explicit", "1/1", 0.5, distances=(1.0, 1.0))
    assert r.value == pytest.approx(0.5625, rel=1e-12)
    assert r.lower_bound == pytest.approx(0.5, rel=1e-12)
    assert r.upper_bound == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert r.lower_bound <= r.value <= r.upper_bound
    # single xi reduces to the single-interferer form
    assert ps("explicit", "1/1", 0.7, distances=(2.0,)).value == pytest.approx(
        ps("single", "1/1", 0.7, r=2.0).value, rel=1e-12)


def test_ps_explicit_matches_line_product():
    theta, p = 1.0, 0.3
    xis = [i ** 2 / theta for i in range(1, 10001)]
    assert ps("explicit", "1/1", p, theta=theta, distances=xis).value == pytest.approx(
        ps_line_alpha2_aloha(theta, p), rel=1e-3
    )


def test_ps_explicit_partial():
    # a static interferer at effective distance 0 fails the link whenever it sends
    # (x = 1/5e-324 = inf)
    assert ps("explicit", "1/0", 0.5, distances=(5e-324,)).value == 0.5
    # static interferers hurt more than fading ones: the 1/0 product is
    # below the full-fading product
    import random

    rng = random.Random(3)
    for _ in range(100):
        xis = [rng.uniform(0.2, 20.0) for _ in range(rng.randint(1, 6))]
        p = rng.uniform(0.0, 1.0)
        exact = ps("explicit", "1/0", p, distances=xis).value
        full = ps("explicit", "1/1", p, distances=xis).value
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


def test_aloha_line_forms_match_mpmath():
    """The alpha 2 and 4 ALOHA forms within 1e-13 of 40-digit mpmath up to theta =
    1e12, for p in [1e-6, 0.999], wherever p_s > 1e-200. Each forms its exponent x - y
    as -y p/(...), which keeps its digits where y u - y would carry y ulps."""
    mpmath = pytest.importorskip("mpmath")
    ps_grid = np.logspace(-6, math.log10(0.999), 19).tolist()
    with mpmath.workdps(40):
        for theta in np.logspace(-6, 12, 55).tolist():
            t = mpmath.mpf(theta)
            for p in ps_grid:
                q = 1 - mpmath.mpf(p)
                y2, x2 = mpmath.pi * mpmath.sqrt(t), mpmath.pi * mpmath.sqrt(t * q)
                y4, x4 = (mpmath.pi * mpmath.root(t, 4) / mpmath.sqrt(2),
                          mpmath.pi * mpmath.root(t * q, 4) / mpmath.sqrt(2))
                refs = (mpmath.sinh(x2) / mpmath.sinh(y2) / mpmath.sqrt(q),
                        (mpmath.sinh(x4) ** 2 + mpmath.sin(x4) ** 2)
                        / (mpmath.sinh(y4) ** 2 + mpmath.sin(y4) ** 2) / mpmath.sqrt(q))
                tol = 1e-13
                for form, ref in zip((ps_line_alpha2_aloha, ps_line_alpha4_aloha), refs):
                    if ref > mpmath.mpf("1e-200"):
                        value = form(theta, p)
                        assert abs(value - ref) <= tol * ref, (form.__name__, theta, p, value)


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
    vals = [ps("ppp2", "1/1", p, alpha=4.0).value for p in (0.0, 0.2, 0.5, 1.0)]
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


def test_static_tdma_ps_is_its_lower_bound_in_array_and_scalar_calls():
    """Static interferers give p_s = exp(-zeta theta'), the lower bound's own bits, in
    ps_tdma_line and in an array call of tdma_ps_one_sided (which does not clamp below
    1e-300). Both form theta' by numpy's pow, which
    test_tdma_row_takes_the_theta_prime_of_tdma_ps_one_sided checks for m < 200."""
    static, thetas = Fading.none(), np.logspace(-9, 4, 53)
    for alpha, m in ([(a, 1) for a in (1.5, 2.5, 3.0, 3.7, 5.0)]
                     + [(a, m) for a in (2.0, 4.0) for m in (1, 2, 3, 8)]):
        values = tdma_ps_one_sided(alpha, thetas, m, static).tolist()
        for theta, v in zip(thetas.tolist(), values):
            r = ps_tdma_line(alpha, theta, m, "one", static)
            assert r.value == r.lower_bound == (v if v >= 1e-300 else 0.0), (alpha, m, theta)
            assert r.method == "closed-form"


def test_ps_tdma_two_sided_squares():
    one = ps_tdma_line(2.0, 1.0, 2)
    two = ps_tdma_line(2.0, 1.0, 2, sided="two")
    assert two.value == pytest.approx(one.value ** 2, rel=1e-12)
    assert two.lower_bound == pytest.approx(one.lower_bound ** 2, rel=1e-12)
    assert two.upper_bound == pytest.approx(one.upper_bound ** 2, rel=1e-12)


TDMA_FADINGS = {"0": Fading.none(), "1": Fading.rayleigh(), "m0.5": Fading.nakagami(0.5),
                "m2": Fading.nakagami(2.0), "m4": Fading.nakagami(4.0)}


def test_ps_tdma_line_bounds_for_any_interferer_fading():
    """exp(-z') <= p_s for any unit-mean fading (Jensen; static interferers
    meet it with equality, and their p_s is exp(-z')), and p_s <= 1/(1 + z' +
    (zeta - 1) theta'^2) where L_h(x) <= 1/(1 + x): static and m >= 1; for
    m < 1 the upper bound is 1."""
    for alpha in (1.5, 2.5, 3.0, 5.0):
        for m in (1, 2, 4):
            for theta in (0.1, 1.0, 10.0, 100.0):
                for label, fading in TDMA_FADINGS.items():
                    for sided in ("one", "two"):
                        r = ps_tdma_line(alpha, theta, m, sided, fading)
                        where = (alpha, m, theta, label, sided)
                        assert r.lower_bound <= r.value, where
                        assert r.value <= r.upper_bound, where
                        assert (r.upper_bound == 1.0) == (label == "m0.5"), where
                        assert r.method == ("closed-form" if label == "0" or (
                            label == "1" and alpha in (2.0, 4.0)) else "product")


def test_tdma_line_is_the_aloha_product_at_p_1():
    """The TDMA line is the ALOHA line product at p = 1 and theta' = theta/m^alpha."""
    for alpha in (2.0, 3.0, 4.0):
        for label, fading in TDMA_FADINGS.items():
            for theta, m in ((0.5, 1), (10.0, 2), (300.0, 3)):
                got = ps_tdma_line(alpha, theta, m, "one", fading).value
                ref = math.exp(-line_sums(alpha, [theta / m ** alpha],
                                          partial(interference_log_ps, p=1.0, fading=fading),
                                          power_series(fading, 1.0))[0])
                assert got == pytest.approx(ref, rel=1e-13), (alpha, label, theta, m)


def test_tdma_row_takes_the_theta_prime_of_tdma_ps_one_sided():
    """ps_tdma_line forms theta' = theta/m^alpha by numpy's pow, as tdma_ps_one_sided does,
    so a row's value is tdma_ps_one_sided's to the bit and its lower bound is the static
    p_s at the same theta' (moved to the value where rounding left the value past it).
    libm's pow rounds m^alpha apart from numpy's for some (m, alpha), such as (7, 1.5)."""
    for alpha in (1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 5.0):
        for label in ("0", "1", "m2"):
            fading = TDMA_FADINGS[label]
            for m in range(1, 200):
                r = ps_tdma_line(alpha, 1.0, m, "one", fading)
                assert r.value == tdma_ps_one_sided(alpha, 1.0, m, fading), (alpha, m, label)
                static = tdma_ps_one_sided(alpha, 1.0, m, Fading.none())
                assert r.lower_bound == min(static, r.value), (alpha, m, label)


@pytest.mark.parametrize("cls", ["line1", "line2"])
@pytest.mark.parametrize("case", ["1/0", "1/1"])
def test_line_values_lie_within_their_bounds_at_tiny_theta(cls, case):
    """Below theta ~ 1e-6 the gap between the bounds is under an ulp, and the value's own
    rounding could put it a few ulps outside them; a bound moves to the value only that
    far (test_a_value_past_its_bounds_by_more_than_rounding_keeps_them)."""
    macs = (Aloha(0.1), Aloha(0.5), Aloha(0.9), Aloha(1.0), Tdma(1), Tdma(2), Tdma(3))
    for alpha in (2.0, 3.0, 4.0):
        model = class_model(cls, alpha, case)
        for theta in np.logspace(-12, -6, 49).tolist():
            for mac in macs:
                r = success_probability(model, mac, theta)
                assert r.lower_bound <= r.value <= r.upper_bound, (alpha, theta, mac, r)


def test_a_value_past_its_bounds_by_more_than_rounding_keeps_them(monkeypatch):
    """A bound moves to the value only where the value lies a few ulps past it, so a
    wrong value stays outside bounds that keep their own bits, in an ALOHA sandwich and
    in a TDMA row."""
    p, gamma = 0.5, 0.2
    lower, upper = 1.0 - p * gamma, math.exp(-p * gamma)
    for value in (lower * (1.0 - 1e-12), upper * (1.0 + 1e-12), 0.5, 1.0):
        r = sandwich(value, p, gamma)
        assert (r.lower_bound, r.upper_bound) == (lower, upper), value
        assert not r.lower_bound <= r.value <= r.upper_bound, value
    near = upper + 3 * math.ulp(upper)
    assert sandwich(near, p, gamma).upper_bound == near
    right = ps_tdma_line(4.0, 1.0, 1)
    wrong = right.lower_bound * (1.0 - 1e-12)
    forms = outage._RAYLEIGH_LINE_FORMS[4.0]
    monkeypatch.setitem(outage._RAYLEIGH_LINE_FORMS, 4.0, (lambda tp: wrong, *forms[1:]))
    r = ps_tdma_line(4.0, 1.0, 1)
    assert (r.value, r.lower_bound, r.upper_bound) == (wrong, right.lower_bound,
                                                       right.upper_bound)


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



@pytest.mark.parametrize("p_gamma", [690.0, 690.4, 690.775])
@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("cls, case", [("ppp2", "1/1"), ("ppp2", "1/0"), ("ppp1", "1/1")])
def test_aloha_bounds_hold_down_to_the_clamp(cls, case, p, p_gamma):
    """The upper bound exp(-p gamma) stays above the value until both fall under
    the 1e-300 clamp at p gamma = 690.78; from 690 on it used to read 0."""
    model = class_model(cls, 4.0, case)
    theta = (p_gamma / (p * spatial_contention(model, Aloha(1.0), 1.0))) ** (4.0 / int(cls[-1]))
    assert p * spatial_contention(model, Aloha(p), theta) == pytest.approx(p_gamma, rel=1e-12)
    r = success_probability(model, Aloha(p), theta)
    assert 0.0 < r.value and r.lower_bound <= r.value <= r.upper_bound
    far = success_probability(model, Aloha(p), theta * 1.1)
    assert far.lower_bound == far.value == far.upper_bound == 0.0


def test_invalid_p():
    with pytest.raises(DomainError):
        ps("ppp2", "1/1", 1.5, alpha=4.0)
    with pytest.raises(DomainError):
        ps_line_alpha2_aloha(1.0, -0.1)
