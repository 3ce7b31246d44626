"""Special-function accuracy checks against independent identities."""

import math

import pytest

from sirnet.specfun import (
    DomainError,
    cos_integral,
    dilog,
    exp_integral_e1,
    exp_integral_e1_imag,
    exp_integral_e1_imag_scaled,
    gamma_fn,
    hurwitz_zeta,
    lambert_w0,
    lower_incomplete_gamma,
    sin_integral,
    zeta,
)


def test_zeta_known_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-13)
    assert zeta(6.0) == pytest.approx(math.pi ** 6 / 945, rel=1e-13)
    assert zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-13)
    # large argument: the sum is 1 + 2^-x + ...
    assert zeta(30.0) == pytest.approx(1.0 + 2.0 ** -30, rel=1e-12)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0)


def test_gamma_function():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    # reflection: Gamma(1-x)Gamma(x) = pi/sin(pi x)
    x = 0.3
    assert gamma_fn(x) * gamma_fn(1 - x) == pytest.approx(
        math.pi / math.sin(math.pi * x), rel=1e-12
    )


def test_lambert_w_defining_identity():
    for x in (-0.3, -0.1, 0.0, 0.5, 1.0, 10.0, 1e4):
        w = lambert_w0(x)
        assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-12)
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)


def test_dilog_values():
    # dilog(2) = -pi^2/12
    assert dilog(2.0) == pytest.approx(-math.pi ** 2 / 12, rel=1e-12)
    assert dilog(1.0) == 0.0
    # inversion region
    assert dilog(11.0) == pytest.approx(-4.198277886858104, rel=1e-10)


def test_e1_series_and_cf_branches():
    assert exp_integral_e1(0.5) == pytest.approx(0.5597735947761609, rel=1e-12)
    assert exp_integral_e1(5.0) == pytest.approx(1.148295591275326e-3, rel=1e-12)
    # recurrence-free check: d/dx E1 = -exp(-x)/x via finite difference
    h = 1e-6
    num = (exp_integral_e1(2.0 + h) - exp_integral_e1(2.0 - h)) / (2 * h)
    assert num == pytest.approx(-math.exp(-2.0) / 2.0, rel=1e-8)


def test_e1_imaginary_argument():
    q = exp_integral_e1_imag(1.0)
    assert q.real == pytest.approx(-0.3374039229009681, rel=1e-11)  # -Ci(1)
    # Im E1(jy) = Si(y) - pi/2, negative for small y
    assert q.imag == pytest.approx(0.9460830703671830 - math.pi / 2, rel=1e-11)
    # consistency with the cosine/sine integrals across both branches
    for y in (0.3, 1.9, 2.1, 15.0, 300.0):
        q = exp_integral_e1_imag(y)
        assert cos_integral(y) == pytest.approx(-q.real, rel=1e-10, abs=1e-13)
        assert sin_integral(y) == pytest.approx(math.pi / 2 + q.imag, rel=1e-10)


def test_e1_imaginary_scaled_keeps_its_real_part():
    """e^(iy) E1(iy): the real part, ~1/y^2 against a modulus ~1/y, stays
    accurate where multiplying E1(iy) by e^(iy) would cancel."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for y in (0.5, 1.9, 2.0, 3.0, 20.0, 100.0, 1e4):
            ref = mpmath.exp(1j * y) * mpmath.e1(1j * y)
            q = exp_integral_e1_imag_scaled(y)
            assert q.real == pytest.approx(float(ref.real), rel=1e-14)
            assert q.imag == pytest.approx(float(ref.imag), rel=1e-14)


def test_hurwitz_zeta_matches_direct_sums():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in (1.5, 2.0, 3.5, 10.0, 20.0, 40.0):
            for n in (1, 2, 24, 100, 3000):
                # mpmath's zeta(s, a) only for a remainder that is small or at small s
                stop = 4 * n + 1000
                ref = (mpmath.fsum(mpmath.mpf(k) ** -s for k in range(n, stop))
                       + mpmath.zeta(s, stop))
                assert hurwitz_zeta(s, n) == pytest.approx(float(ref), rel=1e-14), (s, n)
    assert hurwitz_zeta(2.0, 1) == zeta(2.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0)


def test_lower_incomplete_gamma():
    # gamma(1, x) = 1 - exp(-x)
    for x in (0.1, 1.0, 5.0):
        assert lower_incomplete_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-12)
    # gamma(a, inf) -> Gamma(a)
    assert lower_incomplete_gamma(3.0, 80.0) == pytest.approx(2.0, rel=1e-12)
    assert lower_incomplete_gamma(2.5, 1.3) == pytest.approx(0.3172267874759336, rel=1e-10)

