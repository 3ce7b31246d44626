"""Special-function accuracy checks against independent identities."""

import inspect
import math

import numpy as np
import pytest

from sirnet.capacity import ergodic_capacity_cp, ergodic_capacity_cp_lower
from sirnet.model import unit_ball_volume
from sirnet.specfun import (
    DomainError,
    _gamma_cf,
    exp_integral_e1,
    exp_integral_e1_imag,
    exp_integral_e1_imag_scaled,
    gamma_fn,
    hurwitz_zeta,
    lambert_w0,
    li2,
    lower_incomplete_gamma,
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


def test_zeta_is_a_plain_function_with_hurwitz_zetas_bits():
    """zeta caches per float(s) behind a plain def, which a tracer that wraps
    functions can still time; its values are hurwitz_zeta's to the bit."""
    assert inspect.isfunction(zeta)
    for s in (2, 2.0, np.float64(3.0), 4.5, 1.5, 30.0, 2000.0):
        assert zeta(s) == zeta(s) == hurwitz_zeta(float(s), 1)
        assert type(zeta(s)) is float


def test_gamma_function():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    # reflection: Gamma(1-x)Gamma(x) = pi/sin(pi x)
    x = 0.3
    assert gamma_fn(x) * gamma_fn(1 - x) == pytest.approx(
        math.pi / math.sin(math.pi * x), rel=1e-12
    )
    # integers exactly, so the unit disc's area is pi; the 1-D ball is 1 ulp off
    assert [gamma_fn(n) for n in (1.0, 2.0, 3.0, 4.0)] == [1.0, 1.0, 2.0, 6.0]
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=2e-16, abs=0.0)


def test_lambert_w_defining_identity():
    for x in (-0.3, -0.1, 0.0, 0.5, 1.0, 10.0, 1e4):
        w = lambert_w0(x)
        assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-12)
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)


def test_li2_values():
    # Li2(-1) = -pi^2/12
    assert li2(-1.0) == pytest.approx(-math.pi ** 2 / 12, rel=1e-12)
    assert li2(0.0) == 0.0
    # inversion region
    assert li2(-10.0) == pytest.approx(-4.198277886858104, rel=1e-10)


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
    # both branches (series below y = 2, continued fraction above) against mpmath
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for y in (0.3, 1.9, 2.1, 15.0, 300.0):
            q, ref = exp_integral_e1_imag(y), mpmath.e1(1j * y)
            assert q.real == pytest.approx(float(ref.real), rel=1e-10, abs=1e-13)
            assert q.imag == pytest.approx(float(ref.imag), rel=1e-10)


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


def test_gamma_cf_matches_mpmath_on_its_callers_arguments():
    """The backward continued fraction e^z z^-a Gamma(a, z) on dense grids of what
    its callers pass: iy (boost-2 capacity), real x at a = 0 (E1) and real
    x >= a + 1 at a = 1 + alpha/d (lower_incomplete_gamma in the lower bound)."""
    mpmath = pytest.importorskip("mpmath")
    imag = [complex(0.0, y) for y in np.geomspace(2.0, 1e4, 400)]
    real = [float(x) for x in np.geomspace(1.0, 1e3, 200)]
    # a = 2 and 3 (alpha/d = 1, 2) end the fraction early: its numerator i (i - a) is 0 at i = a
    shifted = [(float(a), float(a + 1.0 + x)) for a in [*np.linspace(1.25, 51.0, 14), 2.0, 3.0]
               for x in np.geomspace(1e-3, 1e3, 12)]
    with mpmath.workdps(30):
        for z in imag:
            ref = complex(mpmath.exp(z) * mpmath.e1(z))
            assert abs(_gamma_cf(0.0, z) - ref) <= 1e-15 * abs(ref), z
        for x in real:
            ref = float(mpmath.exp(x) * mpmath.e1(x))
            assert abs(_gamma_cf(0.0, x) - ref) <= 1e-14 * ref, x
        for a, x in shifted:
            ref = float(mpmath.exp(x) * mpmath.mpf(x) ** -a * mpmath.gammainc(a, x))
            assert abs(_gamma_cf(a, x) - ref) <= 1e-14 * ref, (a, x)


def test_continued_fraction_paths_take_limits_at_inf_and_refuse_nan():
    inf, nan = math.inf, math.nan
    assert exp_integral_e1(inf) == 0.0
    assert exp_integral_e1_imag(inf) == 0j
    assert exp_integral_e1_imag_scaled(inf) == 0j
    assert lower_incomplete_gamma(2.5, inf) == gamma_fn(2.5)
    for boost in (1.5, 2.0, 3.0):
        assert ergodic_capacity_cp(boost, inf).value == 0.0
        assert ergodic_capacity_cp_lower(boost, inf).value == 0.0
    for f in (exp_integral_e1, exp_integral_e1_imag, exp_integral_e1_imag_scaled,
              lambda x: lower_incomplete_gamma(2.5, x)):
        with pytest.raises(DomainError):
            f(nan)


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
