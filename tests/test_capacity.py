"""Ergodic capacity: closed form vs quadrature, bounds, moments, optima."""

import math

import numpy as np
import pytest

from sirnet import capacity
from sirnet.capacity import (
    ergodic_capacity_cp,
    ergodic_capacity_cp_lower,
    ergodic_capacity_ppp,
    ergodic_capacity_ppp_lower,
    ergodic_capacity_tdma,
    ergodic_capacity_tdma_bounds,
    spatial_capacity_opt,
    tdma_sir_moments,
    tdma_spatial_capacity,
    tdma_sqrt_sir_cdf,
)
from sirnet.contention import c_d_constant
from sirnet.quadrature import integrate_decaying
from sirnet.specfun import DomainError, zeta

import simpson


def quadrature_capacity(boost, cp):
    return simpson.integrate_decaying(
        lambda u: math.log1p((u / cp) ** boost) * math.exp(-u), cutoff=60.0, tol=1e-12
    )


def test_closed_form_matches_quadrature():
    for cp in (0.05, 0.2, 1.0, 5.0, 20.0):
        closed = ergodic_capacity_cp(2.0, cp)
        assert closed.method == "closed-form"
        assert closed.value == pytest.approx(quadrature_capacity(2.0, cp), rel=1e-9)


def test_abs_err_bounds_the_boost2_quadrature_error():
    """The boost = 2 integrand on the panels ergodic_capacity_cp uses for
    other boosts, against the E1(j c_p) closed form (criterion 08's grid)."""
    for cp in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        closed = ergodic_capacity_cp(2.0, cp)
        assert closed.abs_err == 0.0
        value, err = integrate_decaying(
            lambda u: np.log1p((u / cp) ** 2) * np.exp(-u),
            cutoff=60.0, pieces=capacity._CP_PANELS,
        )
        assert abs(value - closed.value) <= err + 1e-14 * abs(closed.value), cp


def test_abs_err_bounds_the_tdma_alpha2_paths():
    """The alpha = 2 kernel against the general p_s-product path at alpha = 2."""
    for m in range(1, 9):
        kernel = ergodic_capacity_tdma(2.0, m)
        product = capacity._tdma_capacity_ccdf(2.0, m)
        assert kernel.method == "closed-kernel" and product.method == "quadrature"
        assert abs(kernel.value - product.value) <= (
            kernel.abs_err + product.abs_err + 1e-14 * abs(product.value)), m


def test_quadrature_branch():
    r = ergodic_capacity_ppp(3.0, 2, 0.1)
    assert r.method == "quadrature"
    assert r.value == pytest.approx(quadrature_capacity(1.5, r.c_p), rel=1e-9)


def test_lower_bound_below_capacity():
    for alpha in (2.5, 3.0, 4.0, 5.0):
        for p in (0.02, 0.1, 0.5, 1.0):
            c = ergodic_capacity_ppp(alpha, 2, p).value
            low = ergodic_capacity_ppp_lower(alpha, 2, p).value
            assert low < c
            assert low > 0.0


def test_one_dimensional_equivalence():
    """A 1-D network matches the 2-D network with doubled path loss exponent."""
    r1 = ergodic_capacity_ppp(2.0, 1, 0.3)
    p2 = r1.c_p / c_d_constant(2, 4.0)
    r2 = ergodic_capacity_ppp(4.0, 2, p2)
    assert r1.value == pytest.approx(r2.value, rel=1e-12)


def test_capacity_decreasing_in_p():
    vals = [ergodic_capacity_ppp(4.0, 2, p).value for p in (0.05, 0.1, 0.2, 0.5, 1.0)]
    assert vals == sorted(vals, reverse=True)


def test_tdma_capacity_alpha2():
    # C grows roughly like 2 log m for large m
    values = [ergodic_capacity_tdma(2.0, m).value for m in (1, 2, 4, 8, 16)]
    assert values == sorted(values)
    assert values[4] - values[3] == pytest.approx(2 * math.log(2), rel=0.05)


def test_tdma_capacity_bounds():
    for alpha in (2.0, 3.0, 4.0):
        for m in (1, 2, 4, 8):
            c = ergodic_capacity_tdma(alpha, m).value
            lo, up = ergodic_capacity_tdma_bounds(alpha, m)
            assert lo < c
            if up is not None:
                assert c < up


def test_tdma_capacity_lower_bound_matches_mpmath_past_the_exp_range():
    """exp(z) E1(z), z = zeta(alpha)/m^alpha, against mpmath, also where e^z
    overflows (z = 10,000 at alpha 1.0001, m 1), and below the capacity."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for alpha in (1.0001, 1.001, 1.01, 1.1, 1.5, 2.5, 3.0, 4.0, 6.0):
            for m in range(1, 11):
                z = zeta(alpha) / m ** alpha
                lo, up = ergodic_capacity_tdma_bounds(alpha, m)
                ref = mpmath.exp(z) * mpmath.e1(z)
                assert lo == pytest.approx(float(ref), rel=1e-14), (alpha, m)
                assert up is None
                assert lo <= ergodic_capacity_tdma(alpha, m).value, (alpha, m)


def test_tdma_capacity_general_alpha_consistency():
    """The quadrature path at alpha=4 agrees with the ccdf integral."""
    from sirnet.outage import ps_tdma_line

    for m in (1, 3):
        c = ergodic_capacity_tdma(4.0, m).value
        # coarse Riemann cross-check on the ccdf form
        total, theta, step = 0.0, 0.0, 0.01
        while theta < 4000.0 * m ** 4:
            mid = theta + step / 2
            total += ps_tdma_line(4.0, mid, m).value / (1 + mid) * step
            theta += step
            step *= 1.01
        assert c == pytest.approx(total, rel=1e-3)


def test_tdma_sir_moments():
    es, e2 = tdma_sir_moments(3)
    assert es == pytest.approx(3 * math.pi / 4, rel=1e-12)
    assert e2 == pytest.approx(7 * zeta(3.0) * 9 / math.pi ** 2, rel=1e-12)


def test_tdma_sqrt_sir_cdf():
    assert tdma_sqrt_sir_cdf(0.0) == 0.0
    e = math.e
    assert tdma_sqrt_sir_cdf(1.0) == pytest.approx((e * e - 2 * e - 1) / (e * e - 1), rel=1e-12)
    assert tdma_sqrt_sir_cdf(50.0) == pytest.approx(1.0, abs=1e-12)
    # valid cdf: nondecreasing on a grid
    grid = [tdma_sqrt_sir_cdf(0.1 * i) for i in range(200)]
    assert grid == sorted(grid)


def test_spatial_capacity_argmax():
    m2, _, table2 = tdma_spatial_capacity(2.0)
    assert m2 == 2
    m4, _, _ = tdma_spatial_capacity(4.0)
    assert m4 == 3
    assert table2[2] > table2[1] and table2[2] > table2[3]


def test_spatial_capacity_opt_half():
    p, value = spatial_capacity_opt(4.0, 2, "half")
    assert 0.09 < p < 0.13
    assert value > 0.0


def test_lower_bound_cp_methods():
    # high-SIR branch takes over for small c_p
    small = ergodic_capacity_cp_lower(2.0, 0.01)
    assert small.method in ("lower-bound", "lower-bound-high-sir")
    with pytest.raises(DomainError):
        ergodic_capacity_cp(1.0, 1.0)
    with pytest.raises(DomainError):
        ergodic_capacity_tdma(2.0, 0)
