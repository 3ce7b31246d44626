import math

import numpy as np
import pytest

from sirnet.contention import (
    c_d_constant,
    interference_gamma,
    interference_log_ps,
    line_sums,
    power_series,
)
from sirnet.model import Fading
from sirnet.specfun import DomainError
from sirnet.throughput import (
    aloha_p_opt,
    aloha_p_opt_half,
    optimize_rate,
    tdma_m_opt,
    tdma_ps_one_sided,
    theta_opt_fullduplex,
)


def test_full_duplex_p_opt():
    r = aloha_p_opt(2.0, "full")
    assert r.p_opt == 0.5
    assert r.value == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
    # gamma < 1 saturates at p = 1
    r = aloha_p_opt(0.5, "full")
    assert r.p_opt == 1.0
    assert r.value == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_half_duplex_p_opt_is_stationary():
    for gamma in (0.01, 0.5, 2.0, 50.0):
        p = aloha_p_opt_half(gamma)
        assert 0.0 < p < 0.5 or gamma < 2.0

        def f(q):
            return q * (1 - q) * math.exp(-q * gamma)

        h = 1e-7
        deriv = (f(p + h) - f(p - h)) / (2 * h)
        assert abs(deriv) < 1e-6
    assert aloha_p_opt_half(1e-9) == pytest.approx(0.5, abs=1e-6)
    assert aloha_p_opt_half(1e6) == pytest.approx(1e-6, rel=1e-3)


def test_half_duplex_bound_close():
    for gamma in (0.001, 0.1, 1.0, 10.0, 1000.0):
        r = aloha_p_opt(gamma, "half")
        assert r.lower_bound <= r.value + 1e-15
        assert r.lower_bound >= 0.986 * r.value


def test_tdma_ps_product_matches_closed_forms():
    """At alpha 2 and 4 the capacity path and the outage path take the same
    closed form, bit for bit."""
    from sirnet.outage import ps_tdma_line

    for alpha in (2.0, 4.0):
        for theta in (1e-8, 1e-3, 0.5, 2.0, 10.0, 1e3, 1e6, 1e9):
            for m in (1, 3, 8):
                exact = ps_tdma_line(alpha, theta, m).value
                assert tdma_ps_one_sided(alpha, theta, m) == exact, (alpha, theta, m)


def test_no_tdma_or_rayleigh_aloha_line_takes_the_line_sums(monkeypatch):
    """Every TDMA line, for any interferer fading, and every ALOHA line with Rayleigh
    interferers (p_s and gamma) take the closed forms or line_exponent, in a capacity
    integral and a reuse scan too; static and Nakagami interferers under ALOHA still take
    the line sums."""
    from sirnet import analytic, capacity, contention, outage
    from sirnet.model import Aloha, class_model

    calls = []

    def counted(*args):
        calls.append(args[0])
        return line_sums(*args)

    monkeypatch.setattr(outage, "line_sums", counted)
    monkeypatch.setattr(contention, "line_sums", counted)
    for alpha in (1.5, 2.0, 2.5, 3.0, 4.0):
        for fading in (Fading.none(), Fading.rayleigh(), Fading.nakagami(0.5), Fading.nakagami(2.0)):
            tdma_ps_one_sided(alpha, np.array(TDMA_THETAS), 2, fading)
        tdma_m_opt(alpha, 10.0)
        model = class_model("line1", alpha, "1/1")
        for theta in (1e-3, 0.005, 1.0, 1e6):
            analytic.success_probability(model, Aloha(0.3), theta)
            analytic.spatial_contention(model, Aloha(0.3), theta)
    capacity.ergodic_capacity_tdma(2.5, 2)
    capacity.ergodic_capacity_tdma(3.0, 2)
    assert calls == []
    for case in ("1/0", "1/m2"):
        analytic.success_probability(class_model("line1", 2.5, case), Aloha(0.3), 1.0)
    assert calls == [2.5] * 4  # gamma, then p_s


def test_tdma_ps_is_one_where_m_alpha_overflows():
    """theta' = theta/m^alpha is 0 once m^alpha passes the float range, and
    the closed forms give its limit 1 as the line product does."""
    for alpha in (2.0, 3.0, 4.0):
        assert tdma_ps_one_sided(alpha, 1.0, 1e200) == 1.0
        assert tdma_ps_one_sided(alpha, np.array([1.0, 1e-300]), 1e200).tolist() == [1.0, 1.0]


@pytest.mark.filterwarnings("error")
def test_tdma_closed_forms_in_numpy_keep_their_edges():
    """The alpha 2 and 4 forms over arrays raise no warning at theta' = 0 (m^alpha
    overflows), at tiny theta', past their y cuts (690 and 345) or at theta = inf
    (the capacity probe's e^v - 1 past v = 709.78), and a float in gives a float."""
    from sirnet.outage import _ps_line_tdma_alpha2, _ps_line_tdma_alpha4

    for alpha, form, cut in ((2.0, _ps_line_tdma_alpha2, (690.0 / math.pi) ** 2),
                             (4.0, _ps_line_tdma_alpha4, 4.0 * (345.0 / math.pi) ** 4)):
        assert tdma_ps_one_sided(alpha, np.array([1.0, 1e300]), 1e200).tolist() == [1.0, 1.0]
        tiny = np.array([5e-324, 1e-300, 1e-200, 1e-30])
        assert tdma_ps_one_sided(alpha, tiny, 1).tolist() == [1.0] * 4
        assert form(np.array([0.0, 5e-324])).tolist() == [1.0, 1.0]
        ps = tdma_ps_one_sided(alpha, np.array([0.999 * cut, 1.001 * cut, 1e300, math.inf]), 1)
        assert 0.0 < ps[0] < 1e-290 and ps[1:].tolist() == [0.0] * 3
        assert tdma_ps_one_sided(alpha, math.inf, 3) == 0.0
        for theta_p in (0.0, 1e-300, 0.5, 1.001 * cut, math.inf):
            assert type(form(theta_p)) is float, (alpha, theta_p)
        assert type(tdma_ps_one_sided(alpha, 2.0, 3)) is float
        assert form(0.5) == form(np.array([0.5]))[0]


def math_closed_form(alpha, theta_p):
    """The alpha 2 and 4 closed forms one theta' at a time in `math`, whose libm
    sinh and pow numpy's SIMD loops may round apart from."""
    y = math.pi * (math.sqrt(theta_p) if alpha == 2.0 else (theta_p / 4.0) ** 0.25)
    if y == 0.0:
        return 1.0
    if alpha == 2.0:
        return y / math.sinh(y) if y <= 690 else 0.0
    return 2.0 * y * y / (math.sinh(y) ** 2 + math.sin(y) ** 2) if y <= 345 else 0.0


def test_tdma_closed_forms_match_the_math_loop():
    """Within 1e-12 relative on theta' in [1e-9, 1e10], and equal at 0 and past the cuts."""
    from sirnet.outage import _ps_line_tdma_alpha2, _ps_line_tdma_alpha4

    thetas = np.concatenate([[0.0, 5e-324], np.logspace(-9, 10, 3000), [1e300, math.inf]])
    for alpha, form in ((2.0, _ps_line_tdma_alpha2), (4.0, _ps_line_tdma_alpha4)):
        got = form(thetas).tolist()
        want = [math_closed_form(alpha, t) for t in thetas.tolist()]
        assert got[:2] == want[:2] == [1.0, 1.0] and got[-2:] == want[-2:] == [0.0, 0.0]
        assert max(abs(g - w) / w for g, w in zip(got, want) if w) <= 1e-12, alpha


def test_tdma_closed_forms_match_mpmath_down_to_1e_200():
    """y / sinh y and 2 y^2 / (sinh^2 y + sin^2 y) within 1e-13 of 40-digit
    mpmath wherever p_s > 1e-200 (y up to 466 and 237). p_s carries y's
    rounding times y (alpha 2) or 2y (alpha 4), so the grid is dense where y
    is large. Rounded as written there, y = pi theta'^(1/4)/sqrt(2) misses
    1e-13 on this grid."""
    mpmath = pytest.importorskip("mpmath")
    thetas = np.concatenate([np.logspace(-8, 3, 300), np.logspace(3, 10, 1500)])
    with mpmath.workdps(40):
        for alpha in (2.0, 4.0):
            values = tdma_ps_one_sided(alpha, thetas, 1).tolist()
            for theta, value in zip(thetas.tolist(), values):
                t = mpmath.mpf(theta)
                if alpha == 2.0:
                    y = mpmath.pi * mpmath.sqrt(t)
                    ref = y / mpmath.sinh(y)
                else:
                    y = mpmath.pi * mpmath.root(t / 4, 4)
                    ref = 2 * y * y / (mpmath.sinh(y) ** 2 + mpmath.sin(y) ** 2)
                if ref > mpmath.mpf("1e-200"):
                    assert abs(value - ref) <= 1e-13 * ref, (alpha, theta, value)


def test_tdma_alpha3_matches_the_gamma_product_down_to_1e_200():
    """At alpha 3, p_s = Gamma(1+y) |Gamma(1 - y e^(i pi/3))|^2 with y = theta'^(1/3),
    within 1e-13 of 40-digit mpmath wherever p_s > 1e-200 (theta' up to 2e6, y 127),
    through line_exponent's head below z_c and its Mellin expansion above."""
    mpmath = pytest.importorskip("mpmath")
    thetas = np.logspace(-12, 9, 200)
    values = tdma_ps_one_sided(3.0, thetas, 1).tolist()
    checked = 0
    with mpmath.workdps(40):
        w = mpmath.exp(1j * mpmath.pi / 3)
        for theta, value in zip(thetas.tolist(), values):
            y = mpmath.cbrt(mpmath.mpf(theta))
            ref = mpmath.gamma(1 + y) * abs(mpmath.gamma(1 - y * w)) ** 2
            if ref > mpmath.mpf("1e-200"):
                assert abs(value - ref) <= 1e-13 * ref, (theta, value)
                checked += 1
            else:
                assert value < 1e-199
    assert checked > 170


def test_line_exponent_branches_agree_at_the_switch(monkeypatch):
    """On both sides of z_c the head with its zeta tail and the Mellin expansion give S
    within 4 ulps, so p_s within 1e-15, for alpha from 1.5 to 8; a call takes the head
    below z_c and the expansion from z_c on."""
    from sirnet import contention

    constants = contention._exponent_constants
    for alpha in (1.5, 2.5, 3.0, 3.5, 5.0, 8.0):
        zc = constants(alpha)[0]
        zs = np.array([0.8 * zc, 0.9 * zc, 0.99 * zc, np.nextafter(zc, 0.0), zc, 1.01 * zc,
                       1.1 * zc, 1.25 * zc])
        branches = []
        for cut in (math.inf, 0.0):  # every z in the head, then every z in the expansion
            monkeypatch.setattr(contention, "_exponent_constants",
                                lambda a, cut=cut: (cut, *constants(a)[1:]))
            branches.append(contention.line_exponent(alpha, zs)[0])
        monkeypatch.undo()
        head, mellin = branches
        assert (np.abs(head - mellin) <= 4 * np.spacing(mellin)).all(), (alpha, head - mellin)
        assert (np.abs(np.exp(-head) - np.exp(-mellin)) <= 1e-15).all(), alpha
        assert (contention.line_exponent(alpha, zs)[0] == np.where(zs < zc, head, mellin)).all()


TDMA_ALPHAS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0)
TDMA_THETAS = (1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e4)


def tdma_ps_reference(mp, alpha, theta):
    """1/prod_i (1 + theta/i^alpha) in mpmath: a head sum of log1p to N - 1
    plus sum_k (-1)^(k+1) theta^k/k zeta(k alpha, N), with N chosen so that
    theta/N^alpha <= 0.01 (a different N from the one under test)."""
    a, t = mp.mpf(alpha), mp.mpf(theta)
    n = max(24, math.ceil((theta / 0.01) ** (1.0 / alpha)))
    log_inv = mp.fsum(mp.log1p(t / mp.mpf(i) ** a) for i in range(1, n))
    k = 1
    while True:
        term = (-1) ** (k + 1) * t ** k / k * mp.zeta(k * a, n)
        log_inv += term
        if abs(term) < mp.mpf(10) ** -30 * log_inv:
            return mp.exp(-log_inv)
        k += 1


def test_tdma_ps_matches_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    # 40 digits: at 30, mpmath's zeta(s, a) is off by 1.6e-9 at (s, a) = (20, 100).
    with mpmath.workdps(40):
        for alpha in TDMA_ALPHAS:
            for theta in TDMA_THETAS:
                ref = float(tdma_ps_reference(mpmath, alpha, theta))
                value = tdma_ps_one_sided(alpha, theta, 1)
                if ref == 0.0:  # below the double range: alpha 1.5, theta 1e4
                    assert value == 0.0
                else:
                    assert abs(value - ref) <= 1e-13 * ref, (alpha, theta, value, ref)


def test_tdma_ps_where_a_tail_power_overflows():
    """At alpha 20, theta' 5.9e28 the head is N = 32 and theta'^k passes the
    float range from k = 11 on, while p_s = 9.04e-218 does not."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(tdma_ps_reference(mpmath, 20.0, 5.9e28))
    assert ref == pytest.approx(9.04e-218, rel=1e-3)
    assert tdma_ps_one_sided(20.0, 5.9e28, 1) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_tdma_ps_array_calls_match_scalar_calls():
    ms = np.arange(1, 9)
    for alpha in TDMA_ALPHAS:
        by_theta = tdma_ps_one_sided(alpha, np.array(TDMA_THETAS), 1)
        by_m = tdma_ps_one_sided(alpha, 10.0, ms)
        assert isinstance(tdma_ps_one_sided(alpha, 10.0, 2), float)
        for theta, v in zip(TDMA_THETAS, by_theta):
            assert v == pytest.approx(tdma_ps_one_sided(alpha, theta, 1), rel=1e-14, abs=0.0)
        for m, v in zip(ms, by_m):
            assert v == pytest.approx(tdma_ps_one_sided(alpha, 10.0, int(m)), rel=1e-14, abs=0.0)


def test_tdma_ps_array_call_equals_scalar_calls_bit_for_bit():
    """A theta column broadcast against an m row, over several head lengths
    N and into the underflow branch, equals the scalar calls exactly."""
    thetas = np.logspace(-6, 13, 77)[:, None]
    ms = np.array([1.0, 2.0, 3.5, 8.0])
    for alpha in (1.5, 2.0, 3.0, 4.0):
        tp = (thetas / ms ** alpha).ravel()
        underflow = tp ** (1.0 / alpha) >= 1100.0
        heads = {max(5, math.frexp((t / 0.05) ** (1.0 / alpha))[1])
                 for t in tp[~underflow].tolist()}  # log2 N
        assert underflow.any() and len(heads) >= 4, (alpha, heads)
        grid = tdma_ps_one_sided(alpha, thetas, ms)
        assert grid.shape == (77, 4)
        scalar = [[tdma_ps_one_sided(alpha, t, m) for m in ms.tolist()]
                  for t in thetas.ravel().tolist()]
        assert grid.tolist() == scalar, alpha
        # The same sums at p < 1 with static and Nakagami interferers, over
        # the same head lengths: one call over the grid and the vectorised
        # terms give exactly what calls on one theta or one x give.
        ts = tp[~underflow].tolist()
        for fading in (Fading.none(), Fading.nakagami(0.5), Fading.nakagami(4.0)):
            for p in (0.3, 1.0):
                def term(x):
                    return interference_log_ps(x, p, fading)

                series = power_series(fading, p)
                shared = line_sums(alpha, ts, term, series)
                assert shared == [line_sums(alpha, [t], term, series)[0] for t in ts], fading
                xs = np.array(ts)
                assert term(xs).tolist() == [float(term(x)) for x in ts]
                assert (interference_gamma(xs, fading).tolist()
                        == [float(interference_gamma(x, fading)) for x in ts])


def test_tdma_m_opt():
    res = tdma_m_opt(2.0, 10.0)
    assert res.m_bounds[0] < res.m_hat <= math.ceil(res.m_bounds[1])
    assert res.m_opt == 8
    # exact scan beats any neighbor
    def p_t(m):
        return tdma_ps_one_sided(2.0, 10.0, m) ** 2 / m

    assert res.value >= p_t(res.m_opt - 1)
    assert res.value >= p_t(res.m_opt + 1)


def test_tdma_m_opt_small_theta():
    assert tdma_m_opt(4.0, 0.01).m_opt == 1


def test_theta_opt_closed_form():
    # the optimum is the positive root of (1+t)log(1+t) = (alpha/d) t
    for alpha, d in ((4.0, 2), (3.0, 2), (3.0, 1)):
        t = theta_opt_fullduplex(alpha, d)
        k = alpha / d
        assert (1 + t) * math.log1p(t) == pytest.approx(k * t, rel=1e-9)


def test_optimize_rate_full():
    opt = optimize_rate(4.0, 2, "full")
    assert opt.theta_opt == pytest.approx(3.9215536, rel=1e-6)
    assert opt.p_opt == pytest.approx(1.0 / (c_d_constant(2, 4.0) * opt.theta_opt ** 0.5), rel=1e-9)
    # t_max is a true maximum over a (theta, p) grid
    best = 0.0
    for i in range(200):
        theta = 10 ** (-2 + 4 * i / 199)
        gamma = c_d_constant(2, 4.0) * theta ** 0.5
        p = min(1.0, 1.0 / gamma)
        best = max(best, p * math.exp(-p * gamma) * math.log1p(theta))
    assert opt.t_max >= best - 1e-9


def test_optimize_rate_half_beaten_by_full():
    full = optimize_rate(4.0, 2, "full")
    half = optimize_rate(4.0, 2, "half")
    assert full.t_max > half.t_max
    assert 0.0 < half.p_opt < 0.5


def test_domain_errors():
    with pytest.raises(DomainError):
        aloha_p_opt(0.0)
    with pytest.raises(DomainError):
        aloha_p_opt(1.0, "simplex")
    with pytest.raises(DomainError):
        tdma_m_opt(1.0, 1.0)
    with pytest.raises(DomainError):
        theta_opt_fullduplex(2.0, 2)
    with pytest.raises(DomainError):
        optimize_rate(3.0, 3)
    with pytest.raises(DomainError):
        optimize_rate(4.0, 0)
