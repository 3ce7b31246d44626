"""The analytic dispatcher: class coverage, gamma as the outage slope, and
the ALOHA sandwich bounds."""

import math

import pytest

from sirnet import analytic, contention
from sirnet.contention import UnsupportedClassError
from sirnet.model import (
    Aloha,
    Explicit,
    ExponentialLaw,
    Fading,
    FadingCase,
    NetworkModel,
    PowerLaw,
    Ppp,
    RegularLine,
    SingleInterferer,
    Tdma,
    CLASSES,
    class_model,
    effective_distance,
)
from sirnet.montecarlo import SimConfig, simulate_ps
from sirnet.outage import sandwich
from sirnet.specfun import DomainError

FADINGS = (Fading.none(), Fading.rayleigh(), Fading.nakagami(4.0), Fading.nakagami(0.5))
CASES = [FadingCase(d, i) for d in FADINGS for i in FADINGS]
GEOMETRIES = (Ppp(1), Ppp(2), RegularLine("one"), RegularLine("two"),
              SingleInterferer(1.2), Explicit((1.0, 2.0, 3.0)))
LAWS = (PowerLaw(2.0), PowerLaw(3.0), PowerLaw(4.0), ExponentialLaw(1.0))
THETAS = (0.3, 1.0)


def accepted_aloha_classes():
    """Every (model, theta) for which the dispatcher returns an ALOHA p_s."""
    accepted = []
    for g in GEOMETRIES:
        for law in LAWS:
            for case in CASES:
                model = NetworkModel(g, law, case)
                for theta in THETAS:
                    try:
                        analytic.success_probability(model, Aloha(0.1), theta)
                    except (UnsupportedClassError, DomainError):
                        continue
                    accepted.append((model, theta))
    return accepted


ACCEPTED = accepted_aloha_classes()


def class_id(model, theta):
    g, law = model.geometry, model.path_loss
    law = f"a{law.alpha:g}" if isinstance(law, PowerLaw) else f"exp{law.delta:g}"
    return f"{type(g).__name__}{getattr(g, 'd', getattr(g, 'sided', ''))}-{law}-" \
           f"{model.fading.label}-th{theta:g}"


def test_accepted_classes_cover_every_geometry_and_case():
    labels = {(type(m.geometry).__name__, m.fading.label) for m, _ in ACCEPTED}
    assert labels >= {
        ("Ppp", "1/1"), ("Ppp", "1/0"), ("Ppp", "0/0"), ("RegularLine", "1/1"),
        ("RegularLine", "1/0"), ("RegularLine", "1/m4"), ("RegularLine", "1/m0.5"),
        ("Explicit", "1/1"), ("Explicit", "1/0"), ("Explicit", "1/m4"),
        ("SingleInterferer", "1/1"), ("SingleInterferer", "1/0"),
        ("SingleInterferer", "0/1"), ("SingleInterferer", "0/0"),
        ("SingleInterferer", "1/m4"), ("SingleInterferer", "m4/1"),
        ("SingleInterferer", "1/m0.5"),
    }
    assert any(isinstance(m.path_loss, ExponentialLaw) for m, _ in ACCEPTED)
    lines_at_3 = {(m.geometry.sided, m.fading.label) for m, _ in ACCEPTED
                  if isinstance(m.geometry, RegularLine) and m.path_loss == PowerLaw(3.0)}
    assert lines_at_3 >= {(sided, case) for sided in ("one", "two")
                          for case in ("1/1", "1/0", "1/m4", "1/m0.5")}
    assert len(ACCEPTED) >= 40


@pytest.mark.parametrize("model,theta", ACCEPTED, ids=[class_id(*c) for c in ACCEPTED])
def test_gamma_is_slope_and_sandwich_holds(model, theta):
    gamma = analytic.spatial_contention(model, Aloha(1.0), theta)
    h = 1e-6
    slope = (1.0 - analytic.success_probability(model, Aloha(h), theta).value) / h
    assert slope == pytest.approx(gamma, rel=1e-4)
    for p in (0.05, 0.2, 0.5):
        sp = analytic.success_probability(model, Aloha(p), theta)
        assert 1.0 - p * gamma <= sp.value + 1e-12
        assert sp.value <= math.exp(-p * gamma) + 1e-12
        assert sp.lower_bound == pytest.approx(max(0.0, 1.0 - p * gamma), rel=1e-12)
        assert sp.upper_bound == pytest.approx(math.exp(-p * gamma), rel=1e-12)


def test_tdma_value_at_every_alpha():
    for alpha in (1.5, 2.0, 3.0, 4.0, 5.5):
        for sided in ("one", "two"):
            model = NetworkModel(RegularLine(sided), PowerLaw(alpha),
                                 FadingCase(Fading.rayleigh(), Fading.rayleigh()))
            sp = analytic.success_probability(model, Tdma(2), 1.0)
            assert sp.lower_bound <= sp.value <= sp.upper_bound
            assert sp.method == ("closed-form" if alpha in (2.0, 4.0) else "product")


def test_unsupported_class_names_the_class():
    model = NetworkModel(Ppp(2), PowerLaw(4.0), FadingCase(Fading.none(), Fading.rayleigh()))
    with pytest.raises(UnsupportedClassError, match=r"Ppp\(d=2\), PowerLaw\(alpha=4.0\), fading 0/1, Aloha"):
        analytic.success_probability(model, Aloha(0.1), 1.0)
    with pytest.raises(UnsupportedClassError, match="Tdma"):
        analytic.spatial_contention(model, Tdma(2), 1.0)
    with pytest.raises(UnsupportedClassError, match="capacity"):
        analytic.ergodic_capacity(model, Aloha(0.1))


def test_explicit_success_probability_takes_x_and_gamma_once(monkeypatch):
    """The dispatcher forms x = 1/xi once, for gamma and p_s both, and gives
    the per-interferer sums' value and bounds."""
    case = FadingCase(Fading.rayleigh(), Fading.nakagami(4.0))
    model = NetworkModel(Explicit((1.0, 2.0, 3.0)), PowerLaw(3.0), case)
    calls = []
    real = contention.interference_x
    monkeypatch.setattr(contention, "interference_x", lambda xis: calls.append(xis) or real(xis))
    got = analytic.success_probability(model, Aloha(0.3), 0.5)
    assert len(calls) == 1
    x = real([effective_distance(r, 3.0, 0.5) for r in (1.0, 2.0, 3.0)])
    h = case.interferer
    ref = sandwich(math.exp(-math.fsum(contention.interference_log_ps(x, 0.3, h).tolist())), 0.3,
                   math.fsum(contention.interference_gamma(x, h).tolist()))
    assert got == ref


def test_class_model_coverage_count():
    """Of the 90 class_model combinations (8 classes x 9 fading cases under
    ALOHA, and the 2 line classes x 9 under TDMA), 31 get a p_s: every
    class with a Rayleigh desired link except exponential path loss with
    non-Rayleigh interferers, plus single interferers' 0/0, 0/1 and m2/1.
    All are at alpha = 3 but ppp3, which needs alpha > 3, at alpha = 4."""
    cases = [f"{d}/{i}" for d in ("0", "1", "m2") for i in ("0", "1", "m2")]
    combos = [(cls, case, Aloha(0.1)) for cls in CLASSES for case in cases]
    combos += [(cls, case, Tdma(2)) for cls in ("line1", "line2") for case in cases]
    covered = []
    for cls, case, mac in combos:
        model = class_model(cls, 4.0 if cls == "ppp3" else 3.0, case, delta=1.0, r=1.2,
                            distances=(1.0, 2.0, 3.0))
        try:
            analytic.success_probability(model, mac, 1.0)
        except UnsupportedClassError:
            continue
        covered.append((cls, case, type(mac).__name__))
    print(f"{len(covered)} of {len(combos)} class_model combinations get a p_s")
    assert len(combos) == 90 and len(covered) == 31, covered
    assert all(case.startswith("1/") for cls, case, _ in covered if cls != "single")


# The classes that the one-exponent PPP form and the TDMA line product for
# any interferer fading cover, against the simulator at one fixed seed.
# They are not among the validation sweep's 52 cases.
NEW_CLASSES = [("ppp1", "1/0", Aloha(0.1)), ("ppp1", "1/m2", Aloha(0.1)),
               ("ppp2", "1/m2", Aloha(0.1)), ("line1", "1/0", Tdma(2)),
               ("line1", "1/m2", Tdma(2)), ("line2", "1/0", Tdma(2)), ("line2", "1/m2", Tdma(2))]


@pytest.mark.parametrize("cls,case,mac", NEW_CLASSES,
                         ids=[f"{c}-{k}-{type(m).__name__}" for c, k, m in NEW_CLASSES])
def test_newly_covered_class_matches_the_simulator(cls, case, mac):
    model = class_model(cls, 3.0, case)
    sp = analytic.success_probability(model, mac, 1.0)
    est = simulate_ps(model, mac, 1.0, SimConfig(trials=50_000, seed=101))
    assert abs(est.z_score(sp.value)) < 3, (est.mean, est.stderr, sp.value)


# The 3-D PPP at alpha 4, at a seed fixed before the first run; not among the
# validation sweep's 52 cases either.
@pytest.mark.parametrize("case", ["1/1", "1/0", "1/m2"])
def test_3d_ppp_matches_the_simulator(case):
    model = class_model("ppp3", 4.0, case)
    sp = analytic.success_probability(model, Aloha(0.1), 1.0)
    est = simulate_ps(model, Aloha(0.1), 1.0, SimConfig(trials=20_000, seed=23))
    assert abs(est.z_score(sp.value)) < 3, (est.mean, est.stderr, sp.value)


def test_tdma_gamma_is_the_slope_for_any_interferer_fading():
    """1 - p_s = gamma (1/m)^alpha + O(m^-2 alpha): sides zeta(alpha) theta
    for any unit-mean interferer fading."""
    for cls in ("line1", "line2"):
        for case in ("1/0", "1/1", "1/m2", "1/m0.5"):
            model = class_model(cls, 3.0, case)
            gamma = analytic.spatial_contention(model, Tdma(1000), 2.0)
            ps = analytic.success_probability(model, Tdma(1000), 2.0).value
            assert (1.0 - ps) * 1000.0 ** 3 == pytest.approx(gamma, rel=1e-6), (cls, case)


@pytest.mark.parametrize("label", ["1/0", "1/1", "1/m4", "1/m0.5", "0/1", "m4/1", "m0.5/1"])
def test_single_success_keeps_its_digits_near_p_one(label):
    """p_s = (1 - p) + p q, with q = P(success | the interferer transmits) taken
    straight from its Laplace transform, matches 40-digit mpmath to 1e-12 where
    1 - p gamma cancels (q from 1e-3 down to 1e-21), and keeps lower <= value <= upper."""
    mp = pytest.importorskip("mpmath")

    def log_laplace(x, m):  # log E exp(-x h), h of unit mean with Nakagami m (None: static)
        return -x if m is None else -m * mp.log1p(x / m)

    case = class_model("single", 4.0, label, r=1.2).fading
    with mp.workdps(40):
        checked = 0
        for theta in (3.0, 10.0, 30.0, 60.0, 100.0, 1e4, 1e6, 1e8):
            xi = mp.mpf(1.2) ** 4 / theta
            if case.desired.is_rayleigh:
                q = mp.exp(log_laplace(1 / xi, case.interferer.m))
            else:
                q = -mp.expm1(log_laplace(xi, case.desired.m))
            if q > 1e-3:
                continue
            for p in (1.0, 1.0 - 1e-9, 0.999):
                r = analytic.success_probability(class_model("single", 4.0, label, r=1.2), Aloha(p), theta)
                exact = (1 - mp.mpf(p)) + mp.mpf(p) * q
                assert r.value == pytest.approx(float(exact), rel=1e-12, abs=0.0), (theta, p)
                assert r.lower_bound <= r.value <= r.upper_bound, (theta, p)
            checked += 1
    assert checked
