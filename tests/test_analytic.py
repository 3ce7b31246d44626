"""The analytic dispatcher: class coverage, gamma as the outage slope, and
the ALOHA sandwich bounds."""

import math

import pytest

from sirnet import analytic
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
)
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
        ("Explicit", "1/1"), ("Explicit", "1/0"),
        ("SingleInterferer", "1/1"), ("SingleInterferer", "1/0"),
        ("SingleInterferer", "0/1"), ("SingleInterferer", "0/0"),
        ("SingleInterferer", "1/m4"), ("SingleInterferer", "m4/1"),
        ("SingleInterferer", "1/m0.5"),
    }
    assert any(isinstance(m.path_loss, ExponentialLaw) for m, _ in ACCEPTED)
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
