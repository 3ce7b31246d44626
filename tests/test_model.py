import pytest

from sirnet.model import (
    Aloha,
    ConfigError,
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
    effective_distance,
    format_model,
    parse_model,
    unit_ball_volume,
)
from sirnet.specfun import DomainError


def test_rayleigh_is_nakagami_one():
    assert Fading.rayleigh() == Fading.nakagami(1.0)
    assert Fading.rayleigh().is_rayleigh
    assert not Fading.none().is_rayleigh
    assert Fading.none().is_static


def test_fading_labels():
    assert FadingCase(Fading.rayleigh(), Fading.none()).label == "1/0"
    assert FadingCase(Fading.nakagami(2.5), Fading.rayleigh()).label == "m2.5/1"


def test_validation_errors():
    with pytest.raises(DomainError):
        PowerLaw(-1.0)
    with pytest.raises(DomainError):
        SingleInterferer(0.0)
    with pytest.raises(DomainError):
        Aloha(1.5)
    with pytest.raises(DomainError):
        Tdma(0)
    with pytest.raises(DomainError):
        RegularLine("three")
    with pytest.raises(DomainError):
        Explicit((1.0, -2.0))


def test_effective_distance():
    assert effective_distance(2.0, 4.0, 2.0) == 8.0


def test_unit_ball_volume():
    import math

    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-12)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-12)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)


@pytest.mark.parametrize(
    "model,mac",
    [
        (NetworkModel(Ppp(2), PowerLaw(4.0),
                      FadingCase(Fading.rayleigh(), Fading.rayleigh())),
         Aloha(0.1)),
        (NetworkModel(RegularLine("two"), PowerLaw(2.0),
                      FadingCase(Fading.rayleigh(), Fading.none())),
         Tdma(4)),
        (NetworkModel(Explicit((1.0, 2.5, 3.75)), PowerLaw(3.0),
                      FadingCase(Fading.nakagami(2.5), Fading.rayleigh())),
         None),
        (NetworkModel(SingleInterferer(1.3), ExponentialLaw(0.7),
                      FadingCase(Fading.none(), Fading.none())),
         Aloha(0.123456789012345, "half")),
    ],
)
def test_config_round_trip(model, mac):
    text = format_model(model, mac)
    parsed_model, parsed_mac = parse_model(text)
    assert parsed_model == model
    assert parsed_mac == mac


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_model("geometry = hexagon\n")
    with pytest.raises(ConfigError):
        parse_model("geometry = ppp\nnot a key value line\n")
    with pytest.raises(ConfigError):
        parse_model("geometry = ppp\nfading.desired = nakagami\n")


def test_parse_comments_and_defaults():
    model, mac = parse_model("# comment\ngeometry = ppp\n")
    assert model.geometry == Ppp(2)
    assert model.path_loss == PowerLaw(4.0)
    assert model.fading.desired.is_rayleigh
    assert mac is None
