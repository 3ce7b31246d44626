import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirnet import validation
from sirnet.model import (
    CLASSES,
    RAYLEIGH,
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
    class_model,
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
    with pytest.raises(DomainError):
        Explicit(())
    with pytest.raises(DomainError):
        SingleInterferer(float("inf"))
    with pytest.raises(DomainError):
        Fading.nakagami(float("inf"))


def test_effective_distance():
    assert effective_distance(2.0, 4.0, 2.0) == 8.0


def test_unit_ball_volume():
    import math

    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
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
         Aloha(0.123456789012345)),
    ],
)
def test_config_round_trip(model, mac):
    text = format_model(model, mac)
    parsed_model, parsed_mac = parse_model(text)
    assert parsed_model == model
    assert parsed_mac == mac


# One model of every kind: each geometry and path loss, a static, Rayleigh and Nakagami
# desired link and interferer, ALOHA, TDMA and no MAC. samples hashes this text.
GOLDEN = [
    (NetworkModel(Ppp(3), PowerLaw(3.5), FadingCase(Fading.none(), Fading.rayleigh())), Aloha(0.25),
     "geometry = ppp\ngeometry.d = 3\npathloss = power\npathloss.alpha = 3.5\n"
     "fading.desired = none\nfading.interferer = rayleigh\nmac = aloha\nmac.p = 0.25\n"),
    (NetworkModel(RegularLine("two"), ExponentialLaw(0.7),
                  FadingCase(Fading.rayleigh(), Fading.nakagami(2.5))), Tdma(4),
     "geometry = line\ngeometry.sided = two\npathloss = exponential\npathloss.delta = 0.7\n"
     "fading.desired = rayleigh\nfading.interferer = nakagami\nfading.interferer.m = 2.5\n"
     "mac = tdma\nmac.m = 4\n"),
    (NetworkModel(Explicit((1.0, 2.5, 3.75)), PowerLaw(4.0),
                  FadingCase(Fading.nakagami(0.5), Fading.none())), None,
     "geometry = explicit\ngeometry.distances = 1.0,2.5,3.75\npathloss = power\npathloss.alpha = 4.0\n"
     "fading.desired = nakagami\nfading.desired.m = 0.5\nfading.interferer = none\n"),
    (NetworkModel(SingleInterferer(1.3), PowerLaw(2.0), RAYLEIGH), Aloha(0.1 + 0.2),
     "geometry = single\ngeometry.r = 1.3\npathloss = power\npathloss.alpha = 2.0\n"
     "fading.desired = rayleigh\nfading.interferer = rayleigh\nmac = aloha\nmac.p = 0.30000000000000004\n"),
]


@pytest.mark.parametrize("model,mac,text", GOLDEN, ids=["ppp", "line", "explicit", "single"])
def test_format_model_writes_the_pinned_text(model, mac, text):
    assert format_model(model, mac) == text
    assert parse_model(text) == (model, mac)


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
fading_values = st.one_of(st.just(Fading.none()), st.just(Fading.rayleigh()),
                    st.floats(min_value=0.5, max_value=1e300).map(Fading.nakagami))


@given(geometry=st.one_of(st.integers(1, 10 ** 6).map(Ppp), st.sampled_from(["one", "two"]).map(RegularLine),
                          st.lists(positive_floats, min_size=1, max_size=6).map(tuple).map(Explicit),
                          positive_floats.map(SingleInterferer)),
       path_loss=st.one_of(positive_floats.map(PowerLaw), positive_floats.map(ExponentialLaw)),
       desired=fading_values, interferer=fading_values,
       mac=st.one_of(st.none(), st.floats(0.0, 1.0).map(Aloha), st.integers(1, 10 ** 6).map(Tdma)))
@settings(max_examples=300, deadline=None)
def test_config_round_trips_every_kind(geometry, path_loss, desired, interferer, mac):
    model = NetworkModel(geometry, path_loss, FadingCase(desired, interferer))
    assert parse_model(format_model(model, mac)) == (model, mac)


def test_parse_errors():
    """Each ConfigError by its text: a missing or unknown kind, a key a kind requires, a line
    that is not key = value and a key outside the schema."""
    cases = [
        ("", "unknown or missing geometry None"),
        ("geometry = hexagon\n", "unknown or missing geometry 'hexagon'"),
        ("geometry = explicit\n", "geometry.distances required for an explicit geometry"),
        ("geometry = single\n", "geometry.r required for a single interferer"),
        ("geometry = ppp\npathloss = cubic\n", "unknown pathloss 'cubic'"),
        ("geometry = ppp\npathloss = exponential\n", "pathloss.delta required for exponential path loss"),
        ("geometry = ppp\nfading.desired = lognormal\n", "unknown fading kind 'lognormal' for fading.desired"),
        ("geometry = ppp\nfading.interferer = \n", "unknown fading kind '' for fading.interferer"),
        ("geometry = ppp\nfading.desired = nakagami\n", "fading.desired.m required for nakagami fading"),
        ("geometry = ppp\nfading.interferer = nakagami\n", "fading.interferer.m required for nakagami fading"),
        ("geometry = ppp\nmac = csma\n", "unknown mac 'csma'"),
        ("geometry = ppp\nmac = aloha\n", "mac.p required for ALOHA"),
        ("geometry = ppp\nmac = tdma\n", "mac.m required for TDMA"),
        ("geometry = ppp\nnot a key value line\n", "line 2: expected key = value, got 'not a key value line'"),
        ("geometry = ppp\nbogus = 1\n", "line 2: unknown key 'bogus'"),
        ("geometry = hexagon\npathloss = cubic\nmac = csma\n", "unknown or missing geometry 'hexagon'"),
    ]
    for text, message in cases:
        with pytest.raises(ConfigError) as error:
            parse_model(text)
        assert str(error.value) == message, text


# Every key parse_model reads, each with a value it accepts.
EVERY_KEY = """geometry = explicit
geometry.d = 1
geometry.sided = two
geometry.distances = 1,2
geometry.r = 2
pathloss = power
pathloss.alpha = 3
pathloss.delta = 0.5
fading.desired = nakagami
fading.desired.m = 2
fading.interferer = nakagami
fading.interferer.m = 4
mac = tdma
mac.p = 0.3
mac.m = 2
"""


def test_every_schema_key_is_accepted():
    model, mac = parse_model(EVERY_KEY)
    assert model == NetworkModel(Explicit((1.0, 2.0)), PowerLaw(3.0),
                                 FadingCase(Fading.nakagami(2.0), Fading.nakagami(4.0)))
    assert mac == Tdma(2)


@pytest.mark.parametrize("line", ["geometry.sidded = two", "fading.interferrer = none",
                                  "mac.duplex = half", "alpha = 4"])
def test_unknown_key_is_refused_with_its_line(line):
    with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{line.split()[0]}'$"):
        parse_model(f"geometry = line\n# a comment\n{line}\nbogus = 1\n")


def test_parse_comments_and_defaults():
    model, mac = parse_model("# comment\ngeometry = ppp\n")
    assert model.geometry == Ppp(2)
    assert model.path_loss == PowerLaw(4.0)
    assert model.fading.desired.is_rayleigh
    assert mac is None


FADINGS = (Fading.none(), Fading.rayleigh(), Fading.nakagami(4.0), Fading.nakagami(0.5))


@pytest.mark.parametrize("desired,interferer", itertools.product(FADINGS, FADINGS))
def test_fading_case_parse_inverts_label(desired, interferer):
    case = FadingCase(desired, interferer)
    assert FadingCase.parse(case.label) == case


@pytest.mark.parametrize("label", ["1", "", "x/1", "1/2", "m4", "1/0/0", "/1"])
def test_fading_case_parse_refuses_bad_labels(label):
    with pytest.raises(DomainError):
        FadingCase.parse(label)


def test_rayleigh_case():
    assert RAYLEIGH == FadingCase(Fading.rayleigh(), Fading.rayleigh())
    assert RAYLEIGH.label == "1/1"


@pytest.mark.parametrize("args,kwargs,model", [
    (("ppp1", 2.0), {}, NetworkModel(Ppp(1), PowerLaw(2.0), RAYLEIGH)),
    (("ppp2", 4.0, "1/0"), {},
     NetworkModel(Ppp(2), PowerLaw(4.0), FadingCase(Fading.rayleigh(), Fading.none()))),
    (("exp2", float("inf")), {"delta": 0.5}, NetworkModel(Ppp(2), ExponentialLaw(0.5), RAYLEIGH)),
    (("line1", 3.0), {}, NetworkModel(RegularLine("one"), PowerLaw(3.0), RAYLEIGH)),
    (("line2", 2.0), {}, NetworkModel(RegularLine("two"), PowerLaw(2.0), RAYLEIGH)),
    (("single", 4.0, "m4/1"), {"r": 1.2},
     NetworkModel(SingleInterferer(1.2), PowerLaw(4.0),
                  FadingCase(Fading.nakagami(4.0), Fading.rayleigh()))),
    (("explicit",), {"distances": ["1", "2.5"]},
     NetworkModel(Explicit((1.0, 2.5)), PowerLaw(4.0), RAYLEIGH)),
    (("ppp3", 4.0, "1/m2"), {},
     NetworkModel(Ppp(3), PowerLaw(4.0), FadingCase(Fading.rayleigh(), Fading.nakagami(2.0)))),
])
def test_class_model_builds_the_named_class(args, kwargs, model):
    assert class_model(*args, **kwargs) == model


def test_class_model_builds_every_listed_class():
    models = [class_model(cls, distances=[2.0]) for cls in CLASSES]
    assert len(set(models)) == len(CLASSES) == 8
    assert [m.geometry.d for m in models if isinstance(m.geometry, Ppp)] == [1, 2, 3, 2]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 10, 1000])
def test_ppp_takes_any_dimension(d):
    assert Ppp(d).d == d
    assert parse_model(format_model(NetworkModel(Ppp(d), PowerLaw(d + 1.0), RAYLEIGH)))[0].geometry == Ppp(d)


@pytest.mark.parametrize("d", [0, -1, 2.0, 2.5, None])
def test_ppp_refuses_a_dimension_below_one_or_not_an_integer(d):
    with pytest.raises(DomainError, match="Ppp dimension must be an integer >= 1"):
        Ppp(d)


@pytest.mark.parametrize("args,kwargs", [
    (("explicit",), {}),
    (("explicit",), {"distances": ()}),
    (("ppp4",), {}),
    (("ppp2", 4.0, "1/q"), {}),
    (("single", 4.0), {"r": 0.0}),
])
def test_class_model_refuses(args, kwargs):
    with pytest.raises(DomainError):
        class_model(*args, **kwargs)


def test_validation_case_names_match_the_benchmark_references():
    refs = pathlib.Path(__file__).resolve().parent.parent / "sirbench" / "references.json"
    names = [c.name for c in validation.validation_cases()]
    assert len(names) == 52
    assert set(names) == set(json.loads(refs.read_text())["mc"]["cases"])


def test_unit_ball_volume_past_the_gamma_overflow():
    """From d = 344 on math.gamma(d/2) overflows; the volume itself is representable
    to d = 452 and underflows to 0 after. Below 344 the closed form is unchanged."""
    import math

    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for d in (343, 344, 400, 1000):
            ref = float(mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1))
            assert unit_ball_volume(d) == pytest.approx(ref, rel=1e-12, abs=0.0), d
    assert unit_ball_volume(1000) == 0.0 < unit_ball_volume(452)
    for d in (1, 2, 3, 10, 100, 343):
        assert unit_ball_volume(d) == 2 * math.pi ** (d / 2) / math.gamma(d / 2) / d
