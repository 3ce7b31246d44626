"""The 21 value types behave as frozen value objects: equal by class and
fields, hashable (all but SirSamples, whose values are an array), printed as
Name(field=value, ...), immutable, validated on construction, and copied and
pickled whole. A fresh `import sirnet, sirnet.cli` loads neither dataclasses
nor numpy.random."""

import copy
import inspect
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import sirnet
from sirnet.capacity import CapacityResult
from sirnet.model import (RAYLEIGH, Aloha, Explicit, ExponentialLaw, Fading, FadingCase,
                          NetworkModel, PowerLaw, Ppp, RegularLine, SingleInterferer, Tdma,
                          class_model)
from sirnet.montecarlo import Estimate, SimConfig, SirSamples, _Window
from sirnet.outage import SuccessProbability
from sirnet.specfun import DomainError
from sirnet.throughput import RateOptimum, ThroughputResult
from sirnet.validation import ValidationRow, _Case

MODEL = NetworkModel(Ppp(2), PowerLaw(4.0), RAYLEIGH)

# Each type with the fields of one instance, in order.
VALUES = [
    (PowerLaw, (4.0,)),
    (ExponentialLaw, (1.5,)),
    (Fading, (2.0,)),
    (FadingCase, (Fading(1.0), Fading(None))),
    (Ppp, (2,)),
    (RegularLine, ("two",)),
    (Explicit, ((1.0, 2.5),)),
    (SingleInterferer, (1.2,)),
    (Aloha, (0.3,)),
    (Tdma, (4,)),
    (NetworkModel, (Ppp(3), ExponentialLaw(2.0), FadingCase(Fading(None), Fading(4.0)))),
    (SimConfig, (1000, 7)),
    (Estimate, (0.5, 0.01, 100)),
    (SirSamples, ((2.0, 3.5), 1)),
    (_Window, (3.0, None, 0.25)),
    (ThroughputResult, (0.2, 0.1, None, 0.19, None, (1.0, 2.0))),
    (RateOptimum, (1.5, 0.1, 0.05)),
    (ValidationRow, ("ppp2-a4", "ps", 0.5, 0.49, 0.01, -1.0, True)),
    (_Case, ("ppp2-a4", MODEL, Aloha(0.1), 1.0, "capacity")),
    (SuccessProbability, (0.5, 0.4, 0.6, "product")),
    (CapacityResult, (1.2, "quadrature", 0.3, 1e-12)),
]
IDS = [cls.__name__ for cls, _ in VALUES]
UNHASHABLE = (SirSamples,)


def names(cls):
    return list(inspect.signature(cls).parameters)


def test_every_value_type_is_listed():
    assert len(VALUES) == len({cls for cls, _ in VALUES}) == 21


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields):
    a, b = cls(*fields), cls(*fields)
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_only_the_same_class_compares_equal(cls, fields):
    a = cls(*fields)
    assert a != fields and a != tuple(fields) and a != object()
    assert a.__eq__(fields) is NotImplemented
    assert a.__eq__(None) is NotImplemented


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_repr_names_the_class_and_every_field(cls, fields):
    pairs = ", ".join(f"{n}={v!r}" for n, v in zip(names(cls), fields))
    assert repr(cls(*fields)) == f"{cls.__qualname__}({pairs})"


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields):
    a = cls(*fields)
    for name, value in zip(names(cls), fields):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*fields)


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    keywords = dict(zip(names(cls), fields))
    assert cls(*fields) == cls(**keywords)
    assert tuple(getattr(cls(**keywords), n) for n in names(cls)) == fields
    with pytest.raises(TypeError):
        cls(*fields, None)


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_deepcopy_and_pickle_round_trips_compare_equal(cls, fields):
    a = cls(*fields)
    for b in (copy.deepcopy(a), copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a
        assert cls in UNHASHABLE or hash(b) == hash(a)


def test_defaults_fill_the_trailing_fields():
    assert RegularLine() == RegularLine("one")
    assert SimConfig() == SimConfig(100_000, 0)
    assert _Window() == _Window(None, None, 0.0)
    assert ThroughputResult(0.2) == ThroughputResult(0.2, None, None, None, None, None)
    assert SuccessProbability(0.5, 0.4, 0.6).method == "closed-form"
    assert CapacityResult(1.0, "closed-form") == CapacityResult(1.0, "closed-form", None, 0.0)
    assert _Case("a", MODEL, Aloha(0.1), 1.0, quantity="ps") == _Case("a", MODEL, Aloha(0.1), 1.0)
    with pytest.raises(TypeError):
        Aloha()


def test_equality_is_by_class_then_fields():
    assert Aloha(1) == Aloha(1.0) and hash(Aloha(1)) == hash(Aloha(1.0))
    assert Aloha(0.5) != Aloha(0.25)
    assert len({Ppp(2), Tdma(2), SingleInterferer(2.0)}) == 3
    assert Ppp(2) != Tdma(2) and Tdma(2) != SingleInterferer(2.0)
    assert SingleInterferer(2.0) != Ppp(2)
    assert Fading.rayleigh() == Fading(1) and Fading.none() != Fading.rayleigh()


def test_samples_compare_their_arrays_and_refuse_a_hash():
    a = SirSamples(np.array([1.0, 2.0]), 0)
    assert (a == SirSamples(np.array([1.0, 2.0]), 0)) is True
    assert (a != SirSamples(np.array([1.0, 2.0]), 0)) is False
    for other in (SirSamples(np.array([1.0, 2.5]), 0), SirSamples(np.array([1.0, 2.0]), 1),
                  SirSamples(np.array([1.0, 2.0, 2.0]), 0), SirSamples(np.array([]), 0)):
        assert (a == other) is False and (a != other) is True
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_repr_of_a_nested_model():
    assert repr(class_model("explicit", 4.0, "1/m2", distances=(1.0, 2.0))) == (
        "NetworkModel(geometry=Explicit(distances=(1.0, 2.0)), path_loss=PowerLaw(alpha=4.0), "
        "fading=FadingCase(desired=Fading(m=1.0), interferer=Fading(m=2.0)))")


@pytest.mark.parametrize("make", [
    lambda: PowerLaw(0.0), lambda: PowerLaw(float("inf")), lambda: ExponentialLaw(-1.0),
    lambda: Fading(0.25), lambda: Fading(float("nan")), lambda: Ppp(0), lambda: Ppp(2.0),
    lambda: RegularLine("three"), lambda: Explicit(()), lambda: Explicit((1.0, -2.0)),
    lambda: SingleInterferer(0.0), lambda: Aloha(1.5), lambda: Aloha(-0.1), lambda: Tdma(0),
    lambda: Tdma(2.0), lambda: SimConfig(0), lambda: SimConfig(seed=-1),
])
def test_construction_refuses_invalid_fields(make):
    with pytest.raises(DomainError):
        make()


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_numpy_random():
    """What `sirnet` pays for at startup: no dataclasses (and with it inspect's
    per-class code generation), no numpy.random until a simulation runs, and no
    validation sweep until `validate` runs."""
    script = ("import sys, sirnet, sirnet.cli\n"
              "print(*(m in sys.modules for m in ('dataclasses', 'numpy.random', "
              "'sirnet.validation')))\n")
    src = os.path.dirname(os.path.dirname(sirnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout.split()
    assert out == ["False", "False", "False"]


def test_a_type_with_no_fields():
    """A parameterless value type has () as its fields: all its instances are
    equal, hash as (), print as Name() and stay frozen."""
    from sirnet.model import _value_type

    @_value_type
    class Grid:
        pass

    @_value_type
    class Other:
        pass

    assert Grid() == Grid() and hash(Grid()) == hash(()) and repr(Grid()) == f"{Grid.__qualname__}()"
    assert Grid() != Other() and Grid.__match_args__ == ()
    with pytest.raises(AttributeError):
        Grid().d = 2
    with pytest.raises(TypeError):
        Grid(1)
