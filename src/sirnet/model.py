"""Domain types: geometry, path loss, fading and MAC.

The desired link distance, PPP intensity, and regular-line spacing are
normalized to 1 throughout; only relative distances and powers matter, so any
network can be rescaled onto this convention.

`_value_type` builds sirnet's 21 value types: ``__init__`` runs ``__post_init__``; an instance
equals only its own class's with equal fields, hashes their tuple, prints as ``Name(field=value,
...)`` and refuses assignment and ``del`` (a class's own ``__eq__`` stays, and leaves it
unhashable). It replaces dataclasses, which exec six methods per class: a warm `import
sirnet.cli, sirnet.validation` took 18.3 ms with them, 6.8 ms without (2 vCPUs).
"""

from __future__ import annotations

import math
from operator import attrgetter

from .specfun import DomainError

__all__ = [
    "CLASSES",
    "PowerLaw",
    "ExponentialLaw",
    "PathLoss",
    "Fading",
    "FadingCase",
    "Ppp",
    "RegularLine",
    "Explicit",
    "SingleInterferer",
    "Geometry",
    "Aloha",
    "Tdma",
    "MacScheme",
    "NetworkModel",
    "RAYLEIGH",
    "class_model",
    "effective_distance",
    "unit_ball_volume",
    "format_model",
    "parse_model",
]


def _eq(self, other):
    if other.__class__ is self.__class__:
        return type(self)._field_values(self) == type(other)._field_values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(type(self)._field_values(self))


def _repr(self) -> str:
    pairs = zip(self.__match_args__, type(self)._field_values(self))
    return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _value_type(cls: type) -> type:
    names = tuple(cls.__annotations__)
    args = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names)
    sets = "".join(f"\n    _d[{n!r}] = {n}" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self, {args}):\n    _d = self.__dict__{sets}{post}", scope := {"_cls": cls})
    get = attrgetter(*names)
    cls.__init__, cls.__match_args__ = scope["__init__"], names
    cls._field_values = get if len(names) > 1 else lambda self: (get(self),)
    for name, method in (("__eq__", _eq), ("__hash__", _hash), ("__repr__", _repr)):
        setattr(cls, name, vars(cls).get(name, method))  # an own __eq__ comes with __hash__ None
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@_value_type
class PowerLaw:
    """Power path loss r^-alpha."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")


@_value_type
class ExponentialLaw:
    """Exponential path loss exp(-delta r)."""

    delta: float

    def __post_init__(self) -> None:
        if not 0 < self.delta < math.inf:
            raise DomainError(f"delta must be positive and finite, got {self.delta}")


PathLoss = PowerLaw | ExponentialLaw


@_value_type
class Fading:
    """Per-link fading: no fading, or Nakagami-m power fading.

    ``m`` is None for a static channel; Rayleigh is stored as Nakagami
    with m = 1, so the two are identical by construction.
    """

    m: float | None

    def __post_init__(self) -> None:
        if self.m is not None and not 0.5 <= self.m < math.inf:
            raise DomainError(f"Nakagami m must be finite and >= 0.5, got {self.m}")

    @staticmethod
    def none() -> "Fading":
        return Fading(None)

    @staticmethod
    def rayleigh() -> "Fading":
        return Fading(1.0)

    @staticmethod
    def nakagami(m: float) -> "Fading":
        return Fading(float(m))

    @property
    def is_rayleigh(self) -> bool:
        return self.m == 1.0

    @property
    def is_static(self) -> bool:
        return self.m is None

    @property
    def symbol(self) -> str:
        if self.m is None:
            return "0"
        if self.m == 1.0:
            return "1"
        return f"m{self.m:g}"


@_value_type
class FadingCase:
    """Fading on the desired link and on the interferers' links.

    The label "1/0" means the desired link fades while the interferers'
    channels are static, and so on.
    """

    desired: Fading
    interferer: Fading

    @property
    def label(self) -> str:
        return f"{self.desired.symbol}/{self.interferer.symbol}"

    @staticmethod
    def parse(label: str) -> "FadingCase":
        """Inverse of :attr:`label`: each side is 0 (static), 1 (Rayleigh) or
        m<x> (Nakagami-x), so "1/0" is FadingCase(rayleigh, none)."""
        def one(symbol: str) -> Fading:
            if symbol == "0":
                return Fading.none()
            if symbol == "1":
                return Fading.rayleigh()
            if symbol.startswith("m"):
                return Fading.nakagami(float(symbol[1:]))
            raise DomainError(f"unknown fading symbol {symbol!r} (use 0, 1, or m<value>)")

        if "/" not in label:
            raise DomainError(f"fading case must look like 1/0, got {label!r}")
        desired, interferer = label.split("/", 1)
        return FadingCase(one(desired), one(interferer))


RAYLEIGH = FadingCase(Fading.rayleigh(), Fading.rayleigh())


@_value_type
class Ppp:
    """Poisson point process of unit intensity in d >= 1 dimensions."""

    d: int

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and self.d >= 1):
            raise DomainError(f"Ppp dimension must be an integer >= 1, got {self.d}")


@_value_type
class RegularLine:
    """Infinite regular line network, unit spacing, one- or two-sided."""

    sided: str = "one"

    def __post_init__(self) -> None:
        if self.sided not in ("one", "two"):
            raise DomainError(f"sided must be 'one' or 'two', got {self.sided!r}")


@_value_type
class Explicit:
    """Interferers at explicitly given distances from the receiver."""

    distances: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.distances:
            raise DomainError("an explicit geometry needs at least one distance")
        for r in self.distances:
            if not (r > 0 and math.isfinite(r)):
                raise DomainError(f"distances must be positive and finite, got {r}")


@_value_type
class SingleInterferer:
    """One interferer at distance r."""

    r: float

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise DomainError(f"interferer distance must be positive and finite, got {self.r}")


Geometry = Ppp | RegularLine | Explicit | SingleInterferer


@_value_type
class Aloha:
    """Slotted ALOHA: every node transmits independently with probability p."""

    p: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"transmit probability must be in [0, 1], got {self.p}")


@_value_type
class Tdma:
    """m-phase TDMA: every m-th node transmits in a given slot."""

    m: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 1):
            raise DomainError(f"TDMA reuse factor must be an integer >= 1, got {self.m}")


MacScheme = Aloha | Tdma


@_value_type
class NetworkModel:
    """A corner of the uncertainty cube: geometry + path loss + fading."""

    geometry: Geometry
    path_loss: PathLoss
    fading: FadingCase


# class -> the class_model keywords besides `case` that it reads
_CLASS_ARGS = {"ppp1": ("alpha",), "ppp2": ("alpha",), "ppp3": ("alpha",), "line1": ("alpha",),
               "line2": ("alpha",), "single": ("alpha", "r"), "explicit": ("alpha", "distances"),
               "exp2": ("delta",)}
CLASSES = tuple(_CLASS_ARGS)


def class_model(cls: str, alpha: float = 4.0, case: str = "1/1", *, delta: float = 1.0,
                r: float = 1.0, distances: tuple | list | None = None) -> NetworkModel:
    """The model of a class in CLASSES with fading case label `case`: ppp1 to
    ppp3 (PPP in 1 to 3 dimensions), line1 and line2 (one- and two-sided line),
    single (one interferer at r), explicit (interferers at `distances`), all
    with path loss r^-alpha, and exp2 (2-D PPP with exp(-delta r); alpha unused)."""
    if cls not in CLASSES:
        raise DomainError(f"unknown class {cls!r}")
    fading = FadingCase.parse(case)
    if cls == "exp2":
        return NetworkModel(Ppp(2), ExponentialLaw(delta), fading)
    if cls.startswith("ppp"):
        geometry: Geometry = Ppp(int(cls[-1]))
    elif cls.startswith("line"):
        geometry = RegularLine("two" if cls == "line2" else "one")
    elif cls == "single":
        geometry = SingleInterferer(r)
    else:
        geometry = Explicit(tuple(float(d) for d in distances or ()))
    return NetworkModel(geometry, PowerLaw(alpha), fading)


def effective_distance(r: float, alpha: float, theta: float) -> float:
    """Effective distance r^alpha / theta of an interferer at distance r.

    This is the single parameter through which a fixed interferer enters
    all single-link formulas.
    """
    if not (r > 0 and alpha > 0 and theta > 0):
        raise DomainError("effective_distance requires positive r, alpha, theta")
    return r ** alpha / theta


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions: 2 pi^(d/2) / Gamma(d/2) / d, exactly 2, pi
    and 4 pi/3 at d = 1, 2, 3, or past d = 343, exp(d/2 log pi - lgamma(d/2 + 1))."""
    if not (isinstance(d, int) and d >= 1):
        raise DomainError(f"dimension must be an integer >= 1, got {d}")
    return (2 * math.pi ** (d / 2) / math.gamma(d / 2) / d if d < 344
            else math.exp(d / 2 * math.log(math.pi) - math.lgamma(d / 2 + 1)))


# ---------------------------------------------------------------------------
# Config file schema: line-oriented key = value, '#' comments, one section per
# axis of the model. In the section's table in _SCHEMA, `<section> = <kind>`
# names a value type, whose fields are the keys `<section>.<field>` (written and
# read as _CODECS gives for their annotations), or a fixed value, which reads no
# key. format_model writes the first kind that fits a value, so a fixed value
# comes before its type. A key left out takes its _DEFAULTS value or is
# "required for <what>" of its kind; a key outside the schema is refused.
# ---------------------------------------------------------------------------

_FADING = {"none": (Fading.none(), None), "rayleigh": (Fading.rayleigh(), None),
           "nakagami": (Fading, "nakagami fading")}
# section -> (the error for an unknown kind, {kind: (value type or fixed value, what)})
_SCHEMA = {
    "geometry": ("unknown or missing geometry {!r}", {
        "ppp": (Ppp, "a PPP"), "line": (RegularLine, "a line"),
        "explicit": (Explicit, "an explicit geometry"), "single": (SingleInterferer, "a single interferer")}),
    "pathloss": ("unknown pathloss {!r}", {
        "power": (PowerLaw, "power path loss"), "exponential": (ExponentialLaw, "exponential path loss")}),
    "fading.desired": ("unknown fading kind {!r} for fading.desired", _FADING),
    "fading.interferer": ("unknown fading kind {!r} for fading.interferer", _FADING),
    "mac": ("unknown mac {!r}", {"aloha": (Aloha, "ALOHA"), "tdma": (Tdma, "TDMA")}),
}
_DEFAULTS = {"geometry.d": "2", "geometry.sided": "one", "pathloss": "power", "pathloss.alpha": "4",
             "fading.desired": "rayleigh", "fading.interferer": "rayleigh"}
# field annotation -> (writer, reader) of its value text
_CODECS = {
    "int": (str, int),
    "str": (str, str),
    "float": (repr, float),
    "float | None": (repr, float),
    "tuple[float, ...]": (lambda v: ",".join(map(repr, v)),
                          lambda text: tuple(float(s) for s in text.split(",") if s.strip())),
}


def _kinds(section: str, kinds: dict) -> dict:
    """kind -> (value type, fixed value or None, what, kind line, fields) of one section,
    each field read and written as (key, field name, default, writer, reader)."""
    records = {}
    for kind, (entry, what) in kinds.items():
        fixed = None if isinstance(entry, type) else entry
        cls, fields = entry if fixed is None else type(fixed), []
        for name in cls.__match_args__ if fixed is None else ():
            key = f"{section}.{name}"
            fields.append((key, name, _DEFAULTS.get(key), *_CODECS[cls.__annotations__[name]]))
        records[kind] = (cls, fixed, what, f"{section} = {kind}", tuple(fields))
    return records


_KINDS = {section: _kinds(section, kinds) for section, (_, kinds) in _SCHEMA.items()}
# section -> value type -> its kinds, in table order: what format_model looks up
_WRITE = {section: {cls: [r for r in kinds.values() if r[0] is cls] for cls, *_ in kinds.values()}
          for section, kinds in _KINDS.items()}
_KEYS = frozenset(_SCHEMA).union(field[0] for kinds in _KINDS.values()
                                 for *_, fields in kinds.values() for field in fields)


def format_model(model: NetworkModel, mac: MacScheme | None = None) -> str:
    """Serialize a model (and optionally a MAC scheme) to config text."""
    values = (model.geometry, model.path_loss, model.fading.desired, model.fading.interferer, mac)
    lines: list[str] = []
    for section, value in zip(_SCHEMA, values):
        if value is None and section == "mac":
            continue
        for _, fixed, _, line, fields in _WRITE[section][type(value)]:
            if fixed is None or vars(fixed) == vars(value):  # the fields, without __eq__'s calls
                break
        lines.append(line)
        for key, name, _, write, _ in fields:
            lines.append(f"{key} = {write(getattr(value, name))}")
    return "\n".join(lines) + "\n"


class ConfigError(ValueError):
    """Malformed or inconsistent config text."""


def _parse_kv(text: str) -> dict[str, str]:
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kv[key] = value.strip()
    return kv


def _parse_section(kv: dict[str, str], section: str):
    kind = kv.get(section, _DEFAULTS.get(section))
    if kind not in _KINDS[section]:
        raise ConfigError(_SCHEMA[section][0].format(kind))
    cls, fixed, what, _, fields = _KINDS[section][kind]
    args = []
    for key, _, default, _, read in fields:
        text = kv.get(key, default)
        if text is None:
            raise ConfigError(f"{key} required for {what}")
        args.append(read(text))
    return cls(*args) if fixed is None else fixed


def parse_model(text: str) -> tuple[NetworkModel, MacScheme | None]:
    """Parse config text produced by :func:`format_model` (or by hand)."""
    kv = _parse_kv(text)
    geometry, path_loss, desired, interferer = [_parse_section(kv, section) for section in
                                                ("geometry", "pathloss", "fading.desired", "fading.interferer")]
    mac = _parse_section(kv, "mac") if "mac" in kv else None
    return NetworkModel(geometry, path_loss, FadingCase(desired, interferer)), mac
