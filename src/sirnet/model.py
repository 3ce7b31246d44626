"""Domain types: geometry, path loss, fading and MAC.

All types are immutable value objects. The desired link distance, PPP
intensity, and regular-line spacing are normalized to 1 throughout; only
relative distances and powers matter, so any network can be rescaled onto
this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import DomainError, gamma_fn

__all__ = [
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
    "effective_distance",
    "unit_ball_volume",
    "format_model",
    "parse_model",
]


@dataclass(frozen=True)
class PowerLaw:
    """Power path loss r^-alpha."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class ExponentialLaw:
    """Exponential path loss exp(-delta r)."""

    delta: float

    def __post_init__(self) -> None:
        if not 0 < self.delta < math.inf:
            raise DomainError(f"delta must be positive and finite, got {self.delta}")


PathLoss = PowerLaw | ExponentialLaw


@dataclass(frozen=True)
class Fading:
    """Per-link fading: no fading, or Nakagami-m power fading.

    ``m`` is None for a static channel; Rayleigh is stored as Nakagami
    with m = 1, so the two are identical by construction.
    """

    m: float | None

    def __post_init__(self) -> None:
        if self.m is not None and not self.m >= 0.5:
            raise DomainError(f"Nakagami m must be >= 0.5, got {self.m}")

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Ppp:
    """Poisson point process of unit intensity in d dimensions."""

    d: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise DomainError(f"Ppp dimension must be 1 or 2, got {self.d}")


@dataclass(frozen=True)
class RegularLine:
    """Infinite regular line network, unit spacing, one- or two-sided."""

    sided: str = "one"

    def __post_init__(self) -> None:
        if self.sided not in ("one", "two"):
            raise DomainError(f"sided must be 'one' or 'two', got {self.sided!r}")


@dataclass(frozen=True)
class Explicit:
    """Interferers at explicitly given distances from the receiver."""

    distances: tuple[float, ...]

    def __post_init__(self) -> None:
        for r in self.distances:
            if not (r > 0 and math.isfinite(r)):
                raise DomainError(f"distances must be positive and finite, got {r}")


@dataclass(frozen=True)
class SingleInterferer:
    """One interferer at distance r."""

    r: float

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise DomainError(f"interferer distance must be positive, got {self.r}")


Geometry = Ppp | RegularLine | Explicit | SingleInterferer


@dataclass(frozen=True)
class Aloha:
    """Slotted ALOHA: every node transmits independently with probability p."""

    p: float
    duplex: str = "full"

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"transmit probability must be in [0, 1], got {self.p}")
        if self.duplex not in ("full", "half"):
            raise DomainError(f"duplex must be 'full' or 'half', got {self.duplex!r}")


@dataclass(frozen=True)
class Tdma:
    """m-phase TDMA: every m-th node transmits in a given slot."""

    m: int
    duplex: str = "full"

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 1):
            raise DomainError(f"TDMA reuse factor must be an integer >= 1, got {self.m}")
        if self.duplex not in ("full", "half"):
            raise DomainError(f"duplex must be 'full' or 'half', got {self.duplex!r}")


MacScheme = Aloha | Tdma


@dataclass(frozen=True)
class NetworkModel:
    """A corner of the uncertainty cube: geometry + path loss + fading."""

    geometry: Geometry
    path_loss: PathLoss
    fading: FadingCase


def effective_distance(r: float, alpha: float, theta: float) -> float:
    """Effective distance r^alpha / theta of an interferer at distance r.

    This is the single parameter through which a fixed interferer enters
    all single-link formulas.
    """
    if not (r > 0 and alpha > 0 and theta > 0):
        raise DomainError("effective_distance requires positive r, alpha, theta")
    return r ** alpha / theta


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions: pi^(d/2) / Gamma(1 + d/2)."""
    if not (isinstance(d, int) and d >= 1):
        raise DomainError(f"dimension must be an integer >= 1, got {d}")
    return math.pi ** (d / 2) / gamma_fn(1.0 + d / 2)


# ---------------------------------------------------------------------------
# Config file schema (line-oriented key=value, '#' comments).
#
#   geometry = ppp | line | explicit | single
#   geometry.d = 1 | 2                  (ppp)
#   geometry.sided = one | two          (line)
#   geometry.distances = 1.0,2.0,3.5    (explicit)
#   geometry.r = 2.0                    (single)
#   pathloss = power | exponential
#   pathloss.alpha = 4.0                (power)
#   pathloss.delta = 1.0                (exponential)
#   fading.desired = none | rayleigh | nakagami
#   fading.desired.m = 2.0              (nakagami)
#   fading.interferer = ...             (same keys)
#   mac = aloha | tdma                  (optional)
#   mac.p = 0.1 / mac.m = 4
#   mac.duplex = full | half
# ---------------------------------------------------------------------------


def _fading_lines(prefix: str, f: Fading) -> list[str]:
    if f.m is None:
        return [f"{prefix} = none"]
    if f.m == 1.0:
        return [f"{prefix} = rayleigh"]
    return [f"{prefix} = nakagami", f"{prefix}.m = {f.m!r}"]


def format_model(model: NetworkModel, mac: MacScheme | None = None) -> str:
    """Serialize a model (and optionally a MAC scheme) to config text."""
    lines: list[str] = []
    g = model.geometry
    if isinstance(g, Ppp):
        lines += ["geometry = ppp", f"geometry.d = {g.d}"]
    elif isinstance(g, RegularLine):
        lines += ["geometry = line", f"geometry.sided = {g.sided}"]
    elif isinstance(g, Explicit):
        dists = ",".join(repr(r) for r in g.distances)
        lines += ["geometry = explicit", f"geometry.distances = {dists}"]
    else:
        lines += ["geometry = single", f"geometry.r = {g.r!r}"]
    pl = model.path_loss
    if isinstance(pl, PowerLaw):
        lines += ["pathloss = power", f"pathloss.alpha = {pl.alpha!r}"]
    else:
        lines += ["pathloss = exponential", f"pathloss.delta = {pl.delta!r}"]
    lines += _fading_lines("fading.desired", model.fading.desired)
    lines += _fading_lines("fading.interferer", model.fading.interferer)
    if mac is not None:
        if isinstance(mac, Aloha):
            lines += ["mac = aloha", f"mac.p = {mac.p!r}", f"mac.duplex = {mac.duplex}"]
        else:
            lines += ["mac = tdma", f"mac.m = {mac.m}", f"mac.duplex = {mac.duplex}"]
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
        kv[key.strip()] = value.strip()
    return kv


def _parse_fading(kv: dict[str, str], prefix: str) -> Fading:
    kind = kv.get(prefix, "rayleigh")
    if kind == "none":
        return Fading.none()
    if kind == "rayleigh":
        return Fading.rayleigh()
    if kind == "nakagami":
        if f"{prefix}.m" not in kv:
            raise ConfigError(f"{prefix}.m required for nakagami fading")
        return Fading.nakagami(float(kv[f"{prefix}.m"]))
    raise ConfigError(f"unknown fading kind {kind!r} for {prefix}")


def parse_model(text: str) -> tuple[NetworkModel, MacScheme | None]:
    """Parse config text produced by :func:`format_model` (or by hand)."""
    kv = _parse_kv(text)
    gkind = kv.get("geometry")
    if gkind == "ppp":
        geometry: Geometry = Ppp(int(kv.get("geometry.d", "2")))
    elif gkind == "line":
        geometry = RegularLine(kv.get("geometry.sided", "one"))
    elif gkind == "explicit":
        dists = tuple(float(s) for s in kv["geometry.distances"].split(",") if s.strip())
        geometry = Explicit(dists)
    elif gkind == "single":
        geometry = SingleInterferer(float(kv["geometry.r"]))
    else:
        raise ConfigError(f"unknown or missing geometry {gkind!r}")
    pkind = kv.get("pathloss", "power")
    if pkind == "power":
        path_loss: PathLoss = PowerLaw(float(kv.get("pathloss.alpha", "4")))
    elif pkind == "exponential":
        path_loss = ExponentialLaw(float(kv["pathloss.delta"]))
    else:
        raise ConfigError(f"unknown pathloss {pkind!r}")
    fading = FadingCase(
        desired=_parse_fading(kv, "fading.desired"),
        interferer=_parse_fading(kv, "fading.interferer"),
    )
    mac: MacScheme | None = None
    mkind = kv.get("mac")
    if mkind == "aloha":
        mac = Aloha(float(kv["mac.p"]), kv.get("mac.duplex", "full"))
    elif mkind == "tdma":
        mac = Tdma(int(kv["mac.m"]), kv.get("mac.duplex", "full"))
    elif mkind is not None:
        raise ConfigError(f"unknown mac {mkind!r}")
    return NetworkModel(geometry, path_loss, fading), mac
