"""Monte Carlo reference estimates for outage, contention, and capacity.

Interference from outside the simulation window is replaced by its exact
mean (tail compensation); the window is then sized so that theta times the
tail standard deviation stays below the truncation tolerance, which bounds
the residual bias at second order. ALOHA thinning of a PPP leaves a PPP of
intensity p, so only transmitters are placed, and fading is drawn only for
active interferers. Trials fall in fixed blocks of 4,096, each drawn from a
PCG64 stream keyed by (seed, block), or by (seed, block, sub) when a block
expects too many points and is split; results do not depend on chunking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    Aloha,
    Explicit,
    Fading,
    MacScheme,
    NetworkModel,
    PowerLaw,
    Ppp,
    RegularLine,
    SingleInterferer,
)
from .specfun import DomainError

__all__ = [
    "SimConfig",
    "Estimate",
    "SirSamples",
    "WindowError",
    "resolve_window",
    "simulate_ps",
    "simulate_sir_samples",
    "empirical_ccdf",
    "estimate_gamma",
    "estimate_capacity",
]

_MAX_RADIUS = 2000.0
_MAX_TERMS = 10 ** 6
_BLOCK = 4096  # trials per random-stream block
# Upper bound on expected interferer points per chunk; blocks above it split.
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls; `window_radius` None means size automatically."""

    trials: int = 100_000
    seed: int = 0
    window_radius: float | None = None
    truncation_tol: float = 1e-3
    sir_clip: float = 1e12

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.truncation_tol < 0.1:
            raise DomainError(
                f"truncation_tol must be in (0, 0.1), got {self.truncation_tol}"
            )


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n: int

    @property
    def ci95(self) -> tuple[float, float]:
        return self.mean - 1.96 * self.stderr, self.mean + 1.96 * self.stderr

    def z_score(self, target: float) -> float:
        """Standardized deviation from a target value (inf if stderr is 0)."""
        if self.stderr == 0.0:
            return 0.0 if target == self.mean else math.inf
        return (self.mean - target) / self.stderr


@dataclass(frozen=True)
class SirSamples:
    values: np.ndarray
    clipped: int  # samples with zero interference, clipped to sir_clip


class WindowError(RuntimeError):
    """The window required for the tolerance exceeds the feasible maximum."""


def _rng(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _fading_draw(rng: np.random.Generator, f: Fading, size: int) -> np.ndarray:
    if f.m is None:
        return np.ones(size)
    if f.m == 1.0:
        return rng.standard_exponential(size)  # Rayleigh: Gamma(1, 1) = Exp(1)
    return rng.gamma(f.m, 1.0 / f.m, size)  # Nakagami-m power: Gamma(m, 1/m), unit mean


def _second_moment(f: Fading) -> float:
    return 1.0 if f.m is None else 1.0 + 1.0 / f.m


def _access(mac: MacScheme | None) -> tuple[float, int]:
    """(ALOHA probability, TDMA spacing multiplier) for a MAC scheme."""
    if mac is None:
        return 1.0, 1
    if isinstance(mac, Aloha):
        return mac.p, 1
    return 1.0, mac.m


@dataclass(frozen=True)
class _Window:
    radius: float | None = None  # PPP window
    terms: int | None = None  # line truncation
    tail_mean: float = 0.0  # compensated out-of-window interference


def _ppp_window(model: NetworkModel, p: float, theta: float, cfg: SimConfig) -> _Window:
    d = model.geometry.d
    ef2 = _second_moment(model.fading.interferer)
    tol = cfg.truncation_tol
    pl = model.path_loss
    if isinstance(pl, PowerLaw):
        alpha = pl.alpha
        if not alpha > d:
            raise DomainError(f"alpha > d required for finite interference (alpha={alpha}, d={d})")
        surface = 2.0 * math.pi if d == 2 else 2.0
        if p == 0.0:
            return _Window(radius=2.0, tail_mean=0.0)
        # theta^2 Var[I_tail] = theta^2 p * surface * E[F^2] R^(d-2a)/(2a-d) <= tol^2
        r = (p * surface * ef2 * theta * theta / (tol * tol * (2.0 * alpha - d))) ** (
            1.0 / (2.0 * alpha - d)
        )
        r = max(r, 2.0)
        if cfg.window_radius is not None:
            if cfg.window_radius < r:
                raise WindowError(
                    f"window radius {cfg.window_radius} below required {r:.3g}"
                )
            r = cfg.window_radius
        if r > _MAX_RADIUS:
            raise WindowError(
                f"required window radius {r:.3g} exceeds maximum {_MAX_RADIUS}"
            )
        tail = p * surface * r ** (d - alpha) / (alpha - d)
        return _Window(radius=r, tail_mean=tail)
    delta = pl.delta
    if d != 2:
        raise DomainError("exponential path loss is only simulated in 2-D")

    def var_tail(r: float) -> float:
        return p * 2.0 * math.pi * ef2 * math.exp(-2.0 * delta * r) * (
            r / (2.0 * delta) + 1.0 / (4.0 * delta * delta)
        )

    r = 2.0
    while theta * math.sqrt(var_tail(r)) > tol:
        r *= 1.5
        if r > _MAX_RADIUS:
            raise WindowError(f"required window radius exceeds maximum {_MAX_RADIUS}")
    if cfg.window_radius is not None:
        if theta * math.sqrt(var_tail(cfg.window_radius)) > tol:
            raise WindowError(f"window radius {cfg.window_radius} too small")
        r = cfg.window_radius
    tail = p * 2.0 * math.pi * math.exp(-delta * r) * (r / delta + 1.0 / delta ** 2)
    return _Window(radius=r, tail_mean=tail)


def _line_window(
    alpha: float, p: float, theta: float, spacing: int, cfg: SimConfig, sides: int, ef2: float
) -> _Window:
    """Truncation for a regular line with interferers at spacing*i, i = 1..n."""
    if not alpha > 1:
        raise DomainError(f"alpha must exceed 1 on the line, got {alpha}")
    tol = cfg.truncation_tol
    # Normalized threshold theta' = theta/spacing^alpha drives the bias.
    tp = theta / spacing ** alpha
    if p == 0.0:
        return _Window(terms=10)
    n = (sides * p * ef2 * tp * tp / (tol * tol * (2.0 * alpha - 1.0))) ** (
        1.0 / (2.0 * alpha - 1.0)
    )
    n = max(int(math.ceil(n)), 10)
    if n > _MAX_TERMS:
        raise WindowError(f"required truncation {n} terms exceeds maximum {_MAX_TERMS}")
    tail = sides * p * spacing ** -alpha * n ** (1.0 - alpha) / (alpha - 1.0)
    return _Window(terms=n, tail_mean=tail)


def resolve_window(model: NetworkModel, mac: MacScheme | None, theta: float, cfg: SimConfig) -> _Window:
    """Window radius / truncation terms plus the compensated tail mean."""
    p, spacing = _access(mac)
    g = model.geometry
    if isinstance(g, Ppp):
        if spacing != 1:
            raise DomainError("TDMA scheduling is only defined for line networks")
        return _ppp_window(model, p, theta, cfg)
    if isinstance(g, RegularLine):
        if not isinstance(model.path_loss, PowerLaw):
            raise DomainError("line networks require power path loss")
        sides = 2 if g.sided == "two" else 1
        return _line_window(
            model.path_loss.alpha, p, theta, spacing, cfg, sides,
            _second_moment(model.fading.interferer),
        )
    return _Window()  # explicit / single interferer: no truncation


def _loss_vector(model: NetworkModel, distances: np.ndarray) -> np.ndarray:
    pl = model.path_loss
    if isinstance(pl, PowerLaw):
        return distances ** -pl.alpha
    return np.exp(-pl.delta * distances)


def _fixed_distances(model: NetworkModel, mac: MacScheme | None, window: _Window) -> np.ndarray | None:
    """Interferer distances for the non-PPP geometries (None for PPP)."""
    g = model.geometry
    _, spacing = _access(mac)
    if isinstance(g, SingleInterferer):
        return np.array([g.r])
    if isinstance(g, Explicit):
        return np.asarray(g.distances, dtype=float)
    if isinstance(g, RegularLine):
        pos = spacing * np.arange(1, window.terms + 1, dtype=float)
        if g.sided == "two":
            pos = np.concatenate([pos, pos])
        return pos
    return None


def _batch_sir(
    model: NetworkModel,
    p: float,
    points: float,
    window: _Window,
    distances: np.ndarray | None,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """One chunk of SIR samples; a PPP window holds Poisson(`points`) transmitters."""
    case = model.fading
    if distances is not None:
        loss = _loss_vector(model, distances)
        shape = (size, loss.size)
        if p < 1.0:
            active = rng.random(shape) < p
            f = np.zeros(shape)
            f[active] = _fading_draw(rng, case.interferer, int(np.count_nonzero(active)))
        else:
            f = _fading_draw(rng, case.interferer, size * loss.size).reshape(shape)
        interference = f @ loss + window.tail_mean
    else:
        counts = rng.poisson(points, size)
        total = int(counts.sum())
        u = rng.random(total)
        dist = window.radius * (np.sqrt(u) if model.geometry.d == 2 else u)
        contrib = _fading_draw(rng, case.interferer, total) * _loss_vector(model, dist)
        idx = np.repeat(np.arange(size), counts)
        interference = np.bincount(idx, weights=contrib, minlength=size) + window.tail_mean
    desired = _fading_draw(rng, case.desired, size)
    with np.errstate(divide="ignore"):
        return np.where(interference > 0.0, desired / np.maximum(interference, 1e-300), np.inf)


def _chunks(trials: int, points: float):
    """(stream key, size) of each chunk: blocks of _BLOCK trials, each split
    into equal sub-chunks when its expected points exceed _CHUNK_BUDGET."""
    subs = max(1, math.ceil(points * _BLOCK / _CHUNK_BUDGET))
    step = -(-_BLOCK // subs)
    for block, start in enumerate(range(0, trials, _BLOCK)):
        n = min(_BLOCK, trials - start)
        for sub, first in enumerate(range(0, n, step)):
            yield ((block,) if subs == 1 else (block, sub)), min(step, n - first)


def _sir_chunks(model: NetworkModel, mac: MacScheme | None, theta: float, cfg: SimConfig):
    window = resolve_window(model, mac, theta, cfg)
    distances = _fixed_distances(model, mac, window)
    p, _ = _access(mac)
    if distances is None:  # expected transmitters in the PPP window
        r = window.radius
        points = p * (math.pi * r * r if model.geometry.d == 2 else 2.0 * r)
    else:
        points = distances.size
    for key, size in _chunks(cfg.trials, points):
        yield _batch_sir(model, p, points, window, distances, _rng(cfg.seed, key), size)


def simulate_ps(model: NetworkModel, mac: MacScheme | None, theta: float, cfg: SimConfig) -> Estimate:
    """Estimate the success probability P(SIR > theta)."""
    if not theta > 0:
        raise DomainError(f"theta must be positive, got {theta}")
    if isinstance(mac, Aloha) and mac.p == 0.0:
        return Estimate(1.0, 0.0, cfg.trials)  # no interferers ever transmit
    sirs = _sir_chunks(model, mac, theta, cfg)
    successes = sum(int(np.count_nonzero(sir > theta)) for sir in sirs)
    n = cfg.trials
    mean = successes / n
    stderr = math.sqrt(max(mean * (1.0 - mean), 1.0 / n) / n)
    return Estimate(mean, stderr, n)


def simulate_sir_samples(model: NetworkModel, mac: MacScheme | None, cfg: SimConfig, theta_ref: float = 1.0) -> SirSamples:
    """Draw SIR samples; `theta_ref` sets the tail-truncation operating point.

    Samples with zero in-window interference and no tail compensation are
    clipped to `cfg.sir_clip` and counted.
    """
    chunks = []
    clipped = 0
    for sir in _sir_chunks(model, mac, theta_ref, cfg):
        inf_mask = ~np.isfinite(sir) | (sir > cfg.sir_clip)
        clipped += int(np.count_nonzero(inf_mask))
        chunks.append(np.where(inf_mask, cfg.sir_clip, sir))
    return SirSamples(np.concatenate(chunks), clipped)


def estimate_gamma(
    model: NetworkModel, theta: float, cfg: SimConfig, p_probe: float = 1e-2
) -> Estimate:
    """Estimate spatial contention as (1 - p_s(p_probe)) / p_probe.

    The probe probability trades statistical error against the O(p gamma^2/2)
    linearization bias; the default 0.01 suits gamma of order 1-10.
    """
    if not 0.0 < p_probe <= 1.0:
        raise DomainError(f"p_probe must be in (0, 1], got {p_probe}")
    est = simulate_ps(model, Aloha(p_probe), theta, cfg)
    return Estimate((1.0 - est.mean) / p_probe, est.stderr / p_probe, est.n)


def estimate_capacity(model: NetworkModel, mac: MacScheme | None, cfg: SimConfig, theta_ref: float = 1.0) -> Estimate:
    """Estimate the ergodic capacity E log(1 + SIR) in nats.

    Zero-interference slots are clipped at cfg.sir_clip, which biases the
    estimate downward; a warning reports the clip count when it is nonzero.
    """
    samples = simulate_sir_samples(model, mac, cfg, theta_ref=theta_ref)
    if samples.clipped:
        warnings.warn(
            f"{samples.clipped} zero-interference slots clipped at "
            f"SIR = {cfg.sir_clip:g}; capacity estimate is biased low",
            stacklevel=2,
        )
    logs = np.log1p(samples.values)
    n = logs.size
    return Estimate(float(logs.mean()), float(logs.std(ddof=1)) / math.sqrt(n), n)


def empirical_ccdf(samples: np.ndarray, theta_grid: tuple[float, ...]) -> list[float]:
    """P(SIR > theta) from samples, evaluated on a threshold grid."""
    values = np.asarray(samples)
    return [float(np.count_nonzero(values > t)) / values.size for t in theta_grid]
