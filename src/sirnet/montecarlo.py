"""Monte Carlo reference estimates for outage, contention, and capacity.

Interference from outside the simulation window is replaced by its exact
mean (tail compensation); the window is then sized so that theta times the
tail standard deviation stays below the truncation tolerance 1e-3, which bounds
the residual bias at second order. ALOHA thinning of a PPP leaves a PPP of
intensity p, so only transmitters are placed. Lines and explicit sets fade and
sum only active interferers, and a power-law PPP gain is (R^d u)^(-alpha/d),
with no square root in any d. Trials fall in 4,096-trial blocks, each with a
PCG64 stream keyed by (seed, block[, sub]); results do not depend on chunking.
Within a chunk, numbers are drawn and reduced in cache-sized slabs: k fills of
a Generator in a row give the numbers of one fill, and each trial sums its
terms in the same order in any slab, so the slab size changes no result.
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
    "estimate_gamma",
    "estimate_capacity",
]

_MAX_RADIUS = 2000.0
_TOL = 1e-3  # truncation tolerance: theta times the tail's standard deviation
_SIR_CLIP = 1e12  # a sample with no interference at all is clipped to this
_MAX_TERMS = 10 ** 6
_BLOCK = 4096  # trials per random-stream block
# Upper bound on expected interferer points per chunk; blocks above it split.
_CHUNK_BUDGET = 4_000_000
_SLAB = 1 << 15  # random draws per slab: 256 KB of doubles, a cache-sized piece


@dataclass(frozen=True)
class SimConfig:
    """Trial count and seed; the window is always sized from the inputs."""

    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


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
    clipped: int  # samples with zero interference, clipped to _SIR_CLIP


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


def _surface(d: int) -> float:
    """The unit sphere's area d c_d, which d * unit_ball_volume(d) can miss by an ulp."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def _ppp_window(model: NetworkModel, p: float, theta: float) -> _Window:
    d = model.geometry.d
    ef2 = _second_moment(model.fading.interferer)
    pl = model.path_loss
    if isinstance(pl, PowerLaw):
        alpha = pl.alpha
        if not alpha > d:
            raise DomainError(f"alpha > d required for finite interference (alpha={alpha}, d={d})")
        surface = _surface(d)
        if p == 0.0:
            return _Window(radius=2.0, tail_mean=0.0)
        # theta^2 Var[I_tail] = theta^2 p * surface * E[F^2] R^(d-2a)/(2a-d) <= _TOL^2
        r = (p * surface * ef2 * theta * theta / (_TOL * _TOL * (2.0 * alpha - d))) ** (
            1.0 / (2.0 * alpha - d)
        )
        r = max(r, 2.0)
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
    while theta * math.sqrt(var_tail(r)) > _TOL:
        r *= 1.5
        if r > _MAX_RADIUS:
            raise WindowError(f"required window radius exceeds maximum {_MAX_RADIUS}")
    tail = p * 2.0 * math.pi * math.exp(-delta * r) * (r / delta + 1.0 / delta ** 2)
    return _Window(radius=r, tail_mean=tail)


def _line_window(
    alpha: float, p: float, theta: float, spacing: int, sides: int, ef2: float
) -> _Window:
    """Truncation for a regular line with interferers at spacing*i, i = 1..n."""
    if not alpha > 1:
        raise DomainError(f"alpha must exceed 1 on the line, got {alpha}")
    # Normalized threshold theta' = theta/spacing^alpha drives the bias.
    tp = theta / spacing ** alpha
    if p == 0.0:
        return _Window(terms=10)
    n = (sides * p * ef2 * tp * tp / (_TOL * _TOL * (2.0 * alpha - 1.0))) ** (
        1.0 / (2.0 * alpha - 1.0)
    )
    n = max(int(math.ceil(n)), 10)
    if n > _MAX_TERMS:
        raise WindowError(f"required truncation {n} terms exceeds maximum {_MAX_TERMS}")
    tail = sides * p * spacing ** -alpha * n ** (1.0 - alpha) / (alpha - 1.0)
    return _Window(terms=n, tail_mean=tail)


def resolve_window(model: NetworkModel, mac: MacScheme | None, theta: float) -> _Window:
    """Window radius / truncation terms plus the compensated tail mean."""
    p, spacing = _access(mac)
    g = model.geometry
    if isinstance(g, Ppp):
        if spacing != 1:
            raise DomainError("TDMA scheduling is only defined for line networks")
        return _ppp_window(model, p, theta)
    if isinstance(g, RegularLine):
        if not isinstance(model.path_loss, PowerLaw):
            raise DomainError("line networks require power path loss")
        sides = 2 if g.sided == "two" else 1
        return _line_window(
            model.path_loss.alpha, p, theta, spacing, sides,
            _second_moment(model.fading.interferer),
        )
    return _Window()  # explicit / single interferer: no truncation


def _loss_vector(model: NetworkModel, distances: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    pl = model.path_loss
    with np.errstate(over="ignore"):  # a gain past the float range is inf: SIR 0
        return distances ** -pl.alpha if isinstance(pl, PowerLaw) else np.exp(
            np.multiply(-pl.delta, distances, out=out), out=out)


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


def _fade(rng: np.random.Generator, f: Fading, gain: np.ndarray) -> np.ndarray:
    """Multiply interferer fading into `gain` in place, one slab at a time."""
    for a in range(0, gain.size, _SLAB):
        gain[a:a + _SLAB] *= _fading_draw(rng, f, gain[a:a + _SLAB].size)
    return gain


def _batch_sir(
    model: NetworkModel,
    p: float,
    points: float,
    window: _Window,
    distances: np.ndarray | None,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """One chunk of SIR samples; a PPP window holds Poisson(`points`) transmitters.

    Fixed sets draw, fade and sum whole trial rows of about _SLAB numbers at a
    time, and PPP points fade in slabs of _SLAB, in the stream's own order.
    """
    case = model.fading
    if distances is not None:
        loss = _loss_vector(model, distances)
        n = loss.size
        rows = max(1, _SLAB // n)
        slabs = [(a, min(size, a + rows)) for a in range(0, size, rows)]
        interference = np.empty(size)
        if p < 1.0:  # fade and sum only the active (trial, interferer) entries
            active = np.empty((size, n), dtype=bool)  # every uniform precedes any fading
            for a, b in slabs:
                np.less(rng.random((b - a, n)), p, out=active[a:b])
            for a, b in slabs:
                hit = np.flatnonzero(active[a:b])
                gain = _fade(rng, case.interferer, loss[hit % n])
                interference[a:b] = np.bincount(hit // n, weights=gain, minlength=b - a)
        else:  # a dot per row rounds the same in any slab; a gemv rounds by row position
            for a, b in slabs:
                f = _fading_draw(rng, case.interferer, (b - a) * n).reshape(b - a, n)
                np.vecdot(f, loss, out=interference[a:b])
    else:
        counts = rng.poisson(points, size)
        u = rng.random(int(counts.sum()))
        r, d, pl = window.radius, model.geometry.d, model.path_loss
        if isinstance(pl, PowerLaw):  # |x|^-alpha = (R^d u)^(-alpha/d): no sqrt in 2-D
            u *= math.prod([r] * d)  # r * r in 2-D, which pow(r, 2) is not always
            with np.errstate(over="ignore"):
                np.power(u, -pl.alpha / d, out=u)
        else:  # distances R sqrt(u), all in place
            _loss_vector(model, np.multiply(np.sqrt(u, out=u), r, out=u), out=u)
        gain = _fade(rng, case.interferer, u)
        busy = np.flatnonzero(counts)  # a trial that drew no point keeps 0
        interference = np.zeros(size)
        interference[busy] = np.add.reduceat(gain, (np.cumsum(counts) - counts)[busy])
    interference += window.tail_mean
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
    window = resolve_window(model, mac, theta)
    distances = _fixed_distances(model, mac, window)
    p, _ = _access(mac)
    if distances is None:  # expected transmitters in the PPP window
        d = model.geometry.d
        points = p * math.prod([_surface(d) / d] + [window.radius] * d)
        if points > math.pi * _MAX_RADIUS * _MAX_RADIUS:  # the largest 2-D window's
            raise WindowError(f"{d}-D window holds {points:.3g} points, more than any 2-D one")
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

    The window is sized for P(SIR > theta_ref), so samples far above it are
    biased low (see estimate_capacity). Samples with zero in-window
    interference and no tail compensation are clipped to 1e12 (_SIR_CLIP)
    and counted.
    """
    chunks = []
    clipped = 0
    for sir in _sir_chunks(model, mac, theta_ref, cfg):
        inf_mask = ~np.isfinite(sir) | (sir > _SIR_CLIP)
        clipped += int(np.count_nonzero(inf_mask))
        chunks.append(np.where(inf_mask, _SIR_CLIP, sir))
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

    Zero-interference slots are clipped at SIR = 1e12, which biases the
    estimate downward; a warning reports the clip count when it is nonzero.
    The default theta_ref = 1 sizes the window for P(SIR > 1), which also
    biases it low: line1 at alpha 4, Aloha(0.3), 2e5 trials, seed 9 gives
    3.63948 +- 0.00594 against 3.66930 (z = -5.0); theta_ref = 100 gives
    z = -0.7.
    """
    samples = simulate_sir_samples(model, mac, cfg, theta_ref=theta_ref)
    if samples.clipped:
        warnings.warn(
            f"{samples.clipped} zero-interference slots clipped at "
            f"SIR = {_SIR_CLIP:g}; capacity estimate is biased low",
            stacklevel=2,
        )
    logs = np.log1p(samples.values)
    n = logs.size
    return Estimate(float(logs.mean()), float(logs.std(ddof=1)) / math.sqrt(n), n)
