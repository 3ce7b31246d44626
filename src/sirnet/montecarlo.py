"""Monte Carlo reference estimates for outage, contention, and capacity.

Interference from outside the simulation window is replaced by its exact
mean (tail compensation); the window is then sized so that theta times the
tail standard deviation stays below the truncation tolerance 1e-3, which bounds
the residual bias at second order. ALOHA thinning of a PPP leaves a PPP of
intensity p, so only transmitters are placed. Lines and explicit sets fade and
sum only active interferers; a power-law PPP gain (R^d u)^(-alpha/d) is made of
products at alpha/d in {1.5, 2, 2.5, 3, 4}, else of np.power. Trials fall in
4,096-trial blocks, each a PCG64 stream keyed by (seed, block[, sub]), seeded
once per key and process; results do not depend on chunking.
In a chunk's stream every PPP position, and every ALOHA uniform of a line or
explicit set, comes before any fading. PCG64 jumps ahead in O(log n) steps
and Generator.random takes one 64-bit output per double, so a copy of the
stream reads them slab by slab while the stream itself jumps past them to the
fading: no array grows with the window, and every number is the one a
whole-chunk draw gives. A slab holds whole trials of about _SLAB numbers; k
fills of a Generator in a row give the numbers of one fill, and each trial
sums its terms in the same order in any slab, so the slab size changes no
result. Slabs write through `out=` into buffers that each thread keeps.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings

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
    _value_type,
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
# A block whose expected interferer points exceed this splits into sub-chunks,
# each with its own stream key. It fixes the streams, so it stays as it is; it
# no longer bounds memory, which the slabs do.
_CHUNK_BUDGET = 4_000_000
# Numbers per slab: 256 KB of doubles, a cache-sized piece. A slab holds whole
# trials, so a trial with more points makes one slab of its own.
_SLAB = 1 << 15
_KEEP = 1 << 17  # the most items a buffer may hold and still be kept for reuse


@_value_type
class SimConfig:
    """Trial count and seed; the window is always sized from the inputs."""

    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@_value_type
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


@_value_type
class SirSamples:
    values: np.ndarray
    clipped: int  # samples with zero interference, clipped to _SIR_CLIP

    def __eq__(self, other):
        """Equal `values`, element for element, and equal `clipped`; like an array, no hash."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(self.clipped == other.clipped and np.array_equal(self.values, other.values))


class WindowError(RuntimeError):
    """The window required for the tolerance exceeds the feasible maximum."""


@functools.lru_cache(maxsize=1024)
def _start(seed: int, key: tuple[int, ...]) -> dict:
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state


def _rng(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """This thread's Generator at the start of stream (seed, key), valid until its next _rng call."""
    return _SCRATCH.at("stream", _start(seed, key))


def _inverse_power(x: np.ndarray, k: float, spare: np.ndarray) -> np.ndarray:
    """x^-k in place (inf at 0): at k = 1.5, 2, 2.5, 3, 4 as 1/(x s), 1/(x x), 1/(x x s), 1/(x s), 1/(x x s),
    with s = sqrt(x) or x^2 in `spare`, within 4 ulp; else np.power (at 3.5 products reach 5 ulp)."""
    if k not in (1.5, 2.0, 2.5, 3.0, 4.0):
        return np.power(x, -k, out=x)
    s = np.sqrt(x, out=spare[:x.size]) if k % 1 else x if k == 2.0 else np.multiply(x, x, out=spare[:x.size])
    if k in (2.5, 4.0):
        x *= x
    x *= s  # x^1.5, x^2, x^2.5, x^3 or x^4
    return np.reciprocal(x, out=x)


def _fading(rng: np.random.Generator, f: Fading, out: np.ndarray) -> np.ndarray:
    """Fill `out` with fading powers, as rng.gamma(m, 1/m) would draw them."""
    if f.m is None:
        out.fill(1.0)
    elif f.m == 1.0:
        rng.standard_exponential(out=out)  # Rayleigh: Gamma(1, 1) = Exp(1)
    else:  # Nakagami-m power: Gamma(m, 1/m), unit mean; rng.gamma also scales last
        rng.standard_gamma(f.m, out=out)
        out *= 1.0 / f.m
    return out


def _second_moment(f: Fading) -> float:
    return 1.0 if f.m is None else 1.0 + 1.0 / f.m


def _access(mac: MacScheme | None) -> tuple[float, int]:
    """(ALOHA probability, TDMA spacing multiplier) for a MAC scheme."""
    if mac is None:
        return 1.0, 1
    if isinstance(mac, Aloha):
        return mac.p, 1
    return 1.0, mac.m


@_value_type
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


def _loss_vector(model: NetworkModel, distances: np.ndarray) -> np.ndarray:
    pl = model.path_loss
    return distances ** -pl.alpha if isinstance(pl, PowerLaw) else np.exp(-pl.delta * distances)


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


class _Scratch(threading.local):
    """Each thread's stream and reader Generators and the buffers its slabs write into
    through `out=`, kept from chunk to chunk and call to call, so a warm sweep
    maps no fresh pages. A _batch_sir call writes each buffer before it reads
    it and returns no view of one, so what a buffer held changes no result."""

    def __init__(self) -> None:
        self.gens: dict[str, np.random.Generator] = {}  # made on first use: import loads no np.random
        self.kept: dict[str, np.ndarray] = {}

    def at(self, name: str, state: dict) -> np.random.Generator:
        """This thread's Generator `name` (made with any seed: it takes a state), set to `state`."""
        gen = self.gens.get(name) or self.gens.setdefault(name, np.random.Generator(np.random.PCG64(0)))
        gen.bit_generator.state = state
        return gen

    def take(self, name: str, n: int, dtype: type = float) -> np.ndarray:
        """An uninitialised array of `n` items, reused where one is kept."""
        buf = self.kept.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype)
            if n <= _KEEP:
                self.kept[name] = buf
        return buf[:n]

    def read(self, rng: np.random.Generator, draws: int) -> np.random.Generator:
        """The reader, at `rng`'s place, while `rng` moves on past the next
        `draws` 64-bit outputs (Generator.random takes one per double)."""
        reader = self.at("reader", rng.bit_generator.state)
        rng.bit_generator.advance(draws)
        return reader


_SCRATCH = _Scratch()


def _fixed_interference(
    rng: np.random.Generator, f: Fading, p: float, loss: np.ndarray, size: int
) -> np.ndarray:
    """Interference of `size` trials from interferers at path gains `loss`, in
    slabs of whole trial rows of about _SLAB numbers."""
    n, take = loss.size, _SCRATCH.take
    rows = max(1, _SLAB // n)
    room = min(size, rows) * n  # the chunk's own need, however large _SLAB is
    draws = take("draws", room)
    interference = np.empty(size)
    if p < 1.0:  # every uniform precedes any fading: past one slab, read them from a copy
        uniforms = rng if rows >= size else _SCRATCH.read(rng, size * n)
        active, gain, tiled = take("active", room, bool), take("gain", room), take("tiled", room)
        tiled.reshape(-1, n)[:] = loss  # a slab's hit at flat index t has gain tiled[t]
    for a in range(0, size, rows):
        b = min(size, a + rows)
        k = (b - a) * n
        if p < 1.0:  # fade and sum only the active (trial, interferer) entries
            np.less(uniforms.random(out=draws[:k]), p, out=active[:k])
            at = np.flatnonzero(active[:k])
            hits = at.size
            g = np.take(tiled, at, out=gain[:hits], mode="clip")  # "raise" buffers out
            g *= _fading(rng, f, draws[:hits])
            np.floor_divide(at, n, out=at)  # the trial of each hit
            interference[a:b] = np.bincount(at, weights=g, minlength=b - a)
            del at  # with the next slab's hits alive as well, glibc maps fresh pages
        else:  # a dot per row rounds the same in any slab; a gemv rounds by row position
            np.vecdot(_fading(rng, f, draws[:k]).reshape(b - a, n), loss, out=interference[a:b])
    return interference


def _ppp_interference(
    rng: np.random.Generator, model: NetworkModel, points: float, radius: float, size: int
) -> np.ndarray:
    """Interference of `size` trials, each from Poisson(`points`) transmitters
    uniform in the window, placed and faded in slabs of whole trials of about
    _SLAB points."""
    counts = rng.poisson(points, size)
    busy = np.flatnonzero(counts)  # a trial that drew no point keeps 0
    interference = np.zeros(size)
    if busy.size == 0:
        return interference
    edges = np.zeros(busy.size + 1, dtype=counts.dtype)
    np.cumsum(counts[busy], out=edges[1:])  # busy trial k holds points edges[k]:edges[k+1]
    total = int(edges[-1])
    room = min(total, max(_SLAB, int(counts.max())))  # the largest slab
    whole = room == total  # the chunk is one slab
    # Every position precedes any fading: past one slab, read them from a copy.
    positions = rng if whole else _SCRATCH.read(rng, total)
    gains, draws = _SCRATCH.take("gain", room), _SCRATCH.take("draws", min(room, _SLAB))
    sums = np.empty(busy.size)
    d, pl, f = model.geometry.d, model.path_loss, model.fading.interferer
    volume = math.prod([radius] * d)  # r * r in 2-D, which pow(r, 2) is not always
    i = 0
    while i < busy.size:  # busy trials i..j-1 make one slab
        j = busy.size if whole else max(i + 1, int(edges.searchsorted(edges[i] + _SLAB, "right")) - 1)
        u = positions.random(out=gains[:edges[j] - edges[i]])
        for a in range(0, u.size, draws.size):  # `draws` holds the spare, then the fading
            part = u[a:a + draws.size]
            if isinstance(pl, PowerLaw):  # |x|^-alpha = (R^d u)^(-alpha/d)
                part *= volume
                _inverse_power(part, pl.alpha / d, draws)
            else:  # e^(-delta R sqrt(u)), in place
                np.sqrt(part, out=part)
                part *= radius
                part *= -pl.delta
                np.exp(part, out=part)
            part *= _fading(rng, f, draws[:part.size])
        sums[i:j] = np.add.reduceat(u, edges[i:j] - edges[i])  # out= is slower
        i = j
    interference[busy] = sums
    return interference


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
    with np.errstate(over="ignore", divide="ignore"):  # a gain past the float range, or 1/0, is inf: SIR 0
        if distances is not None:
            interference = _fixed_interference(
                rng, model.fading.interferer, p, _loss_vector(model, distances), size)
        else:
            interference = _ppp_interference(rng, model, points, window.radius, size)
        interference += window.tail_mean
        desired = _fading(rng, model.fading.desired, np.empty(size))
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
    values = np.empty(cfg.trials)
    done = 0
    for sir in _sir_chunks(model, mac, theta_ref, cfg):
        values[done:done + sir.size] = sir
        done += sir.size
    inf_mask = ~np.isfinite(values) | (values > _SIR_CLIP)
    values[inf_mask] = _SIR_CLIP
    return SirSamples(values, int(np.count_nonzero(inf_mask)))


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
