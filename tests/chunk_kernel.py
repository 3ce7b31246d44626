"""The simulator kernel that draws a chunk's PPP positions and ALOHA uniforms
whole, before any fading: the reference that tests/test_montecarlo.py compares
sirnet.montecarlo._batch_sir against, which reads them in slabs from a copy of
the stream. Both draw the same random stream, and both take a power-law PPP
gain from `_inverse_power`, so every SIR sample is `==`: this compares slab with
whole-chunk reading, and tests/dense_kernel.py checks the gain's accuracy.
"""

import math

import numpy as np

from sirnet.model import PowerLaw
from sirnet.montecarlo import _inverse_power

_SLAB = 1 << 15


def _fading_draw(rng, f, size):
    if f.m is None:
        return np.ones(size)
    if f.m == 1.0:
        return rng.standard_exponential(size)
    return rng.gamma(f.m, 1.0 / f.m, size)


def _loss_vector(model, distances, out=None):
    pl = model.path_loss
    with np.errstate(over="ignore"):
        return distances ** -pl.alpha if isinstance(pl, PowerLaw) else np.exp(
            np.multiply(-pl.delta, distances, out=out), out=out)


def _fade(rng, f, gain):
    for a in range(0, gain.size, _SLAB):
        gain[a:a + _SLAB] *= _fading_draw(rng, f, gain[a:a + _SLAB].size)
    return gain


def _batch_sir(model, p, points, window, distances, rng, size):
    """One chunk of SIR samples; a PPP window holds Poisson(`points`) transmitters."""
    case = model.fading
    if distances is not None:
        loss = _loss_vector(model, distances)
        n = loss.size
        rows = max(1, _SLAB // n)
        slabs = [(a, min(size, a + rows)) for a in range(0, size, rows)]
        interference = np.empty(size)
        if p < 1.0:
            active = np.empty((size, n), dtype=bool)  # every uniform precedes any fading
            for a, b in slabs:
                np.less(rng.random((b - a, n)), p, out=active[a:b])
            for a, b in slabs:
                hit = np.flatnonzero(active[a:b])
                gain = _fade(rng, case.interferer, loss[hit % n])
                interference[a:b] = np.bincount(hit // n, weights=gain, minlength=b - a)
        else:
            for a, b in slabs:
                f = _fading_draw(rng, case.interferer, (b - a) * n).reshape(b - a, n)
                np.vecdot(f, loss, out=interference[a:b])
    else:
        counts = rng.poisson(points, size)
        u = rng.random(int(counts.sum()))  # every position precedes any fading
        r, d, pl = window.radius, model.geometry.d, model.path_loss
        if isinstance(pl, PowerLaw):
            u *= math.prod([r] * d)
            with np.errstate(over="ignore", divide="ignore"):
                _inverse_power(u, pl.alpha / d, np.empty_like(u))
        else:
            _loss_vector(model, np.multiply(np.sqrt(u, out=u), r, out=u), out=u)
        gain = _fade(rng, case.interferer, u)
        busy = np.flatnonzero(counts)
        interference = np.zeros(size)
        interference[busy] = np.add.reduceat(gain, (np.cumsum(counts) - counts)[busy])
    interference += window.tail_mean
    desired = _fading_draw(rng, case.desired, size)
    with np.errstate(divide="ignore"):
        return np.where(interference > 0.0, desired / np.maximum(interference, 1e-300), np.inf)
