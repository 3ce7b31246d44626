"""The simulator kernel with a dense trials x interferers fading matrix,
a gemv, and a sqrt / pow / repeat / bincount PPP reduction: the reference
that tests/test_montecarlo.py compares sirnet.montecarlo._batch_sir against,
which fades and sums only the active interferers and reduces each trial's
PPP points with add.reduceat. Both draw the same random stream.
"""

import numpy as np

from chunk_kernel import _fading_draw, _loss_vector


def _batch_sir(model, p, points, window, distances, rng, size):
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
