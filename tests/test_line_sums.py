"""contention.line_sums and the capacity integrals against the per-theta
loop of tests/line_loop.py, bit for bit, and the memory that a capacity
call takes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sirnet
from sirnet import capacity, contention, outage, quadrature
from sirnet.contention import interference_gamma, interference_log_ps, line_sums, power_series
from sirnet.model import Fading

import line_loop

ALPHAS = (1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 20.0)
FADINGS = (Fading.none(), Fading.rayleigh(), Fading.nakagami(0.5), Fading.nakagami(4.0))


def grid_terms():
    """(term, series) of every line sum: 1 - L_h and -log(1 - p (1 - L_h))
    for each fading and p, and the TDMA log1p."""
    yield np.log1p, power_series(Fading.rayleigh(), 1.0)
    for fading in FADINGS:
        yield (lambda x, f=fading: interference_gamma(x, f)), power_series(fading)
        for p in (0.01, 0.3, 1.0):
            yield (lambda x, f=fading, p=p: interference_log_ps(x, p, f)), power_series(fading, p)


def test_line_sums_equal_the_per_theta_loop():
    """One call over theta in [1e-6, 1e13] in a shuffled order, so that it
    spans several head lengths in scattered places, equals one-theta calls on
    heads built afresh: heads of 2^13 to 2^16 terms (slow in the loop) for the
    TDMA term and one ALOHA term only, and alpha 20 at theta 5.9e28, where
    theta^k passes the float range for k >= 11."""
    rng = np.random.default_rng(5)
    compared = 0
    for alpha in ALPHAS:
        thetas = np.logspace(-6, 13, 241)
        q = (thetas / 0.05) ** (1.0 / alpha)
        short = rng.permutation(thetas[q < 2 ** 12]).tolist()
        long = thetas[(2 ** 12 <= q) & (q < 2 ** 16)][::3].tolist()
        if alpha == 20.0:
            short.append(5.9e28)
        for i, (term, series) in enumerate(grid_terms()):
            for ts in (short, long) if i in (0, 16) else (short,):
                got = line_sums(alpha, ts, term, series)
                assert got == line_loop.line_sums(alpha, ts, term, series), alpha
                compared += len(got)
    assert compared > 15_000
    with pytest.raises(OverflowError):
        5.9e28 ** 11


def capacity_values():
    """Every capacity that runs through line_sums or the panel nodes, as
    (value, abs_err) pairs."""
    values = [(c.value, c.abs_err) for c in
              [capacity.ergodic_capacity_tdma(alpha, m) for alpha in (1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
               for m in (1, 2, 3, 4)]
              + [capacity.ergodic_capacity_ppp(alpha, d, p) for alpha, d in
                 ((2.5, 2), (3.0, 2), (4.0, 2), (5.0, 2), (3.0, 1)) for p in (0.05, 0.3, 1.0)]]
    values.append(capacity.tdma_spatial_capacity(4.0, range(2, 5)))
    values += [capacity.spatial_capacity_opt(3.0, 2, duplex) for duplex in ("full", "half")]
    return values


def test_capacities_equal_the_per_theta_loop(monkeypatch):
    contention._line_head.cache_clear()
    quadrature._panel_nodes.cache_clear()
    cold = capacity_values()
    assert capacity_values() == cold  # from the caches
    with monkeypatch.context() as m:
        m.setattr(outage, "line_sums", line_loop.line_sums)
        m.setattr(quadrature, "gauss_legendre_panels", line_loop.gauss_legendre_panels)
        assert capacity_values() == cold


def test_cached_heads_and_nodes_are_read_only():
    i_pow, zetas = contention._line_head(3.0, 5)
    nodes, half = quadrature._panel_nodes((0.0, 1.0, 2.0), 4)
    for array in (i_pow, zetas, nodes, half):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert isinstance(power_series(Fading.rayleigh(), 0.3), tuple)


def test_capacity_calls_stay_small():
    """A TDMA capacity curve on the line product (alpha 3; alpha 2 and 4 take
    closed forms) and a PPP spatial-capacity search each allocate under
    256 KB at their peak, and neither imports numpy.ma (about 1 MB of
    resident memory)."""
    script = (
        "import sys, tracemalloc\n"
        "from sirnet import capacity\n"
        "tracemalloc.start()\n"
        "capacity.tdma_spatial_capacity(3.0, range(2, 5))\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "tracemalloc.reset_peak()\n"
        "capacity.spatial_capacity_opt(3.0, 2, 'half')\n"
        "opt_peak = tracemalloc.get_traced_memory()[1]\n"
        "tracemalloc.stop()\n"
        "capacity.spatial_capacity_opt(3.0)\n"
        "print(peak, opt_peak, 'numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(sirnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout.split()
    assert int(out[0]) < 256 * 1024
    assert int(out[1]) < 256 * 1024
    assert out[2] == "False"


def test_one_head_per_length_is_built_once(monkeypatch):
    """A call over many thetas builds each head length's zeta tail once, and
    a second call builds none."""
    calls = []
    real = contention.hurwitz_zeta

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(contention, "hurwitz_zeta", counted)
    contention._line_head.cache_clear()
    thetas = np.logspace(-3, 6, 50).tolist()
    heads = {max(5, math.frexp((t / 0.05) ** (1.0 / 3.0))[1]) for t in thetas}
    line_sums(3.0, thetas, np.log1p, power_series(Fading.rayleigh(), 1.0))
    assert len(calls) == 13 * len(heads)
    line_sums(3.0, thetas, np.log1p, power_series(Fading.rayleigh(), 1.0))
    assert len(calls) == 13 * len(heads)
