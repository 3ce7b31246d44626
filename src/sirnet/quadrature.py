"""Quadrature for the semi-infinite capacity integrals.

The integrands here all carry an exp(-t) style weight, so a finite cutoff
plus an analytic tail estimate gives certifiable truncation. The capacity
integrals use fixed Gauss-Legendre panels with an embedded n-against-2n
error estimate (in the manner of QUADPACK, Piessens et al., 1983).
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

__all__ = ["gauss_legendre_panels", "integrate_decaying"]

# Gauss-Legendre points per panel of integrate_decaying (its error estimate
# also uses twice as many).
_NODES = 16


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] for n points.

    Newton iteration on P_n from the three-term recurrence, started at
    Tricomi's estimate cos(pi (k - 1/4)/(n + 1/2)); the arrays are
    read-only because every caller shares them.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def gauss_legendre_panels(
    f: Callable[[np.ndarray], np.ndarray], edges, n: int
) -> tuple[float, float]:
    """Integrate f over [edges[0], edges[-1]] panel by panel; returns (value, abs_err).

    f takes an array of abscissae and returns an array. Each panel gets an
    n-point rule Q_n and a 2n-point rule Q_2n from one call of f on both
    node sets; value sums the Q_2n and abs_err sums |Q_2n - Q_n|, which
    bounds the error of Q_2n whenever Q_n's error dominates Q_2n's, as it
    does for integrands analytic on each panel.
    """
    x_n, w_n = _legendre_rule(n)
    x_2n, w_2n = _legendre_rule(2 * n)
    nodes = np.concatenate([x_n, x_2n])
    value = abs_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        fx = np.asarray(f(0.5 * (a + b) + half * nodes), dtype=float)
        q_n = half * float(w_n @ fx[:n])
        q_2n = half * float(w_2n @ fx[n:])
        value += q_2n
        abs_err += abs(q_2n - q_n)
    return value, abs_err


def integrate_decaying(
    f: Callable[[np.ndarray], np.ndarray], cutoff: float = 60.0, pieces: int = 6
) -> tuple[float, float]:
    """Integrate f over [0, inf) assuming exponential-type decay past `cutoff`.

    [0, cutoff] is split geometrically into `pieces` panels (resolving
    structure near 0), which go to gauss_legendre_panels(f, edges, _NODES);
    returns (value, abs_err). The neglected tail must be bounded by the
    caller's choice of cutoff.
    """
    edges = [0.0] + [cutoff * (2.0 ** (i - pieces + 1)) for i in range(pieces)]
    return gauss_legendre_panels(f, edges, _NODES)
