"""Quadrature for the semi-infinite capacity integrals.

The integrands here all carry an exp(-t) style weight, so a finite cutoff
plus an analytic tail estimate gives certifiable truncation. The capacity
integrals use fixed Gauss-Legendre panels with an embedded n-against-2n
error estimate (in the manner of QUADPACK, Piessens et al., 1983). The
integrand is called once per integral, on the nodes of every panel.
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


@functools.lru_cache(maxsize=64)
def _panel_nodes(edges: tuple[float, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the n- and 2n-point rules, one row per panel, and the panels'
    half widths; read-only, as _legendre_rule's arrays."""
    a, b = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * np.concatenate(
        [_legendre_rule(n)[0], _legendre_rule(2 * n)[0]])
    nodes.flags.writeable = half.flags.writeable = False
    return nodes, half


def gauss_legendre_panels(
    f: Callable[[np.ndarray], np.ndarray], edges, n: int
) -> tuple[float, float]:
    """Integrate f over [edges[0], edges[-1]] panel by panel; returns (value, abs_err).

    f maps a 1-D array of abscissae to an array of values and is called once,
    on the nodes of every panel. Each panel gets an n-point rule Q_n and a
    2n-point rule Q_2n; value sums the Q_2n and abs_err sums |Q_2n - Q_n|,
    in panel order, which bounds the error of Q_2n whenever Q_n's error
    dominates Q_2n's, as it does for integrands analytic on each panel.
    The nodes of the last 64 (edges, n) are cached (9 KB for 24 panels).
    """
    nodes, half = _panel_nodes(tuple(edges), n)
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    q_n, q_2n = _panel_sums(fx[:, :n], half, n), _panel_sums(fx[:, n:], half, 2 * n)
    # add.accumulate is cumsum (panel order) without its Python wrapper.
    acc = np.add.accumulate
    return float(acc(q_2n)[-1]), float(acc(np.abs(q_2n - q_n))[-1])


def _panel_sums(fx: np.ndarray, half: np.ndarray, n: int) -> np.ndarray:
    """Each panel's n-point rule on fx (panels x n, any leading axes); einsum keeps BLAS out."""
    return half * np.einsum("...ij,j->...i", fx, _legendre_rule(n)[1])


def integrate_decaying(
    f: Callable[[np.ndarray], np.ndarray], cutoff: float, pieces: int
) -> tuple[float, float]:
    """Integrate f over [0, inf) assuming exponential-type decay past `cutoff`.

    [0, cutoff] is split geometrically into `pieces` panels (resolving
    structure near 0), which go to gauss_legendre_panels(f, edges, _NODES);
    returns (value, abs_err). The neglected tail must be bounded by the
    caller's choice of cutoff.
    """
    return gauss_legendre_panels(f, _decaying_edges(cutoff, pieces), _NODES)


@functools.lru_cache(maxsize=64)
def _decaying_edges(cutoff: float, pieces: int) -> tuple[float, ...]:
    return (0.0,) + tuple(cutoff * (2.0 ** (i - pieces + 1)) for i in range(pieces))


def _decaying_rule(cutoff: float, pieces: int):
    """integrate_decaying's 2n-point nodes, one row per panel, and the function
    that sums an integrand's values on them (any leading axes) to the value
    integrate_decaying returns, without the n-point rule or error estimate."""
    nodes, half = _panel_nodes(_decaying_edges(cutoff, pieces), _NODES)

    def value(fx: np.ndarray) -> np.ndarray:
        return np.add.accumulate(_panel_sums(fx, half, 2 * _NODES), axis=-1)[..., -1]

    return np.ascontiguousarray(nodes[:, _NODES:]), value
