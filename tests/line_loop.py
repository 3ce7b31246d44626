"""The line sum taken one t at a time on heads built for the loop, and
Gauss-Legendre panels whose nodes are built on every call: the references
that tests/test_line_sums.py compares sirnet.contention.line_sums (one call
over many t, with cached heads) and sirnet.quadrature.gauss_legendre_panels
(with cached nodes) against, bit for bit.
"""

import numpy as np

from sirnet import contention
from sirnet.quadrature import _legendre_rule


def line_sums(alpha: float, ts: list[float], term, series) -> list[float]:
    """contention.line_sums called on each t alone, after its head cache is cleared."""
    contention._line_head.cache_clear()
    return [contention.line_sums(alpha, [t], term, series)[0] for t in ts]


def gauss_legendre_panels(f, edges, n: int) -> tuple[float, float]:
    """(value, abs_err) of the n- and 2n-point rules on every panel, with
    one call of f on the nodes of all panels, built here."""
    x_n, w_n = _legendre_rule(n)
    x_2n, w_2n = _legendre_rule(2 * n)
    a, b = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * np.concatenate([x_n, x_2n])
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    q_n = half * np.einsum("ij,j->i", fx[:, :n], w_n)
    q_2n = half * np.einsum("ij,j->i", fx[:, n:], w_2n)
    return float(np.cumsum(q_2n)[-1]), float(np.cumsum(np.abs(q_2n - q_n))[-1])
