"""Gauss-Legendre panels evaluated one panel at a time, with one integrand
call per panel: the reference that tests/test_quadrature.py compares
sirnet.quadrature.gauss_legendre_panels against, which makes one call for
every panel together.
"""

import numpy as np

from sirnet.quadrature import _legendre_rule


def gauss_legendre_panels(f, edges, n: int) -> tuple[float, float]:
    """(sum of the 2n-point panel values, sum of |Q_2n - Q_n|), panel by panel."""
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
