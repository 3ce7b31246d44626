"""The line sum taken one t at a time, with its head and tail coefficients
built on every call, and Gauss-Legendre panels whose nodes are built on every
call: the references that tests/test_line_sums.py compares
sirnet.contention.line_sums (with cached heads) and
sirnet.quadrature.gauss_legendre_panels (with cached nodes) against, bit for
bit.
"""

import math

import numpy as np

from sirnet.contention import _MAX_HEAD
from sirnet.quadrature import _legendre_rule
from sirnet.specfun import DomainError, hurwitz_zeta


def line_sums(alpha: float, ts: list[float], term, series) -> list[float]:
    """sum_{i>=1} term(t i^-alpha) for each t: a head over i < N and the tail
    sum_k c_k t^k zeta(k alpha, N), added by math.fsum, one t at a time."""
    heads, sums = {}, []  # N -> (i^-alpha for i < N, c_k zeta(k alpha, N))
    for t in ts:
        q = (t / 0.05) ** (1.0 / alpha) if t < 1e300 else t ** (1.0 / alpha) * 20.0 ** (1.0 / alpha)
        if not q < _MAX_HEAD:
            raise DomainError(f"theta {t:g} at alpha {alpha:g} needs over {_MAX_HEAD} line terms")
        n = 1 << max(math.frexp(q)[1], 5)  # q = f 2^e with f in [0.5, 1), so N = 2^e
        if n not in heads:
            heads[n] = (np.arange(1, n, dtype=float) ** -alpha,
                        [c * hurwitz_zeta(k * alpha, n) for k, c in enumerate(series, start=1)])
        i_pow, coefs = heads[n]
        x = t / n ** alpha
        terms = math.ceil(-56.0 * math.log(2.0) / math.log(x)) if x > 0.0 else 0
        parts = term(t * i_pow).tolist()
        try:
            parts += [c * t ** k for k, c in enumerate(coefs[:terms], start=1)]
        except OverflowError:  # t^k passes the float range, c t^k does not
            parts += [math.copysign(math.exp(k * math.log(t) + math.log(abs(c))), c) if c
                      else 0.0 for k, c in enumerate(coefs[:terms], start=1)]
        sums.append(math.fsum(parts))
    return sums


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
