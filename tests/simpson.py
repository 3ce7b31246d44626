"""Adaptive Simpson quadrature: a scalar rule independent of the library's
Gauss-Legendre panels, kept as the reference that criterion 08 and the
capacity tests compare the closed forms against.
"""

from typing import Callable


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth) -> float:
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adapt(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + _adapt(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-9, depth: int = 48) -> float:
    """Adaptive Simpson rule on [a, b] to absolute tolerance tol."""
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth)


def integrate_decaying(f: Callable[[float], float], cutoff: float = 60.0, tol: float = 1e-9,
                       pieces: int = 6) -> float:
    """Integrate a scalar f over [0, cutoff], split geometrically into `pieces`
    panels (the panels of sirnet.quadrature.integrate_decaying), each by
    adaptive Simpson to tol / pieces."""
    edges = [0.0] + [cutoff * (2.0 ** (i - pieces + 1)) for i in range(pieces)]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += adaptive_simpson(f, a, b, tol=tol / pieces)
    return total
