"""Small 1-D maximization: golden-section search from the best point of an
equispaced prescan. Nothing checks that the function is unimodal."""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["golden_section_max", "NumericFailure"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN = 31


class NumericFailure(RuntimeError):
    """A numeric search failed to bracket or refine an optimum."""


def golden_section_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """Maximize f on [a, b]; returns (x_max, f(x_max)).

    A coarse prescan locates the best of 31 (_PRESCAN) equispaced points, and
    golden section refines between its two neighbors (the bracket is cut
    at a or b when the best point is an edge). Nothing checks that f is
    unimodal or that the maximum is interior: a peak narrower than the
    prescan spacing can be missed.
    """
    if not b > a:
        raise NumericFailure(f"invalid bracket [{a}, {b}]")
    xs = _prescan_grid(a, b)
    fs = [f(x) for x in xs]
    k = max(range(_PRESCAN), key=fs.__getitem__)
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, _PRESCAN - 1)]
    c = hi - (hi - lo) * _INVPHI
    d = lo + (hi - lo) * _INVPHI
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INVPHI
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INVPHI
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _prescan_grid(a: float, b: float) -> list[float]:
    """The points at which golden_section_max's prescan evaluates f."""
    return [a + (b - a) * i / (_PRESCAN - 1) for i in range(_PRESCAN)]
