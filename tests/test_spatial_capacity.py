"""spatial_capacity_opt against the search that integrates C(p) anew for
every objective evaluation, and its capacity evaluator against
ergodic_capacity_cp, compared with ==."""

import math

import pytest

from sirnet import capacity
from sirnet.capacity import ergodic_capacity_cp, spatial_capacity_opt
from sirnet.optimize import _prescan_grid
from sirnet.specfun import DomainError

import spatial_search

CASES = ([(alpha, 1) for alpha in (1.5, 2.0, 2.5, 3.0, 4.0, 6.0)]
         + [(alpha, 2) for alpha in (2.5, 3.0, 3.5, 4.0, 5.0, 8.0, 20.0, 60.0)])


@pytest.mark.parametrize("duplex", ["full", "half"])
@pytest.mark.parametrize("alpha,d", CASES)
def test_search_matches_the_reference(alpha, d, duplex):
    assert spatial_capacity_opt(alpha, d, duplex) == spatial_search.spatial_capacity_opt(alpha, d, duplex)


@pytest.mark.parametrize("alpha,d", [(100.0, 2), (2.0, 2), (1.0, 1), (0.5, 2), (3.0, 3),
                                     (float("inf"), 2)])
@pytest.mark.parametrize("duplex", ["full", "half", "both"])
def test_refusals_match_the_reference(alpha, d, duplex):
    with pytest.raises(DomainError) as expected:
        spatial_search.spatial_capacity_opt(alpha, d, duplex)
    with pytest.raises(DomainError) as got:
        spatial_capacity_opt(alpha, d, duplex)
    assert str(got.value) == str(expected.value)


def test_alpha_100_overflows_at_the_first_prescan_point():
    cp = 1e-6 * capacity._c_p(100.0, 2, 1.0)
    with pytest.raises(DomainError, match=f"overflows at boost 50.0, c_p {cp}$"):
        spatial_capacity_opt(100.0, 2)


@pytest.mark.parametrize("boost", [1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 10.0, 30.0])
def test_evaluator_matches_ergodic_capacity_cp(boost):
    cd = capacity._c_p(2.0 * boost, 2, 1.0)
    cps = [p * cd for p in _prescan_grid(1e-6, 1.0 - 1e-6)]
    cps += [1e-3, 0.0123, 0.5, 1.0, 2.0, 7.25, 60.0, 1e3]  # 39 values: a partial last block
    cps = [c for c in cps if boost * math.log(60.0 / c) <= 709.0]
    assert capacity._capacity_values(boost)(cps) == [ergodic_capacity_cp(boost, c).value for c in cps]
    assert capacity._capacity_values(boost)(cps[-1:]) == [ergodic_capacity_cp(boost, cps[-1]).value]


def test_evaluator_refuses_like_ergodic_capacity_cp():
    with pytest.raises(DomainError) as expected:
        ergodic_capacity_cp(30.0, 1e-9)
    with pytest.raises(DomainError) as got:
        capacity._capacity_values(30.0)([0.5, 1.0, 2.0, 3.0, 0.1, 1e-9])
    assert str(got.value) == str(expected.value)
