"""The spatial-capacity search that calls ergodic_capacity_ppp once per
objective evaluation: the reference that tests/test_spatial_capacity.py
compares sirnet.capacity.spatial_capacity_opt (one evaluator per search,
the prescan in one call) against, bit for bit.
"""

from sirnet.capacity import ergodic_capacity_ppp
from sirnet.optimize import golden_section_max
from sirnet.specfun import DomainError


def spatial_capacity_opt(alpha: float, d: int = 2, duplex: str = "full") -> tuple[float, float]:
    if duplex not in ("full", "half"):
        raise DomainError(f"duplex must be 'full' or 'half', got {duplex!r}")

    def objective(p: float) -> float:
        c = ergodic_capacity_ppp(alpha, d, p).value
        weight = p * (1.0 - p) if duplex == "half" else p
        return weight * c

    return golden_section_max(objective, 1e-6, 1.0 - 1e-6, tol=1e-7)
