"""Outage probability, spatial contention, throughput optima, and ergodic
capacity of interference-limited wireless networks, with a Monte Carlo
cross-validation suite.

All links have unit distance and unit-intensity interferer processes;
success means the signal-to-interference ratio exceeds a threshold theta.
"""

from .analytic import ergodic_capacity, spatial_contention, success_probability
from .capacity import (
    CapacityResult,
    ergodic_capacity_ppp,
    ergodic_capacity_ppp_lower,
    ergodic_capacity_tdma,
    ergodic_capacity_tdma_bounds,
    spatial_capacity_opt,
    tdma_sir_moments,
    tdma_spatial_capacity,
    tdma_sqrt_sir_cdf,
)
from .contention import (
    UnsupportedClassError,
    c_d_constant,
    equivalent_disk_radius,
    gamma_exp_pathloss,
    gamma_explicit,
    gamma_line_alpha2,
    gamma_line_alpha4,
    gamma_line_taylor,
    gamma_ppp,
    gamma_ppp_nonfading_alpha4,
    gamma_single,
    gamma_tdma_line,
    transmission_capacity_density,
)
from .model import (
    Aloha,
    Explicit,
    ExponentialLaw,
    Fading,
    FadingCase,
    NetworkModel,
    PowerLaw,
    Ppp,
    RegularLine,
    SingleInterferer,
    Tdma,
    effective_distance,
    format_model,
    parse_model,
    unit_ball_volume,
)
from .montecarlo import (
    Estimate,
    SimConfig,
    SirSamples,
    WindowError,
    empirical_ccdf,
    estimate_capacity,
    estimate_gamma,
    simulate_ps,
    simulate_sir_samples,
)
from .outage import (
    SuccessProbability,
    ps_exp_pathloss,
    ps_explicit,
    ps_explicit_partial_exact,
    ps_line_alpha2_aloha,
    ps_line_alpha4_aloha,
    ps_ppp,
    ps_ppp_nonfading_alpha4,
    ps_single,
    ps_tdma_line,
)
from .specfun import DomainError
from .throughput import (
    RateOptimum,
    ThroughputResult,
    aloha_p_opt,
    optimize_rate,
    tdma_m_opt,
    tdma_ps_one_sided,
    theta_opt_fullduplex,
)

__version__ = "0.1.0"
