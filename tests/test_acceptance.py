"""End-to-end acceptance gate.

Twelve numbered criteria covering constants, simulator cross-validation,
bounds, optimization targets, capacity identities, and reproducibility.
Each test prints a single pass/fail line for its criterion.
"""

import math
import time

import numpy as np
import pytest

from sirnet import analytic, capacity, contention, outage, throughput
from sirnet.cli import main as cli_main
from sirnet.model import (
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
    class_model,
)
from sirnet.montecarlo import SimConfig, estimate_gamma, simulate_sir_samples
from sirnet.optimize import golden_section_max
from simpson import integrate_decaying
from sirnet.validation import run_validation, validation_passed

RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())
RAY_STATIC = FadingCase(Fading.rayleigh(), Fading.none())
STATIC_RAY = FadingCase(Fading.none(), Fading.rayleigh())


def report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


def test_criterion_01_geometry_constants():
    tol = 1e-12
    ok = (
        abs(contention.c_d_constant(2, 4.0) - math.pi ** 2 / 2) < tol
        and abs(contention.c_d_constant(2, 3.0) - 4 * math.pi ** 2 / (3 * math.sqrt(3))) < tol
        and abs(contention.c_d_constant(1, 2.0) - math.pi) < tol
        and abs(contention.c_d_constant(1, 4.0) - math.pi / math.sqrt(2)) < tol
        and abs(contention.c_d_constant(1, 4.0) ** 2 - contention.c_d_constant(2, 4.0)) < tol
    )
    report(1, "geometry constants", ok)


def test_criterion_02_monte_carlo_sweep():
    start = time.monotonic()
    rows, checks = run_validation(SimConfig(trials=100_000, seed=7))
    elapsed = time.monotonic() - start
    ok_fraction = sum(r.ok for r in rows) / len(rows)
    ok = (
        len(rows) >= 50
        and ok_fraction >= 0.99
        and all(c for _, c in checks)
        and validation_passed(rows, checks)
        and elapsed < 600.0
    )
    report(2, f"simulator sweep ({len(rows)} cases, {ok_fraction:.1%} ok, {elapsed:.0f}s)", ok)


def _sandwich_cases(theta, p):
    """(p_s, gamma) pairs for every class with a linearizable outage slope."""
    models = [
        class_model("ppp2", 3.0),
        class_model("ppp2", 4.0),
        class_model("ppp2", 4.0, "1/0"),
        class_model("ppp1", 2.0),
        class_model("single", 4.0, r=1.2),
        class_model("single", 4.0, "1/0", r=1.2),
        class_model("explicit", 4.0, distances=(1.0, 2.0, 3.0)),
        class_model("exp2", delta=1.0),
    ]
    return [
        (analytic.success_probability(model, Aloha(p), theta).value,
         analytic.spatial_contention(model, Aloha(p), theta)) for model in models
    ] + [
        (outage.ps_line_alpha2_aloha(theta, p), contention.gamma_line_alpha2(theta)),
        (outage.ps_line_alpha4_aloha(theta, p), contention.gamma_line_alpha4(theta)),
        (outage.ps_ppp_nonfading_alpha4(theta, p),
         contention.gamma_ppp_nonfading_alpha4(theta)),
    ]


def test_criterion_03_sandwich_bounds():
    violations = 0
    thetas = [0.1 * 10 ** (2 * i / 9) for i in range(10)]
    ps = [0.1 * (i + 1) for i in range(10)]
    for theta in thetas:
        for p in ps:
            for p_s, gamma in _sandwich_cases(theta, p):
                if not (max(0.0, 1.0 - p * gamma) <= p_s + 1e-12
                        and p_s <= math.exp(-p * gamma) + 1e-12):
                    violations += 1
    report(3, f"sandwich bounds ({violations} violations)", violations == 0)


def test_criterion_04_partial_fading_ordering():
    import random

    rng = random.Random(42)
    strict = all(
        contention.gamma_single(RAY_STATIC, xi)
        > contention.gamma_single(RAY, xi)
        > contention.gamma_single(STATIC_RAY, xi)
        for xi in (rng.uniform(1e-9, 100.0) for _ in range(1000))
    )

    def single_ps(case, xi):  # at alpha 1 and theta 1 the distance r is xi
        model = class_model("single", 1.0, case, r=xi)
        return analytic.success_probability(model, Aloha(1.0), 1.0).value

    limits = True
    for xi in (0.5, 2.0, 10.0):  # Nakagami m = 2^10
        limits &= abs(single_ps("1/m1024", xi) - single_ps("1/0", xi)) < 2e-3
        limits &= abs(single_ps("m1024/1", xi) - single_ps("0/1", xi)) < 2e-3
    report(4, "partial-fading ordering and Nakagami limits", strict and limits)


def test_criterion_05_half_duplex_bound():
    worst = 1.0
    for i in range(61):
        gamma = 10.0 ** (-3 + 6 * i / 60)
        res = throughput.aloha_p_opt(gamma, "half")
        # grid-searched maximum of p(1-p)exp(-p gamma)
        _, grid_max = golden_section_max(
            lambda p: p * (1 - p) * math.exp(-p * gamma), 1e-9, 1.0 - 1e-9, tol=1e-10
        )
        worst = min(worst, res.lower_bound / grid_max)
    report(5, f"half-duplex throughput bound (worst ratio {worst:.4f})",
           0.986 <= worst <= 1.0 + 1e-12)


def test_criterion_06_tdma_reuse_optimization():
    alpha = 2.0
    hits = 0
    worst_ratio = 1.0
    ps_window_ok = True
    lo_win = 0.9 * (1.0 - 1.0 / (2 * alpha)) ** 2
    hi_win = 1.1 * math.exp(-1.0 / alpha)
    thetas = [10.0 ** (db / 10.0) for db in range(21)]
    for theta in thetas:
        res = throughput.tdma_m_opt(alpha, theta)
        hits += res.m_hat == res.m_opt

        def p_t(m):
            ps = throughput.tdma_ps_one_sided(alpha, theta, m)
            return ps * ps / m

        worst_ratio = min(worst_ratio, p_t(res.m_hat) / res.value)
        # success probability at the real-valued reuse optimum
        m_real, _ = golden_section_max(p_t, 1.0, 3.0 * res.m_bounds[1], tol=1e-6)
        ps_two = throughput.tdma_ps_one_sided(alpha, theta, m_real) ** 2
        ps_window_ok &= lo_win <= ps_two <= hi_win
    ok = hits / len(thetas) >= 0.8 and worst_ratio >= 0.98 and ps_window_ok
    report(6, f"TDMA reuse estimate ({hits}/{len(thetas)} exact, "
              f"worst ratio {worst_ratio:.4f})", ok)


def test_criterion_07_rate_optimization():
    ok = abs(throughput.theta_opt_fullduplex(4.0 * math.log(2.0), 2) - 1.0) < 1e-9
    alphas = [2.5 + 0.25 * i for i in range(11)]
    for alpha in alphas:
        ok &= abs(throughput.theta_opt_fullduplex(alpha, 2)
                  - throughput.theta_opt_fullduplex(alpha / 2.0, 1)) < 1e-12
        full = throughput.optimize_rate(alpha, 2, "full")
        half = throughput.optimize_rate(alpha, 2, "half")
        ok &= 0.095 <= full.p_opt <= 0.115
        ok &= 0.07 <= half.p_opt <= 0.09
        ok &= 1.07 <= full.t_max / half.t_max <= 1.13
    report(7, "rate optimization identities and windows", ok)


def test_criterion_08_capacity_dual_path():
    cps = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    ok = True
    for cp in cps:
        closed = capacity.ergodic_capacity_cp(2.0, cp).value
        quad = integrate_decaying(
            lambda u: math.log1p((u / cp) ** 2) * math.exp(-u), cutoff=60.0, tol=1e-12
        )
        ok &= abs(closed - quad) / quad <= 1e-6
        for boost in (1.5, 2.0, 2.5):
            c = capacity.ergodic_capacity_cp(boost, cp).value
            ok &= capacity.ergodic_capacity_cp_lower(boost, cp).value <= c
    # KS test: SIR^(2/alpha) is exponential with rate c_p for the Rayleigh PPP
    model = NetworkModel(Ppp(2), PowerLaw(4.0), RAY)
    cfg = SimConfig(trials=100_000, seed=11)
    samples = simulate_sir_samples(model, Aloha(0.1), cfg, theta_ref=100.0)
    cp = 0.1 * contention.c_d_constant(2, 4.0)
    u = np.sort(samples.values ** 0.5)
    f = 1.0 - np.exp(-cp * u)
    n = u.size
    grid = np.arange(1, n + 1) / n
    d_stat = max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))))
    crit = 1.628 / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    ok &= samples.clipped == 0 and d_stat < crit
    report(8, f"capacity dual path (KS D={d_stat:.4f} < {crit:.4f})", ok)


def test_criterion_09_spatial_capacity():
    ok = True
    full_popts = []
    for alpha in (2.5, 3.0, 4.0, 5.0):
        p_half, _ = capacity.spatial_capacity_opt(alpha, 2, "half")
        ok &= 0.09 <= p_half <= 0.13
        full_popts.append(capacity.spatial_capacity_opt(alpha, 2, "full")[0])
    ok &= all(a > b for a, b in zip(full_popts, full_popts[1:]))
    ok &= capacity.tdma_spatial_capacity(2.0)[0] == 2
    ok &= capacity.tdma_spatial_capacity(4.0)[0] == 3
    report(9, "spatial capacity optima", ok)


def test_criterion_10_tdma_sir_moments():
    model = NetworkModel(RegularLine("one"), PowerLaw(2.0), RAY)
    ok = True
    worst_z = 0.0
    for m in (1, 2, 4):
        cfg = SimConfig(trials=30_000, seed=5)
        samples = simulate_sir_samples(model, Tdma(m), cfg, theta_ref=400.0 * m * m)
        vals = samples.values
        n = vals.size
        target_sqrt, target_sir = capacity.tdma_sir_moments(m)
        sq = np.sqrt(vals)
        z1 = abs(float(sq.mean()) - target_sqrt) / (float(sq.std(ddof=1)) / math.sqrt(n))
        z2 = abs(float(vals.mean()) - target_sir) / (float(vals.std(ddof=1)) / math.sqrt(n))
        worst_z = max(worst_z, z1, z2)
        ok &= z1 < 3.0 and z2 < 3.0
        scaled = math.pi * sq / m
        for t in (1.0, 2.0, 3.0):
            frac = float(np.count_nonzero(scaled < t)) / n
            target = capacity.tdma_sqrt_sir_cdf(t)
            se = math.sqrt(target * (1.0 - target) / n)
            z = abs(frac - target) / se
            worst_z = max(worst_z, z)
            ok &= z < 3.0
    report(10, f"TDMA SIR moments and cdf (worst z={worst_z:.2f})", ok)


def test_criterion_11_finite_difference_contention():
    r = 1.2
    cases = [
        (NetworkModel(Ppp(2), PowerLaw(4.0), RAY), 1.0,
         contention.gamma_ppp(2, 4.0, 1.0, Fading.rayleigh())),
        (NetworkModel(Ppp(2), PowerLaw(3.0), RAY), 1.0,
         contention.gamma_ppp(2, 3.0, 1.0, Fading.rayleigh())),
        (NetworkModel(Ppp(2), PowerLaw(4.0), RAY_STATIC), 1.0,
         contention.gamma_ppp(2, 4.0, 1.0, Fading.none())),
        (NetworkModel(Ppp(2), PowerLaw(4.0), FadingCase(Fading.none(), Fading.none())),
         1.0, contention.gamma_ppp_nonfading_alpha4(1.0)),
        (NetworkModel(Ppp(1), PowerLaw(2.0), RAY), 1.0,
         contention.gamma_ppp(1, 2.0, 1.0, Fading.rayleigh())),
        (NetworkModel(Ppp(1), PowerLaw(4.0), RAY), 1.0,
         contention.gamma_ppp(1, 4.0, 1.0, Fading.rayleigh())),
        (NetworkModel(Ppp(2), ExponentialLaw(1.0), RAY), 1.0,
         contention.gamma_exp_pathloss(1.0, 1.0)),
        (NetworkModel(RegularLine("one"), PowerLaw(2.0), RAY), 1.0,
         contention.gamma_line_alpha2(1.0)),
        (NetworkModel(RegularLine("one"), PowerLaw(4.0), RAY), 1.0,
         contention.gamma_line_alpha4(1.0)),
        (NetworkModel(SingleInterferer(r), PowerLaw(4.0), RAY), 1.0,
         contention.gamma_single(RAY, r ** 4)),
    ]
    p_probe = 1e-2
    cfg = SimConfig(trials=100_000, seed=13)
    ok = True
    for model, theta, gamma in cases:
        est = estimate_gamma(model, theta, cfg, p_probe=p_probe)
        bias = gamma * gamma * p_probe / 2.0
        ok &= abs(est.mean - gamma) < bias + 3.0 * est.stderr
    report(11, f"finite-difference contention ({len(cases)} classes)", ok)


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["validate", "--quick", "--seed", "7", "--out", str(a)])
    code_b = cli_main(["validate", "--quick", "--seed", "7", "--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    report(12, "deterministic validation output", code_a == 0 and code_b == 0 and same)
