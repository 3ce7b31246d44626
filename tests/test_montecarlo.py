"""Simulator plumbing: determinism, windowing, edge cases."""

import math
import resource
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import chunk_kernel
import dense_kernel
from sirnet import montecarlo, validation
from sirnet.analytic import success_probability
from sirnet.contention import gamma_ppp
from sirnet.model import (
    Aloha,
    Explicit,
    Fading,
    FadingCase,
    NetworkModel,
    PowerLaw,
    Ppp,
    RegularLine,
    SingleInterferer,
    Tdma,
    class_model,
    unit_ball_volume,
)
from sirnet.montecarlo import (
    Estimate,
    SimConfig,
    WindowError,
    estimate_capacity,
    estimate_gamma,
    resolve_window,
    simulate_ps,
    simulate_sir_samples,
)
from sirnet.specfun import DomainError

RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())
PPP4 = NetworkModel(Ppp(2), PowerLaw(4.0), RAY)


def test_deterministic_across_runs():
    cfg = SimConfig(trials=20000, seed=123)
    a = simulate_ps(PPP4, Aloha(0.1), 1.0, cfg)
    b = simulate_ps(PPP4, Aloha(0.1), 1.0, cfg)
    assert a == b


def test_deterministic_across_batch_sizes():
    # Streams are keyed by trial block, so a run's first 4,096 samples are a
    # 4,096-trial run's samples whatever the trial count; at p = 0.5 and
    # theta = 20 the window (R = 27.3) expects enough points per block to
    # split it into keyed sub-chunks.
    split = resolve_window(PPP4, Aloha(0.5), 20.0)
    keys = [key for key, _ in montecarlo._chunks(10000, 0.5 * math.pi * split.radius ** 2)]
    assert keys[:2] == [(0, 0), (0, 1)]
    for p, theta in ((0.2, 1.0), (0.5, 20.0)):
        cfg = SimConfig(trials=10000, seed=9)
        assert simulate_ps(PPP4, Aloha(p), theta, cfg) == simulate_ps(PPP4, Aloha(p), theta, cfg)
        long = simulate_sir_samples(PPP4, Aloha(p), cfg, theta_ref=theta).values
        short = simulate_sir_samples(
            PPP4, Aloha(p), SimConfig(trials=4096, seed=9), theta_ref=theta
        ).values
        assert long.size == 10000
        assert np.array_equal(long[:4096], short)


def test_p_zero_is_exact():
    est = simulate_ps(PPP4, Aloha(0.0), 1.0, SimConfig(trials=100))
    assert est == Estimate(1.0, 0.0, 100)


def test_window_errors():
    # alpha close to d needs an enormous window
    near = NetworkModel(Ppp(2), PowerLaw(2.05), RAY)
    with pytest.raises(WindowError):
        simulate_ps(near, Aloha(0.5), 10.0, SimConfig(trials=100))


def test_a_3d_window_past_the_point_cap_is_refused_before_drawing(monkeypatch):
    """alpha 3.2 in 3-D at theta 10 needs a window of radius 406: 2.8e8 points
    per trial, past pi 2000^2 = 1.26e7, the most a legal 2-D window holds."""
    model = class_model("ppp3", 3.2)
    assert resolve_window(model, Aloha(1.0), 10.0).radius < montecarlo._MAX_RADIUS
    monkeypatch.setattr(montecarlo, "_batch_sir", None)  # a draw would raise TypeError
    with pytest.raises(WindowError, match=r"3-D window holds 2.8e\+08 points, more than any 2-D one"):
        simulate_ps(model, Aloha(1.0), 10.0, SimConfig(trials=10))


def test_window_surface_is_exact_in_1d_and_2d():
    """The unit sphere's area d c_d, exactly 2 and 2 pi where the windows of
    the 52-case sweep are sized, and within an ulp or two of d c_d above."""
    assert (montecarlo._surface(1), montecarlo._surface(2)) == (2.0, 2.0 * math.pi)
    for d in range(1, 12):
        assert montecarlo._surface(d) == pytest.approx(d * unit_ball_volume(d), rel=1e-15)


def test_resolve_window_grows_with_theta():
    loose = resolve_window(PPP4, Aloha(0.2), 0.1)
    tight = resolve_window(PPP4, Aloha(0.2), 10.0)
    assert tight.radius > loose.radius > 2.0
    assert tight.tail_mean < loose.tail_mean


def test_tdma_rejected_on_ppp():
    with pytest.raises(DomainError):
        simulate_ps(PPP4, Tdma(2), 1.0, SimConfig(trials=10))


def test_simconfig_invariants():
    with pytest.raises(DomainError):
        SimConfig(trials=0)
    with pytest.raises(DomainError):
        SimConfig(seed=-1)


def test_single_interferer_matches_closed_form():
    model = NetworkModel(SingleInterferer(1.0), PowerLaw(4.0), RAY)
    cfg = SimConfig(trials=200_000, seed=4)
    est = simulate_ps(model, Aloha(0.5), 1.0, cfg)
    assert abs(est.z_score(success_probability(model, Aloha(0.5), 1.0).value)) < 3.5


def test_clipped_fraction_is_void_probability():
    """With Bernoulli access, all-silent slots give infinite SIR."""
    model = NetworkModel(Explicit((1.0, 2.0)), PowerLaw(4.0), RAY)
    cfg = SimConfig(trials=100_000, seed=1)
    samples = simulate_sir_samples(model, Aloha(0.3), cfg)
    frac = samples.clipped / cfg.trials
    void = 0.7 ** 2
    assert frac == pytest.approx(void, abs=3.5 * math.sqrt(void * (1 - void) / cfg.trials))
    assert samples.values.max() == montecarlo._SIR_CLIP


def test_ppp_samples_never_clip():
    # tail compensation keeps interference strictly positive
    samples = simulate_sir_samples(PPP4, Aloha(0.1), SimConfig(trials=20000, seed=2))
    assert samples.clipped == 0
    assert np.all(np.isfinite(samples.values))


def test_estimate_gamma_matches_analytic():
    g = gamma_ppp(2, 4.0, 1.0, Fading.rayleigh())
    cfg = SimConfig(trials=200_000, seed=6)
    est = estimate_gamma(PPP4, 1.0, cfg, p_probe=0.01)
    bias = g * g * 0.01 / 2.0
    assert abs(est.mean - g) < bias + 3.5 * est.stderr


def test_estimate_capacity_warns_on_clip():
    model = NetworkModel(Explicit((1.0,)), PowerLaw(4.0), RAY)
    with pytest.warns(UserWarning, match="clipped"):
        estimate_capacity(model, Aloha(0.5), SimConfig(trials=2000, seed=3))


def test_estimate_capacity_line():
    from sirnet.capacity import ergodic_capacity_tdma

    model = NetworkModel(RegularLine("one"), PowerLaw(2.0), RAY)
    cfg = SimConfig(trials=100_000, seed=8)
    est = estimate_capacity(model, Tdma(2), cfg, theta_ref=20.0)
    assert abs(est.z_score(ergodic_capacity_tdma(2.0, 2).value)) < 3.5


def test_estimate_z_score():
    e = Estimate(0.5, 0.01, 100)
    assert e.z_score(0.48) == pytest.approx(2.0, rel=1e-12)
    assert e.ci95[0] < 0.5 < e.ci95[1]
    exact = Estimate(1.0, 0.0, 100)
    assert exact.z_score(1.0) == 0.0
    assert exact.z_score(0.9) == math.inf


# One case per kernel branch, then PPP windows where some trials, and then
# whole chunks, draw no point at all (p = 0.01 expects 0.87 points a trial;
# p = 1e-7 expects 1.3e-6), and an explicit set with no active interferer.
KERNEL_CASES = [
    ("ppp2-a4", class_model("ppp2", 4.0), Aloha(0.1)),
    ("ppp2-a3", class_model("ppp2", 3.0), Aloha(0.1)),
    ("ppp1", class_model("ppp1", 3.0), Aloha(0.2)),
    ("exp2", class_model("exp2"), Aloha(0.2)),
    ("line1", class_model("line1", 3.0), Aloha(0.3)),
    ("line2", class_model("line2", 2.5), Aloha(0.05)),
    ("tdma", class_model("line1", 3.0), Tdma(2)),
    ("single", class_model("single", 4.0, r=1.2), Aloha(0.5)),
    ("explicit", class_model("explicit", distances=(1.0, 2.0, 3.0)), Aloha(0.3)),
    ("static", class_model("line2", 4.0, "0/0"), Aloha(0.3)),
    ("nakagami", class_model("ppp2", 4.0, "m4/m0.5"), Aloha(0.1)),
    ("ppp2-some-empty", class_model("ppp2", 4.0), Aloha(0.01)),
    ("ppp2-all-empty", class_model("ppp2", 4.0), Aloha(1e-7)),
    ("explicit-all-silent", class_model("explicit", distances=(1.0, 2.0)), Aloha(1e-7)),
]
KERNEL_SEEDS = (3, 17, 2024)


def _chunk_counts(model, mac, cfg):
    """The Poisson point count of every trial, chunk by chunk (each chunk's
    first draw)."""
    window = resolve_window(model, mac, 1.0)
    points = mac.p * math.pi * window.radius ** 2
    return [montecarlo._rng(cfg.seed, key).poisson(points, size)
            for key, size in montecarlo._chunks(cfg.trials, points)]


def test_sparse_kernel_matches_the_dense_kernel(monkeypatch):
    """The kernel that fades only active interferers and reduces PPP points
    per trial with add.reduceat draws the same stream as the dense kernel:
    equal success counts, and SIR samples within 1e-12."""
    for name, model, mac in KERNEL_CASES:
        for seed in KERNEL_SEEDS:
            cfg = SimConfig(trials=5000, seed=seed)  # a full and a partial block
            ps = simulate_ps(model, mac, 1.0, cfg)
            samples = simulate_sir_samples(model, mac, cfg)
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_batch_sir", dense_kernel._batch_sir)
                ref_ps = simulate_ps(model, mac, 1.0, cfg)
                ref = simulate_sir_samples(model, mac, cfg)
            assert ps == ref_ps, (name, seed)
            assert samples.clipped == ref.clipped, (name, seed)
            np.testing.assert_allclose(samples.values, ref.values, rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} seed {seed}")
    # The empty-trial cases reach what they are there for.
    model = class_model("ppp2", 4.0)
    some = [_chunk_counts(model, Aloha(0.01), SimConfig(trials=5000, seed=s))
            for s in KERNEL_SEEDS]
    assert all(0 < np.count_nonzero(c == 0) < c.size for chunks in some for c in chunks)
    assert any(c[-1] == 0 for chunks in some for c in chunks)
    empty = [c for s in KERNEL_SEEDS
             for c in _chunk_counts(model, Aloha(1e-7), SimConfig(trials=5000, seed=s))]
    assert any(not c.any() for c in empty)
    assert not any((montecarlo._rng(s, key).random((size, 2)) < 1e-7).any()
                   for s in KERNEL_SEEDS for key, size in montecarlo._chunks(5000, 2))


def test_kernel_matches_the_whole_chunk_kernel(monkeypatch):
    """Reading PPP positions and ALOHA uniforms slab by slab from a copy of the
    stream, while the stream itself jumps past them to the fading, gives the
    SIR samples and p_s of the kernel that draws them whole, bit for bit."""
    for name, model, mac in KERNEL_CASES:
        for seed in KERNEL_SEEDS:
            cfg = SimConfig(trials=5000, seed=seed)
            ps = simulate_ps(model, mac, 1.0, cfg)
            samples = simulate_sir_samples(model, mac, cfg)
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_batch_sir", chunk_kernel._batch_sir)
                ref_ps = simulate_ps(model, mac, 1.0, cfg)
                ref = simulate_sir_samples(model, mac, cfg)
            assert ps == ref_ps, (name, seed)
            assert samples.clipped == ref.clipped, (name, seed)
            assert np.array_equal(samples.values, ref.values), (name, seed)


def test_slab_size_changes_no_result(monkeypatch):
    """Drawing and reducing in slabs of 1, 7, 1000 or 2^30 numbers, down to
    one number or one trial row at a time, gives the p_s and SIR samples of
    the default slab exactly, on every kernel branch and on a window whose
    blocks split into keyed sub-chunks (ppp2, p = 0.5, theta = 20: 1,170
    points a trial)."""
    runs = [(name, model, mac, 1.0, 1000) for name, model, mac in KERNEL_CASES]
    runs.append(("ppp2-split", PPP4, Aloha(0.5), 20.0, 300))
    for name, model, mac, theta, trials in runs:
        cfg = SimConfig(trials=trials, seed=3)
        ps = simulate_ps(model, mac, theta, cfg)
        values = simulate_sir_samples(model, mac, cfg, theta_ref=theta).values
        for slab in (1, 7, 1000, 2 ** 30):
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_SLAB", slab)
                assert simulate_ps(model, mac, theta, cfg) == ps, (name, slab)
                assert np.array_equal(
                    simulate_sir_samples(model, mac, cfg, theta_ref=theta).values, values
                ), (name, slab)
    window = resolve_window(PPP4, Aloha(0.5), 20.0)
    assert montecarlo._CHUNK_BUDGET < 0.5 * math.pi * window.radius ** 2 * montecarlo._BLOCK


def test_scratch_buffers_change_no_result():
    """The kept buffers only ever hold what a slab writes before it reads:
    filled with nan they change no sample, and threads that simulate at once,
    each with its own buffers, give the samples of one thread alone."""
    cases = [(model, mac) for _, model, mac in KERNEL_CASES[:9]]
    cfg = SimConfig(trials=5000, seed=11)
    alone = [simulate_sir_samples(model, mac, cfg).values for model, mac in cases]
    for buf in montecarlo._SCRATCH.kept.values():
        buf.fill(np.nan if buf.dtype.kind == "f" else -1 if buf.dtype.kind == "i" else True)
    assert all(np.array_equal(simulate_sir_samples(model, mac, cfg).values, ref)
               for (model, mac), ref in zip(cases, alone))
    results = [None] * (2 * len(cases))

    def work(i):
        model, mac = cases[i % len(cases)]
        results[i] = simulate_sir_samples(model, mac, cfg).values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(values, alone[i % len(cases)]) for i, values in enumerate(results))


def test_simulator_memory_stays_in_slabs():
    """The sweep cases with the largest draws, at 10^4 trials, a line at
    p = 0.9 (392 terms, 8,192 trials), a wide PPP window (ppp2, alpha 3,
    p 0.1, theta 10, 2 x 10^4 trials) and a long ALOHA line (line1, alpha 2,
    p 0.3, theta 100) peak under 2 MB of traced memory, buffers the kernel
    keeps for reuse included. Whole-chunk positions and ALOHA masks took up
    to 4.9 MB on the first four, 29.2 MB on the wide window and 3.0 MB on
    the long line."""
    cfg = SimConfig(10_000, seed=3)
    cases = {c.name: c for c in validation.validation_cases()}
    capacity = [cases["capacity-ppp2-a4-p0.1"], cases["capacity-tdma-a2-m2"]]
    runs = [lambda c=c: estimate_capacity(c.model, c.mac, cfg, theta_ref=20.0) for c in capacity]
    runs += [
        lambda c=cases["ppp2-exp-th0.1"]: simulate_ps(c.model, c.mac, c.theta, cfg),
        lambda: simulate_ps(class_model("line1", 2.0), Aloha(0.9), 10.0, SimConfig(8192, seed=1)),
        lambda: simulate_ps(class_model("ppp2", 3.0), Aloha(0.1), 10.0, SimConfig(20_000, seed=3)),
        lambda: simulate_ps(class_model("line1", 2.0), Aloha(0.3), 100.0, cfg),
    ]
    tracemalloc.start()
    try:
        for i, run in enumerate(runs):
            montecarlo._SCRATCH.__init__()  # drop the kept buffers, so the run's own count
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            assert tracemalloc.get_traced_memory()[1] - base < 2e6, i
    finally:
        tracemalloc.stop()


def test_warm_sweep_maps_few_fresh_pages():
    """Slabs write into buffers kept from call to call, so a 10^4-trial sweep
    run a second time takes at most 50 minor page faults; a fresh 256 KB
    array per slab took thousands. So do ALOHA lines at p 0.3, 0.5 and 0.9,
    whose slabs each allocate their hits (p x 256 KB)."""
    cfg = SimConfig(10_000, seed=5)
    runs = [lambda: validation.run_validation(cfg)]
    runs += [lambda p=p: simulate_ps(class_model("line1", 2.0), Aloha(p), 10.0, cfg)
             for p in (0.3, 0.5, 0.9)]
    for i, run in enumerate(runs):
        run()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            run()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50, i


PRODUCT_POWERS = (1.5, 2.0, 2.5, 3.0, 4.0)  # ppp2 alpha 3, 4, 5 and 8, ppp1 alpha 2, 3 and 4


def test_product_gain_is_within_4_ulp_of_mpmath():
    """x^-k by products, one sqrt and one reciprocal stays within 4 ulp of
    40-digit mpmath for each special-cased k, on x = R^d u with u from 2^-53 to
    1 (log-spread) and R^d from 2 to 4e6; every other k is np.power's, bit for bit."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    u = np.concatenate([2.0 ** -rng.uniform(0.0, 53.0, 1500), rng.random(500)])
    for volume in (2.0, 2000.0, 4e6):
        x = u * volume
        for k in PRODUCT_POWERS:
            gain = montecarlo._inverse_power(x.copy(), k, np.empty_like(x))
            with mp.workdps(40):
                exact = [mp.mpf(float(v)) ** -mp.mpf(k) for v in x]
            ulps = [abs(mp.mpf(float(g)) - e) / math.ulp(float(e)) for g, e in zip(gain, exact)]
            assert max(ulps) <= 4, (k, volume)
        for k in (1.0 / 3.0, 4.0 / 3.0, 3.5, 4.5):
            assert np.array_equal(montecarlo._inverse_power(x.copy(), k, np.empty_like(x)),
                                  np.power(x, -k)), k


def test_a_uniform_of_zero_gives_an_infinite_gain_and_no_warning(monkeypatch):
    """A PPP position drawn at exactly 0 gives gain inf and SIR 0 on the
    product path and on np.power's, and the kernel raises no warning."""
    inverse_power = montecarlo._inverse_power

    def from_zero(x, k, spare):
        x[0] = 0.0
        return inverse_power(x, k, spare)

    monkeypatch.setattr(montecarlo, "_inverse_power", from_zero)
    for alpha in (3.0, 4.0, 4.5):  # k = 1.5, 2 and 2.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = simulate_sir_samples(class_model("ppp2", alpha), Aloha(0.1), SimConfig(500, 2)).values
        assert (values == 0.0).any(), alpha
    with np.errstate(divide="ignore"):
        for k in PRODUCT_POWERS + (3.5, 4.5):
            assert inverse_power(np.zeros(3), k, np.empty(3)).tolist() == [math.inf] * 3, k


def test_a_cached_stream_key_draws_a_fresh_seeding():
    """The Generator _rng gives for a (seed, key), set from the cached start
    state, draws what a fresh PCG64 of that SeedSequence draws, for block keys
    (b,) and sub-chunk keys (b, sub), on the first call and from the cache."""
    montecarlo._start.cache_clear()
    keys = [(0,), (3,), (0, 0), (2, 5)]
    for seed in (0, 7, 2 ** 40):
        for key in keys + keys:
            fresh = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
            rng = montecarlo._rng(seed, key)
            assert np.array_equal(rng.random(1000), fresh.random(1000)), (seed, key)
            assert np.array_equal(rng.standard_exponential(7), fresh.standard_exponential(7))
    info = montecarlo._start.cache_info()
    assert (info.misses, info.hits) == (12, 12)
