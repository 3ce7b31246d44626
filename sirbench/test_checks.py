"""Each output check passes on the program's real output and fails on a
deliberately wrong one: a perturbed value, z = 6, a truncated CSV, a wrong
argmax. Also checks that the tracer restores what it wraps, that the speed
sampler leaves its own time out, and that BENCHMARK.json names exactly the
metrics the runner prints. Runs in ~2 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from sirbench import checks, inputs, tracer  # noqa: E402

with open(os.path.join(HERE, "references.json")) as _fh:
    REFS = json.load(_fh)


def cli_output(argv: list[str]) -> str:
    from sirnet import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def mix_item(ident: str):
    for item_id, check, argv in inputs.CLI_MIX:
        if item_id == ident:
            return check, argv, REFS["cli"][ident]
    raise KeyError(ident)


# -- mc-sweep ---------------------------------------------------------------


def test_case_check_catches_a_perturbed_analytic_value():
    ref = REFS["mc"]["cases"]["ppp2-a4-th1"]
    ok = checks.check_case("c", ref, ref + 0.001, 0.003, ref, 5.0, checks.RTOL_CLOSED)
    bad = checks.check_case("c", ref * (1 + 1e-6), ref, 0.003, ref, 5.0, checks.RTOL_CLOSED)
    assert ok == [] and bad


def test_case_check_catches_z_of_6():
    ref, se = 0.6, 0.003
    assert checks.check_case("c", ref, ref + 4.9 * se, se, ref, 5.0, checks.RTOL_CLOSED) == []
    assert checks.check_case("c", ref, ref + 6.0 * se, se, ref, 5.0, checks.RTOL_CLOSED)
    assert checks.check_case("c", ref, ref - 6.0 * se, se, ref, 5.0, checks.RTOL_CLOSED)


def test_z2_bound():
    bound = REFS["mc"]["z2_mean_max"]
    assert checks.check_z2([1.0, -1.0] * 26, bound) == []
    assert checks.check_z2([1.6, -1.6] * 26, bound)
    assert checks.check_z2([], bound)


def test_probe_check():
    g = REFS["mc"]["probes"]["ppp2-a4"]
    bias = g * g * inputs.PROBE_P / 2.0
    assert checks.check_probe("p", g - bias, 0.15, g, inputs.PROBE_P, 5.0) == []
    assert checks.check_probe("p", g + bias + 6 * 0.15, 0.15, g, inputs.PROBE_P, 5.0)


# -- analytic-curves --------------------------------------------------------


def test_argmax_check_catches_a_wrong_argmax():
    ref = REFS["analytic"]["tdma_capacity"]["4.0"]
    table = {m: ref[m - 1] / m for m in (2, 3, 4)}
    assert checks.check_argmax(3, table, 3, "a") == []
    assert checks.check_argmax(2, table, 3, "a")
    assert checks.check_argmax(3, table, 2, "a")  # the documented optimum disagrees


def test_increasing_and_close():
    assert checks.check_increasing([1.0, 2.0, 3.0], "c") == []
    assert checks.check_increasing([1.0, 3.0, 2.0], "c")
    assert checks.close(1.0, 1.0 + 1e-12, checks.RTOL_CLOSED, "x") == []
    assert checks.close(1.0 + 1e-8, 1.0, checks.RTOL_CLOSED, "x")
    assert checks.close(None, 1.0, checks.RTOL_CLOSED, "x")
    assert checks.close(math.nan, 1.0, checks.RTOL_CLOSED, "x")


# -- cli-mix ----------------------------------------------------------------


@pytest.mark.parametrize("ident", ["contention-ppp2", "outage-line1", "outage-tdma-a2",
                                   "throughput-half", "capacity-ppp-a4", "throughput-tdma"])
def test_cli_check_passes_real_output_and_fails_truncated(ident):
    check, argv, ref = mix_item(ident)
    text = cli_output(argv)
    assert checks.check_cli(check, argv, text, ref, len(ref), 5.0, 1.0) == []
    lines = text.splitlines(keepends=True)
    truncated = "".join(lines[:-1])
    assert checks.check_cli(check, argv, truncated, ref, len(ref), 5.0, 1.0)
    headless = "".join(lines[:1] + lines[2:])
    assert checks.check_cli(check, argv, headless, ref, len(ref), 5.0, 1.0)
    cut_mid_row = text[: len(text) - 5]
    assert checks.check_cli(check, argv, cut_mid_row, ref, len(ref), 5.0, 1.0)


def test_cli_check_catches_perturbed_and_infinite_values():
    check, argv, ref = mix_item("outage-ppp2")
    text = cli_output(argv)
    rows = text.splitlines()
    fields = rows[3].split(",")
    value = float(fields[6])
    for wrong in (f"{value * 1.001:.10g}", "inf"):
        bad = "\n".join(rows[:3] + [",".join(fields[:6] + [wrong] + fields[7:])] + rows[4:])
        assert checks.check_cli(check, argv, bad + "\n", ref, len(ref), 5.0, 1.0)


def test_sandwich_and_sigma_gamma():
    header = checks.HEADERS["outage"]
    above = f"{checks.CSV_VERSION}\n{header}\nppp2,1/1,4,1,0.1,,0.9,0,1,closed-form,,,\n"
    ref = [{"ps": 0.9, "gamma": 4.0}]  # exp(-0.4) = 0.67 < 0.9
    problems = checks.check_cli("outage", ["outage"], above, ref, 1, 5.0, 1.0)
    assert any("sandwich" in p for p in problems)
    contention = (f"{checks.CSV_VERSION}\n{checks.HEADERS['contention']}\n"
                  "ppp2,1/1,4,,1,,2,0.6,closed-form,\n")
    problems = checks.check_cli("contention", ["contention"], contention, [{"gamma": 2.0}],
                                1, 5.0, 1.0)
    assert any("sigma*gamma" in p for p in problems)


def test_samples_fraction():
    check, argv, ref = mix_item("samples-ppp2")
    ps = ref[0]["ps"]
    n = 2000
    above = round(ps * n)
    body = "\n".join(["2.5"] * above + ["0.5"] * (n - above))
    text = f"# config-hash = x\n# seed = 1, trials = {n}\nsir\n{body}\n"
    assert checks.check_cli(check, argv, text, ref, n, 5.0, 1.0) == []
    body = "\n".join(["2.5"] * (above - 150) + ["0.5"] * (n - above + 150))
    text = f"# config-hash = x\n# seed = 1, trials = {n}\nsir\n{body}\n"
    assert checks.check_cli(check, argv, text, ref, n, 5.0, 1.0)


def test_exit_code_framing_of_validate():
    check, argv, ref = mix_item("outage-validate")
    argv = [a.format(seed=3) for a in argv]
    text = cli_output(argv)
    assert checks.check_cli(check, argv, text, ref, len(ref), 5.0, 1.0) == []
    assert checks.check_cli(check, argv, text.replace("# sirnet csv v1\n", ""), ref,
                            len(ref), 5.0, 1.0)


# -- tracer and BENCHMARK.json ----------------------------------------------


def test_tracer_spans_counts_and_uninstall():
    import sirnet
    from sirnet import capacity, quadrature

    original = capacity.ergodic_capacity_cp
    t = tracer.Tracer()
    t.install(sirnet)
    try:
        assert capacity.ergodic_capacity_cp is not original
        sirnet.ergodic_capacity_ppp(3.0, 2, 0.1)
    finally:
        t.uninstall()
    assert capacity.ergodic_capacity_cp is original
    assert getattr(quadrature.integrate_decaying, tracer.TRACED, False) is False
    names = [s[0] for s in t.spans]
    assert names[0] == "capacity.ergodic_capacity_ppp"
    quad = names.index("quadrature.integrate_decaying")
    assert names[t.spans[quad][3]] == "capacity.ergodic_capacity_cp"
    assert t.integrand_evals > 0
    metrics = tracer.per_layer(t, cli_failed=0, cli_bytes=0, overhead_s=0.0)
    assert [n for n, _ in tracer.PER_LAYER] == list(metrics)
    assert metrics["quadrature.integrals"]["value"] == 1
    assert metrics["capacity.cp.calls"]["value"] == 1
    assert 0.0 <= metrics["quadrature.self_s"]["value"] <= metrics["capacity.cp.s"]["value"]


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "wall_s", "peak_rss_mb", "call_p50_s"]
    assert [w["name"] for w in bench["workloads"]] == ["mc-sweep", "analytic-curves", "cli-mix"]


def test_speed_sampler_scales_and_leaves_out_its_own_time():
    from sirbench import run

    speed = run.Speed()
    c0, t0 = speed.clock(), time.perf_counter()
    with speed.sampling():
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
    assert len(speed.samples) >= 3
    assert speed.clock() - c0 == pytest.approx(time.perf_counter() - t0 - speed.spent, abs=1e-3)
    assert speed.factor(0) == pytest.approx(run.KERNEL_REF_S / (speed.spent / len(speed.samples)))
