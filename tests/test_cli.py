"""CLI surface: exit codes, CSV schema, reproducibility."""

import contextlib
import io
import math
import shlex
import time
import warnings

import numpy as np
import pytest
from test_readme import sirnet_lines

from sirnet import validation
from sirnet.cli import _build_parser, _Csv, _join_dash_values, _parse, _parse_range, main
from sirnet.model import (
    Aloha,
    Fading,
    FadingCase,
    NetworkModel,
    PowerLaw,
    SingleInterferer,
    format_model,
)
from sirnet.montecarlo import simulate_ps
from sirnet.specfun import DomainError, zeta


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_contention_known_values(tmp_path):
    code, text = run(tmp_path, "contention", "--class", "ppp2", "--alpha", "4", "--theta", "1")
    assert code == 0
    assert text.startswith("# sirnet csv v1\n")
    header, rows = data_rows(text)
    assert header == ["class", "case", "alpha", "delta", "theta", "xi",
                      "gamma", "sigma", "method", "note"]
    assert float(rows[0]["gamma"]) == pytest.approx(math.pi ** 2 / 2, rel=1e-9)

    code, text = run(tmp_path, "contention", "--class", "exp2", "--delta", "1",
                     "--theta", "1")
    _, rows = data_rows(text)
    assert float(rows[0]["gamma"]) == pytest.approx(math.pi ** 3 / 6, rel=1e-9)

    code, text = run(tmp_path, "contention", "--class", "single", "--xi", "1",
                     "--case", "1/0")
    _, rows = data_rows(text)
    assert float(rows[0]["gamma"]) == pytest.approx(1 - math.exp(-1.0), rel=1e-9)


def test_contention_theta_db_grid(tmp_path):
    code, text = run(tmp_path, "contention", "--class", "ppp2", "--alpha", "4",
                     "--theta-db", "0:10:20")
    assert code == 0
    _, rows = data_rows(text)
    assert [float(r["theta"]) for r in rows] == pytest.approx([1.0, 10.0, 100.0])
    # gamma scales as theta^(1/2) at alpha = 4
    assert float(rows[2]["gamma"]) / float(rows[0]["gamma"]) == pytest.approx(10.0, rel=1e-9)


def test_contention_table_ends_with_the_3d_ppp_and_an_empty_note(tmp_path):
    code, text = run(tmp_path, "contention", "--table3", "--theta", "1")
    assert code == 0
    header, rows = data_rows(text)
    assert header[-1] == "note" and {r["note"] for r in rows} == {""}
    assert [(r["class"], r["case"], r["alpha"]) for r in rows[-1:]] == [("ppp3", "1/1", "4")]
    assert float(rows[-1]["gamma"]) == pytest.approx(
        4 / 3 * math.pi * (3 * math.pi / 4) / math.sin(3 * math.pi / 4), rel=1e-9)
    # line1 at alpha 2 and 4 has closed forms, not the line product
    assert {r["method"] for r in rows} == {"closed-form"}


@pytest.mark.parametrize("argv", [
    "contention --class ppp3 --case 1/0",
    "contention --class ppp3 --case 1/m2 --alpha 5 --theta 0.5,2",
    "outage --class ppp3 --alpha 4 --theta 1 --p 0.1",
    "capacity --d 3 --alpha 4",
    "throughput --rate --d 3 --alpha 4",
])
def test_3d_ppp_takes_the_path_of_every_other_model(capsys, argv):
    assert main(argv.split()) == 0
    _, rows = data_rows(capsys.readouterr().out)
    assert rows and all(r.get("class", "ppp3") == "ppp3" and r.get("d", "3") == "3"
                        for r in rows)
    assert all(r.get("note", "") == "" for r in rows)


@pytest.mark.parametrize("argv,flag", [
    ("capacity --alpha 3 --m 4 --p 0.1", "--m"),
    ("contention --table3 --class single", "--class"),
    ("contention --table3 --class ppp2", "--class"),
    ("contention --table3 --case 1/1", "--case"),
    ("contention --table3 --xi 5", "--xi"),
    ("contention --table3 --distances 1,2", "--distances"),
    ("contention --table3 --alpha 4 --theta 1", "--alpha"),
    ("contention --table3 --delta 1", "--delta"),
    ("throughput --tdma --gamma 7", "--gamma"),
    ("throughput --tdma --duplex full --theta-db 0", "--duplex"),
    ("throughput --tdma --d 2", "--d"),
    ("capacity --tdma --m 1 --p 0.7 --d 5", "--p"),
    ("capacity --tdma --m 1 --d 2", "--d"),
    ("throughput --rate --alpha 3 --gamma 9 --theta-db 4", "--gamma"),
    ("throughput --rate --alpha 3 --theta-db 4", "--theta-db"),
    ("throughput --rate --alpha-range 3:1:4 --alpha 3", "--alpha"),
    ("throughput --gamma 2 --alpha 9 --d 7", "--alpha"),
    ("throughput --gamma 2 --d 7", "--d"),
    ("throughput --alpha-range 3:1:4", "--alpha-range"),
    ("throughput --theta-db 4", "--theta-db"),
    ("throughput --tdma --theta-db 0 --rate", "--rate"),
    ("throughput --tdma --alpha-range 3:1:4", "--alpha-range"),
    # Refused after the config is read, so model.cfg is a real one.
    ("outage --config model.cfg --class ppp2", "--class"),
    ("outage --config model.cfg --alpha 4", "--alpha"),
    ("outage --config model.cfg --case 1/1", "--case"),
    ("outage --config model.cfg --delta 1", "--delta"),
    ("outage --config model.cfg --r 2", "--r"),
    ("outage --config model.cfg --distances 1,2", "--distances"),
])
def test_a_flag_the_mode_never_reads_is_refused(capsys, tmp_path, monkeypatch, argv, flag):
    """Even at its default value, which a mode that reads the flag fills in."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.cfg").write_text("geometry = ppp\npathloss.alpha = 4\n")
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and err.endswith(f" does not read {flag}\n")


@pytest.mark.parametrize("argv,flag", [
    ("contention --class ppp2 --alpha 4 --xi 5", "--xi"),
    ("contention --class ppp2 --delta 2", "--delta"),
    ("contention --class single --xi 2 --alpha 3", "--alpha"),
    ("outage --class line1 --alpha 2 --m 2 --p 0.3", "--p"),
    ("outage --class ppp2 --trials 5 --seed 3", "--trials"),
    ("outage --class ppp2 --r 3", "--r"),
    ("outage --class ppp2 --distances 1,2", "--distances"),
    ("outage --class exp2 --alpha 3", "--alpha"),
    ("outage --theta 1 --theta-db 3", "--theta"),
    ("validate --quick --trials 100 --class single", "--quick"),
    # The first unread flag in argv order, by its full name where abbreviated.
    ("contention --table3 --xi 2 --cas 1/1", "--xi"),
    ("contention --table3 --cas 1/1 --xi 2", "--case"),
])
def test_a_flag_given_a_value_that_is_never_read_is_refused(capsys, argv, flag):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {argv.split()[0]} does not read {flag}\n")


# One base argv per mode of each command, every one valid as it stands.
MODES = [
    "contention --table3 --theta 1",
    "contention --class single --xi 2",
    *(f"contention --class {cls} --theta 1" for cls in ("ppp1", "ppp2", "ppp3", "line1", "exp2")),
    "contention --class explicit --distances 1,2 --theta 1",
    "outage --class ppp2 --theta-db 3",
    "outage --class line1 --p 0.2 --theta 1",
    "outage --class line1 --m 2 --theta 1",
    "outage --class single --theta 1",
    "outage --class explicit --distances 1,2 --theta 1",
    "outage --class exp2 --theta 1",
    "outage --config model.cfg --theta 1",
    "outage --validate --trials 200 --seed 1 --theta 1",
    "throughput --gamma 2",
    "throughput --tdma --theta-db 0:5:10",
    "throughput --rate --alpha 3",
    "throughput --rate --alpha-range 4:1:5",
    "capacity --p 0.1",
    "capacity --tdma --m 1:2",
    "validate --quick --class single",
    "samples --config model.cfg --trials 100",
]
# A value for each flag that differs from its default and from the bases' own.
OTHER_VALUES = {"theta": "0.5", "theta_db": "2", "cls": "line2", "alpha": "5", "delta": "2",
                "xi": "3", "case": "1/0", "distances": "1,3", "r": "2", "p": "0.3", "m": "3",
                "config": "other.cfg", "trials": "300", "seed": "5", "gamma": "3",
                "duplex": "half", "d": "1", "alpha_range": "3:1:4"}


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("mode", MODES)
def test_each_flag_of_a_mode_changes_its_output_or_is_refused(tmp_path, monkeypatch, mode):
    """Each flag of the mode's parser (except --out, which main reads for every command),
    given a value that is not its default, changes the CSV or is refused as unread; or
    it builds a model with no closed form (ppp2 has no --m, exp2 no --case but 1/1),
    which the dispatcher refuses by name. A flag the command ignored would leave the
    CSV as it was."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.cfg").write_text("geometry = ppp\npathloss.alpha = 4\n")
    (tmp_path / "other.cfg").write_text("geometry = line\npathloss.alpha = 3\n")
    base = mode.split()
    code, csv, _ = outcome(base)
    assert code == 0
    for action in _build_parser().commands[base[0]]._actions:
        flag = action.option_strings[-1]
        if action.dest in ("help", "out") or flag in base and action.nargs == 0:
            continue
        extra = [flag] if action.nargs == 0 else [flag, OTHER_VALUES[action.dest]]
        code, out, err = outcome(base + extra)
        assert (code == 0 and out != csv) or (code == 2 and out == "" and (
            " does not read --" in err or err.startswith("error: no closed form for "))), extra


@pytest.mark.parametrize("bare,spelled", [
    ("contention --class single", "contention --class single --xi 1"),
    ("contention --theta 2", "contention --class ppp2 --alpha 4 --theta 2"),
    ("contention --class exp2", "contention --class exp2 --delta 1"),
    ("outage --class single --theta 2", "outage --class single --r 1 --alpha 4 --theta 2"),
    ("throughput", "throughput --gamma 1 --duplex full"),
    ("throughput --rate --alpha 3", "throughput --rate --alpha 3 --d 2 --duplex full"),
    ("throughput --tdma", "throughput --tdma --alpha 2 --theta-db 0:1:20"),
    ("outage --theta 2", "outage --class ppp2 --theta 2"),
    ("capacity", "capacity --alpha 4 --d 2 --p 0.1"),
])
def test_a_flag_not_given_reads_as_its_documented_default(capsys, bare, spelled):
    assert main(bare.split()) == 0
    first = capsys.readouterr().out
    assert main(spelled.split()) == 0
    assert capsys.readouterr().out == first


def test_outage_schema_and_validate(tmp_path):
    code, text = run(tmp_path, "outage", "--class", "line1", "--alpha", "2",
                     "--theta", "1", "--p", "0.2", "--validate",
                     "--trials", "20000", "--seed", "7")
    assert code == 0
    assert "# seed = 7, trials = 20000" in text.splitlines()[0]
    header, rows = data_rows(text)
    assert header == ["class", "case", "alpha", "theta", "p", "m", "value",
                      "lower", "upper", "method", "mc_estimate", "mc_stderr", "z"]
    row = rows[0]
    assert row["method"] == "closed-form"
    assert abs(float(row["z"])) < 4.0
    assert float(row["lower"]) <= float(row["value"]) <= float(row["upper"])


def test_outage_tdma_bounds_only(tmp_path):
    """TDMA at alpha outside {2, 4}: the product value between its bounds."""
    code, text = run(tmp_path, "outage", "--class", "line1", "--alpha", "3",
                     "--theta", "1", "--m", "2")
    assert code == 0
    _, rows = data_rows(text)
    assert rows[0]["method"] == "product"
    assert float(rows[0]["lower"]) <= float(rows[0]["value"]) <= float(rows[0]["upper"])


def test_outage_validate_explicit_interferer_with_infinite_gain(tmp_path):
    """1e-300^-4 is inf: an active interferer there forces SIR 0, and a silent
    one must add nothing (0 x inf would be nan, counted as a success)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "outage", "--class", "explicit", "--distances", "1e-300,2",
                         "--alpha", "4", "--p", "0.5", "--theta", "1", "--validate",
                         "--trials", "100000", "--seed", "0")
    assert code == 0
    row = data_rows(text)[1][0]
    assert float(row["value"]) == pytest.approx(0.4852941176, rel=1e-9)
    assert abs(float(row["z"])) < 4.0


def test_outage_tdma_tail_power_past_the_float_range(tmp_path):
    """theta'^k overflows for k >= 11 at alpha 20, theta 5.9e28, though p_s
    is 9.04e-218."""
    code, text = run(tmp_path, "outage", "--class", "line1", "--alpha", "20",
                     "--m", "1", "--theta", "5.9e28")
    assert code == 0
    assert float(data_rows(text)[1][0]["value"]) == pytest.approx(9.038387914e-218, rel=1e-9)


@pytest.mark.parametrize("argv,value", [
    (("--m", "1"), 0.5),
    (("--p", "0.5", "--case", "1/0"), 0.5 + 0.5 / math.e),
])
def test_outage_line_where_n_alpha_passes_the_float_range(tmp_path, argv, value):
    """At alpha 300 the head's N^alpha = 32^300 is past the float range; p_s
    is the first interferer's factor, as the rest add 2^-300."""
    code, text = run(tmp_path, "outage", "--class", "line1", "--alpha", "300",
                     "--theta", "1", *argv)
    assert code == 0
    assert float(data_rows(text)[1][0]["value"]) == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("argv", [
    "outage --class line1 --alpha 1.5 --case 1/1 --p 0.001 --theta 1e6",
    "contention --class line1 --alpha 3 --theta 1e14",
])
def test_rayleigh_line_past_a_2_16_term_head_gives_its_row(tmp_path, argv):
    """Rayleigh lines take line_exponent, whose work is bounded at every theta, where
    line_sums would need a head of more than 2^16 terms (p_s is about e^-24 here)."""
    code, text = run(tmp_path, *argv.split())
    assert code == 0
    (row,) = data_rows(text)[1]
    if argv.startswith("outage"):
        assert float(row["lower"]) <= float(row["value"]) <= float(row["upper"])
        assert float(row["value"]) == pytest.approx(math.exp(-24.19), rel=0.01)
    else:
        assert float(row["gamma"]) > 0


@pytest.mark.parametrize("argv", [
    "contention --class line1 --alpha 3 --case 1/0 --theta 1e20",
    "outage --class line1 --alpha 3 --case 1/m2 --p 0.3 --theta 1e16",
])
def test_static_and_nakagami_aloha_lines_refuse_a_head_past_2_16_terms(capsys, argv):
    assert main(argv.split()) == 2
    assert "needs over 65536 line terms" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["2", "3", "4"])
def test_outage_tdma_huge_theta_has_zero_value_and_bounds(tmp_path, alpha):
    """theta'^2 passes the float range at theta 1e200; p_s and the upper
    bound are 0 and the lower bound exp(-z') is 0 too. At alpha 4 the closed
    form is 0 past its cut, with no sinh(y)^2 to overflow."""
    code, text = run(tmp_path, "outage", "--class", "line1", "--alpha", alpha,
                     "--m", "1", "--theta", "1e200")
    assert code == 0
    row = data_rows(text)[1][0]
    assert (float(row["value"]), float(row["lower"]), float(row["upper"])) == (0.0, 0.0, 0.0)


def test_contention_static_explicit_interferer_at_zero_distance(tmp_path):
    """1e-300^4 underflows to xi = 0; a static interferer there gives the
    limit 1 - exp(-1/xi) = 1, as a single interferer at that r does."""
    code, text = run(tmp_path, "contention", "--class", "explicit", "--distances",
                     "1e-300,2", "--alpha", "4", "--case", "1/0", "--theta", "1")
    assert code == 0
    gamma = float(data_rows(text)[1][0]["gamma"])
    assert gamma == pytest.approx(1.0 - math.expm1(-1.0 / 16.0), rel=1e-9)
    code, text = run(tmp_path, "outage", "--class", "explicit", "--distances", "1e-300,2",
                     "--alpha", "4", "--case", "1/0", "--theta", "1", "--p", "0.5")
    assert code == 0
    assert float(data_rows(text)[1][0]["value"]) == pytest.approx(
        0.5 * (1.0 + 0.5 * math.expm1(-1.0 / 16.0)), rel=1e-9)


@pytest.mark.parametrize("command", ["outage", "contention"])
@pytest.mark.parametrize("cls", ["line1", "line2"])
@pytest.mark.parametrize("case", ["1/1", "1/0", "1/m2"])
def test_line_at_alpha_3_and_any_interferer_fading(tmp_path, command, cls, case):
    p = ["--p", "0.1"] if command == "outage" else []
    code, text = run(tmp_path, command, "--class", cls, "--alpha", "3", "--case", case,
                     "--theta", "0.3,1,10", *p)
    assert code == 0
    _, rows = data_rows(text)
    assert len(rows) == 3
    for row in rows:
        assert (row["case"], row["method"]) == (case, "product")
        if command == "outage":
            assert float(row["lower"]) <= float(row["value"]) <= float(row["upper"])
        else:
            assert float(row["gamma"]) > 0


@pytest.mark.parametrize("case", ["0/0", "m2/1", "0/1"])
def test_line_without_a_rayleigh_desired_link_is_usage_error(capsys, case):
    for command in ("outage", "contention"):
        assert main([command, "--class", "line1", "--alpha", "3", "--case", case]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


def test_outage_config_file(tmp_path):
    model = NetworkModel(SingleInterferer(1.2), PowerLaw(4.0),
                         FadingCase(Fading.rayleigh(), Fading.rayleigh()))
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text(format_model(model, Aloha(0.5)))
    code, text = run(tmp_path, "outage", "--config", str(cfgfile), "--theta", "1")
    assert code == 0
    _, rows = data_rows(text)
    xi = 1.2 ** 4
    assert float(rows[0]["value"]) == pytest.approx(1 - 0.5 / (1 + xi), rel=1e-9)


def test_throughput_rate_example(tmp_path):
    code, text = run(tmp_path, "throughput", "--rate", "--alpha", "4", "--d", "2")
    assert code == 0
    _, rows = data_rows(text)
    assert float(rows[0]["theta_opt"]) == pytest.approx(3.9215536, rel=1e-5)


def test_throughput_rate_alone_reads_alpha_4_and_tdma_alone_alpha_2(capsys):
    """With neither --alpha nor --alpha-range, --rate prints its alpha 4 row
    (alpha 2 is not above d = 2) and --tdma keeps alpha 2."""
    assert main(["throughput", "--rate"]) == 0
    bare = capsys.readouterr().out
    assert main("throughput --rate --alpha 4 --d 2 --duplex full".split()) == 0
    assert capsys.readouterr().out == bare and len(bare.splitlines()) == 3
    assert main(["throughput", "--tdma", "--theta-db", "3"]) == 0
    bare = capsys.readouterr().out
    assert main("throughput --tdma --alpha 2 --theta-db 3".split()) == 0
    assert capsys.readouterr().out == bare


def test_throughput_gamma_sweep(tmp_path):
    code, text = run(tmp_path, "throughput", "--gamma", "0.5,2", "--duplex", "full")
    assert code == 0
    _, rows = data_rows(text)
    assert float(rows[0]["p_opt"]) == 1.0
    assert float(rows[1]["p_opt"]) == 0.5


def test_capacity_commands(tmp_path):
    code, text = run(tmp_path, "capacity", "--alpha", "4", "--p", "0.1")
    assert code == 0
    _, rows = data_rows(text)
    assert rows[0]["method"] == "closed-form"
    assert float(rows[0]["lower"]) < float(rows[0]["capacity"])

    code, text = run(tmp_path, "capacity", "--tdma", "--alpha", "2", "--m", "1:3")
    assert code == 0
    _, rows = data_rows(text)
    assert len(rows) == 3
    caps = [float(r["capacity"]) for r in rows]
    assert caps == sorted(caps)


def test_capacity_tdma_near_alpha_1(tmp_path):
    """z = zeta(1.001) = 1000.6 passes the float range of e^z; the bound
    e^z E1(z) is about 1/(z + 1) and stays below the capacity."""
    code, text = run(tmp_path, "capacity", "--tdma", "--alpha", "1.001", "--m", "1")
    assert code == 0
    _, rows = data_rows(text)
    assert float(rows[0]["capacity"]) == pytest.approx(0.000998, rel=1e-3)
    assert float(rows[0]["lower"]) == pytest.approx(1 / (zeta(1.001) + 1), rel=1e-5)
    assert float(rows[0]["lower"]) <= float(rows[0]["capacity"])


def test_samples_header(tmp_path):
    model = NetworkModel(SingleInterferer(1.0), PowerLaw(4.0),
                         FadingCase(Fading.rayleigh(), Fading.rayleigh()))
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text(format_model(model, None))
    code, text = run(tmp_path, "samples", "--config", str(cfgfile),
                     "--trials", "50", "--seed", "3")
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# config-hash = ")
    assert len(lines[0].split(" = ")[1]) == 64
    assert "sir" in lines
    values = [float(v) for v in lines[lines.index("sir") + 1:]]
    assert len(values) == 50
    assert all(v > 0 for v in values)


@pytest.mark.parametrize("values", [
    None,  # the simulator's own samples
    [0.0, -0.0, 5e-324, 2.2e-308, 1 / 3, 1e-300, 123456789012.0, 1.8e308,
     math.inf, -math.inf, math.nan, 0.1 + 0.2],
])
def test_samples_column_bytes(tmp_path, monkeypatch, values):
    """The sir column is f"{v:.10g}" of each sample, one per line, byte for byte."""
    from sirnet import cli
    from sirnet.montecarlo import SirSamples, simulate_sir_samples

    drawn = []

    def samples(model, mac, cfg):
        result = simulate_sir_samples(model, mac, cfg)
        if values is not None:
            result = SirSamples(np.array(values), 0)
        drawn.append(result.values.tolist())
        return result

    monkeypatch.setattr(cli, "simulate_sir_samples", samples)
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text(format_model(NetworkModel(SingleInterferer(1.0), PowerLaw(4.0),
                                                 FadingCase(Fading.rayleigh(), Fading.rayleigh())), None))
    code, text = run(tmp_path, "samples", "--config", str(cfgfile), "--trials", "200", "--seed", "3")
    assert code == 0
    assert text.endswith("\nsir\n" + "".join(f"{v:.10g}\n" for v in drawn[0]))


def test_validate_quick_reproducible(tmp_path):
    args = ["validate", "--quick", "--seed", "7", "--class", "single"]
    _, first = run(tmp_path, *args)
    code, second = run(tmp_path, *args)
    assert code == 0
    assert first == second
    assert first.rstrip().endswith("# result = pass")


def test_exit_code_usage_error(tmp_path, capsys):
    assert main(["contention", "--class", "line1", "--case", "0/0", "--theta", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["samples", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "y.csv")]) == 2


def test_exit_code_bad_argument():
    with pytest.raises(SystemExit) as exc:
        main(["contention", "--class", "hexgrid"])
    assert exc.value.code == 2


def test_readme_theta_db_range_starting_with_minus(capsys):
    argv = "outage --class ppp2 --alpha 4 --theta-db -10:2:10 --p 0.1".split()
    assert main(argv) == 0
    _, rows = data_rows(capsys.readouterr().out)
    assert [float(r["theta"]) for r in rows] == pytest.approx(
        [10.0 ** (db / 10.0) for db in range(-10, 11, 2)])


def test_outage_explicit_without_distances(capsys):
    assert main(["outage", "--class", "explicit", "--theta", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_validate_class_runs_only_matching_cases(tmp_path, monkeypatch):
    simulated = []

    def counting(model, mac, theta, cfg):
        simulated.append(model)
        return simulate_ps(model, mac, theta, cfg)

    monkeypatch.setattr(validation, "simulate_ps", counting)
    _, only = run(tmp_path, "validate", "--quick", "--class", "single", "--seed", "7")
    assert len(simulated) == 10
    _, full = run(tmp_path, "validate", "--quick", "--seed", "7")
    single = [ln for ln in only.splitlines() if ln.startswith("single")]
    assert len(single) == 10
    assert single == [ln for ln in full.splitlines() if ln.startswith("single")]



def test_outage_row_keeps_its_bounds_near_the_clamp(tmp_path):
    """p gamma = 690.4 here: the value 1.66e-300 lies between its bounds."""
    code, text = run(tmp_path, "outage", "--class", "ppp2", "--alpha", "4",
                     "--theta", "19565.8", "--p", "1")
    assert code == 0
    row = data_rows(text)[1][0]
    assert row["value"] == "1.659031215e-300"
    assert float(row["lower"]) <= float(row["value"]) <= float(row["upper"])


def test_outage_config_mac_block(tmp_path):
    cfgfile = tmp_path / "line.cfg"
    cfgfile.write_text("geometry = line\ngeometry.sided = one\npathloss = power\n"
                       "pathloss.alpha = 2\nmac = tdma\nmac.m = 2\n")
    code, text = run(tmp_path, "outage", "--config", str(cfgfile), "--theta", "1")
    assert code == 0
    _, rows = data_rows(text)
    assert (rows[0]["m"], rows[0]["p"], rows[0]["value"]) == ("2", "", "0.6825694503")


@pytest.mark.parametrize("flags,flag", [(["--m", "5"], "--m"), (["--p", "0.3"], "--p"),
                                        (["--p", "0.3", "--m", "5"], "--p")])
def test_outage_config_mac_block_refuses_p_and_m(tmp_path, capsys, flags, flag):
    """The file's mac block decides the scheme, so --p and --m go unread and
    are refused; without a mac block they are read as for a class."""
    line = ("geometry = line\ngeometry.sided = one\npathloss = power\n"
            "pathloss.alpha = 2\n")
    mac = tmp_path / "tdma.cfg"
    mac.write_text(line + "mac = tdma\nmac.m = 2\n")
    assert main(["outage", "--config", str(mac), "--theta", "1", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: outage does not read {flag}\n")
    bare = tmp_path / "line.cfg"
    bare.write_text(line)
    code, text = run(tmp_path, "outage", "--config", str(bare), "--theta", "1", "--m", "2")
    assert code == 0
    _, rows = data_rows(text)
    assert (rows[0]["m"], rows[0]["p"], rows[0]["value"]) == ("2", "", "0.6825694503")


@pytest.mark.parametrize("geometry", [
    "geometry = single\ngeometry.r = 1.2",
    "geometry = explicit\ngeometry.distances = 1,2",
    "geometry = line",
])
def test_outage_config_exponential_off_ppp_is_usage_error(tmp_path, capsys, geometry):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"{geometry}\npathloss = exponential\npathloss.delta = 1\n")
    assert main(["outage", "--config", str(cfgfile), "--theta", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_contention_explicit_without_distances_prints_no_csv(tmp_path, capsys):
    assert main(["contention", "--class", "explicit", "--theta", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    code, text = run(tmp_path, "contention", "--class", "explicit", "--theta", "1")
    assert (code, text) == (2, "")


def test_outage_tdma_off_line_is_usage_error(capsys):
    assert main(["outage", "--class", "ppp2", "--m", "2", "--theta", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "outage --class ppp2 --case 0/1",
    "outage --class ppp2 --case m2/1",
    "outage --class ppp1 --alpha 3 --case 0/0",
    "outage --class explicit --distances 1,2 --case 0/0",
    "outage --class explicit --distances 1,2 --case 0/1",
    "contention --class line1 --case 0/0",
    "contention --class exp2 --case 0/0",
    "contention --class ppp2 --case 0/1",
])
def test_class_without_closed_form_is_usage_error(capsys, argv):
    """A fading case that no formula covers is refused, not printed under its label."""
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_outage_aloha_prints_sandwich_bounds(capsys):
    assert main("outage --class ppp2 --alpha 4 --theta 1 --p 0.1".split()) == 0
    _, rows = data_rows(capsys.readouterr().out)
    gamma = math.pi ** 2 / 2
    assert float(rows[0]["lower"]) == pytest.approx(1 - 0.1 * gamma, rel=1e-9)
    assert float(rows[0]["upper"]) == pytest.approx(math.exp(-0.1 * gamma), rel=1e-9)
    # explicit 1/0: gamma is the exact slope sum(1 - exp(-1/xi)), so
    # exp(-p gamma) lies above p_s
    argv = "outage --class explicit --distances 1,2 --case 1/0 --theta 1 --p 0.3"
    assert main(argv.split()) == 0
    row = data_rows(capsys.readouterr().out)[1][0]
    gamma = 2 - math.exp(-1) - math.exp(-1 / 16)
    assert float(row["upper"]) == pytest.approx(math.exp(-0.3 * gamma), rel=1e-9)
    assert float(row["lower"]) <= float(row["value"]) <= float(row["upper"])


def one_line_error(capsys):
    out, err = capsys.readouterr()
    return out == "" and err.count("\n") == 1 and err.startswith("error:")


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_refused_argv_leaves_parser_unchanged(capsys):
    argv = ["contention", "--class", "ppp1", "--alpha", "2", "--theta", "0.5"]
    assert main(argv) == 0
    alone = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["contention", "--class", "hexgrid"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == alone


def test_validate_flag_does_not_carry_over(capsys):
    argv = "outage --class ppp2 --alpha 4 --theta 1 --p 0.1".split()
    assert main([*argv, "--validate", "--trials", "2000", "--seed", "3"]) == 0
    assert data_rows(capsys.readouterr().out)[1][0]["mc_estimate"] != ""
    assert main(argv) == 0
    row = data_rows(capsys.readouterr().out)[1][0]
    assert (row["mc_estimate"], row["mc_stderr"], row["z"]) == ("", "", "")


def test_out_file_does_not_carry_over(tmp_path, capsys):
    argv = ["throughput", "--gamma", "2"]
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == (tmp_path / "t.csv").read_text()


@pytest.mark.parametrize("argv", [
    "outage --alpha inf",
    "contention --class ppp1 --alpha inf",
    "contention --class ppp3 --alpha inf",
    "throughput --tdma --alpha inf --theta-db 0",
    "capacity --tdma --alpha=inf",
    "throughput --rate --alpha-range=2:0.5:inf",
    "contention --theta-db=1e6",
    "capacity --alpha=1e308",
    "capacity --d=0",
    "throughput --gamma inf",
    "contention --class single --xi nan",
    "contention --class exp2 --delta=inf",
    "contention --class ppp2 --alpha 2.0000001 --theta 1e308",
    "outage --class exp2 --delta 1e-160 --p 0 --theta 1",
    "contention --theta ,",
    "outage --theta-db=0:1:1e308",
    "capacity --tdma --m 1:1000000000000",
    "contention --class single --xi 1 --case 1/minf",
    "outage --class single --case minf/1 --theta 1",
    "outage --class single --r inf --theta 1",
])
@pytest.mark.filterwarnings("error")  # a warning would add lines to stderr
def test_non_finite_or_overlong_input_is_usage_error(capsys, argv):
    assert main(argv.split()) == 2
    assert one_line_error(capsys)


def test_capacity_names_the_c_p_underflow(capsys):
    """C_d(alpha) holds the unit-ball volume, 1e-886 at d = 1000, so c_p is 0."""
    assert main("capacity --d 1000 --alpha 1500 --p 0.1".split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: c_p = p C_d(alpha) underflows to 0 at d = 1000, alpha = 1500.0\n")


@pytest.mark.parametrize("config", [
    "geometry = single",
    "geometry = explicit",
    "geometry = ppp\nmac = aloha",
    "geometry = line\nmac = tdma",
    "geometry = ppp\npathloss = exponential",
    "geometry = single\ngeometry.r = 2\nfading.desired = nakagami",
    "geometry = single\ngeometry.r = 2\nfading.interferer = nakagami\n"
    "fading.interferer.m = inf",
    "geometry = explicit\ngeometry.distances = ,",
    "geometry = single\ngeometry.r = inf",
])
@pytest.mark.parametrize("command", [["outage", "--theta", "1"], ["samples", "--trials", "10"]])
def test_incomplete_or_invalid_config_is_usage_error(tmp_path, capsys, config, command):
    """A missing required key, or a value that no model holds, exits 2 with
    one error line, whether the command reads the config or simulates it."""
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text(config + "\n")
    assert main([command[0], "--config", str(cfgfile), *command[1:]]) == 2
    assert one_line_error(capsys)


def test_window_beyond_its_maximum_is_usage_error(tmp_path, capsys):
    """alpha just above d needs a simulation window wider than the simulator allows."""
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text("geometry = ppp\npathloss.alpha = 2.0001\nmac = aloha\nmac.p = 1\n")
    assert main(["samples", "--config", str(cfgfile), "--trials", "10"]) == 2
    assert one_line_error(capsys)
    assert main("outage --alpha 2.0001 --p 1 --theta 1 --validate --trials 10".split()) == 2
    assert one_line_error(capsys)


def test_missing_config_key_is_named(tmp_path, capsys):
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text("geometry = single\n")
    assert main(["outage", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == "error: geometry.r required for a single interferer\n"


def test_unknown_config_key_is_named(tmp_path, capsys):
    """A misspelled key is refused, not ignored: sided = two would otherwise
    give the one-sided line."""
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text("geometry = line\ngeometry.sidded = two\nfading.interferrer = none\n")
    assert main(["outage", "--config", str(cfgfile), "--theta", "1"]) == 2
    assert capsys.readouterr().err == "error: line 2: unknown key 'geometry.sidded'\n"


@pytest.mark.parametrize("theta", [["--theta", "1,2,3"], ["--theta-db", "0"]])
def test_contention_single_refuses_a_threshold(capsys, theta):
    """Its input is xi, so a theta grid would only repeat the one row."""
    assert main(["contention", "--class", "single", "--xi", "2", "--case", "1/0", *theta]) == 2
    assert one_line_error(capsys)
    assert main(["contention", "--class", "single", "--xi", "2", "--case", "1/0"]) == 0
    assert len(data_rows(capsys.readouterr().out)[1]) == 1


def test_overlong_grid_is_refused_before_it_is_built():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="more than"):
        _parse_range("0:1:1e308")
    assert time.perf_counter() - start < 0.1


# One argv per option of each command, in the shapes the benchmark's cli-mix uses.
CLI_MIX_ARGV = [
    "contention --table3 --theta 0.1,0.5,1,2,5,10",
    "contention --class ppp1 --alpha 2 --case 1/1 --theta-db=-10:5:10",
    "contention --class ppp3 --alpha 4 --case 1/1 --theta 1 --out c.csv",
    "contention --class single --xi 2 --case 1/0",
    "contention --class explicit --alpha 4 --distances 1,2,3 --theta 1",
    "contention --class exp2 --delta 1 --theta 0.1,1,10",
    "outage --class ppp2 --alpha 3 --case 1/1 --p 0.1 --theta 0.1,1,10",
    "outage --class single --r 1.2 --alpha 4 --case 1/1 --p 0.5 --theta 0.1,1,10",
    "outage --class line1 --alpha 2 --m 4 --theta-db=0:5:20",
    "outage --config ppp2.cfg --p 0.1 --theta 0.1,1",
    "outage --class line1 --p 0.2 --theta 1 --validate --trials 2000 --seed 3",
    "outage --class ppp2 --alpha 4 --theta-db -10:2:10 --p 0.1",
    "throughput --gamma 0.5,1,2,5 --duplex half",
    "throughput --rate --alpha-range 2.5:0.5:5 --d 2 --duplex full",
    "throughput --tdma --alpha 2 --theta-db=0:5:10",
    "capacity --alpha 4 --d 2 --p 0.05,0.1,0.5",
    "capacity --tdma --alpha 2 --m 1:8",
    "validate --quick --seed 7 --class single",
    "samples --config ppp2.cfg --trials 2000 --seed 3",
]


@pytest.mark.parametrize("line", CLI_MIX_ARGV + [ln[len("sirnet "):] for ln in sirnet_lines()])
def test_parse_matches_the_top_level_parser(line):
    argv = shlex.split(line, comments=True)
    assert vars(_parse(argv)) == vars(_build_parser().parse_args(_join_dash_values(argv)))


def refusal(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line,parser,message", [
    ("", None, "the following arguments are required: command"),
    ("-h", None, None),
    ("bogus", None, "argument command: invalid choice: 'bogus' (choose from 'contention', "
                    "'outage', 'throughput', 'capacity', 'validate', 'samples')"),
    ("outage --bogus", None, "unrecognized arguments: --bogus"),
    ("outage --he", "outage", None),
    ("outage --alpha x", "outage", "argument --alpha: invalid float value: 'x'"),
    ("outage -- --theta", None, "unrecognized arguments: -- --theta"),
    ("capacity --foo=3 bar", None, "unrecognized arguments: --foo=3 bar"),
    # throughput reads only --theta-db, and takes no abbreviation of it.
    ("throughput --tdma --theta 10", None, "unrecognized arguments: --theta 10"),
    ("samples", "samples", "the following arguments are required: --config"),
])
def test_refusals_match_the_top_level_parser(line, parser, message):
    """Help (message None) goes to stdout with exit 0; an error is the usage
    of the parser that refuses the argv, then its one error line, and exit 2,
    exactly as parse_args prints them."""
    argv = line.split()
    top = _build_parser()
    which = top.commands[parser] if parser else top
    expected = (0, which.format_help(), "") if message is None else (
        2, "", f"{which.format_usage()}{which.prog}: error: {message}\n")
    assert refusal(_parse, argv) == expected
    assert refusal(top.parse_args, argv) == expected


def test_csv_golden():
    out = io.StringIO()
    csv = _Csv(["a", "b"], out)
    csv.row(1.5, np.float64(1 / 3), 7, True, False, None, "x", math.inf, math.nan, -0.0)
    assert out.getvalue() == ("# sirnet csv v1\na,b\n"
                              "1.5,0.3333333333,7,yes,no,,x,inf,nan,-0\n")


def test_outage_single_near_p_one_prints_the_exact_success(capsys):
    """At p = 1 one Rayleigh-faded link against a static interferer succeeds
    with e^(-theta r^-alpha); as 1 - p gamma it printed 2.714495295e-13 at
    theta 60 and 0 at theta 100. Its lower bound is the value itself."""
    for theta, value in (("60", "2.713993113e-13"), ("100", "1.137665449e-21")):
        argv = f"outage --class single --case 1/0 --alpha 4 --r 1.2 --theta {theta} --p 1"
        assert main(argv.split()) == 0
        row = data_rows(capsys.readouterr().out)[1][0]
        assert (row["value"], row["lower"]) == (value, value)
        assert float(row["lower"]) <= float(row["value"]) <= float(row["upper"])
