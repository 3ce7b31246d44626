"""CLI surface: exit codes, CSV schema, reproducibility."""

import math
import time

import pytest

from sirnet import validation
from sirnet.cli import _build_parser, _parse_range, main
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
from sirnet.specfun import DomainError


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


def test_contention_table_has_conjectured_note(tmp_path):
    code, text = run(tmp_path, "contention", "--table3", "--theta", "1")
    assert code == 0
    _, rows = data_rows(text)
    d3 = [r for r in rows if r["class"] == "ppp3"]
    assert d3 and all(r["note"] == "conjectured" for r in d3)


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


def test_outage_config_file(tmp_path):
    model = NetworkModel(SingleInterferer(1.2), PowerLaw(4.0),
                         FadingCase(Fading.rayleigh(), Fading.rayleigh()))
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text(format_model(model, Aloha(0.5)))
    code, text = run(tmp_path, "outage", "--config", str(cfgfile),
                     "--theta", "1", "--p", "0.5")
    assert code == 0
    _, rows = data_rows(text)
    xi = 1.2 ** 4
    assert float(rows[0]["value"]) == pytest.approx(1 - 0.5 / (1 + xi), rel=1e-9)


def test_throughput_rate_example(tmp_path):
    code, text = run(tmp_path, "throughput", "--rate", "--alpha", "4", "--d", "2")
    assert code == 0
    _, rows = data_rows(text)
    assert float(rows[0]["theta_opt"]) == pytest.approx(3.9215536, rel=1e-5)


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


def test_validate_quick_reproducible(tmp_path):
    args = ["validate", "--quick", "--seed", "7", "--class", "single"]
    _, first = run(tmp_path, *args)
    code, second = run(tmp_path, *args)
    assert code == 0
    assert first == second
    assert first.rstrip().endswith("# result = pass")


def test_exit_code_usage_error(tmp_path, capsys):
    assert main(["contention", "--class", "line1", "--alpha", "3", "--theta", "5",
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


def test_outage_config_mac_block(tmp_path):
    cfgfile = tmp_path / "line.cfg"
    cfgfile.write_text("geometry = line\ngeometry.sided = one\npathloss = power\n"
                       "pathloss.alpha = 2\nmac = tdma\nmac.m = 2\n")
    code, text = run(tmp_path, "outage", "--config", str(cfgfile), "--theta", "1")
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
    argv = "outage --class ppp2 --alpha 4 --theta 1 --p 0.1 --trials 2000 --seed 3".split()
    assert main([*argv, "--validate"]) == 0
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
])
@pytest.mark.filterwarnings("error")  # a warning would add lines to stderr
def test_non_finite_or_overlong_input_is_usage_error(capsys, argv):
    assert main(argv.split()) == 2
    assert one_line_error(capsys)


def test_overlong_grid_is_refused_before_it_is_built():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="more than"):
        _parse_range("0:1:1e308")
    assert time.perf_counter() - start < 0.1
