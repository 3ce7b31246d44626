"""Property tests over CLI argv and config text: every input ends in CSV
with exit 0, or in one `error:` line with exit 2 and nothing on stdout."""

import contextlib
import io
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sirnet.cli import main
from sirnet.model import CLASSES

# Ordinary values, drawn as often as edge values and arbitrary floats
# together, so that many draws get past the first check. The ranges are built
# from these lists only: a valid a:step:b spec stays short, and a long one is
# refused at once.
ORDINARY = ["0.1", "0.5", "1", "2", "2.5", "3", "4", "5"]
EDGES = ["-1", "0", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf"]
ordinary = st.sampled_from(ORDINARY)
number = st.one_of(ordinary, ordinary, st.sampled_from(EDGES), st.floats().map(repr))
edge = st.one_of(ordinary, st.sampled_from(EDGES))
grid = (st.lists(edge, max_size=3).map(",".join)
        | st.tuples(edge, edge, edge).map(":".join))
int_grid = (st.lists(st.sampled_from(["-1", "0", "1", "2", "3"]), max_size=3).map(",".join)
            | st.tuples(st.integers(-2, 4), st.integers(-2, 4)).map(lambda t: f"{t[0]}:{t[1]}"))
CASES = ["1/1", "1/0", "0/1", "0/0", "1/m2", "m2/1", "m0.3/1", "1/mnan", "x/1", "1"]
case = st.sampled_from(CASES)
# Dimensions: 1000 is legal, but its unit-ball volume underflows to 0.
dimension = st.one_of(st.integers(-1, 3), st.just(1000))


def mostly(values, edges=EDGES):
    """Each of `values` three times as often as each of `edges`."""
    return st.sampled_from(values * 3 + edges)


def options(**strategies):
    """Each option is left out or given as --name=value."""
    picked = [st.one_of(st.none(), s.map(lambda v, k=k: f"--{k}={v}"))
              for k, s in strategies.items()]
    return st.tuples(*picked).map(lambda opts: [o for o in opts if o is not None])


@st.composite
def reading(draw, flags, reads, mode=(), stray=True):
    """The flags that set the mode, then each flag of `reads` left out or given,
    and, if `stray`, one time in four one more flag of `flags` (name -> values)
    that the mode does not read."""
    given = [*mode, *draw(options(**{k: flags[k] for k in reads}))]
    unread = [k for k in flags if k not in reads]
    if stray and unread and draw(st.integers(0, 3)) == 0:
        k = draw(st.sampled_from(unread))
        given.append(f"--{k}={draw(flags[k])}")
    return given


# The model flags each class reads besides --case (see cli._class_model).
CLASS_READS = {"exp2": ["delta"], "single": ["alpha", "r"], "explicit": ["alpha", "distances"]}


def class_reads(cls):
    return ["case", *CLASS_READS.get(cls, ["alpha"])]


@st.composite
def model(draw, flags, reads=class_reads, stray=True):
    """--class, drawn uniformly, then the flags that class reads (`reading`)."""
    cls = draw(st.sampled_from(CLASSES))
    return [f"--class={cls}", *draw(reading(flags, reads(cls), stray=stray))]


def thetas():
    return st.one_of(st.just([]), grid.map(lambda g: [f"--theta={g}"]),
                     grid.map(lambda g: [f"--theta-db={g}"]))


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


# Each command is one strategy, its modes drawn within it: one_of flattens nested
# one_of, which would weight a command by its number of modes.
CONTENTION = {"case": case, "alpha": number, "delta": number, "xi": number, "distances": grid}


def contention_reads(cls):
    """A single interferer's contention reads --xi and --case, and no threshold."""
    return ["case", "xi"] if cls == "single" else class_reads(cls)


contention = command(
    "contention",
    st.one_of(reading(CONTENTION, [], ["--table3"]), model(CONTENTION, contention_reads)),
    thetas())
# --m sets TDMA, which reads no --p.
outage = command(
    "outage",
    model({"case": case, "alpha": number, "delta": number, "r": number, "distances": grid}),
    st.one_of(options(p=number), options(m=st.integers(-1, 4))),
    thetas())
THROUGHPUT = {"alpha": number, "d": dimension, "duplex": st.sampled_from(["full", "half"]),
              "gamma": grid, "alpha-range": grid, "theta-db": grid}
throughput = command(
    "throughput",
    st.one_of(reading(THROUGHPUT, ["gamma", "duplex"]),
              reading(THROUGHPUT, ["alpha", "theta-db"], ["--tdma"]),
              reading(THROUGHPUT, ["alpha", "alpha-range", "d", "duplex"], ["--rate"])))
CAPACITY = {"alpha": number, "d": dimension, "m": int_grid, "p": grid}
capacity = command(
    "capacity",
    st.one_of(reading(CAPACITY, ["alpha", "d", "p"]),
              reading(CAPACITY, ["alpha", "m"], ["--tdma"])))
# The 3-D PPP by name as well, from ordinary values and a few edges: from the
# values above, about 1 argv in 17 gets past the first check. Its thresholds are
# one of those values or a grid of `thetas`.
ppp3 = command(
    "outage",
    st.just(["--class=ppp3"]),
    options(case=mostly(["1/1", "1/0", "1/m2"], ["m2/1", "x/1"]),
            alpha=mostly(["3.5", "4", "5"], ["3", "inf"]),
            p=mostly(["0.1", "0.5", "1"], ["-1", "nan"])),
    st.one_of(options(theta=mostly(["0.1", "1", "4"], ["0", "inf"])), thetas()))


# The only spellings of a non-finite float in the CSV (see cli._fmt).
NON_FINITE = ("nan", "inf", "-inf")


def is_finite_csv(text):
    lines = text.splitlines()
    if lines[:1] != ["# sirnet csv v1"] or len(lines) < 3:
        return False
    header = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        for key, field in row.items():
            # sigma = 1/gamma is infinite by definition where gamma is 0
            if field in NON_FINITE and not (key == "sigma" and float(row["gamma"]) == 0):
                return False
    return True


def is_finite_samples(text, trials):
    """# comment lines, a `sir` header, then `trials` finite values."""
    lines = text.splitlines()
    while lines and lines[0].startswith("# "):
        lines.pop(0)
    return (lines[:1] == ["sir"] and len(lines) == trials + 1
            and all(math.isfinite(float(v)) for v in lines[1:]))


def run(argv):
    """(exit code, stdout) of main(argv), after checking the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error:")
    return code, out.getvalue()


def counting(ppp3_ok, other_ok=None):
    """run, appending each argv that exits 0 to ppp3_ok if it names the 3-D PPP
    and else to other_ok."""
    def counted(argv):
        code, out = run(argv)
        if code == 0:
            ok = ppp3_ok if "--class=ppp3" in argv else other_ok
            if ok is not None:
                ok.append(argv)
        return code, out
    return counted


def test_cli_exits_with_csv_or_one_error_line():
    """Over 300 argv, at least 5 of which run the 3-D PPP."""
    ppp3_ok = []
    run_counted = counting(ppp3_ok)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=st.one_of(contention, outage, throughput, capacity, ppp3))
    def check(argv):
        code, out = run_counted(argv)
        assert code != 0 or is_finite_csv(out), out

    check()
    assert len(ppp3_ok) >= 5, ppp3_ok


# outage --validate always names its trials (the default is 10^5) and draws
# ordinary values three times as often as edge values, so that most draws
# simulate. Alpha and delta stay away from the legal but slow windows of
# alpha just above d and of a small delta. Each class gets only the flags it
# reads: an unread flag is refused before the simulation (the argv fuzz above
# and test_cli's parser sweep cover that refusal).
validate_runs = (
    st.tuples(mostly(["1", "20", "200"], ["-1", "0"]), mostly(["0", "1", "7"], ["-1"]))
    .map(lambda t: ["--validate", f"--trials={t[0]}", f"--seed={t[1]}"]))
validate_case = st.sampled_from(["1/1"] * 9 + CASES)
validate_p = mostly(["0.05", "0.1", "0.5", "1"])
validate_thetas = (st.lists(mostly(["0.1", "1", "4"]), min_size=1, max_size=3)
                   .map(lambda ts: [f"--theta={','.join(ts)}"]))
outage_validate = command(
    "outage",
    validate_runs,
    model({"case": validate_case, "alpha": mostly(["2", "3", "4", "5"]),
           "delta": mostly(["0.5", "1", "2"]), "r": mostly(["0.5", "1", "2"]),
           "distances": st.lists(mostly(["1", "1.5", "3"]), max_size=3).map(",".join)},
          stray=False),
    st.one_of(options(p=validate_p), options(p=validate_p), options(p=validate_p),
              st.sampled_from([["--m=2"], ["--m=0"]])),
    validate_thetas)
# The 3-D PPP by name, always at alpha 5: a window of about 4,000 points per
# trial, where the default alpha 4 draws about 10^5.
validate_ppp3 = command(
    "outage",
    validate_runs,
    st.just(["--class=ppp3", "--alpha=5"]),
    options(case=validate_case, p=validate_p),
    validate_thetas)


def test_outage_validate_exits_with_csv_or_one_error_line():
    """Over 100 argv, at least 2 of which simulate the 3-D PPP and 7 another class."""
    ppp3_ok, other_ok = [], []
    run_counted = counting(ppp3_ok, other_ok)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=st.one_of(outage_validate, outage_validate, outage_validate, validate_ppp3))
    def check(argv):
        code, out = run_counted(argv)
        if code == 0:
            seed_line, _, csv = out.partition("\n")
            trials, seed = argv[2].split("=")[1], argv[3].split("=")[1]
            assert seed_line == f"# seed = {seed}, trials = {trials}", out
            assert is_finite_csv(csv), out

    check()
    assert len(ppp3_ok) >= 2, ppp3_ok
    assert len(other_ok) >= 7, other_ok


# Config keys with (ordinary values, edge values). Alpha stays at 2 or above
# among the ordinary values: alpha just above d is refused, but 2.5 on the
# 2-D PPP is a legal window of about 10^5 points per trial, too slow here.
NUMBER_EDGES = EDGES + ["", "x"]
FADING = (["none", "rayleigh", "nakagami", "nakagami"], ["rician"])
NAKAGAMI_M = (["0.5", "1", "2", "4"], NUMBER_EDGES + ["0.3"])
CONFIG_KEYS = {
    "geometry": (["ppp", "line", "explicit", "single"], ["grid"]),
    "geometry.d": (["1", "2", "3"], ["1000", "0", "-1", "2.5", "", "nan"]),
    "geometry.sided": (["one", "two"], ["three", ""]),
    "geometry.distances": (["1", "1,2", "1.5,2.5,4"],
                           ["", ",", "0", "-1,2", "nan", "inf,1", "1e-300", "1e308"]),
    "geometry.r": (["0.5", "1", "1.2", "2"], NUMBER_EDGES),
    "pathloss": (["power", "exponential"], ["log"]),
    "pathloss.alpha": (["2", "3", "4"], NUMBER_EDGES + ["2.0001", "1.5"]),
    "pathloss.delta": (["0.5", "1", "2"], NUMBER_EDGES),
    "fading.desired": FADING,
    "fading.desired.m": NAKAGAMI_M,
    "fading.interferer": FADING,
    "fading.interferer.m": NAKAGAMI_M,
    "mac": (["aloha", "tdma"], ["csma"]),
    "mac.p": (["0.1", "0.5", "1"], NUMBER_EDGES + ["2"]),
    "mac.m": (["1", "2", "4"], ["0", "-1", "2.5", "", "nan"]),
}


@st.composite
def config_text(draw):
    """Every key, with each left out, or given an edge value, at a drawn rate
    of none (a complete, valid config), 1 in 20 or 3 in 20."""
    rate = draw(st.sampled_from([0, 1, 3]))
    lines = []
    for key, (ordinary, edges) in CONFIG_KEYS.items():
        roll = draw(st.integers(0, 19))
        if roll >= rate:
            values = edges if roll < 2 * rate else ordinary
            lines.append(f"{key} = {draw(st.sampled_from(values))}\n")
    return "".join(lines)


SAMPLE_TRIALS = 200


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(text=config_text(), samples=st.booleans())
def test_config_exits_with_csv_or_one_error_line(tmp_path, text, samples):
    cfgfile = tmp_path / "model.cfg"
    cfgfile.write_text(text)
    if samples:
        code, out = run(["samples", "--config", str(cfgfile), "--trials", str(SAMPLE_TRIALS)])
        assert code != 0 or is_finite_samples(out, SAMPLE_TRIALS), out[:500]
    else:
        code, out = run(["outage", "--config", str(cfgfile), "--theta", "0.1,1,10"])
        assert code != 0 or is_finite_csv(out), out
