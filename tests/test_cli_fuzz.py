"""Property test over CLI argv: every input ends in CSV with exit 0, or in
one `error:` line with exit 2 and nothing on stdout."""

import contextlib
import io
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sirnet.cli import main

# Ordinary values, drawn as often as edge values and arbitrary floats
# together, so that many draws get past the first check. The ranges are built
# from these lists only: a valid a:step:b spec stays short, and a long one is
# refused at once.
ORDINARY = ["0.1", "0.5", "1", "2", "2.5", "3", "4"]
EDGES = ["-1", "0", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf"]
ordinary = st.sampled_from(ORDINARY)
number = st.one_of(ordinary, ordinary, st.sampled_from(EDGES), st.floats().map(repr))
edge = st.one_of(ordinary, st.sampled_from(EDGES))
grid = (st.lists(edge, max_size=3).map(",".join)
        | st.tuples(edge, edge, edge).map(":".join))
int_grid = (st.lists(st.sampled_from(["-1", "0", "1", "2", "3"]), max_size=3).map(",".join)
            | st.tuples(st.integers(-2, 4), st.integers(-2, 4)).map(lambda t: f"{t[0]}:{t[1]}"))
case = st.sampled_from(["1/1", "1/0", "0/1", "0/0", "1/m2", "m2/1", "m0.3/1", "1/mnan",
                        "x/1", "1"])
CLASSES = ["ppp1", "ppp2", "line1", "line2", "single", "explicit", "exp2"]


def options(**strategies):
    """Each option is left out or given as --name=value."""
    picked = [st.one_of(st.none(), s.map(lambda v, k=k: f"--{k}={v}"))
              for k, s in strategies.items()]
    return st.tuples(*picked).map(lambda opts: [o for o in opts if o is not None])


def thetas():
    return st.one_of(st.just([]), grid.map(lambda g: [f"--theta={g}"]),
                     grid.map(lambda g: [f"--theta-db={g}"]))


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


contention = command(
    "contention",
    st.sampled_from([[], ["--table3"]]),
    options(**{"class": st.sampled_from(CLASSES + ["ppp3"]), "case": case, "alpha": number,
               "delta": number, "xi": number, "distances": grid}),
    thetas())
outage = command(
    "outage",
    options(**{"class": st.sampled_from(CLASSES), "case": case, "alpha": number,
               "delta": number, "r": number, "distances": grid, "p": number,
               "m": st.integers(-1, 4)}),
    thetas())
throughput = command(
    "throughput",
    st.sampled_from([[], ["--tdma"], ["--rate"]]),
    options(alpha=number, d=st.integers(-1, 3), duplex=st.sampled_from(["full", "half"]),
            gamma=grid, **{"alpha-range": grid, "theta-db": grid}))
capacity = command(
    "capacity",
    st.sampled_from([[], ["--tdma"]]),
    options(alpha=number, d=st.integers(-1, 3), m=int_grid, p=grid))


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


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(contention, outage, throughput, capacity))
def test_cli_exits_with_csv_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err.getvalue() == "" and is_finite_csv(out.getvalue()), out.getvalue()
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error:")
