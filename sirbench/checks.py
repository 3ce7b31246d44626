"""Output checks. Each returns a list of problems; an empty list means the
output passed. Standard library only, so the tests can feed these functions
hand-made wrong inputs without running sirnet.

Tolerances follow the accuracy each routine documents: closed forms and
special functions to about 1e-12, quadratures to an absolute 1e-9 or 1e-10,
CSV values printed with ten significant digits.
"""

from __future__ import annotations

import math

# Closed forms; a CSV value also carries a 5e-11 rounding.
RTOL_CLOSED = 1e-9
# Quadratures documented to an absolute 1e-9 or 1e-10 on values of order 1.
RTOL_QUAD = 1e-8
# Golden-section optima, refined to 1e-7 in p or 1e-8 in log(theta): the
# argument of a flat maximum.
RTOL_ARGMAX = 1e-5
# Slack for orderings between two printed or independently rounded values.
SLACK = 1e-9


def close(value, ref: float, rtol: float, what: str) -> list[str]:
    if value is None or not isinstance(value, (int, float)) or not math.isfinite(value):
        return [f"{what}: got {value!r}, reference {ref!r}"]
    if abs(value - ref) > rtol * max(abs(ref), 1e-300):
        return [f"{what}: got {value!r}, reference {ref!r} (rel {abs(value - ref) / abs(ref):.2e})"]
    return []


def ordered(lo: float, value: float, hi: float, what: str, slack: float = SLACK) -> list[str]:
    if not lo - slack * max(abs(lo), 1.0) <= value <= hi + slack * max(abs(hi), 1.0):
        return [f"{what}: {lo!r} <= {value!r} <= {hi!r} does not hold"]
    return []


# ---------------------------------------------------------------------------
# mc-sweep
# ---------------------------------------------------------------------------


def z_score(estimate: float, stderr: float, ref: float) -> float:
    if stderr == 0.0:
        return 0.0 if estimate == ref else math.inf
    return (estimate - ref) / stderr


def check_case(name: str, analytic: float, estimate: float, stderr: float, ref: float,
               z_max: float, rtol: float) -> list[str]:
    """One sweep case: its analytic value and its simulation against the reference."""
    problems = close(analytic, ref, rtol, f"{name} analytic")
    z = z_score(estimate, stderr, ref)
    if not abs(z) < z_max:
        problems.append(f"{name}: |z| = {abs(z):.3g} against the reference, limit {z_max:g}")
    return problems


def check_z2(zs: list[float], mean_max: float) -> list[str]:
    """The mean z^2 of the sweep stays below its chi-square bound."""
    if not zs:
        return ["no z-scores"]
    mean = sum(z * z for z in zs) / len(zs)
    if not mean < mean_max:
        return [f"mean z^2 = {mean:.3f} over {len(zs)} cases exceeds {mean_max:.3f}"]
    return []


def check_probe(name: str, estimate: float, stderr: float, gamma_ref: float, p_probe: float,
                z_max: float) -> list[str]:
    """estimate_gamma within the linearization bias gamma^2 p/2 plus z_max stderr."""
    limit = gamma_ref * gamma_ref * p_probe / 2.0 + z_max * stderr
    if not abs(estimate - gamma_ref) < limit:
        return [f"{name}: gamma estimate {estimate:.4g}, reference {gamma_ref:.6g}, "
                f"allowed deviation {limit:.3g}"]
    return []


# ---------------------------------------------------------------------------
# analytic-curves
# ---------------------------------------------------------------------------


def check_increasing(values: list[float], what: str) -> list[str]:
    for a, b in zip(values, values[1:]):
        if not b > a:
            return [f"{what}: not increasing ({a!r} then {b!r})"]
    return []


def check_argmax(got: int, table: dict[int, float], expected: int, what: str) -> list[str]:
    """`got` is the documented optimum and the argmax of the reference table."""
    problems = []
    best = max(table, key=table.__getitem__)
    if best != expected:
        problems.append(f"{what}: reference argmax {best}, documented {expected}")
    if got != best:
        problems.append(f"{what}: got argmax {got}, reference {best}")
    return problems


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

CSV_VERSION = "# sirnet csv v1"
HEADERS = {
    "contention": "class,case,alpha,delta,theta,xi,gamma,sigma,method,note",
    "outage": "class,case,alpha,theta,p,m,value,lower,upper,method,mc_estimate,mc_stderr,z",
    "throughput": "gamma,duplex,p_opt,throughput,lower_bound",
    "throughput --tdma": "theta_db,m_lower,m_upper,m_hat,m_exact,pT",
    "throughput --rate": "alpha,d,duplex,theta_opt,p_opt,t_max",
    "capacity": "alpha,d,p,c_p,capacity,lower,method",
    "capacity --tdma": "alpha,m,capacity,lower,upper,method",
    "samples": "sir",
}
# Comment lines the README documents ahead of the CSV for these commands.
PROVENANCE = {
    "outage --validate": ("# seed = ",),
    "samples": ("# config-hash = ", "# seed = ", "# clipped = "),
}


def command_of(argv: list[str]) -> str:
    """The documented output format an argv selects."""
    sub = argv[0]
    for flag in ("--tdma", "--rate", "--validate"):
        if flag in argv and (sub, flag) != ("outage", "--tdma"):
            return f"{sub} {flag}"
    return sub


def parse_output(argv: list[str], text: str) -> tuple[list[dict[str, str]], list[str]]:
    """Rows of a CLI output as dicts, with the problems found in its framing."""
    command = command_of(argv)
    if not text.endswith("\n"):
        return [], ["output does not end with a newline: a row was cut short"]
    lines = text.splitlines()
    prefixes = PROVENANCE.get(command, ())
    i = 0
    while i < len(lines) and prefixes and lines[i].startswith(prefixes):
        i += 1
    header_key = command if command in HEADERS else argv[0]
    if header_key != "samples":
        if i >= len(lines) or lines[i] != CSV_VERSION:
            return [], [f"line {i + 1} is not {CSV_VERSION!r}"]
        i += 1
    if i >= len(lines) or lines[i] != HEADERS[header_key]:
        got = lines[i] if i < len(lines) else "end of output"
        return [], [f"header {got!r}, documented {HEADERS[header_key]!r}"]
    columns = lines[i].split(",")
    rows, problems = [], []
    for n, line in enumerate(lines[i + 1:], start=i + 2):
        fields = line.split(",")
        if len(fields) != len(columns):
            problems.append(f"line {n}: {len(fields)} fields, header has {len(columns)}")
            continue
        rows.append(dict(zip(columns, fields)))
    return rows, problems


def number(field: str):
    """A CSV field as a float, None when empty, the text itself otherwise."""
    if field == "":
        return None
    try:
        return float(field)
    except ValueError:
        return field


def check_finite(rows: list[dict[str, str]]) -> list[str]:
    for n, row in enumerate(rows):
        for key, field in row.items():
            value = number(field)
            if isinstance(value, float) and not math.isfinite(value):
                return [f"row {n + 1}: {key} = {field}"]
    return []


def _table3_key(row: dict[str, str]) -> str:
    def part(field: str) -> str:
        return repr(float(field)) if field else "-"

    return f"{row['class']} {row['case']} {part(row['alpha'])} {part(row['delta'])}"


def check_contention(rows, refs: list[dict]) -> list[str]:
    problems = []
    for n, (row, ref) in enumerate(zip(rows, refs)):
        gamma, sigma = number(row["gamma"]), number(row["sigma"])
        problems += close(gamma, ref["gamma"], RTOL_CLOSED, f"row {n + 1} gamma")
        if isinstance(gamma, float) and isinstance(sigma, float):
            problems += close(sigma * gamma, 1.0, RTOL_CLOSED, f"row {n + 1} sigma*gamma")
    return problems


def check_table3(rows, refs: list[dict]) -> list[str]:
    """Rows come per theta in blocks of one row per class."""
    problems = []
    per_theta = len(refs[0])
    for n, row in enumerate(rows):
        ref = refs[n // per_theta]
        key = _table3_key(row)
        if key not in ref:
            problems.append(f"row {n + 1}: unexpected class row {key!r}")
            continue
        problems += check_contention([row], [{"gamma": ref[key]}])
    return problems


def check_outage(argv: list[str], rows, refs: list[dict], z_max: float) -> list[str]:
    problems = []
    opts = set(argv)
    for n, (row, ref) in enumerate(zip(rows, refs)):
        what = f"row {n + 1}"
        value, lower, upper = number(row["value"]), number(row["lower"]), number(row["upper"])
        if "--m" in opts:
            # TDMA: the exact product against the printed bounds.
            if value is not None:
                problems += close(value, ref["ps"], RTOL_CLOSED, f"{what} value")
            elif row["method"] != "bounds":
                problems.append(f"{what}: no value and method {row['method']!r}")
            problems += ordered(lower, ref["ps"], upper, f"{what} TDMA bounds")
        else:
            p = number(row["p"])
            problems += close(value, ref["ps"], RTOL_CLOSED, f"{what} value")
            if isinstance(value, float) and isinstance(p, float):
                g = ref["gamma"]
                problems += ordered(1.0 - p * g, value, math.exp(-p * g), f"{what} sandwich")
        if "--validate" in opts:
            est, err, z = number(row["mc_estimate"]), number(row["mc_stderr"]), number(row["z"])
            if not all(isinstance(v, float) for v in (est, err, z)):
                problems.append(f"{what}: missing Monte Carlo columns")
            elif not (abs(z) < z_max and abs(z_score(est, err, ref["ps"])) < z_max):
                problems.append(f"{what}: Monte Carlo z = {z:.3g}, limit {z_max:g}")
    return problems


def check_throughput(rows, refs: list[dict]) -> list[str]:
    problems = []
    for n, (row, ref) in enumerate(zip(rows, refs)):
        what = f"row {n + 1}"
        problems += close(number(row["p_opt"]), ref["p_opt"], RTOL_CLOSED, f"{what} p_opt")
        t = number(row["throughput"])
        problems += close(t, ref["throughput"], RTOL_CLOSED, f"{what} throughput")
        bound = number(row["lower_bound"])
        if isinstance(bound, float) and isinstance(t, float):
            problems += ordered(0.0, bound, t, f"{what} lower bound")
    return problems


def check_rate(rows, refs: list[dict]) -> list[str]:
    problems = []
    for n, (row, ref) in enumerate(zip(rows, refs)):
        for key in ("theta_opt", "p_opt", "t_max"):
            problems += close(number(row[key]), ref[key], RTOL_CLOSED, f"row {n + 1} {key}")
    return problems


def check_tdma_m(rows, refs: list[dict]) -> list[str]:
    problems = []
    for n, (row, ref) in enumerate(zip(rows, refs)):
        what = f"row {n + 1}"
        m = number(row["m_exact"])
        if m != ref["m_exact"]:
            problems.append(f"{what}: m_exact {row['m_exact']}, reference argmax {ref['m_exact']}")
        problems += close(number(row["pT"]), ref["pT"], RTOL_CLOSED, f"{what} pT")
        lo, hi = number(row["m_lower"]), number(row["m_upper"])
        if isinstance(lo, float) and isinstance(hi, float):
            problems += ordered(0.0, lo, hi, f"{what} m bounds")
    return problems


def check_capacity(rows, refs: list[dict]) -> list[str]:
    problems = []
    for n, (row, ref) in enumerate(zip(rows, refs)):
        what = f"row {n + 1}"
        problems += close(number(row["c_p"]), ref["c_p"], RTOL_CLOSED, f"{what} c_p")
        problems += close(number(row["capacity"]), ref["capacity"], RTOL_QUAD, f"{what} capacity")
        lower = number(row["lower"])
        problems += close(lower, ref["lower"], RTOL_CLOSED, f"{what} lower")
        if isinstance(lower, float):
            problems += ordered(0.0, lower, ref["capacity"], f"{what} lower <= C")
    return problems


def check_capacity_tdma(rows, refs: list[dict]) -> list[str]:
    problems = []
    for n, (row, ref) in enumerate(zip(rows, refs)):
        what = f"row {n + 1}"
        c = number(row["capacity"])
        problems += close(c, ref["capacity"], RTOL_QUAD, f"{what} capacity")
        lower, upper = number(row["lower"]), number(row["upper"])
        hi = upper if isinstance(upper, float) else math.inf
        if isinstance(lower, float):
            problems += ordered(lower, ref["capacity"], hi, f"{what} bounds")
    return problems


def check_samples(rows, refs: list[dict], theta: float, z_max: float) -> list[str]:
    """The fraction of samples above theta matches the closed-form p_s."""
    values = [number(row["sir"]) for row in rows]
    if not values or not all(isinstance(v, float) for v in values):
        return ["samples are not all numbers"]
    ps = refs[0]["ps"]
    frac = sum(v > theta for v in values) / len(values)
    se = math.sqrt(ps * (1.0 - ps) / len(values))
    if not abs(frac - ps) < z_max * se:
        return [f"fraction above {theta:g} is {frac:.4f}, closed form {ps:.4f}, "
                f"stderr {se:.4f}"]
    return []


def check_cli(check: str, argv: list[str], text: str, refs: list[dict],
              expected_rows: int, z_max: float, samples_theta: float) -> list[str]:
    """Framing, row count, finiteness and the command's own properties."""
    rows, problems = parse_output(argv, text)
    if problems:
        return problems
    if len(rows) != expected_rows:
        return [f"{len(rows)} rows, expected {expected_rows}"]
    problems = check_finite(rows)
    if check == "table3":
        problems += check_table3(rows, refs)
    elif check == "contention":
        problems += check_contention(rows, refs)
    elif check == "outage":
        problems += check_outage(argv, rows, refs, z_max)
    elif check == "throughput":
        problems += check_throughput(rows, refs)
    elif check == "rate":
        problems += check_rate(rows, refs)
    elif check == "tdma_m":
        problems += check_tdma_m(rows, refs)
    elif check == "capacity":
        problems += check_capacity(rows, refs)
    elif check == "capacity_tdma":
        problems += check_capacity_tdma(rows, refs)
    elif check == "samples":
        problems += check_samples(rows, refs, samples_theta, z_max)
    else:
        raise ValueError(f"unknown check {check!r}")
    return problems
