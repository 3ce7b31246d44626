"""Command-line front end: closed forms, optimization sweeps, and the
analytic-vs-Monte-Carlo validation suite, all emitted as CSV.

Exit codes: 0 success, 1 validation failure, 2 usage or domain error.
``main(argv)`` returns the exit code instead of exiting, except for an
argparse usage error, which raises ``SystemExit(2)``. It may be called
repeatedly in one process: the parser is built on the first call and
reused, since parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import re
import sys

from . import analytic, capacity, contention, throughput
from .model import (
    CLASSES,
    RAYLEIGH,
    Aloha,
    ConfigError,
    ExponentialLaw,
    FadingCase,
    MacScheme,
    NetworkModel,
    PowerLaw,
    Ppp,
    Tdma,
    _CLASS_ARGS,
    class_model,
    format_model,
    parse_model,
)
from .montecarlo import SimConfig, WindowError, simulate_ps, simulate_sir_samples
from .specfun import DomainError

_CSV_VERSION = "# sirnet csv v1"
# Spatial contention under ALOHA does not depend on p.
_ALOHA = Aloha(1.0)


def _fmt(x: object) -> str:
    if isinstance(x, float):  # first, as most values are; bool and None never are
        return f"{x:.10g}"
    if x is None:
        return ""
    if isinstance(x, bool):
        return "yes" if x else "no"
    return str(x)


class _Csv:
    def __init__(self, columns: list[str], out) -> None:
        self.out = out
        out.write(f"{_CSV_VERSION}\n{','.join(columns)}\n")

    def row(self, *values: object) -> None:
        self.out.write(",".join(map(_fmt, values)) + "\n")


# The most points a grid may hold; a longer one is refused before it is
# built (0:1:1e308 would otherwise allocate without end).
_MAX_POINTS = 10_000


def _grid(values: list, spec: str) -> list:
    if not values or not all(map(math.isfinite, values)):
        raise DomainError(f"{spec!r} must give one or more finite numbers")
    return values


def _parse_range(spec: str) -> list[float]:
    """'a:step:b' inclusive range, or a single value, or 'v1,v2,...'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError(f"range must be start:step:stop, got {spec!r}")
        start, step, stop = _grid([float(s) for s in parts], spec)
        if step <= 0 or stop < start:
            raise DomainError(f"invalid range {spec!r}")
        count = (stop - start) / step
        if not count < _MAX_POINTS:
            raise DomainError(f"range {spec!r} has more than {_MAX_POINTS} points")
        return _grid([start + i * step for i in range(int(round(count)) + 1)], spec)
    return _grid([float(s) for s in spec.split(",") if s.strip()], spec)


def _parse_int_range(spec: str) -> list[int]:
    if ":" in spec:
        a, b = (int(s) for s in spec.split(":", 1))
        if b - a >= _MAX_POINTS:
            raise DomainError(f"range {spec!r} has more than {_MAX_POINTS} points")
        return _grid(list(range(a, b + 1)), spec)
    return _grid([int(s) for s in spec.split(",") if s.strip()], spec)


def _thetas(args) -> list[float]:
    if args.theta_db is not None:
        return [10.0 ** (db / 10.0) for db in _parse_range(args.theta_db)]
    return [1.0] if args.theta is None else _parse_range(args.theta)


def _class_model(args) -> NetworkModel:
    """The model of --class from only the flags it reads, --case and the class's keywords
    in model._CLASS_ARGS; class_model's defaults stand in for a flag not given."""
    cls = args.cls or "ppp2"
    return class_model(cls, **{k: v.split(",") if k == "distances" else v
                               for k in ["case", *_CLASS_ARGS[cls]]
                               if (v := getattr(args, k)) not in (None, "")})


# ---------------------------------------------------------------------------
# contention
# ---------------------------------------------------------------------------

_CONTENTION_COLUMNS = ["class", "case", "alpha", "delta", "theta", "xi",
                       "gamma", "sigma", "method", "note"]


def _contention_row(csv: _Csv, cls: str, case: str, alpha, delta, theta, xi,
                    gamma: float, method: str = "closed-form") -> None:
    sigma = math.inf if gamma == 0.0 else 1.0 / gamma
    csv.row(cls, case, alpha, delta, theta, xi, gamma, sigma, method, "")  # note: kept, empty


def _model_row(csv: _Csv, cls: str, model: NetworkModel, mac: MacScheme,
               theta: float) -> None:
    pl = model.path_loss
    gamma, method = analytic.contention_method(model, mac, theta)
    _contention_row(csv, cls, model.fading.label,
                    pl.alpha if isinstance(pl, PowerLaw) else None,
                    pl.delta if isinstance(pl, ExponentialLaw) else None,
                    theta, None, gamma, method=method)


# contention --table3: every closed-form class, repeated for each theta.
_TABLE3 = (
    ("ppp2", class_model("ppp2", 3.0), _ALOHA),
    ("ppp2", class_model("ppp2", 4.0), _ALOHA),
    ("ppp2", class_model("ppp2", 4.0, "1/0"), _ALOHA),
    ("ppp2", class_model("ppp2", 4.0, "0/0"), _ALOHA),
    ("exp2", class_model("exp2", delta=1.0), _ALOHA),
    ("ppp1", class_model("ppp1", 2.0), _ALOHA),
    ("ppp1", class_model("ppp1", 4.0), _ALOHA),
    ("line1", class_model("line1", 2.0), _ALOHA),
    ("line1", class_model("line1", 4.0), _ALOHA),
    ("tdma-line", class_model("line1", 2.0), Tdma(1)),
    ("ppp3", class_model("ppp3", 4.0), _ALOHA),
)


def cmd_contention(args, out) -> int:
    if not args.table and args.cls == "single":
        # The input is xi itself, not a model, so no threshold is read.
        case, xi = FadingCase.parse(args.case or "1/1"), 1.0 if args.xi is None else args.xi
        _contention_row(_Csv(_CONTENTION_COLUMNS, out), "single", case.label, None, None,
                        None, xi, contention.gamma_single(case, xi))
        return 0
    csv = _Csv(_CONTENTION_COLUMNS, out)
    rows = _TABLE3 if args.table else [(args.cls or "ppp2", _class_model(args), _ALOHA)]
    for theta in _thetas(args):
        for cls, model, mac in rows:
            _model_row(csv, cls, model, mac, theta)
    return 0


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------

_OUTAGE_COLUMNS = ["class", "case", "alpha", "theta", "p", "m", "value",
                   "lower", "upper", "method", "mc_estimate", "mc_stderr", "z"]


def cmd_outage(args, out) -> int:
    if args.config:  # its mac block beats --p/--m, which then go unread
        with open(args.config) as fh:
            model, mac = parse_model(fh.read())
        cls = "config"
    else:
        model, mac, cls = _class_model(args), None, args.cls or "ppp2"
    mac = mac or (Tdma(args.m) if args.m is not None else Aloha(args.p))
    if args.validate:
        print(f"# seed = {args.seed}, trials = {args.trials}", file=out)
    csv = _Csv(_OUTAGE_COLUMNS, out)
    alpha = model.path_loss.alpha if isinstance(model.path_loss, PowerLaw) else None
    for theta in _thetas(args):
        sp = analytic.success_probability(model, mac, theta)
        mc = stderr = z = None
        if args.validate:
            cfg = SimConfig(trials=args.trials, seed=args.seed)
            est = simulate_ps(model, mac, theta, cfg)
            mc, stderr, z = est.mean, est.stderr, est.z_score(sp.value)
        csv.row(cls, model.fading.label, alpha, theta,
                mac.p if isinstance(mac, Aloha) else None,
                mac.m if isinstance(mac, Tdma) else None,
                sp.value, sp.lower_bound, sp.upper_bound, sp.method, mc, stderr, z)
    return 0


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------


def cmd_throughput(args, out) -> int:
    if args.tdma:
        alpha = 2.0 if args.alpha is None else args.alpha
        csv = _Csv(["theta_db", "m_lower", "m_upper", "m_hat", "m_exact", "pT"], out)
        for db in _parse_range(args.theta_db or "0:1:20"):
            theta = 10.0 ** (db / 10.0)
            res = throughput.tdma_m_opt(alpha, theta)
            csv.row(db, res.m_bounds[0], res.m_bounds[1], res.m_hat, res.m_opt, res.value)
        return 0
    duplex = args.duplex or "full"
    if args.rate:
        d = 2 if args.d is None else args.d
        csv = _Csv(["alpha", "d", "duplex", "theta_opt", "p_opt", "t_max"], out)
        # --alpha is read only where --alpha-range is not given.
        for a in _parse_range(args.alpha_range or _fmt(4.0 if args.alpha is None else args.alpha)):
            opt = throughput.optimize_rate(a, d, duplex)
            csv.row(a, d, duplex, opt.theta_opt, opt.p_opt, opt.t_max)
        return 0
    csv = _Csv(["gamma", "duplex", "p_opt", "throughput", "lower_bound"], out)
    for gamma in _parse_range(args.gamma or "1"):
        res = throughput.aloha_p_opt(gamma, duplex)
        csv.row(gamma, duplex, res.p_opt, res.value, res.lower_bound)
    return 0


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def cmd_capacity(args, out) -> int:
    if args.tdma:
        model = class_model("line1", args.alpha)
        csv = _Csv(["alpha", "m", "capacity", "lower", "upper", "method"], out)
        for m in _parse_int_range(args.m or "1:10"):
            res = analytic.ergodic_capacity(model, Tdma(m))
            lo, up = capacity.ergodic_capacity_tdma_bounds(args.alpha, m)
            csv.row(args.alpha, m, res.value, lo, up, res.method)
        return 0
    d = 2 if args.d is None else args.d
    model = NetworkModel(Ppp(d), PowerLaw(args.alpha), RAYLEIGH)
    csv = _Csv(["alpha", "d", "p", "c_p", "capacity", "lower", "method"], out)
    for p in _parse_range(args.p or "0.1"):
        res = analytic.ergodic_capacity(model, Aloha(p))
        low = capacity.ergodic_capacity_ppp_lower(args.alpha, d, p)
        csv.row(args.alpha, d, p, res.c_p, res.value, low.value, res.method)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args, out) -> int:
    from . import validation  # here, so that no other command pays for its import
    trials = args.trials or (10_000 if args.quick else 100_000)
    cfg = SimConfig(trials=trials, seed=args.seed)
    cases = [c for c in validation.validation_cases() if c.name.startswith(args.cls or "")]
    if not cases:
        raise DomainError(f"no validation cases match class {args.cls!r}")
    print(f"# seed = {args.seed}, trials = {trials}", file=out)
    csv = _Csv(["name", "quantity", "analytic", "estimate", "stderr", "z", "ok"], out)
    rows, checks = validation.run_validation(cfg, cases)
    for r in rows:
        csv.row(r.name, r.quantity, r.analytic, r.estimate, r.stderr, r.z, r.ok)
    for name, ok in checks:
        csv.row(name, "bound-order", None, None, None, None, ok)
    passed = validation.validation_passed(rows, checks)
    print(f"# result = {'pass' if passed else 'fail'}", file=out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def cmd_samples(args, out) -> int:
    import hashlib  # here, so that no other command pays for its import
    if not args.config:
        raise DomainError("samples requires --config")
    with open(args.config) as fh:
        text = fh.read()
    model, mac = parse_model(text)
    cfg = SimConfig(trials=args.trials, seed=args.seed)
    digest = hashlib.sha256(
        (format_model(model, mac) + f"trials={cfg.trials} seed={cfg.seed}").encode()
    ).hexdigest()
    print(f"# config-hash = {digest}", file=out)
    print(f"# seed = {cfg.seed}, trials = {cfg.trials}", file=out)
    samples = simulate_sir_samples(model, mac, cfg)
    if samples.clipped:
        print(f"# clipped = {samples.clipped}", file=out)
    values = samples.values.tolist()
    out.write("sir\n" + ("%.10g\n" * len(values)) % tuple(values))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirnet",
        description="Outage, contention, throughput, and capacity of "
                    "interference-limited wireless networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for _parse

    def common(p: argparse.ArgumentParser, theta: bool = True) -> None:
        p.add_argument("--out", help="write CSV here instead of stdout")
        if theta:
            p.add_argument("--theta", help="linear SIR threshold(s): value, list, or a:step:b")
            p.add_argument("--theta-db", help="SIR threshold(s) in dB: value, list, or a:step:b")

    c = sub.add_parser("contention", help="spatial contention gamma and efficiency sigma")
    common(c)
    c.add_argument("--class", dest="cls", choices=CLASSES)
    c.add_argument("--alpha", type=float)
    c.add_argument("--delta", type=float)
    c.add_argument("--xi", type=float)
    c.add_argument("--case", help="fading case, e.g. 1/1, 1/0, 0/1, 0/0, 1/m4")
    c.add_argument("--distances", help="comma-separated interferer distances")
    c.add_argument("--table3", dest="table", action="store_true",
                   help="all closed-form classes over the theta grid")
    c.set_defaults(func=cmd_contention)

    o = sub.add_parser("outage", help="success probability p_s with bounds")
    common(o)
    o.add_argument("--class", dest="cls", choices=CLASSES, help="model class (default ppp2)")
    o.add_argument("--alpha", type=float)
    o.add_argument("--delta", type=float)
    o.add_argument("--r", type=float, help="single-interferer distance")
    o.add_argument("--distances")
    o.add_argument("--case")
    o.add_argument("--p", type=float, default=0.1, help="ALOHA transmit probability")
    o.add_argument("--m", type=int, help="TDMA reuse factor (line classes)")
    o.add_argument("--config", help="model config file (overrides --class)")
    o.add_argument("--validate", action="store_true", help="add a Monte Carlo cross-check")
    o.add_argument("--trials", type=int, default=100_000)
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(func=cmd_outage)

    # No abbreviations here: --theta would otherwise be read as --theta-db.
    t = sub.add_parser("throughput", help="ALOHA/TDMA throughput optima", allow_abbrev=False)
    common(t, theta=False)
    t.add_argument("--theta-db", help="SIR threshold(s) in dB for --tdma: value, list, or a:step:b")
    t.add_argument("--tdma", action="store_true", help="TDMA reuse-factor sweep")
    t.add_argument("--rate", action="store_true", default=None,
                   help="joint (theta, p) rate optimization")
    t.add_argument("--alpha", type=float, help="path-loss exponent (default 2, 4 for --rate)")
    t.add_argument("--alpha-range", help="alpha sweep for --rate: a:step:b")
    t.add_argument("--d", type=int)
    t.add_argument("--duplex", choices=["full", "half"])
    t.add_argument("--gamma", help="spatial contention value(s)")
    t.set_defaults(func=cmd_throughput)

    k = sub.add_parser("capacity", help="ergodic capacity (nats)")
    common(k, theta=False)
    k.add_argument("--tdma", action="store_true")
    k.add_argument("--alpha", type=float, default=4.0)
    k.add_argument("--d", type=int, help="PPP dimension (default 2)")
    k.add_argument("--m", help="TDMA reuse factor(s): value, list, or a:b")
    k.add_argument("--p", help="ALOHA transmit probability(ies) (default 0.1)")
    k.set_defaults(func=cmd_capacity)

    v = sub.add_parser("validate", help="analytic-vs-Monte-Carlo sweep")
    common(v, theta=False)
    v.add_argument("--quick", action="store_true", help="10^4 trials (default 10^5)")
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--class", dest="cls", help="only cases whose name starts with this")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("samples", help="export raw SIR samples")
    common(s, theta=False)
    s.add_argument("--config", required=True)
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_samples)
    return parser


# Range options whose value may start with '-', such as --theta-db -10:2:10.
# argparse takes such a token for an option unless it is joined to its flag.
_RANGE_OPTIONS = ("--theta", "--theta-db", "--alpha-range")
_DASH_VALUE = re.compile(r"-[\d.]")


def _join_dash_values(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _RANGE_OPTIONS and _DASH_VALUE.match(arg):
            joined[-1] = f"{joined[-1]}={arg}"
        else:
            joined.append(arg)
    return joined


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parse_args`` of the joined argv; a known command's parser reads the rest directly."""
    parser = _build_parser()
    argv = _join_dash_values(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


@functools.cache
def _reading(command: str) -> type:
    """A namespace class for `command` whose flags, when read, add their name to the
    instance's set _read; the values stay in the instance dict, so vars() is unchanged."""
    sub = _build_parser().commands[command]
    return type("Reads", (argparse.Namespace,), {"_flags": sub._actions[1:], "_parser": sub} | {
        a.dest: property(lambda self, k=a.dest: self._read.add(k) or self.__dict__[k])
        for a in sub._actions[1:]})  # every flag but --help


def _first_unread(args: argparse.Namespace, argv: list[str]) -> str | None:
    """The first flag in argv given a non-default value that the command never read."""
    values, read = vars(args), args._read
    unread = [a for a in args._flags if a.dest not in read and values[a.dest] != a.default]
    if not unread:
        return None
    flags = args._parser._option_string_actions  # argparse took each whole, or its one abbreviation
    given = (flags.get(n) or next((a for f, a in flags.items() if f.startswith(n)), None)
             for n in (arg.partition("=")[0] for arg in argv))
    return next((a for a in given if a in unread), unread[0]).option_strings[0]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    args.__class__, args._read = _reading(args.command), set()  # each flag read is noted
    # Output is held until the command has run and has read every flag given a
    # value, so an error leaves no partial CSV on stdout or in --out.
    buf, path = io.StringIO(), args.out
    try:
        code = args.func(args, buf)
        if flag := _first_unread(args, argv):
            raise DomainError(f"{args.command} does not read {flag}")
        if path:
            with open(path, "w") as fh:
                fh.write(buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
        return code
    except (DomainError, ConfigError, ValueError, OSError, OverflowError, WindowError) as exc:
        kind = "numeric overflow: " if isinstance(exc, OverflowError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
