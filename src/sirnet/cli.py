"""Command-line front end: closed forms, optimization sweeps, and the
analytic-vs-Monte-Carlo validation suite, all emitted as CSV.

Exit codes: 0 success, 1 validation failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import re
import sys

from . import capacity, contention, outage, throughput, validation
from .model import (
    Aloha,
    ConfigError,
    Explicit,
    ExponentialLaw,
    Fading,
    FadingCase,
    MacScheme,
    NetworkModel,
    PowerLaw,
    Ppp,
    RegularLine,
    SingleInterferer,
    Tdma,
    effective_distance,
    format_model,
    parse_model,
)
from .montecarlo import SimConfig, simulate_ps, simulate_sir_samples
from .specfun import DomainError

_CSV_VERSION = "# sirnet csv v1"
_RAY = FadingCase(Fading.rayleigh(), Fading.rayleigh())


def _fmt(x: object) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


class _Csv:
    def __init__(self, columns: list[str], out) -> None:
        self.out = out
        print(_CSV_VERSION, file=out)
        print(",".join(columns), file=out)

    def row(self, *values: object) -> None:
        print(",".join(_fmt(v) for v in values), file=self.out)


def _parse_range(spec: str) -> list[float]:
    """'a:step:b' inclusive range, or a single value, or 'v1,v2,...'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError(f"range must be start:step:stop, got {spec!r}")
        start, step, stop = (float(s) for s in parts)
        if step <= 0 or stop < start:
            raise DomainError(f"invalid range {spec!r}")
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1)]
    if "," in spec:
        return [float(s) for s in spec.split(",") if s.strip()]
    return [float(spec)]


def _parse_int_range(spec: str) -> list[int]:
    if ":" in spec:
        a, b = spec.split(":", 1)
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in spec.split(",") if s.strip()]


def _distances(args) -> tuple[float, ...]:
    if not args.distances:
        raise DomainError("--class explicit needs --distances")
    return tuple(float(s) for s in args.distances.split(","))


def _thetas(args) -> list[float]:
    if getattr(args, "theta_db", None) is not None:
        return [10.0 ** (db / 10.0) for db in _parse_range(args.theta_db)]
    if getattr(args, "theta", None) is not None:
        return _parse_range(args.theta)
    return [1.0]


def _parse_case(spec: str) -> FadingCase:
    def one(sym: str) -> Fading:
        if sym == "0":
            return Fading.none()
        if sym == "1":
            return Fading.rayleigh()
        if sym.startswith("m"):
            return Fading.nakagami(float(sym[1:]))
        raise DomainError(f"unknown fading symbol {sym!r} (use 0, 1, or m<value>)")

    if "/" not in spec:
        raise DomainError(f"fading case must look like 1/0, got {spec!r}")
    d, i = spec.split("/", 1)
    return FadingCase(one(d), one(i))


# ---------------------------------------------------------------------------
# contention
# ---------------------------------------------------------------------------

_CONTENTION_COLUMNS = ["class", "case", "alpha", "delta", "theta", "xi",
                       "gamma", "sigma", "method", "note"]


def _contention_row(csv: _Csv, cls: str, case: str, alpha, delta, theta, xi,
                    gamma: float, method: str, note: str = "") -> None:
    sigma = math.inf if gamma == 0.0 else 1.0 / gamma
    csv.row(cls, case, alpha, delta, theta, xi, gamma, sigma, method, note)


def _emit_contention(csv: _Csv, args, theta: float) -> None:
    cls = args.cls
    case = _parse_case(args.case) if args.case else _RAY
    if cls in ("ppp1", "ppp2", "ppp3"):
        d = int(cls[-1])
        if case.desired.is_static and case.interferer.is_static:
            g = contention.gamma_ppp_nonfading_alpha4(theta)
            _contention_row(csv, cls, "0/0", args.alpha, None, theta, None, g, "closed-form")
        elif case.interferer.is_static:
            g = contention.gamma_ppp(d, args.alpha, theta, Fading.none())
            _contention_row(csv, cls, "1/0", args.alpha, None, theta, None, g, "closed-form")
        else:
            g = contention.gamma_ppp(d, args.alpha, theta, Fading.rayleigh())
            note = "conjectured" if d == 3 else ""
            _contention_row(csv, cls, case.label, args.alpha, None, theta, None, g,
                            "closed-form", note)
    elif cls == "exp2":
        g = contention.gamma_exp_pathloss(args.delta, theta)
        _contention_row(csv, cls, "1/1", None, args.delta, theta, None, g, "closed-form")
    elif cls in ("line1", "line2"):
        if args.alpha == 2.0:
            g = contention.gamma_line_alpha2(theta)
        elif args.alpha == 4.0:
            g = contention.gamma_line_alpha4(theta, mode=args.mode)
        elif theta < 0.5:
            g = contention.gamma_line_taylor(args.alpha, theta, terms=30)
        else:
            raise DomainError(
                f"line contention needs alpha in {{2, 4}} or theta < 0.5, got "
                f"alpha={args.alpha}, theta={theta}"
            )
        if cls == "line2":
            g *= 2.0
        _contention_row(csv, cls, "1/1", args.alpha, None, theta, None, g, "closed-form")
    elif cls == "single":
        g = contention.gamma_single(case, args.xi)
        _contention_row(csv, cls, case.label, None, None, None, args.xi, g, "closed-form")
    elif cls == "explicit":
        xis = [effective_distance(r, args.alpha, theta) for r in _distances(args)]
        g = contention.gamma_explicit(xis, case.interferer)
        _contention_row(csv, cls, case.label, args.alpha, None, theta, None, g, "closed-form")
    else:
        raise DomainError(f"unknown class {cls!r}")


def _emit_table(csv: _Csv, thetas: list[float]) -> None:
    """Every closed-form contention class over a theta grid."""
    for theta in thetas:
        _contention_row(csv, "ppp2", "1/1", 3.0, None, theta, None,
                        contention.gamma_ppp(2, 3.0, theta, Fading.rayleigh()), "closed-form")
        _contention_row(csv, "ppp2", "1/1", 4.0, None, theta, None,
                        contention.gamma_ppp(2, 4.0, theta, Fading.rayleigh()), "closed-form")
        _contention_row(csv, "ppp2", "1/0", 4.0, None, theta, None,
                        contention.gamma_ppp(2, 4.0, theta, Fading.none()), "closed-form")
        _contention_row(csv, "ppp2", "0/0", 4.0, None, theta, None,
                        contention.gamma_ppp_nonfading_alpha4(theta), "closed-form")
        _contention_row(csv, "exp2", "1/1", None, 1.0, theta, None,
                        contention.gamma_exp_pathloss(1.0, theta), "closed-form")
        _contention_row(csv, "ppp1", "1/1", 2.0, None, theta, None,
                        contention.gamma_ppp(1, 2.0, theta, Fading.rayleigh()), "closed-form")
        _contention_row(csv, "ppp1", "1/1", 4.0, None, theta, None,
                        contention.gamma_ppp(1, 4.0, theta, Fading.rayleigh()), "closed-form")
        _contention_row(csv, "line1", "1/1", 2.0, None, theta, None,
                        contention.gamma_line_alpha2(theta), "closed-form")
        _contention_row(csv, "line1", "1/1", 4.0, None, theta, None,
                        contention.gamma_line_alpha4(theta), "closed-form")
        _contention_row(csv, "tdma-line", "1/1", 2.0, None, theta, None,
                        contention.gamma_tdma_line(2.0, theta), "closed-form")
        _contention_row(csv, "ppp3", "1/1", 4.0, None, theta, None,
                        contention.gamma_ppp(3, 4.0, theta, Fading.rayleigh()),
                        "closed-form", "conjectured")


def cmd_contention(args, out) -> int:
    csv = _Csv(_CONTENTION_COLUMNS, out)
    if args.table:
        _emit_table(csv, _thetas(args))
        return 0
    for theta in _thetas(args):
        _emit_contention(csv, args, theta)
    return 0


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------

_OUTAGE_COLUMNS = ["class", "case", "alpha", "theta", "p", "m", "value",
                   "lower", "upper", "method", "mc_estimate", "mc_stderr", "z"]


def _model_from_args(args) -> tuple[NetworkModel, MacScheme, str]:
    """Model, MAC scheme and class label; a config's mac block beats --p/--m."""
    mac = Tdma(args.m) if args.m is not None else Aloha(args.p)
    if args.config:
        with open(args.config) as fh:
            model, config_mac = parse_model(fh.read())
        return model, config_mac or mac, "config"
    return _class_model(args), mac, args.cls


def _class_model(args) -> NetworkModel:
    cls = args.cls
    case = _parse_case(args.case) if args.case else _RAY
    if cls in ("ppp1", "ppp2"):
        return NetworkModel(Ppp(int(cls[-1])), PowerLaw(args.alpha), case)
    if cls == "exp2":
        return NetworkModel(Ppp(2), ExponentialLaw(args.delta), case)
    if cls in ("line1", "line2"):
        sided = "two" if cls == "line2" else "one"
        return NetworkModel(RegularLine(sided), PowerLaw(args.alpha), case)
    if cls == "single":
        return NetworkModel(SingleInterferer(args.r), PowerLaw(args.alpha), case)
    if cls == "explicit":
        return NetworkModel(Explicit(_distances(args)), PowerLaw(args.alpha), case)
    raise DomainError(f"unknown class {cls!r}")


def _analytic_ps(model: NetworkModel, mac, theta: float) -> outage.SuccessProbability:
    """Closed-form success probability for a model (value None if only bounds)."""
    g = model.geometry
    case = model.fading
    if isinstance(model.path_loss, ExponentialLaw) and g != Ppp(2):
        raise DomainError("exponential path loss has a closed form only on the 2-D PPP")
    if isinstance(mac, Tdma) and not isinstance(g, RegularLine):
        raise DomainError("TDMA scheduling is only defined for line networks")
    if isinstance(g, SingleInterferer):
        alpha = model.path_loss.alpha
        xi = effective_distance(g.r, alpha, theta)
        v = outage.ps_single(case, xi, mac.p)
        return outage.SuccessProbability(v, 0.0, 1.0)
    if isinstance(g, Explicit):
        alpha = model.path_loss.alpha
        xis = [effective_distance(r, alpha, theta) for r in g.distances]
        if case.interferer.is_static:
            v = outage.ps_explicit_partial_exact(xis, mac.p)
            return outage.SuccessProbability(v, 0.0, 1.0)
        return outage.ps_explicit(xis, mac.p)
    if isinstance(g, Ppp):
        if isinstance(model.path_loss, ExponentialLaw):
            v = outage.ps_exp_pathloss(model.path_loss.delta, theta, mac.p)
        elif case.desired.is_static and case.interferer.is_static:
            v = outage.ps_ppp_nonfading_alpha4(theta, mac.p)
        else:
            v = outage.ps_ppp(g.d, model.path_loss.alpha, theta, mac.p, case.interferer)
        return outage.SuccessProbability(v, 0.0, 1.0)
    alpha = model.path_loss.alpha
    if isinstance(mac, Tdma):
        return outage.ps_tdma_line(alpha, theta, mac.m, sided=g.sided)
    if alpha == 2.0:
        v = outage.ps_line_alpha2_aloha(theta, mac.p)
    elif alpha == 4.0:
        v = outage.ps_line_alpha4_aloha(theta, mac.p)
    else:
        raise DomainError(f"line ALOHA closed form needs alpha in {{2, 4}}, got {alpha}")
    if g.sided == "two":
        v *= v
    return outage.SuccessProbability(v, 0.0, 1.0)


def cmd_outage(args, out) -> int:
    model, mac, cls = _model_from_args(args)
    if args.validate:
        print(f"# seed = {args.seed}, trials = {args.trials}", file=out)
    csv = _Csv(_OUTAGE_COLUMNS, out)
    alpha = model.path_loss.alpha if isinstance(model.path_loss, PowerLaw) else None
    for theta in _thetas(args):
        sp = _analytic_ps(model, mac, theta)
        mc = stderr = z = None
        if args.validate:
            cfg = SimConfig(trials=args.trials, seed=args.seed)
            est = simulate_ps(model, mac, theta, cfg)
            mc, stderr = est.mean, est.stderr
            target = sp.value if sp.value is not None else est.mean
            z = est.z_score(target)
        method = "closed-form" if sp.value is not None else "bounds"
        csv.row(cls, model.fading.label, alpha, theta,
                mac.p if isinstance(mac, Aloha) else None,
                mac.m if isinstance(mac, Tdma) else None,
                sp.value, sp.lower_bound, sp.upper_bound, method, mc, stderr, z)
    return 0


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------


def cmd_throughput(args, out) -> int:
    if args.tdma:
        csv = _Csv(["theta_db", "m_lower", "m_upper", "m_hat", "m_exact", "pT"], out)
        for db in _parse_range(args.theta_db or "0:1:20"):
            theta = 10.0 ** (db / 10.0)
            res = throughput.tdma_m_opt(args.alpha, theta)
            csv.row(db, res.m_bounds[0], res.m_bounds[1], res.m_hat, res.m_opt, res.value)
        return 0
    if args.rate:
        csv = _Csv(["alpha", "d", "duplex", "theta_opt", "p_opt", "t_max"], out)
        for alpha in _parse_range(args.alpha_range or _fmt(args.alpha)):
            opt = throughput.optimize_rate(alpha, args.d, args.duplex)
            csv.row(alpha, args.d, args.duplex, opt.theta_opt, opt.p_opt, opt.t_max)
        return 0
    csv = _Csv(["gamma", "duplex", "p_opt", "throughput", "lower_bound"], out)
    for gamma in _parse_range(args.gamma):
        res = throughput.aloha_p_opt(gamma, args.duplex)
        csv.row(gamma, args.duplex, res.p_opt, res.value, res.lower_bound)
    return 0


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def cmd_capacity(args, out) -> int:
    if args.tdma:
        csv = _Csv(["alpha", "m", "capacity", "lower", "upper", "method"], out)
        for m in _parse_int_range(args.m or "1:10"):
            res = capacity.ergodic_capacity_tdma(args.alpha, m)
            lo, up = capacity.ergodic_capacity_tdma_bounds(args.alpha, m)
            csv.row(args.alpha, m, res.value, lo, up, res.method)
        return 0
    csv = _Csv(["alpha", "d", "p", "c_p", "capacity", "lower", "method"], out)
    for p in _parse_range(args.p):
        res = capacity.ergodic_capacity_ppp(args.alpha, args.d, p)
        low = capacity.ergodic_capacity_ppp_lower(args.alpha, args.d, p)
        csv.row(args.alpha, args.d, p, res.c_p, res.value, low.value, res.method)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args, out) -> int:
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
    print("sir", file=out)
    for v in samples.values:
        print(f"{v:.10g}", file=out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirnet",
        description="Outage, contention, throughput, and capacity of "
                    "interference-limited wireless networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, theta: bool = True) -> None:
        p.add_argument("--out", help="write CSV here instead of stdout")
        if theta:
            p.add_argument("--theta", help="linear SIR threshold(s): value, list, or a:step:b")
            p.add_argument("--theta-db", help="SIR threshold(s) in dB: value, list, or a:step:b")

    c = sub.add_parser("contention", help="spatial contention gamma and efficiency sigma")
    common(c)
    c.add_argument("--class", dest="cls", default="ppp2",
                   choices=["ppp1", "ppp2", "ppp3", "line1", "line2", "single",
                            "explicit", "exp2"])
    c.add_argument("--alpha", type=float, default=4.0)
    c.add_argument("--delta", type=float, default=1.0)
    c.add_argument("--xi", type=float, default=1.0)
    c.add_argument("--case", help="fading case, e.g. 1/1, 1/0, 0/1, 0/0, 1/m4")
    c.add_argument("--distances", help="comma-separated interferer distances")
    c.add_argument("--mode", default="exact", choices=["exact", "approx"])
    c.add_argument("--table3", dest="table", action="store_true",
                   help="all closed-form classes over the theta grid")
    c.set_defaults(func=cmd_contention)

    o = sub.add_parser("outage", help="success probability p_s with bounds")
    common(o)
    o.add_argument("--class", dest="cls", default="ppp2",
                   choices=["ppp1", "ppp2", "line1", "line2", "single", "explicit", "exp2"])
    o.add_argument("--alpha", type=float, default=4.0)
    o.add_argument("--delta", type=float, default=1.0)
    o.add_argument("--r", type=float, default=1.0, help="single-interferer distance")
    o.add_argument("--distances")
    o.add_argument("--case")
    o.add_argument("--p", type=float, default=0.1, help="ALOHA transmit probability")
    o.add_argument("--m", type=int, help="TDMA reuse factor (line classes)")
    o.add_argument("--config", help="model config file (overrides --class)")
    o.add_argument("--validate", action="store_true", help="add a Monte Carlo cross-check")
    o.add_argument("--trials", type=int, default=100_000)
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(func=cmd_outage)

    t = sub.add_parser("throughput", help="ALOHA/TDMA throughput optima")
    common(t)
    t.add_argument("--tdma", action="store_true", help="TDMA reuse-factor sweep")
    t.add_argument("--rate", action="store_true", help="joint (theta, p) rate optimization")
    t.add_argument("--alpha", type=float, default=2.0)
    t.add_argument("--alpha-range", help="alpha sweep for --rate: a:step:b")
    t.add_argument("--d", type=int, default=2)
    t.add_argument("--duplex", default="full", choices=["full", "half"])
    t.add_argument("--gamma", default="1", help="spatial contention value(s)")
    t.set_defaults(func=cmd_throughput)

    k = sub.add_parser("capacity", help="ergodic capacity (nats)")
    common(k, theta=False)
    k.add_argument("--tdma", action="store_true")
    k.add_argument("--ppp", action="store_true")
    k.add_argument("--alpha", type=float, default=4.0)
    k.add_argument("--d", type=int, default=2)
    k.add_argument("--m", help="TDMA reuse factor(s): value, list, or a:b")
    k.add_argument("--p", default="0.1", help="ALOHA transmit probability(ies)")
    k.set_defaults(func=cmd_capacity)

    v = sub.add_parser("validate", help="analytic-vs-Monte-Carlo sweep")
    common(v, theta=False)
    v.add_argument("--quick", action="store_true", help="10^4 trials")
    v.add_argument("--full", action="store_true", help="10^5 trials (default)")
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    # Output is held until the command succeeds, so an error leaves no
    # partial CSV on stdout or in --out.
    buf = io.StringIO()
    try:
        code = args.func(args, buf)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
        return code
    except (DomainError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
