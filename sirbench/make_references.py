"""Regenerate references.json: reference values for every checked output.

Run from the repository root:  python3 sirbench/make_references.py

Everything here is computed with mpmath from the defining expressions
(products over interferers, Laplace transforms of Poisson interference,
ccdf integrals, direct maximization); no sirnet code is imported. The
benchmark itself reads only the resulting JSON. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from sirbench import inputs  # noqa: E402

mp.mp.dps = 30
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


# ---------------------------------------------------------------------------
# Contention and success probabilities.
# ---------------------------------------------------------------------------


def c_d(d: int, alpha) -> mp.mpf:
    """PPP constant: unit-ball volume times Gamma(1+delta)Gamma(1-delta), delta = d/alpha."""
    delta = mp.mpf(d) / alpha
    ball = mp.pi ** (mp.mpf(d) / 2) / mp.gamma(1 + mp.mpf(d) / 2)
    return ball * mp.gamma(1 + delta) * mp.gamma(1 - delta)


def gamma_ppp(d: int, alpha, theta, case: str = "1/1") -> mp.mpf:
    """Contention of a Rayleigh-desired PPP link (case 1/1 or 1/0), or 0/0 at alpha 4 in 2-D."""
    theta = mp.mpf(theta)
    if case == "1/1":  # E exp(-theta I), exponential interferer powers
        return c_d(d, alpha) * theta ** (mp.mpf(d) / alpha)
    if case == "1/0":  # E exp(-theta I), unit interferer powers, 2-D
        return mp.pi * mp.gamma(1 - mp.mpf(2) / alpha) * theta ** (mp.mpf(2) / alpha)
    if case == "0/0":  # slope of 1 - erfc(pi^1.5 p sqrt(theta)/2) at p = 0
        return mp.pi * mp.sqrt(theta)
    raise ValueError(case)


def ps_ppp_nonfading_a4(theta, p) -> mp.mpf:
    """No fading, 2-D, alpha = 4: the interference is Levy distributed."""
    return mp.erfc(mp.pi ** 1.5 * p * mp.sqrt(mp.mpf(theta)) / 2)


def gamma_exp(delta, theta) -> mp.mpf:
    """2-D PPP, Rayleigh, path loss exp(-delta r): 2 pi int r theta l/(1 + theta l) dr."""
    delta, theta = mp.mpf(delta), mp.mpf(theta)

    def f(r):
        tl = theta * mp.exp(-delta * r)
        return r * tl / (1 + tl)

    return 2 * mp.pi * mp.quad(f, [0, 1, 5, 20, 60, mp.inf])


def log_prod(term, x, stop=None) -> mp.mpf:
    """sum_{i >= 1} term(i, x): direct head, then Euler-Maclaurin over the tail.

    With `stop`, a head sum above it is returned as is: the terms are then
    positive and the rest only adds to a sum whose exp(-sum) is negligible.
    """
    head = min(int(mp.ceil(4 * mp.sqrt(1 + abs(x)))) + 50, 400)
    total = mp.fsum(term(i, x) for i in range(1, head + 1))
    if stop is not None and total > stop:
        return total
    return total + mp.nsum(lambda i: term(i, x), [head + 1, mp.inf], method="euler-maclaurin")


def gamma_line(alpha, theta) -> mp.mpf:
    """One-sided Rayleigh line: sum_i theta/(i^alpha + theta)."""
    a, t = mp.mpf(alpha), mp.mpf(theta)
    return log_prod(lambda i, x: x / (mp.mpf(i) ** a + x), t)


def ps_line(alpha, theta, p) -> mp.mpf:
    """One-sided Rayleigh line, ALOHA: prod_i (1 - p theta/(i^alpha + theta))."""
    a, t, p = mp.mpf(alpha), mp.mpf(theta), mp.mpf(p)
    return mp.exp(log_prod(lambda i, x: mp.log1p(-p * x / (mp.mpf(i) ** a + x)), t))


def ps_tdma_product(alpha, theta_p) -> mp.mpf:
    """One-sided TDMA line: 1/prod_i (1 + theta'/i^alpha), summed term by term."""
    a = mp.mpf(alpha)
    return mp.exp(-log_prod(lambda i, x: mp.log1p(x / mp.mpf(i) ** a), mp.mpf(theta_p), stop=120))


def ps_tdma(alpha, theta_p) -> mp.mpf:
    """The same product, by Euler's sine product where alpha is 2 or 4."""
    x = mp.mpf(theta_p)
    if x == 0:
        return mp.mpf(1)
    if alpha == 2:  # prod (1 + x/i^2) = sinh(pi sqrt x)/(pi sqrt x)
        y = mp.pi * mp.sqrt(x)
        return y / mp.sinh(y)
    if alpha == 4:  # prod (1 + z^4/i^4) = |sinh(pi z w)/(pi z w)|^2, w = e^(i pi/4)
        z = x ** 0.25 * mp.expjpi(mp.mpf(1) / 4)
        return 1 / abs(mp.sinh(mp.pi * z) / (mp.pi * z)) ** 2
    return ps_tdma_product(alpha, x)


def gamma_single(case: str, xi) -> mp.mpf:
    """Outage of one active interferer at effective distance xi = r^alpha/theta."""
    xi = mp.mpf(xi)
    desired, interferer = case.split("/")
    if desired == "1" and interferer == "1":
        return 1 / (1 + xi)
    if desired == "1" and interferer == "0":
        return 1 - mp.exp(-1 / xi)
    if desired == "0" and interferer == "1":
        return mp.exp(-xi)
    if desired == "0" and interferer == "0":
        return mp.mpf(1) if xi <= 1 else mp.mpf(0)
    if desired == "1":  # interferer Nakagami-m power Gamma(m, 1/m)
        m = mp.mpf(interferer[1:])
        return 1 - (1 + 1 / (xi * m)) ** -m
    m = mp.mpf(desired[1:])  # desired Nakagami-m, interferer Rayleigh
    return (1 + xi / m) ** -m


def pick_p(gamma) -> float:
    """The sweep's transmit probability: outage near 25 %, clamped to [0.02, 0.5]."""
    return min(0.5, max(0.02, 0.3 / float(gamma)))


# ---------------------------------------------------------------------------
# Capacities: C = int_0^inf p_s(theta)/(1 + theta) dtheta = int_0^inf p_s(e^v - 1) dv.
# ---------------------------------------------------------------------------

_V_EDGES = [0, 0.5, 1, 2, 4, 7, 10, 15, 20, 30, 45, 70, 110]


def capacity_from_ccdf(ps) -> mp.mpf:
    return mp.quad(lambda v: ps(mp.expm1(v)), _V_EDGES)


def capacity_ppp(alpha, d, p) -> mp.mpf:
    cp = p * c_d(d, alpha)
    k = mp.mpf(d) / alpha
    return capacity_from_ccdf(lambda t: mp.exp(-cp * t ** k))


def capacity_ppp_lower(alpha, d, p) -> mp.mpf:
    """The documented PPP lower bound: the larger of its two branches."""
    cp = p * c_d(d, alpha)
    b = mp.mpf(alpha) / d
    piecewise = mp.log(2) * (
        cp ** -b * mp.gammainc(1 + b, 0, cp)
        + (b / 2 - 1) * mp.exp(-mp.sqrt(2) * cp)
        + mp.exp(-cp)
    ) + b * mp.e1(mp.sqrt(2) * cp)
    return max(piecewise, b * mp.e1(cp))


def capacity_tdma(alpha, m) -> mp.mpf:
    ma = mp.mpf(m) ** alpha
    return capacity_from_ccdf(lambda t: ps_tdma(alpha, t / ma))


def tdma_bounds(alpha, m) -> tuple[mp.mpf, mp.mpf | None]:
    """Documented TDMA capacity bounds: exp(z)E1(z); at alpha 2 also 2log(2m/pi) and Jensen."""
    z = mp.zeta(alpha) / mp.mpf(m) ** alpha
    lower = mp.exp(z) * mp.e1(z)
    if alpha != 2:
        return lower, None
    lower = max(lower, 2 * mp.log(2 * mp.mpf(m) / mp.pi))
    return lower, mp.log1p(7 * mp.zeta(3) * mp.mpf(m) ** 2 / mp.pi ** 2)


# ---------------------------------------------------------------------------
# Optima.
# ---------------------------------------------------------------------------


def golden_max(f, a, b, iters: int = 70):
    """Golden-section maximization at working precision; returns (x, f(x))."""
    a, b = mp.mpf(a), mp.mpf(b)
    r = (mp.sqrt(5) - 1) / 2
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def scan_then_golden(f, a, b, n: int = 60):
    xs = [a + (b - a) * mp.mpf(i) / n for i in range(n + 1)]
    k = max(range(n + 1), key=lambda i: f(xs[i]))
    return golden_max(f, xs[max(k - 1, 0)], xs[min(k + 1, n)])


def half_duplex_p(gamma) -> mp.mpf:
    """Root in (0, 1/2] of d/dp [p(1-p)exp(-p gamma)] = 0: gamma p^2 - (2+gamma) p + 1 = 0."""
    g = mp.mpf(gamma)
    return ((2 + g) - mp.sqrt(4 + g * g)) / (2 * g)


def spatial_opt(alpha, duplex: str) -> tuple[mp.mpf, mp.mpf]:
    def f(p):
        w = p * (1 - p) if duplex == "half" else p
        return w * capacity_ppp(alpha, 2, p)

    with mp.workdps(20):
        return scan_then_golden(f, mp.mpf("1e-6"), 1 - mp.mpf("1e-6"), n=40)


def rate_opt(alpha, d, duplex: str) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """(theta_opt, p_opt, t_max) of p_T log(1 + theta), gamma = C_d theta^(d/alpha)."""
    c = c_d(d, alpha)
    k = mp.mpf(alpha) / d
    if duplex == "full":
        # d/dtheta [log(1+theta) theta^(-1/k)] = 0 via Lambert W.
        theta = mp.exp(mp.lambertw(-k * mp.exp(-k)).real + k) - 1
        g = c * theta ** (1 / k)
        p = min(1 / g, mp.mpf(1))
        return theta, p, p * mp.exp(-p * g) * mp.log1p(theta)

    def t_of(lt):
        theta = mp.exp(lt)
        g = c * theta ** (1 / k)
        p = half_duplex_p(g)
        return p * (1 - p) * mp.exp(-p * g) * mp.log1p(theta)

    lt, t = scan_then_golden(t_of, mp.log(mp.mpf("1e-4")), mp.log(mp.mpf("1e6")), n=100)
    theta = mp.exp(lt)
    return theta, half_duplex_p(c * theta ** (1 / k)), t


def tdma_m_best(alpha, theta, m_max: int = 400) -> tuple[int, mp.mpf]:
    """Brute-force argmax over m of p_s(m)^2/m for the two-sided TDMA line."""
    best = None
    for m in range(1, m_max + 1):
        ps = ps_tdma(alpha, mp.mpf(theta) / mp.mpf(m) ** alpha)
        v = ps * ps / m
        if best is None or v > best[1]:
            best = (m, v)
    return best


# ---------------------------------------------------------------------------
# The workloads' references.
# ---------------------------------------------------------------------------


def validation_references() -> dict[str, float]:
    """Values of the 52 cases of the analytic-vs-Monte-Carlo sweep, by case name."""
    refs: dict[str, float] = {}
    r, alpha = mp.mpf("1.2"), 4
    for theta in ("0.1", "1", "10"):
        xi = r ** alpha / mp.mpf(theta)
        refs[f"single-1/1-th{theta}"] = 1 - mp.mpf("0.5") * gamma_single("1/1", xi)
    xi = r ** alpha
    for case in ("1/0", "0/1", "0/0", "1/m4", "m4/1", "1/m0.5"):
        refs[f"single-{case}"] = 1 - mp.mpf("0.5") * gamma_single(case, xi)
    refs["single-1/1-a3"] = 1 - mp.mpf("0.5") * gamma_single("1/1", r ** 3)
    p = mp.mpf("0.3")
    refs["explicit-1/1"] = mp.fprod(1 - p / (1 + mp.mpf(x) ** 4) for x in (1, 2, 3))
    refs["explicit-1/0"] = mp.fprod(
        1 - p * (1 - mp.exp(-1 / mp.mpf(x) ** 4)) for x in ("1.5", "2.5"))

    def ppp_case(name, gamma, ps_of_p):
        refs[name] = ps_of_p(mp.mpf(pick_p(gamma)))

    for a, ths in ((4, ("0.1", "1", "10")), (3, ("0.1", "1"))):
        for th in ths:
            g = gamma_ppp(2, a, th)
            ppp_case(f"ppp2-a{a}-th{th}", g, lambda q, g=g: mp.exp(-q * g))
    for th in ("0.1", "1"):
        g = gamma_ppp(2, 4, th, "1/0")
        ppp_case(f"ppp2-1/0-th{th}", g, lambda q, g=g: mp.exp(-q * g))
        g = gamma_ppp(2, 4, th, "0/0")
        ppp_case(f"ppp2-0/0-th{th}", g, lambda q, th=th: ps_ppp_nonfading_a4(th, q))
        g = gamma_exp(1, th)
        ppp_case(f"ppp2-exp-th{th}", g, lambda q, g=g: mp.exp(-q * g))
    for a in (2, 3, 4):
        for th in ("0.1", "1", "10"):
            g = gamma_ppp(1, a, th)
            ppp_case(f"ppp1-a{a}-th{th}", g, lambda q, g=g: mp.exp(-q * g))
    for th in ("0.1", "1", "10"):
        q = mp.mpf(pick_p(gamma_line(2, th)))
        refs[f"line1-a2-th{th}"] = ps_line(2, th, q)
    for th in ("0.1", "1"):
        q = mp.mpf(pick_p(gamma_line(4, th)))
        refs[f"line1-a4-th{th}"] = ps_line(4, th, q)
    refs["line2-a2-th1"] = ps_line(2, 1, mp.mpf("0.2")) ** 2
    refs["line2-a4-th1"] = ps_line(4, 1, mp.mpf("0.2")) ** 2
    refs["line1-a4-th10"] = ps_line(4, 10, mp.mpf("0.1"))
    for m in (1, 2, 4, 8):
        refs[f"tdma-a2-m{m}"] = ps_tdma_product(2, mp.mpf(1) / m ** 2)
    for th in ("0.1", "10"):
        refs[f"tdma-a2-m2-th{th}"] = ps_tdma_product(2, mp.mpf(th) / 4)
    for m in (1, 2):
        refs[f"tdma-a4-m{m}"] = ps_tdma_product(4, mp.mpf(1) / m ** 4)
    refs["tdma-a2-m2-two"] = ps_tdma_product(2, mp.mpf(1) / 4) ** 2
    refs["tdma-a3-m2"] = ps_tdma_product(3, mp.mpf(1) / 8)
    refs["capacity-tdma-a2-m2"] = capacity_tdma(2, 2)
    refs["capacity-ppp2-a4-p0.1"] = capacity_ppp(4, 2, mp.mpf("0.1"))
    assert len(refs) == 52, len(refs)
    return {k: float(v) for k, v in refs.items()}


def probe_gamma(spec: dict) -> float:
    theta = inputs.PROBE_THETA
    if spec["geometry"] == "ppp":
        if "delta" in spec:
            return float(gamma_exp(spec["delta"], theta))
        return float(gamma_ppp(spec["d"], spec["alpha"], theta, spec["case"]))
    if spec["geometry"] == "line":
        return float(gamma_line(spec["alpha"], theta))
    xi = mp.mpf(spec["r"]) ** spec["alpha"] / theta
    return float(gamma_single(spec["case"], xi))


def z2_mean_max(n: int) -> float:
    """Upper chi-square(n) quantile at tail inputs.Z2_TAIL, divided by n."""
    tail = mp.mpf(inputs.Z2_TAIL)
    lo, hi = mp.mpf(n), mp.mpf(10 * n)  # bisection on the upper tail, decreasing in x
    for _ in range(200):
        q = (lo + hi) / 2
        if mp.gammainc(mp.mpf(n) / 2, q / 2, mp.inf, regularized=True) > tail:
            lo = q
        else:
            hi = q
    return float(q / n)


def analytic_references() -> dict:
    out: dict = {"tdma_capacity": {}, "tdma_lower": {}, "tdma_upper": {}}
    alphas = sorted(set(inputs.TDMA_GENERAL) | set(inputs.TDMA_SPATIAL) | {2.0})
    for a in alphas:
        # alpha 2 and 4 have closed products, so their tables run to m = 10
        # for the argmax checks; other alpha sum term by term, only where used.
        closed = a in (2.0, 4.0)
        ms = range(1, (inputs.TDMA_REF_M_MAX if closed else max(inputs.TDMA_GENERAL[a])) + 1)
        key = repr(a)
        aa = int(a)
        with mp.workdps(20):
            out["tdma_capacity"][key] = [float(capacity_tdma(aa, m)) for m in ms]
        bounds = [tdma_bounds(aa, m) for m in ms]
        out["tdma_lower"][key] = [float(lo) for lo, _ in bounds]
        out["tdma_upper"][key] = [None if up is None else float(up) for _, up in bounds]
        print(f"tdma alpha={a}: done", flush=True)
    out["ppp_capacity"] = {
        repr(a): [float(capacity_ppp(a, 2, mp.mpf(p))) for p in inputs.PPP_P]
        for a in inputs.PPP_ALPHAS}
    out["ppp_lower"] = {
        repr(a): [float(capacity_ppp_lower(a, 2, mp.mpf(p))) for p in inputs.PPP_P]
        for a in inputs.PPP_ALPHAS}
    out["ppp_cp"] = {
        repr(a): [float(mp.mpf(p) * c_d(2, a)) for p in inputs.PPP_P] for a in inputs.PPP_ALPHAS}
    out["spatial_opt"] = {}
    for a, duplex in inputs.SPATIAL_OPT:
        p, v = spatial_opt(a, duplex)
        out["spatial_opt"][f"{a!r} {duplex}"] = [float(p), float(v)]
    print("spatial optima: done", flush=True)
    out["m_opt"] = []
    for db in inputs.M_OPT_DB:
        m, v = tdma_m_best(inputs.M_OPT_ALPHA, 10.0 ** (db / 10.0))
        out["m_opt"].append([m, float(v)])
    for duplex in ("half", "full"):
        out[f"rate_{duplex}"] = [
            [float(x) for x in rate_opt(a, inputs.RATE_D, duplex)] for a in inputs.RATE_ALPHAS]
    print("rate optima: done", flush=True)
    return out


def _table3_rows(theta: float) -> dict[str, float]:
    """Every row of `contention --table3`, keyed by class, case, alpha and delta."""
    return {
        "ppp2 1/1 3.0 -": gamma_ppp(2, 3, theta),
        "ppp2 1/1 4.0 -": gamma_ppp(2, 4, theta),
        "ppp2 1/0 4.0 -": gamma_ppp(2, 4, theta, "1/0"),
        "ppp2 0/0 4.0 -": gamma_ppp(2, 4, theta, "0/0"),
        "exp2 1/1 - 1.0": gamma_exp(1, theta),
        "ppp1 1/1 2.0 -": gamma_ppp(1, 2, theta),
        "ppp1 1/1 4.0 -": gamma_ppp(1, 4, theta),
        "line1 1/1 2.0 -": gamma_line(2, theta),
        "line1 1/1 4.0 -": gamma_line(4, theta),
        "tdma-line 1/1 2.0 -": mp.zeta(2) * theta,
        "ppp3 1/1 4.0 -": gamma_ppp(3, 4, theta),
    }


def _gamma_aloha(cls: str, opts: dict, theta: float) -> mp.mpf:
    case = opts.get("--case", "1/1")
    if cls in ("ppp1", "ppp2", "ppp3"):
        return gamma_ppp(int(cls[-1]), mp.mpf(opts["--alpha"]), theta, case)
    if cls == "exp2":
        return gamma_exp(mp.mpf(opts["--delta"]), theta)
    if cls in ("line1", "line2"):
        g = gamma_line(mp.mpf(opts["--alpha"]), theta)
        return 2 * g if cls == "line2" else g
    if cls == "single":
        if "--xi" in opts:
            return gamma_single(case, mp.mpf(opts["--xi"]))
        return gamma_single(case, mp.mpf(opts["--r"]) ** mp.mpf(opts["--alpha"]) / theta)
    if cls == "explicit":
        a = mp.mpf(opts["--alpha"])
        return mp.fsum(gamma_single(case, mp.mpf(r) ** a / theta)
                       for r in opts["--distances"].split(","))
    raise ValueError(cls)


def _outage_rows(opts: dict, thetas: list[float]) -> list[dict]:
    if "--config" in opts:
        kv = inputs.config_options(os.path.basename(opts["--config"]))
        if kv["geometry"] == "ppp":
            cls = "ppp" + kv.get("geometry.d", "2")
        else:
            cls = "line2" if kv.get("geometry.sided") == "two" else "line1"
        opts = dict(opts, **{"--alpha": kv["pathloss.alpha"], "--case": "1/1"})
    else:
        cls = opts["--class"]
    rows = []
    for theta in thetas:
        if "--m" in opts:
            m = int(opts["--m"])
            a = mp.mpf(opts["--alpha"])
            ps = ps_tdma_product(a, mp.mpf(theta) / m ** a)
            if cls == "line2":
                ps = ps * ps
            rows.append({"ps": float(ps)})
            continue
        p = mp.mpf(opts["--p"])
        g = _gamma_aloha(cls, opts, theta)
        case = opts.get("--case", "1/1")
        if cls in ("line1", "line2"):
            ps = ps_line(mp.mpf(opts["--alpha"]), theta, p)
            ps = ps * ps if cls == "line2" else ps
        elif cls == "single":
            ps = 1 - p * g
        elif cls == "explicit":
            a = mp.mpf(opts["--alpha"])
            ps = mp.fprod(1 - p * gamma_single(case, mp.mpf(r) ** a / theta)
                          for r in opts["--distances"].split(","))
        else:
            ps = mp.exp(-p * g)
        rows.append({"ps": float(ps), "gamma": float(g)})
    return rows


def cli_references() -> dict:
    refs: dict = {}
    for ident, check, argv in inputs.CLI_MIX:
        opts = inputs.options(argv)
        thetas = inputs.thetas(argv)
        if check == "table3":
            refs[ident] = [{k: float(v) for k, v in _table3_rows(t).items()} for t in thetas]
        elif check == "contention":
            cls = opts["--class"]
            if cls == "single":
                thetas = [None]
            refs[ident] = [{"gamma": float(_gamma_aloha(cls, opts, t))} for t in thetas]
        elif check == "outage":
            refs[ident] = _outage_rows(opts, thetas)
        elif check == "throughput":
            rows = []
            for g in inputs.grid(opts["--gamma"]):
                g = mp.mpf(g)
                if opts["--duplex"] == "full":
                    p = min(1 / g, mp.mpf(1))
                    rows.append({"p_opt": float(p), "throughput": float(p * mp.exp(-p * g))})
                else:
                    p = half_duplex_p(g)
                    rows.append({"p_opt": float(p),
                                 "throughput": float(p * (1 - p) * mp.exp(-p * g))})
            refs[ident] = rows
        elif check == "rate":
            refs[ident] = [
                dict(zip(("theta_opt", "p_opt", "t_max"),
                         (float(x) for x in rate_opt(a, int(opts["--d"]), opts["--duplex"]))))
                for a in inputs.grid(opts["--alpha-range"])]
        elif check == "tdma_m":
            a = float(opts["--alpha"])
            refs[ident] = [
                dict(zip(("m_exact", "pT"), tdma_m_best(a, t)))
                for t in thetas]
            for row in refs[ident]:
                row["pT"] = float(row["pT"])
        elif check == "capacity":
            a, d = mp.mpf(opts["--alpha"]), int(opts["--d"])
            refs[ident] = [
                {"c_p": float(mp.mpf(p) * c_d(d, a)),
                 "capacity": float(capacity_ppp(a, d, mp.mpf(p))),
                 "lower": float(capacity_ppp_lower(a, d, mp.mpf(p)))}
                for p in inputs.grid(opts["--p"])]
        elif check == "capacity_tdma":
            a = int(float(opts["--alpha"]))
            lo, hi = (int(s) for s in opts["--m"].split(":"))
            refs[ident] = [{"capacity": float(capacity_tdma(a, m))} for m in range(lo, hi + 1)]
        elif check == "samples":
            kv = inputs.config_options(os.path.basename(opts["--config"]))
            g = gamma_ppp(int(kv["geometry.d"]), mp.mpf(kv["pathloss.alpha"]),
                          inputs.SAMPLES_THETA)
            refs[ident] = [{"ps": float(mp.exp(-mp.mpf(kv["mac.p"]) * g))}]
        else:
            raise ValueError(check)
    return refs


def self_check() -> None:
    """The closed sine products agree with the term-by-term products."""
    for a in (2, 4):
        for x in ("0.01", "1", "37.5", "400"):
            assert mp.almosteq(ps_tdma(a, mp.mpf(x)), ps_tdma_product(a, mp.mpf(x)), 1e-20)


def main() -> None:
    self_check()
    cases = validation_references()
    refs = {
        "generator": "sirbench/make_references.py",
        "mpmath": mp.__version__,
        "mc": {
            "cases": cases,
            "probes": {spec["name"]: probe_gamma(spec) for spec in inputs.PROBES},
            "z2_mean_max": z2_mean_max(len(cases)),
        },
        "cli": cli_references(),
    }
    print("mc and cli references: done", flush=True)
    refs["analytic"] = analytic_references()
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
