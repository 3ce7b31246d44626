"""The three workloads.

Each is built once from the seed (its set-up), then runs whole rounds:
`run_round` makes the program calls under a timer (`clock`, which may leave
out time the benchmark spends on itself) and keeps their outputs,
and `check_round` checks those outputs after the timer has stopped. Every
round attempts the same operations, and every outcome is one of
  ok     the output passed its checks,
  error  the program refused: it raised, or the CLI exited non-zero,
  wrong  the output failed a check.
The program is always reached through module attributes at call time, so a
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time

from . import checks, inputs

OK, ERROR, WRONG = "ok", "error", "wrong"


def _outcome(op: str, problems: list[str]) -> tuple[str, str, str]:
    return (op, WRONG, "; ".join(problems)) if problems else (op, OK, "")


def _call(fn, *args, **kwargs):
    """The result of one program call, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the workload counts a refusal and goes on
        return exc


def _probe_model(sirnet, spec: dict):
    fading = {"1": sirnet.Fading.rayleigh(), "0": sirnet.Fading.none()}
    desired, interferer = spec["case"].split("/")
    case = sirnet.FadingCase(fading[desired], fading[interferer])
    if spec["geometry"] == "ppp":
        law = (sirnet.ExponentialLaw(spec["delta"]) if "delta" in spec
               else sirnet.PowerLaw(spec["alpha"]))
        return sirnet.NetworkModel(sirnet.Ppp(spec["d"]), law, case)
    if spec["geometry"] == "line":
        geometry = sirnet.RegularLine("one")
    else:
        geometry = sirnet.SingleInterferer(spec["r"])
    return sirnet.NetworkModel(geometry, sirnet.PowerLaw(spec["alpha"]), case)


class McSweep:
    """validation.run_validation, then estimate_gamma for each probe class."""

    name = "mc-sweep"

    def __init__(self, seed: int, refs: dict, run_dir: str) -> None:
        import sirnet
        from sirnet import validation

        self.sirnet, self.validation = sirnet, validation
        self.cfg = sirnet.SimConfig(trials=inputs.MC_TRIALS, seed=seed)
        self.refs = refs["mc"]
        self.probes = [(spec["name"], _probe_model(sirnet, spec)) for spec in inputs.PROBES]

    def run_round(self, tracer=None, clock=time.perf_counter) -> tuple[list[float], dict]:
        out = {}
        start = clock()
        out["sweep"] = _call(self.validation.run_validation, self.cfg)
        for name, model in self.probes:
            if tracer is not None:
                tracer.call_id += 1
            out[name] = _call(self.sirnet.estimate_gamma, model, inputs.PROBE_THETA,
                              self.cfg, p_probe=inputs.PROBE_P)
        return [clock() - start], out

    def check_round(self, out: dict) -> list[tuple[str, str, str]]:
        cases = self.refs["cases"]
        sweep = out["sweep"]
        results = []
        if isinstance(sweep, Exception):
            results += [(f"case {n}", ERROR, repr(sweep)) for n in cases]
            results += [(f"bound check {i}", ERROR, repr(sweep))
                        for i in range(inputs.BOUND_CHECKS)]
            results.append(("mean z^2", ERROR, repr(sweep)))
        else:
            rows, bound_checks = sweep
            by_name = {row.name: row for row in rows}
            zs = []
            for name, ref in cases.items():
                row = by_name.get(name)
                if row is None:
                    results.append((f"case {name}", WRONG, "missing from the sweep"))
                    continue
                rtol = checks.RTOL_QUAD if row.quantity == "capacity" else checks.RTOL_CLOSED
                results.append(_outcome(f"case {name}", checks.check_case(
                    name, row.analytic, row.estimate, row.stderr, ref, inputs.Z_MAX, rtol)))
                zs.append(checks.z_score(row.estimate, row.stderr, ref))
            for i in range(inputs.BOUND_CHECKS):
                if i < len(bound_checks):
                    label, ok = bound_checks[i]
                    results.append(_outcome(f"bound check {label}", [] if ok else ["fails"]))
                else:
                    results.append((f"bound check {i}", WRONG, "missing from the sweep"))
            extra = sorted(set(by_name) - set(cases))
            problems = checks.check_z2(zs, self.refs["z2_mean_max"])
            problems += [f"unexpected case {n}" for n in extra]
            results.append(_outcome("mean z^2", problems))
        for name, _ in self.probes:
            est = out[name]
            if isinstance(est, Exception):
                results.append((f"probe {name}", ERROR, repr(est)))
                continue
            results.append(_outcome(f"probe {name}", checks.check_probe(
                name, est.mean, est.stderr, self.refs["probes"][name], inputs.PROBE_P,
                inputs.Z_MAX)))
        return results


class AnalyticCurves:
    """Capacity curves, TDMA reuse optima and rate optima: no simulation."""

    name = "analytic-curves"

    def __init__(self, seed: int, refs: dict, run_dir: str) -> None:
        from sirnet import capacity, throughput

        self.refs = refs["analytic"]
        cap, thr = capacity, throughput
        calls = []
        for alpha, ms in inputs.TDMA_GENERAL.items():
            for m in ms:
                calls.append((("tdma", alpha, m), lambda a=alpha, m=m: cap.ergodic_capacity_tdma(a, m)))
        for m in inputs.TDMA_ALPHA2_M:
            calls.append((("tdma", 2.0, m), lambda m=m: cap.ergodic_capacity_tdma(2.0, m)))
        for alpha, ms in inputs.TDMA_SPATIAL.items():
            m_range = range(ms[0], ms[-1] + 1)
            calls.append((("spatial", alpha), lambda a=alpha, r=m_range: cap.tdma_spatial_capacity(a, r)))
        bounds = {(a, m) for a, ms in inputs.TDMA_GENERAL.items() for m in ms}
        bounds |= {(4.0, m) for m in inputs.TDMA_SPATIAL[4.0]}
        bounds |= {(2.0, m) for m in inputs.TDMA_ALPHA2_M}
        for alpha, m in sorted(bounds):
            calls.append((("bounds", alpha, m),
                          lambda a=alpha, m=m: cap.ergodic_capacity_tdma_bounds(a, m)))
        for alpha in inputs.PPP_ALPHAS:
            for i, p in enumerate(inputs.PPP_P):
                calls.append((("ppp", alpha, i), lambda a=alpha, p=p: cap.ergodic_capacity_ppp(a, 2, p)))
                calls.append((("ppp_lower", alpha, i),
                              lambda a=alpha, p=p: cap.ergodic_capacity_ppp_lower(a, 2, p)))
        for alpha, duplex in inputs.SPATIAL_OPT:
            calls.append((("spatial_opt", alpha, duplex),
                          lambda a=alpha, d=duplex: cap.spatial_capacity_opt(a, 2, d)))
        for i, db in enumerate(inputs.M_OPT_DB):
            theta = 10.0 ** (db / 10.0)
            calls.append((("m_opt", i), lambda t=theta: thr.tdma_m_opt(inputs.M_OPT_ALPHA, t)))
        for i, alpha in enumerate(inputs.RATE_ALPHAS):
            for duplex in ("half", "full"):
                calls.append((("rate", duplex, i),
                              lambda a=alpha, d=duplex: thr.optimize_rate(a, inputs.RATE_D, d)))
        # The order is drawn once from the seed; every round keeps it.
        random.Random(seed).shuffle(calls)
        self.calls = calls

    def run_round(self, tracer=None, clock=time.perf_counter) -> tuple[list[float], dict]:
        out = {}
        start = clock()
        for key, fn in self.calls:
            if tracer is not None:
                tracer.call_id += 1
            out[key] = _call(fn)
        return [clock() - start], out

    def _check(self, key: tuple, res) -> list[str]:
        refs = self.refs
        kind = key[0]
        if kind == "tdma":
            _, alpha, m = key
            return checks.close(res.value, refs["tdma_capacity"][repr(alpha)][m - 1],
                                checks.RTOL_QUAD, f"C({alpha:g}, {m})")
        if kind == "bounds":
            _, alpha, m = key
            lower, upper = res
            ref_c = refs["tdma_capacity"][repr(alpha)][m - 1]
            ref_upper = refs["tdma_upper"][repr(alpha)][m - 1]
            problems = checks.close(lower, refs["tdma_lower"][repr(alpha)][m - 1],
                                    checks.RTOL_CLOSED, "lower")
            if ref_upper is None:
                if upper is not None:
                    problems.append(f"upper bound {upper!r} where none is documented")
                upper = float("inf")
            else:
                problems += checks.close(upper, ref_upper, checks.RTOL_CLOSED, "upper")
            if not problems:
                problems += checks.ordered(lower, ref_c, upper, f"bounds on C({alpha:g}, {m})")
            return problems
        if kind == "spatial":
            alpha = key[1]
            m_opt, best, table = res
            ref_c = refs["tdma_capacity"][repr(alpha)]
            ms = inputs.TDMA_SPATIAL[alpha]
            # The reference argmax runs over all of m = 1..10, also where the call
            # asks a shorter range.
            whole = {m: c / m for m, c in enumerate(ref_c, start=1)}
            problems = checks.check_argmax(m_opt, whole, inputs.TDMA_SPATIAL_OPT[alpha],
                                           f"alpha {alpha:g}")
            if sorted(table) != list(ms):
                return problems + [f"table over m = {sorted(table)}, asked {list(ms)}"]
            for m in ms:
                problems += checks.close(table[m], ref_c[m - 1] / m, checks.RTOL_QUAD, f"C/m at m={m}")
            return problems + checks.close(best, table[m_opt], 0.0, "reported optimum")
        if kind in ("ppp", "ppp_lower"):
            _, alpha, i = key
            ref_c = refs["ppp_capacity"][repr(alpha)][i]
            if kind == "ppp":
                return (checks.close(res.value, ref_c, checks.RTOL_QUAD, "capacity")
                        + checks.close(res.c_p, refs["ppp_cp"][repr(alpha)][i],
                                       checks.RTOL_CLOSED, "c_p"))
            problems = checks.close(res.value, refs["ppp_lower"][repr(alpha)][i],
                                    checks.RTOL_CLOSED, "lower bound")
            return problems or checks.ordered(0.0, res.value, ref_c, "lower <= C")
        if kind == "spatial_opt":
            _, alpha, duplex = key
            p_ref, v_ref = refs["spatial_opt"][f"{alpha!r} {duplex}"]
            p, v = res
            problems = (checks.close(v, v_ref, checks.RTOL_QUAD, "spatial capacity")
                        + checks.close(p, p_ref, checks.RTOL_ARGMAX, "p_opt"))
            if duplex == "half":
                lo, hi = inputs.HALF_DUPLEX_P
                problems += checks.ordered(lo, p, hi, "half-duplex p_opt", slack=0.0)
            return problems
        if kind == "m_opt":
            m_ref, pt_ref = refs["m_opt"][key[1]]
            problems = [] if res.m_opt == m_ref else [f"m_opt {res.m_opt}, brute force {m_ref}"]
            return problems + checks.close(res.value, pt_ref, checks.RTOL_CLOSED, "p_T")
        _, duplex, i = key
        theta, p, t = refs[f"rate_{duplex}"][i]
        rtol = checks.RTOL_CLOSED if duplex == "full" else checks.RTOL_ARGMAX
        return (checks.close(res.t_max, t, checks.RTOL_CLOSED, "t_max")
                + checks.close(res.theta_opt, theta, rtol, "theta_opt")
                + checks.close(res.p_opt, p, rtol, "p_opt"))

    def check_round(self, out: dict) -> list[tuple[str, str, str]]:
        results = []
        for key, _ in sorted(self.calls, key=lambda c: repr(c[0])):
            res = out[key]
            op = " ".join(str(k) for k in key)
            if isinstance(res, Exception):
                results.append((op, ERROR, repr(res)))
                continue
            try:
                problems = self._check(key, res)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                problems = [f"output of an unexpected shape: {exc!r}"]
            results.append(_outcome(op, problems))
        # C(m) increases with m on each path.
        curves = {
            3.0: [("tdma", 3.0, m) for m in inputs.TDMA_GENERAL[3.0]],
            2.0: [("tdma", 2.0, m) for m in inputs.TDMA_ALPHA2_M],
        }
        for alpha, keys in curves.items():
            vals = [out[k] for k in keys]
            if any(isinstance(v, Exception) for v in vals):
                results.append((f"C(m) increasing, alpha {alpha:g}", ERROR, "a call failed"))
            else:
                results.append(_outcome(f"C(m) increasing, alpha {alpha:g}", checks.check_increasing(
                    [v.value for v in vals], f"alpha {alpha:g}")))
        spatial = out[("spatial", 4.0)]
        if isinstance(spatial, Exception):
            results.append(("C(m) increasing, alpha 4", ERROR, "a call failed"))
        else:
            table = spatial[2]
            results.append(_outcome("C(m) increasing, alpha 4", checks.check_increasing(
                [table[m] * m for m in sorted(table)], "alpha 4")))
        return results


class CliMix:
    """Rounds of in-process sirnet.cli.main calls with captured output."""

    name = "cli-mix"

    def __init__(self, seed: int, refs: dict, run_dir: str) -> None:
        from sirnet import cli

        self.cli = cli
        cfg_dir = os.path.join(run_dir, "cfg")
        os.makedirs(cfg_dir, exist_ok=True)
        for name, text in inputs.CONFIGS.items():
            with open(os.path.join(cfg_dir, name), "w") as fh:
                fh.write(text)
        self.items = []
        for ident, check, argv in inputs.CLI_MIX:
            argv = [a.format(cfg=cfg_dir, seed=seed) for a in argv]
            ref = refs["cli"][ident]
            if check == "table3":
                rows = sum(len(r) for r in ref)
            elif check == "samples":
                rows = inputs.SAMPLES_TRIALS
            else:
                rows = len(ref)
            self.items.append((ident, check, argv, ref, rows))
        self.seed = seed
        self.rng = random.Random(seed)

    def run_round(self, tracer=None, clock=time.perf_counter) -> tuple[list[float], list]:
        """One call of each item, in an order drawn from the seed.

        The untraced rounds draw their orders one after another; the traced
        round repeats the order of the first, so it is the same on every
        run with this seed.
        """
        order = list(self.items)
        (random.Random(self.seed) if tracer is not None else self.rng).shuffle(order)
        latencies, out = [], []
        for item in order:
            if tracer is not None:
                tracer.call_id += 1
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = clock()
                try:
                    code = self.cli.main(item[2])
                except SystemExit as exc:  # argparse refuses the argv
                    code = exc.code
                except Exception as exc:  # a traceback: the call fails
                    code = repr(exc)
                latencies.append(clock() - start)
            out.append((item, code, stdout.getvalue(), stderr.getvalue()))
        return latencies, out

    def check_round(self, out: list) -> list[tuple[str, str, str]]:
        results = []
        for (ident, check, argv, ref, rows), code, text, err in out:
            if code != 0:
                first = err.strip().splitlines()[-1] if err.strip() else ""
                results.append((ident, ERROR, f"exit {code}: {first}"))
                continue
            results.append(_outcome(ident, checks.check_cli(
                check, argv, text, ref, rows, inputs.Z_MAX, inputs.SAMPLES_THETA)))
        return results

    @staticmethod
    def bytes_out(out: list) -> int:
        return sum(len(text.encode()) for _, _, text, _ in out)


WORKLOADS = {w.name: w for w in (McSweep, AnalyticCurves, CliMix)}
