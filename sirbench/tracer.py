"""Spans at sirnet's public-function boundaries, and the per-layer metrics
computed from them.

`Tracer.install` replaces every public function of each layer module with
a wrapper, in every sirnet module namespace that binds it, so calls between
modules and within one module both pass through a wrapper. Callables handed
to `quadrature` and `optimize` are wrapped too, so their evaluations are
counted. Nothing under src/ changes; `uninstall` puts the originals back.

A span is [name, start, end, parent index, call id, info, child time]; spans
stay in memory and `write` saves them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time

LAYERS = ("specfun", "model", "contention", "outage", "throughput", "quadrature",
          "optimize", "capacity", "montecarlo", "validation", "cli")

SIM_CLASSES = ("ppp2", "ppp1", "exp2", "line", "tdma", "single", "explicit", "samples")
SPECFUN_TIMED = ("zeta", "exp_integral_e1", "exp_integral_e1_imag", "lambert_w0", "dilog",
                 "lower_incomplete_gamma", "gamma_fn")

# Every per-layer metric with its unit, in the order they are reported.
PER_LAYER = (
    [("montecarlo.s", "s"), ("montecarlo.trials", "count"),
     ("montecarlo.trials_per_s", "1/s")]
    + [(f"montecarlo.{c}.trials_per_s", "1/s") for c in SIM_CLASSES]
    + [("montecarlo.candidates_per_trial", "count"), ("montecarlo.samples_mb", "MB"),
       ("validation.cases_s", "s"), ("validation.self_s", "s"),
       ("capacity.tdma.calls", "count"), ("capacity.tdma.s_per_call", "s"),
       ("capacity.tdma_alpha2.s_per_call", "s"), ("capacity.cp.calls", "count"),
       ("capacity.cp.s", "s"), ("capacity.spatial_opt.s", "s"),
       ("quadrature.integrals", "count"), ("quadrature.integrand_evals", "count"),
       ("quadrature.evals_per_integral", "count"), ("quadrature.self_s", "s"),
       ("throughput.ps_one_sided.calls", "count"), ("throughput.ps_one_sided.us_per_call", "us"),
       ("throughput.ps_one_sided.s", "s"), ("throughput.m_opt.s", "s"),
       ("optimize.searches", "count"), ("optimize.objective_evals", "count"),
       ("optimize.self_s", "s"),
       ("specfun.calls", "count"), ("specfun.s", "s")]
    + [(f"specfun.{f}.us_per_call", "us") for f in SPECFUN_TIMED]
    + [("contention.calls", "count"), ("contention.s", "s"),
       ("outage.calls", "count"), ("outage.s", "s"),
       ("model.parse_model.calls", "count"), ("model.parse_model.s", "s"),
       ("cli.calls", "count"), ("cli.failed", "count"), ("cli.self_s", "s"),
       ("cli.call_p90_s", "s"), ("cli.bytes_out", "B"),
       ("trace.overhead_s", "s")]
)

TRACED = "__sirbench_traced__"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _sim_class(model, mac) -> str:
    g = type(model.geometry).__name__
    if g == "Ppp":
        if type(model.path_loss).__name__ == "ExponentialLaw":
            return "exp2"
        return f"ppp{model.geometry.d}"
    if g == "RegularLine":
        return "tdma" if type(mac).__name__ == "Tdma" else "line"
    return "single" if g == "SingleInterferer" else "explicit"


def _candidates(model, window) -> float:
    """Interferer points one trial draws from the window resolve_window returns."""
    g = model.geometry
    if window.radius is not None:
        return math.pi * window.radius ** 2 if g.d == 2 else 2.0 * window.radius
    if window.terms is not None:
        return window.terms * (2 if g.sided == "two" else 1)
    return float(len(getattr(g, "distances", (None,))))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call_id = 0
        self.integrand_evals = 0
        self.objective_evals = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if before is not None:
                args, kwargs, info = before(fn, args, kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.call_id, info, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += end - span[1]
            if after is not None:
                after(fn, span, args, kwargs, result)
            return result

        setattr(traced, TRACED, True)
        return traced

    def _wrap_callable(self, f, kind: str):
        """Count the evaluations of a callable passed into quadrature or optimize.

        Counted, not spanned: a span per evaluation would cost more than
        many integrands. Their own arithmetic stays in the caller's self time.
        """
        if getattr(f, TRACED, False):
            return f
        tracer = self

        def counted(*args, **kwargs):
            if kind == "integrand":
                tracer.integrand_evals += 1
            else:
                tracer.objective_evals += 1
            return f(*args, **kwargs)

        setattr(counted, TRACED, True)
        return counted

    def _hooks(self, full: str):
        """(before, after) hooks that add counts to the span of one function."""
        tracer = self

        def wrap_first(kind):
            def before(fn, args, kwargs):
                if args:
                    args = (tracer._wrap_callable(args[0], kind),) + args[1:]
                else:
                    kwargs = dict(kwargs, f=tracer._wrap_callable(kwargs["f"], kind))
                return args, kwargs, None
            return before

        def simulation(samples: bool):
            def before(fn, args, kwargs):
                cfg = _arg(fn, args, kwargs, "cfg")
                mac = _arg(fn, args, kwargs, "mac")
                cls = "samples" if samples else _sim_class(_arg(fn, args, kwargs, "model"), mac)
                return args, kwargs, {"trials": cfg.trials, "cls": cls}
            return before

        def samples_after(fn, span, args, kwargs, result):
            span[5]["bytes"] = int(result.values.nbytes)

        def window_after(fn, span, args, kwargs, result):
            parent = span[3]
            if parent >= 0 and tracer.spans[parent][5] is not None:
                model = _arg(fn, args, kwargs, "model")
                tracer.spans[parent][5]["candidates"] = _candidates(model, result)

        def alpha_before(fn, args, kwargs):
            return args, kwargs, {"alpha": float(_arg(fn, args, kwargs, "alpha"))}

        return {
            "quadrature.adaptive_simpson": (wrap_first("integrand"), None),
            "quadrature.integrate_decaying": (wrap_first("integrand"), None),
            "optimize.golden_section_max": (wrap_first("objective"), None),
            "montecarlo.simulate_ps": (simulation(False), None),
            "montecarlo.simulate_sir_samples": (simulation(True), samples_after),
            "montecarlo.resolve_window": (None, window_after),
            "capacity.ergodic_capacity_tdma": (alpha_before, None),
        }.get(full, (None, None))

    def install(self, package) -> None:
        prefix = package.__name__
        modules = {layer: importlib.import_module(f"{prefix}.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ["main"]):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                full = f"{layer}.{name}"
                wrapped = self._span_wrapper(full, fn, *self._hooks(full))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call, info, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent, "call": call, "info": info,
                }) + "\n")


def per_layer(tracer: Tracer, cli_failed: int, cli_bytes: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric from the spans of one traced round."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    entry = [s[3] < 0 or _layer(spans[s[3]][0]) != _layer(s[0]) for s in spans]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(ids):
        return sum(dur[i] for i in ids)

    def mean(ids):
        return total(ids) / len(ids) if ids else 0.0

    def entries(layer):
        return [i for i, s in enumerate(spans) if entry[i] and _layer(s[0]) == layer]

    def self_time(layer):
        return sum(dur[i] - s[6] for i, s in enumerate(spans) if _layer(s[0]) == layer)

    sims = named("montecarlo.simulate_ps") + named("montecarlo.simulate_sir_samples")
    trials = sum(spans[i][5]["trials"] for i in sims)

    def rate(ids):
        t = total(ids)
        return sum(spans[i][5]["trials"] for i in ids) / t if t > 0 else 0.0

    weighted = sum(spans[i][5]["trials"] * spans[i][5].get("candidates", 0.0) for i in sims)
    tdma = named("capacity.ergodic_capacity_tdma")
    quad_entries = entries("quadrature")
    specfun = [i for i, s in enumerate(spans) if _layer(s[0]) == "specfun"]
    ps_one = named("throughput.tdma_ps_one_sided")
    mains = named("cli.main")
    values = {
        "montecarlo.s": total(entries("montecarlo")),
        "montecarlo.trials": trials,
        "montecarlo.trials_per_s": rate(sims),
        "montecarlo.candidates_per_trial": weighted / trials if trials else 0.0,
        "montecarlo.samples_mb": sum(spans[i][5].get("bytes", 0) for i in sims) / 1e6,
        "validation.cases_s": total(named("validation.run_validation")),
        "validation.self_s": self_time("validation"),
        "capacity.tdma.calls": len(tdma),
        "capacity.tdma.s_per_call": mean([i for i in tdma if spans[i][5]["alpha"] != 2.0]),
        "capacity.tdma_alpha2.s_per_call": mean([i for i in tdma if spans[i][5]["alpha"] == 2.0]),
        "capacity.cp.calls": len(named("capacity.ergodic_capacity_cp")),
        "capacity.cp.s": total(named("capacity.ergodic_capacity_cp")),
        "capacity.spatial_opt.s": total(named("capacity.spatial_capacity_opt")),
        "quadrature.integrals": len(quad_entries),
        "quadrature.integrand_evals": tracer.integrand_evals,
        "quadrature.evals_per_integral":
            tracer.integrand_evals / len(quad_entries) if quad_entries else 0.0,
        "quadrature.self_s": self_time("quadrature"),
        "throughput.ps_one_sided.calls": len(ps_one),
        "throughput.ps_one_sided.us_per_call": mean(ps_one) * 1e6,
        "throughput.ps_one_sided.s": total(ps_one),
        "throughput.m_opt.s": total(named("throughput.tdma_m_opt")),
        "optimize.searches": len(named("optimize.golden_section_max")),
        "optimize.objective_evals": tracer.objective_evals,
        "optimize.self_s": self_time("optimize"),
        "specfun.calls": len(specfun),
        "specfun.s": total(entries("specfun")),
        "contention.calls": len(entries("contention")),
        "contention.s": total(entries("contention")),
        "outage.calls": len(entries("outage")),
        "outage.s": total(entries("outage")),
        "model.parse_model.calls": len(named("model.parse_model")),
        "model.parse_model.s": total(named("model.parse_model")),
        "cli.calls": len(mains),
        "cli.failed": cli_failed,
        "cli.self_s": self_time("cli"),
        "cli.call_p90_s": (statistics.quantiles([dur[i] for i in mains], n=10)[-1]
                           if len(mains) > 1 else total(mains)),
        "cli.bytes_out": cli_bytes,
        "trace.overhead_s": overhead_s,
    }
    for c in SIM_CLASSES:
        values[f"montecarlo.{c}.trials_per_s"] = rate(
            [i for i in sims if spans[i][5]["cls"] == c])
    for f in SPECFUN_TIMED:
        values[f"specfun.{f}.us_per_call"] = mean(named(f"specfun.{f}")) * 1e6
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
