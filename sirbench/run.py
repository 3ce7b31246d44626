"""Run one workload of the sirnet benchmark and print its metrics.

    python3 sirbench/run.py --workload mc-sweep --seed 1 --seconds 20 --trace 0

Workloads: mc-sweep, analytic-curves, cli-mix (see README.md). The run
builds the workload from the seed, then runs whole rounds of it, untraced,
until --seconds have passed, checking every output after each round. Its
times are in reference seconds (see Speed). With --trace 1 it then runs one
more round with every public sirnet function wrapped, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record (git
sha, nproc, versions, BLAS threads, src/ line count, raw round times). Spans and the run
record are also written under sirbench/out/. The program is imported from
src/ of the checkout this file sits in; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")
# Fresh interpreters timed for setup_s, spread over the run; the median is reported.
SETUP_PROBES = 7
# Speed sampling (see Speed): the interval, and the kernel's time at the speed
# a shared 2-vCPU Linux machine shows most often; it defines one reference second.
SAMPLE_EVERY_S = 0.05
KERNEL_REF_S = 0.001


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-sweep", "analytic-curves", "cli-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only build the workload and print the seconds it took")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build(args: argparse.Namespace):
    """Import sirnet and build the workload's inputs."""
    from sirbench import workloads

    with open(REFERENCES) as fh:
        refs = json.load(fh)
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}")
    os.makedirs(run_dir, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, refs, run_dir)


def setup_probe(args: argparse.Namespace) -> float:
    """Seconds a fresh interpreter takes to import sirnet and build the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, asked of the library itself."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_record(args: argparse.Namespace) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "src_lines": src_lines,
    }


class Speed:
    """The machine's speed, sampled with a fixed kernel while the program runs.

    A shared 2-vCPU machine's speed drifts by 10-40 % within a second and
    from one minute to the next, and the program slows with it. So the
    benchmark times its rounds in reference seconds. While rounds run, a
    timer signal every SAMPLE_EVERY_S interrupts the program between two
    bytecodes and times `kernel`, a fixed ~1 ms loop of stdlib and numpy
    arithmetic on a preallocated array (never sirnet). A round's seconds,
    less the time spent in those kernels, are multiplied by KERNEL_REF_S over
    the mean kernel time in that round. A set-up probe, which runs in a child process, is scaled by
    the kernel timed just before and after it. A change to the program moves
    the scaled times exactly as it moves the raw ones.
    """

    def __init__(self) -> None:
        import numpy as np

        self._sqrt = np.sqrt  # numpy is imported here, not before a set-up probe
        self._buf = np.random.default_rng(1).random(50_000)
        self._out = np.empty_like(self._buf)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in kernels

    def kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for i in range(1, 6001):
            total += math.log1p(0.5 / (i * i * i))
        self._sqrt(self._buf, out=self._out)
        total += float(self._out.sum())
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        return dt

    def clock(self) -> float:
        """Seconds, less those spent in kernels."""
        return time.perf_counter() - self.spent

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.kernel())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, since: int) -> float:
        """Reference seconds per second for the samples taken after index `since`."""
        recent = self.samples[since:] or self.samples[-1:]
        return KERNEL_REF_S / statistics.fmean(recent)

    def probe(self, args: argparse.Namespace) -> float:
        """One set-up probe in reference seconds."""
        before = [self.kernel() for _ in range(5)]
        seconds = setup_probe(args)
        after = [self.kernel() for _ in range(5)]
        return seconds * KERNEL_REF_S / statistics.fmean(before + after)


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        self.first_problems: list[str] = []

    def add(self, results: list[tuple[str, str, str]]) -> None:
        for op, status, detail in results:
            self.attempted += 1
            if status != "ok":
                self.failed += 1
                self.wrong += status == "wrong"
                problem = f"{status}: {op}: {detail}"
                if len(self.first_problems) < 20 and problem not in self.first_problems:
                    self.first_problems.append(problem)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sirnet", "__init__.py")):
        print(f"error: no sirnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    if args.setup_probe:
        start = time.perf_counter()
        build(args)
        print(repr(time.perf_counter() - start))
        return 0

    workload = build(args)
    tally = Tally()
    speed = Speed()
    probes = [speed.probe(args)]
    rounds, latencies, raw_rounds = [], [], []
    busy = 0.0  # seconds in rounds and their checks, set-up probes excluded
    while busy < args.seconds:
        t0, n0 = time.perf_counter(), len(speed.samples)
        with speed.sampling():
            c0 = speed.clock()
            lat, out = workload.run_round(clock=speed.clock)
            raw = speed.clock() - c0
        scale = speed.factor(n0)
        rounds.append(raw * scale)
        raw_rounds.append(raw)
        latencies += [x * scale for x in lat]
        tally.add(workload.check_round(out))
        busy += time.perf_counter() - t0
        if len(probes) < SETUP_PROBES and busy >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(speed.probe(args))
    while len(probes) < SETUP_PROBES:
        probes.append(speed.probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import sirnet

        from sirbench import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(sirnet)
        try:
            t0 = time.perf_counter()
            _, out = workload.run_round(tracer)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        results = workload.check_round(out)
        tally.add(results)
        is_cli = workload.name == "cli-mix"
        metrics = tracing.per_layer(
            tracer,
            cli_failed=sum(s != "ok" for _, s, _ in results) if is_cli else 0,
            cli_bytes=workload.bytes_out(out) if is_cli else 0,
            overhead_s=traced - statistics.median(raw_rounds))
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "wall_s": {"value": statistics.fmean(rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "call_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        }

    record = run_record(args)
    record.update(rounds=len(rounds), round_s=rounds, raw_round_s=raw_rounds,
                  calls=len(latencies), setup_probes_s=probes,
                  kernel_mean_s=statistics.fmean(speed.samples), kernel_samples=len(speed.samples),
                  problems=tally.first_problems)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in tally.first_problems:
        print(f"# {problem}")
    print("# run " + json.dumps(record))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
