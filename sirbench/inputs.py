"""Fixed inputs of the three workloads.

The runner and the reference generator both read this module, so it holds
plain data only and must not import sirnet. Only the Monte Carlo seeds and
the order of the CLI calls come from ``--seed``; every value checked
against a reference is fixed here, so ``references.json`` covers it.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# mc-sweep: the 52-case validation sweep plus the criterion-11 gamma probes.
# ---------------------------------------------------------------------------

# 1e4 trials keep a sweep near 3 s here (a tenth of 1e5), so about ten whole
# sweeps fit in one run; p_s stderr is then at most 0.005 per case.
MC_TRIALS = 10_000
PROBE_P = 0.01
PROBE_THETA = 1.0
# A case fails at |z| >= Z_MAX; the mean z^2 over the sweep fails above the
# chi-square quantile with this tail probability.
Z_MAX = 5.0
Z2_TAIL = 1e-6

# Named checks the sweep returns besides its cases.
BOUND_CHECKS = 36
# The contention classes of acceptance criterion 11, probed at theta = 1.
# case = desired/interferer fading: 1 Rayleigh, 0 none.
PROBES = (
    {"name": "ppp2-a4", "geometry": "ppp", "d": 2, "alpha": 4.0, "case": "1/1"},
    {"name": "ppp2-a3", "geometry": "ppp", "d": 2, "alpha": 3.0, "case": "1/1"},
    {"name": "ppp2-a4-1/0", "geometry": "ppp", "d": 2, "alpha": 4.0, "case": "1/0"},
    {"name": "ppp2-a4-0/0", "geometry": "ppp", "d": 2, "alpha": 4.0, "case": "0/0"},
    {"name": "ppp1-a2", "geometry": "ppp", "d": 1, "alpha": 2.0, "case": "1/1"},
    {"name": "ppp1-a4", "geometry": "ppp", "d": 1, "alpha": 4.0, "case": "1/1"},
    {"name": "exp2-d1", "geometry": "ppp", "d": 2, "delta": 1.0, "case": "1/1"},
    {"name": "line1-a2", "geometry": "line", "alpha": 2.0, "case": "1/1"},
    {"name": "line1-a4", "geometry": "line", "alpha": 4.0, "case": "1/1"},
    {"name": "single-a4", "geometry": "single", "r": 1.2, "alpha": 4.0, "case": "1/1"},
)

# ---------------------------------------------------------------------------
# analytic-curves: capacity curves and throughput optima, no simulation.
# ---------------------------------------------------------------------------

# ergodic_capacity_tdma and its bounds on the general-alpha path.
TDMA_GENERAL = {3.0: (1, 2)}
# tdma_spatial_capacity(alpha, m_range): alpha = 4 on a range around its
# optimum m = 3 (the default range 1..10 alone takes ~10 s here), alpha = 2
# on the default range 1..10.
TDMA_SPATIAL = {4.0: (2, 3, 4), 2.0: tuple(range(1, 11))}
# The optimum reuse factors tdma_spatial_capacity documents.
TDMA_SPATIAL_OPT = {4.0: 3, 2.0: 2}
# ergodic_capacity_tdma on the alpha = 2 closed kernel, with its bounds.
TDMA_ALPHA2_M = tuple(range(1, 9))
# Largest m in the references' C(m) tables at alpha 2 and 4.
TDMA_REF_M_MAX = 10
PPP_ALPHAS = (3.0, 4.0, 5.0)
PPP_P = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
SPATIAL_OPT = ((3.0, "full"), (3.0, "half"), (4.0, "full"), (4.0, "half"))
# The half-duplex optimum sits near p = 1/9 for every alpha.
HALF_DUPLEX_P = (0.09, 0.13)
M_OPT_ALPHA = 2.0
M_OPT_DB = tuple(float(db) for db in range(0, 21, 4))
RATE_ALPHAS = tuple(2.5 + 0.25 * i for i in range(11))
RATE_D = 2

# ---------------------------------------------------------------------------
# cli-mix: in-process sirnet.cli.main calls.
# ---------------------------------------------------------------------------

# Config files written into the run directory at set-up; "{cfg}" in an
# argv is replaced by that directory and "{seed}" by the run's seed.
CONFIGS = {
    "ppp2.cfg": (
        "geometry = ppp\ngeometry.d = 2\npathloss = power\npathloss.alpha = 4\n"
        "fading.desired = rayleigh\nfading.interferer = rayleigh\n"
    ),
    "line2.cfg": (
        "geometry = line\ngeometry.sided = two\npathloss = power\n"
        "pathloss.alpha = 2\n"
    ),
    "ppp2-aloha.cfg": (
        "geometry = ppp\ngeometry.d = 2\npathloss = power\npathloss.alpha = 4\n"
        "mac = aloha\nmac.p = 0.1\n"
    ),
}
SAMPLES_TRIALS = 2000
SAMPLES_THETA = 1.0
VALIDATE_TRIALS = 2000

# (id, check, argv). Every option a check needs is spelled out, so the
# reference generator reads it from the argv and relies on no CLI default.
CLI_MIX = (
    ("contention-table3", "table3",
     ["contention", "--table3", "--theta", "0.1,0.5,1,2,5,10"]),
    ("contention-ppp1", "contention",
     ["contention", "--class", "ppp1", "--alpha", "2", "--case", "1/1", "--theta-db=-10:5:10"]),
    ("contention-ppp2", "contention",
     ["contention", "--class", "ppp2", "--alpha", "3", "--case", "1/1", "--theta", "0.1,1,10"]),
    ("contention-ppp3", "contention",
     ["contention", "--class", "ppp3", "--alpha", "4", "--case", "1/1", "--theta", "1"]),
    ("contention-line1", "contention",
     ["contention", "--class", "line1", "--alpha", "2", "--theta-db=0:2:20"]),
    ("contention-line2", "contention",
     ["contention", "--class", "line2", "--alpha", "4", "--theta", "0.5,1,2"]),
    ("contention-single", "contention",
     ["contention", "--class", "single", "--xi", "2", "--case", "1/0"]),
    ("contention-explicit", "contention",
     ["contention", "--class", "explicit", "--alpha", "4", "--case", "1/1",
      "--distances", "1,2,3", "--theta", "1"]),
    ("contention-exp2", "contention",
     ["contention", "--class", "exp2", "--delta", "1", "--theta", "0.1,1,10"]),
    ("outage-ppp1", "outage",
     ["outage", "--class", "ppp1", "--alpha", "2", "--case", "1/1", "--p", "0.05",
      "--theta-db=-10:5:10"]),
    ("outage-ppp2", "outage",
     ["outage", "--class", "ppp2", "--alpha", "3", "--case", "1/1", "--p", "0.1",
      "--theta", "0.1,1,10"]),
    ("outage-ppp2-static", "outage",
     ["outage", "--class", "ppp2", "--alpha", "4", "--case", "1/0", "--p", "0.1",
      "--theta", "1"]),
    ("outage-exp2", "outage",
     ["outage", "--class", "exp2", "--delta", "1", "--case", "1/1", "--p", "0.1",
      "--theta", "0.1,1,10"]),
    ("outage-line1", "outage",
     ["outage", "--class", "line1", "--alpha", "2", "--case", "1/1", "--p", "0.2",
      "--theta-db=0:5:20"]),
    ("outage-line2", "outage",
     ["outage", "--class", "line2", "--alpha", "4", "--case", "1/1", "--p", "0.2",
      "--theta", "0.5,1,2"]),
    ("outage-single", "outage",
     ["outage", "--class", "single", "--r", "1.2", "--alpha", "4", "--case", "1/1",
      "--p", "0.5", "--theta", "0.1,1,10"]),
    ("outage-explicit", "outage",
     ["outage", "--class", "explicit", "--distances", "1,2,3", "--alpha", "4",
      "--case", "1/1", "--p", "0.3", "--theta", "1"]),
    ("outage-tdma-a2", "outage",
     ["outage", "--class", "line1", "--alpha", "2", "--case", "1/1", "--m", "4",
      "--theta-db=0:5:20"]),
    ("outage-tdma-a4", "outage",
     ["outage", "--class", "line1", "--alpha", "4", "--case", "1/1", "--m", "2",
      "--theta", "1,10"]),
    ("outage-tdma-a3", "outage",
     ["outage", "--class", "line1", "--alpha", "3", "--case", "1/1", "--m", "2",
      "--theta", "1"]),
    ("outage-tdma-two", "outage",
     ["outage", "--class", "line2", "--alpha", "2", "--case", "1/1", "--m", "2",
      "--theta", "1"]),
    ("outage-config-ppp2", "outage",
     ["outage", "--config", "{cfg}/ppp2.cfg", "--p", "0.1", "--theta", "0.1,1"]),
    ("outage-config-line2", "outage",
     ["outage", "--config", "{cfg}/line2.cfg", "--p", "0.2", "--theta", "1"]),
    ("outage-validate", "outage",
     ["outage", "--class", "line1", "--alpha", "2", "--case", "1/1", "--p", "0.2",
      "--theta", "1", "--validate", "--trials", str(VALIDATE_TRIALS), "--seed", "{seed}"]),
    ("throughput-full", "throughput",
     ["throughput", "--gamma", "0.5,1,2,5", "--duplex", "full"]),
    ("throughput-half", "throughput",
     ["throughput", "--gamma", "0.5,1,2,5", "--duplex", "half"]),
    ("throughput-rate", "rate",
     ["throughput", "--rate", "--alpha-range", "2.5:0.5:5", "--d", "2", "--duplex", "full"]),
    ("throughput-tdma", "tdma_m",
     ["throughput", "--tdma", "--alpha", "2", "--theta-db=0:5:10"]),
    ("capacity-ppp-a4", "capacity",
     ["capacity", "--alpha", "4", "--d", "2", "--p", "0.05,0.1,0.5"]),
    ("capacity-ppp-a3", "capacity",
     ["capacity", "--alpha", "3", "--d", "2", "--p", "0.05,0.1,0.5"]),
    ("capacity-tdma-a2", "capacity_tdma",
     ["capacity", "--tdma", "--alpha", "2", "--m", "1:8"]),
    ("samples-ppp2", "samples",
     ["samples", "--config", "{cfg}/ppp2-aloha.cfg", "--trials", str(SAMPLES_TRIALS),
      "--seed", "{seed}"]),
    # The README example, exactly as written there.
    ("readme-outage", "outage",
     ["outage", "--class", "ppp2", "--alpha", "4", "--theta-db", "-10:2:10", "--p", "0.1"]),
)


def options(argv: list[str]) -> dict[str, str | bool]:
    """Map each --flag of an argv to its value (True for a bare flag)."""
    opts: dict[str, str | bool] = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--"):
            if "=" in arg:
                key, value = arg.split("=", 1)
                opts[key] = value
            elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                opts[arg] = argv[i + 1]
                i += 1
            else:
                opts[arg] = True
        i += 1
    return opts


def grid(spec: str) -> list[float]:
    """The CLI's value lists: 'a:step:b' inclusive, 'v1,v2,...', or one value."""
    if ":" in spec:
        start, step, stop = (float(s) for s in spec.split(":"))
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1)]
    return [float(s) for s in spec.split(",") if s.strip()]


def thetas(argv: list[str]) -> list[float]:
    """Linear thresholds of an argv (--theta-db converted from dB)."""
    opts = options(argv)
    if "--theta-db" in opts:
        return [10.0 ** (db / 10.0) for db in grid(str(opts["--theta-db"]))]
    return grid(str(opts["--theta"])) if "--theta" in opts else [1.0]


def config_options(name: str) -> dict[str, str]:
    """key = value pairs of one of CONFIGS."""
    kv = {}
    for line in CONFIGS[name].splitlines():
        key, value = line.split("=", 1)
        kv[key.strip()] = value.strip()
    return kv
