"""Benchmark of sirnet: three workloads, end-to-end metrics, a traced run
with per-layer metrics, and output checks against reference values that
``make_references.py`` computes with mpmath, apart from sirnet.

Run ``python3 sirbench/run.py --workload mc-sweep --seed 1 --seconds 20
--trace 0`` from the repository root; see README.md.
"""
