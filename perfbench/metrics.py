"""The benchmark's metric catalogue, shared by run.py and the self-tests.

Units: ``count`` marks a count that repeats exactly from run to run on the
report workloads (on serve-mix it follows the requests the window sent), so
a later change can cite it as a count.  Every other unit is a measurement.
"""

import re

WORKLOADS = {
    "report-cold": "a reproducer's first run: one fresh process renders the "
                   "paper and extension artefacts against an empty cache",
    "report-warm": "a re-run against a filled cache: process start-up, cache "
                   "reads and rendering are the whole cost",
    "serve-mix": "callers of an spd serve warmed with the whole grid, in a "
                 "closed loop: memo hits set the median, explain and run the "
                 "tail; set-up computes the grid",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# Printed by every --trace 0 run but not gated: on this kind of shared host
# the p99 of a run's window moves with scheduling bursts far beyond 25%.
PRINTED = [("op_p99_ms", "ms")]

SERVE_METHODS = ["query", "why", "validate", "explain", "run"]

ARTEFACTS = ["table6_1", "table6_2", "table6_4", "table6_3", "fig6_2",
             "fig6_3", "fig6_4", "ext_dynamic", "ext_grafting", "ext_params"]

# name, unit, better
PER_LAYER = [
    ("lang.compile_ms", "ms", "lower"),
    ("lang.ops_per_s", "1/s", "higher"),
    ("analysis.cleanup_ms", "ms", "lower"),
    ("analysis.unroll_ms", "ms", "lower"),
    ("analysis.mem_arcs", "count", "lower"),
    ("disambig.static_ms", "ms", "lower"),
    ("disambig.ambiguous_arcs", "count", "lower"),
    ("spd.stage_ms", "ms", "lower"),
    ("spd.candidates", "count", "higher"),
    ("spd.applied", "count", "higher"),
    ("spd.applied_share", "ratio", "higher"),
    ("machine.schedule_ms", "ms", "lower"),
    ("machine.schedules", "count", "lower"),
    ("sim.profile_ms", "ms", "lower"),
    ("sim.simulate_ms", "ms", "lower"),
    ("sim.observe_ms", "ms", "lower"),
    ("sim.runs", "count", "lower"),
    ("sim.traversals", "count", "lower"),
    ("sim.traversals_per_s", "1/s", "higher"),
    ("validate.server_ms", "ms", "lower"),
    ("validate.proved", "count", "higher"),
    ("validate.unknown", "count", "lower"),
    ("harness.lowerings", "count", "lower"),
    ("harness.preparations", "count", "lower"),
    ("harness.simulations", "count", "lower"),
    ("harness.cells", "count", "lower"),
    ("harness.cell_ms", "ms", "lower"),
    ("harness.cell_other_ms", "ms", "lower"),
    ("harness.outside_cells_ms", "ms", "lower"),
    ("harness.pool_busy_share", "ratio", "higher"),
    ("harness.disk_hits", "count", "higher"),
    ("harness.disk_misses", "count", "lower"),
    ("harness.warm_submit_us", "us", "lower"),
] + [(f"harness.artefact.{a}_ms", "ms", "lower") for a in ARTEFACTS] + [
    (f"serve.{m}.{side}_p50_ms", "ms", "lower")
    for m in SERVE_METHODS for side in ("client", "server")
] + [
    ("serve.op_p99_ms", "ms", "lower"),
    ("serve.window_peak_rss_mb", "MB", "lower"),
    ("serve.transport_us", "us", "lower"),
    ("serve.memo_hit_share", "ratio", "higher"),
    ("proc.startup_ms", "ms", "lower"),
    ("telemetry.trace_overhead_pct", "%", "lower"),
    ("fail_share", "ratio", "lower"),
    ("setup_failures", "attempts", "lower"),
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json(run_seconds):
    """The BENCHMARK.json document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
