"""The report workloads: each operation is one fresh ``spd`` process that
renders an spd-report/1 document, checked against BENCH_REPORT.json."""

import json
import os
import shutil
import time

import spans
from common import (COUNTERS, Op, binary, diff_report, empty_op_ms, exit_reason,
                    layer_metrics, median, quantile, reference)

PAPER_SET = ["table6_1", "table6_2", "table6_4", "table6_3", "fig6_2", "fig6_3", "fig6_4"]

# Keeps starting operations past --seconds until this many have completed,
# so a run always has a median: a report-cold operation takes seconds.
MIN_COMPLETED = 3
# Starts no operation after this many seconds of measuring.
HARD_STOP_S = 100
# Attempts one report-warm set-up makes at filling its cache.
FILL_ATTEMPTS = 8


class Workload:
    def __init__(self, name, work, jobs, tally):
        self.work = work
        self.jobs = jobs
        self.tally = tally
        self.cold = name == "report-cold"
        expected = reference()
        if not self.cold:
            expected["artefacts"] = [a for a in expected["artefacts"]
                                     if a["name"] in PAPER_SET]
        self.expected = expected
        self.seq = 0

    def fresh_dir(self, tag):
        self.seq += 1
        d = os.path.join(self.work, f"{tag}-{self.seq}")
        os.makedirs(d)
        return d

    def argv(self, trace=False):
        if self.cold:
            cmd = [binary("bench/main.exe"), "all"]
        else:
            cmd = [binary("bin/spd.exe"), "report"]
        cmd += ["--format", "json", "--jobs", str(self.jobs)]
        return cmd + (["--trace", "trace.json"] if trace else [])

    def check(self, op):
        """None when the operation completed correctly, else why it failed."""
        if op.code != 0:
            return exit_reason(op.code, op.stderr), False
        try:
            doc = json.loads(op.stdout)
        except ValueError:
            return "exit 0: output is not JSON", True
        bad = diff_report(doc, self.expected)
        if bad:
            return "output mismatch: " + ", ".join(bad), True
        op.doc = doc
        return None

    # -- set-up ---------------------------------------------------------

    def setup(self):
        """One set-up: an empty private cache for report-cold; a cache filled
        by complete paper renders for report-warm.  Returns its directory."""
        d = self.fresh_dir("setup")
        if self.cold:
            Op([binary("bin/spd.exe"), "--version"], d)
            return d
        for _ in range(FILL_ATTEMPTS):
            self.tally.setup_attempts += 1
            failure = self.check(Op(self.argv(), d))
            if failure is None:
                return d
            self.tally.setup_fail(failure[0])
        raise RuntimeError(f"report-warm: {FILL_ATTEMPTS} set-up attempts failed")

    # -- measurement ----------------------------------------------------

    def one(self, cache_dir, trace=False):
        d = self.fresh_dir("op") if self.cold else cache_dir
        if trace and not self.cold:
            # the trace file must not outlive its operation in the shared dir
            trace_path = os.path.join(d, "trace.json")
            if os.path.exists(trace_path):
                os.remove(trace_path)
        op = Op(self.argv(trace), d)
        op.traced = trace
        self.tally.attempted += 1
        failure = self.check(op)
        if failure is not None:
            self.tally.fail(failure[0], mismatch=failure[1])
        elif trace:
            with open(os.path.join(d, "trace.json")) as f:
                op.trace = json.load(f)
        if not trace:
            op.doc = op.stdout = op.stderr = None
        if self.cold:
            shutil.rmtree(d)
        return op if failure is None else None

    def measure(self, cache_dir, seconds, traced, before_each=None):
        """Closed loop of operations for ``seconds``; a traced run alternates
        traced and untraced operations, and ``before_each`` runs before each
        one.  Returns the completed operations."""
        done, i = [], 0
        t0 = time.perf_counter()

        def enough():
            if not traced:
                return len(done) >= MIN_COMPLETED
            kinds = {op.traced for op in done}
            return kinds == {True, False}

        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= HARD_STOP_S or (elapsed >= seconds and enough()):
                break
            if before_each:
                before_each()
            op = self.one(cache_dir, trace=traced and i % 2 == 0)
            i += 1
            if op is not None:
                done.append(op)
        return done


def end_to_end(ops):
    walls = [op.wall_s for op in ops]
    return {
        "op_p50_ms": median(walls) * 1e3,
        "op_p99_ms": quantile(walls, 0.99) * 1e3,
        "ops_per_s": len(walls) / sum(walls),
        "cpu_ms_per_op": median([op.cpu_s for op in ops]) * 1e3,
        "peak_rss_mb": median([op.rss_mb for op in ops]),
    }


def per_layer(wl, ops):
    """Layer metrics of the traced operations (median over them) and the
    tracing overhead against the untraced ones."""
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    rows = []
    for op in traced:
        ss = spans.load(op.trace)
        spans.check_tiling(ss)
        b = spans.breakdown(ss)
        wall_ms = op.wall_s * 1e3
        row = layer_metrics(b, op.doc.get("metrics", {}).get("counters", {}))
        row.update({
            "harness.outside_cells_ms": wall_ms - b["main_cell_ms"],
            "harness.pool_busy_share": b["cell_ms"] / (wall_ms * wl.jobs),
        })
        rows.append(row)
    out = {k: median([r[k] for r in rows]) for k in rows[0]}
    exact = all(r[k] == rows[0][k] for r in rows
                for k in list(COUNTERS) + ["harness.cells"])
    p50_traced = median([op.wall_s for op in traced])
    p50_plain = median([op.wall_s for op in plain])
    out["telemetry.trace_overhead_pct"] = (p50_traced / p50_plain - 1) * 100
    out["proc.startup_ms"] = empty_op_ms(wl.work)
    return out, exact, len(traced)


# Set-ups per batch; setup_s is the median over a run's set-ups.  Filling a
# cache takes seconds and is done once, before measuring.  An empty one takes
# milliseconds, whose level shifts by a tenth from second to second, so
# report-cold sets up a batch before each operation, across the whole run.
SETUPS = {"report-cold": 14, "report-warm": 3}


def run(name, seconds, trace, work, jobs, tally):
    wl = Workload(name, work, jobs, tally)
    setup_times = []

    def set_up():
        for _ in range(SETUPS[name]):
            t0 = time.perf_counter()
            d = wl.setup()
            setup_times.append(time.perf_counter() - t0)
        return d

    if wl.cold:
        ops = wl.measure(None, seconds, traced=trace, before_each=set_up)
    else:
        ops = wl.measure(set_up(), seconds, traced=trace)
    if not ops:
        raise RuntimeError(f"{name}: no operation completed")
    if not trace:
        e2e = end_to_end(ops)
        e2e["setup_s"] = median(setup_times)
        return e2e, {"completed": len(ops)}
    layers, exact, n = per_layer(wl, ops)
    return layers, {"traced_ops": n, "counts_repeat_exactly": exact}
