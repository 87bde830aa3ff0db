"""Process handling, statistics and failure accounting shared by the workloads."""

import hashlib
import json
import math
import os
import re
import socket
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
REFERENCE = "BENCH_REPORT.json"

# Per-layer metric -> counter of the program's metrics snapshot.
COUNTERS = {
    "sim.runs": "spd.sim.runs",
    "sim.traversals": "spd.sim.traversals",
    "machine.schedules": "spd.scheduler.schedules",
    "harness.lowerings": "spd.engine.lowerings",
    "harness.preparations": "spd.engine.preparations",
    "harness.simulations": "spd.engine.simulations",
    "harness.disk_hits": "spd.engine.cache.hits",
    "harness.disk_misses": "spd.engine.cache.misses",
}

# Per-layer metric -> pipeline stage whose trace spans it sums (self time).
STAGES = {
    "spd.stage_ms": "spd",
    "machine.schedule_ms": "schedule",
    "sim.profile_ms": "profile",
    "sim.simulate_ms": "simulate",
}


def layer_metrics(breakdown, counters):
    """The stage times of a trace breakdown and the counters of a metrics
    snapshot, as per-layer metrics."""
    out = {k: breakdown["stage_ms"].get(stage, 0.0) for k, stage in STAGES.items()}
    out.update({k: float(counters.get(c, 0)) for k, c in COUNTERS.items()})
    out.update({
        "harness.cells": float(breakdown["cells"]),
        "harness.cell_ms": breakdown["cell_ms"],
        "harness.cell_other_ms": breakdown["cell_other_ms"],
    })
    return out


def log(msg):
    print(msg, flush=True)


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def median(values):
    xs = sorted(values)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def binary(name):
    return os.path.abspath(os.path.join(BUILD_DIR, "default", name))


class Spawner:
    """The small helper process (spawn.py) every operation is forked from."""

    proc = None

    @classmethod
    def run(cls, argv, cwd, out, err):
        if cls.proc is None:
            helper = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")
            cls.proc = subprocess.Popen([sys.executable, "-S", "-I", helper],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)
        cls.proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd, "out": out,
                                         "err": err}) + "\n")
        cls.proc.stdin.flush()
        line = cls.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawn helper died")
        return json.loads(line)

    @classmethod
    def stop(cls):
        if cls.proc is not None:
            cls.proc.stdin.close()
            cls.proc.wait()
            cls.proc.stdout.close()
            cls.proc = None


class Op:
    """One operation run as a fresh OS process: its exit, wall clock and
    resource usage as the kernel reports them on reaping it."""

    def __init__(self, argv, cwd):
        cwd = os.path.abspath(cwd)
        out, err = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
        r = Spawner.run(argv, cwd, out, err)
        self.code = r["code"]
        self.wall_s = r["wall_s"]
        self.cpu_s = r["cpu_s"]
        self.rss_mb = r["rss_mb"]
        with open(out, "rb") as f:
            self.stdout = f.read().decode("utf-8", "replace")
        with open(err, "rb") as f:
            self.stderr = f.read().decode("utf-8", "replace")
        os.remove(out)
        os.remove(err)


def exit_reason(code, stderr):
    """Why a process failed: its exit status or signal, plus the exception
    text it printed, if any."""
    status = f"signal {-code}" if code < 0 else f"exit {code}"
    for pattern, fmt in (
        (r"uncaught exception:\s*(\S[^\n]*)", "uncaught {}"),
        (r"Fatal error: exception ([^\n]*)", "fatal {}"),
        (r'"event":"engine\.cell\.fail".*?"error":"([^"]*)"', "cell failed: {}"),
    ):
        m = re.search(pattern, stderr)
        if m:
            return f"{status}: {fmt.format(m.group(1).strip())}"
    lines = [l for l in stderr.strip().splitlines() if l.strip()]
    return f"{status}: {lines[-1][:120]}" if lines else status


class Tally:
    """Attempted and failed operations, failures grouped by reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.reasons = {}
        self.setup_attempts = 0
        self.setup_failed = 0

    def fail(self, reason, mismatch=False):
        self.failed += 1
        self.mismatches += mismatch
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def setup_fail(self, reason):
        self.setup_failed += 1
        key = "setup: " + reason
        self.reasons[key] = self.reasons.get(key, 0) + 1

    @property
    def fail_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def reference():
    """The committed spd-report/1 document without its run-dependent metrics."""
    with open(REFERENCE) as f:
        doc = json.load(f)
    doc.pop("metrics", None)
    return doc


def diff_report(doc, expected):
    """Names of the artefacts (or top-level keys) where a report differs."""
    bad = [k for k in sorted(set(doc) | set(expected))
           if k not in ("artefacts", "metrics") and doc.get(k) != expected.get(k)]
    got = {a.get("name"): a for a in doc.get("artefacts", [])}
    want = {a["name"]: a for a in expected["artefacts"]}
    if list(got) != list(want):
        bad.append("artefact list")
    bad += [n for n in want if n in got and got[n] != want[n]]
    return bad


def empty_op_ms(work, n=20):
    """Median exec-to-exit time of a process that does nothing but start."""
    return median([Op([binary("bin/spd.exe"), "--version"], work).wall_s * 1e3
                   for _ in range(n)])


def run_record(nproc, ocaml):
    """Where and on what a result was measured."""
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "bench", "test/gen_prog.ml", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if "__pycache__" not in d)
        for p in paths:
            digest.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "host": socket.gethostname(),
        "nproc": nproc,
        "ocaml": ocaml,
        "loadavg_1m": os.getloadavg()[0],
    }
