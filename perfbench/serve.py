"""The serve-mix workload: a seeded, closed-loop request sequence against a
fresh ``spd serve`` warmed with the whole grid."""

import hashlib
import json
import math
import mmap
import os
import pickle
import random
import select
import signal
import socket
import struct
import subprocess
import time
import traceback

import spans
from common import binary, empty_op_ms, layer_metrics, log, median, quantile, reference

MIX = [("query", 0.60), ("why", 0.15), ("validate", 0.10), ("explain", 0.07), ("run", 0.08)]
QUERY_ARTEFACTS = ["cycles", "speedup-over-naive", "spd-counts", "code-growth"]
PIPELINES = ["naive", "static", "spec", "perfect"]
LATENCIES = [2, 6]
WIDTHS = list(range(1, 9))
MIN_REQUESTS = 1000
# Requests generated per second of --seconds: more than a run can send.
REQUESTS_PER_S = 1000
STOP_TIMEOUT_S = 30


def paper_workloads(ref):
    table = next(a for a in ref["artefacts"] if a["name"] == "table6_2")
    return [row["label"] for row in table["tables"][0]["rows"]]


def generate(seed, count, programs_for):
    """The request sequence for ``seed``: a list of (method, params), and the
    expected [run] outputs.  ``programs_for(n)`` returns the first n seeded
    [run] programs.  Every block of 100 requests holds the mix exactly, and
    why, validate and explain each cycle through a shuffle of all their
    coordinates, so that any window of the sequence carries the same work.
    An explain cycle is made of rounds that each hold every (workload,
    latency) pair once, since the workload sets most of an explain's cost."""
    rng = random.Random(seed)
    benches = paper_workloads(reference())
    block = [m for m, share in MIX for _ in range(round(share * 100))]
    pairs = [{"workload": b, "mem_latency": lat} for b in benches for lat in LATENCIES]
    pending = {m: [] for m in ("why", "validate", "explain")}

    def explain_cycle():
        widths = [rng.sample(WIDTHS, len(WIDTHS)) for _ in pairs]
        cycle = []
        for r in range(len(WIDTHS)):
            order = list(range(len(pairs)))
            rng.shuffle(order)
            cycle += [dict(pairs[k], width=widths[k][r]) for k in order]
        return cycle[::-1]

    def next_coords(m):
        if not pending[m]:
            if m == "explain":
                pending[m] = explain_cycle()
            else:
                pending[m] = pairs[:]
                rng.shuffle(pending[m])
        return dict(pending[m].pop())

    skeleton = []
    n_programs = 0
    while len(skeleton) < count:
        order = block[:]
        rng.shuffle(order)
        for m in order:
            if m == "query":
                art = rng.choice(QUERY_ARTEFACTS)
                p = {"bench": rng.choice(benches), "latency": rng.choice(LATENCIES),
                     "artefact": art}
                if art in ("cycles", "speedup-over-naive"):
                    p["pipeline"] = rng.choice(PIPELINES)
                    p["width"] = rng.choice(WIDTHS)
            elif m == "run":
                p = {"program": n_programs, "pipeline": rng.choice(PIPELINES),
                     "mem_latency": rng.choice(LATENCIES), "width": rng.choice(WIDTHS)}
                n_programs += 1
            else:
                p = next_coords(m)
            skeleton.append((m, p))
    skeleton = skeleton[:count]
    programs = programs_for(n_programs)
    seq, expected = [], []
    for m, p in skeleton:
        exp = None
        if m == "run":
            prog = programs[p.pop("program")]
            p = {"source": prog["source"], **p}
            exp = (prog["return"], prog["output"])
        seq.append((m, p))
        expected.append(exp)
    return seq, expected


def warm_grid(benches):
    """Every query, why and validate request the generator can make, in a
    fixed order: set-up sends them once, so the measured window starts on a
    daemon whose memo holds the whole grid, whatever the seed."""
    reqs = []
    for b in benches:
        for lat in LATENCIES:
            for art in QUERY_ARTEFACTS:
                if art in ("cycles", "speedup-over-naive"):
                    reqs += [("query", {"bench": b, "latency": lat, "artefact": art,
                                        "pipeline": pl, "width": w})
                             for pl in PIPELINES for w in WIDTHS]
                else:
                    reqs.append(("query", {"bench": b, "latency": lat, "artefact": art}))
            for m in ("why", "validate"):
                reqs.append((m, {"workload": b, "mem_latency": lat}))
    return reqs


def digest(seq):
    return hashlib.sha256(json.dumps(seq, sort_keys=True).encode()).hexdigest()


# [run] programs keep fewer ambiguous memory arcs than this after static
# disambiguation (about 89% of spd_testgen's programs).  On the others the
# SpD heuristic's cost grows steeply: about 1 in 100 takes over 0.1 s and a
# few take seconds (seed 4, case 567: 16 s at latency 6), so one of them
# landing in a window or not would set that run's throughput.
MAX_AMBIGUOUS = 20


def probe_programs(seed):
    def programs_for(n):
        out = subprocess.run([binary("perfbench/probe.exe"), "programs", str(seed), str(n),
                              str(MAX_AMBIGUOUS)],
                             capture_output=True, text=True, check=True).stdout
        return [json.loads(line) for line in out.splitlines()]
    return programs_for


def reference_values(ref):
    """(artefact, bench, latency, pipeline, width) -> value, for every query
    cell that BENCH_REPORT.json shows (Figures 6-2 and 6-4, Table 6-3)."""
    tables = {t["id"]: t for a in ref["artefacts"] for t in a["tables"]}
    vals = {}
    for lat in LATENCIES:
        for row in tables[f"fig6_2.lat{lat}"]["rows"]:
            for kind, v in zip(["static", "spec", "perfect"], row["cells"]):
                vals[("speedup-over-naive", row["label"], lat, kind, 5)] = v
    for row in tables["table6_3"]["rows"]:
        c = row["cells"]
        for i, lat in enumerate(LATENCIES):
            vals[("spd-counts", row["label"], lat, None, None)] = dict(
                zip(["raw", "war", "waw"], c[3 * i:3 * i + 3]))
    for row in tables["fig6_4"]["rows"]:
        vals[("code-growth", row["label"], 2, None, None)] = row["cells"][0]
    return vals


# -- the wire -------------------------------------------------------------

class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX)
        self.sock.settimeout(120)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("rb")

    def send(self, body):
        self.sock.sendall(b"Content-Length: %d\r\n\r\n" % len(body) + body)

    def recv(self):
        length = None
        while True:
            line = self.rfile.readline()
            if not line:
                raise ConnectionError("daemon closed the connection")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return self.rfile.read(length)

    def call(self, method, params=None):
        self.send(json.dumps({"jsonrpc": "2.0", "id": 0, "method": method,
                              "params": params or {}}).encode())
        return json.loads(self.recv())

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    """A fresh ``spd serve`` in its own directory, with an empty cache."""

    def __init__(self, work, tag, jobs, trace=False):
        self.dir = os.path.join(work, tag)
        os.makedirs(self.dir)
        self.sock = os.path.join(self.dir, "spd.sock")
        self.trace = os.path.join(self.dir, "trace.json") if trace else None
        argv = [binary("bin/spd.exe"), "serve", "--socket", "spd.sock",
                "--jobs", str(jobs), "--workers", str(jobs)]
        if trace:
            argv += ["--trace", "trace.json"]
        self.err = open(os.path.join(self.dir, "stderr"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=self.dir, stdin=subprocess.DEVNULL,
                                     stdout=self.err, stderr=self.err)
        while True:
            try:
                c = Conn(self.sock)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.perf_counter() - t0 > 20:
                    self.stop()
                    raise RuntimeError("spd serve did not start")
                time.sleep(0.0005)
        c.call("ping")
        c.close()

    def warm(self, reqs, ref, tally, ledgers):
        """Send ``reqs`` in order over one connection, checking each reply
        (a failed one is a failed set-up attempt) and keeping the validate
        tallies by ledger.  Returns the sequence number of the last request
        id the daemon assigned."""
        c = Conn(self.sock)
        try:
            for method, params in reqs:
                tally.setup_attempts += 1
                resp = c.call(method, params)
                failure = check(ref, method, params, None, resp)
                if failure:
                    tally.setup_fail(failure[0])
                elif method == "validate":
                    ledgers[(params["workload"], params["mem_latency"])] = (
                        resp["result"].get("proved", 0), resp["result"].get("unknown", 0))
        finally:
            c.close()
        return rid_seq(resp["rid"])

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def call(self, method):
        c = Conn(self.sock)
        try:
            return c.call(method)["result"]
        finally:
            c.close()

    def stop(self):
        """Shut down over RPC, falling back to signals; always reaps."""
        if self.proc.poll() is None:
            try:
                self.call("shutdown")
                self.proc.wait(STOP_TIMEOUT_S)
            except (OSError, KeyError, ValueError, subprocess.TimeoutExpired):
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.err.close()


# -- the closed loop ------------------------------------------------------

def check(ref, method, params, expected, resp):
    """The per-request correctness gate: None if the response is correct,
    else (reason, is_output_mismatch)."""
    if "error" in resp:
        e = resp["error"]
        return f"rpc {e.get('code')}: {str(e.get('message'))[:80]}", False
    r = resp.get("result")
    if method == "query":
        if not r.get("ok"):
            return f"query cell failed: {str(r.get('error'))[:80]}", False
        key = (params["artefact"], params["bench"], params["latency"],
               params.get("pipeline"), params.get("width"))
        if key in ref and r.get("value") != ref[key]:
            return f"query mismatch: {params['artefact']}", True
    elif method == "run":
        if (r.get("return"), r.get("output")) != expected:
            return "run output mismatch", True
    else:
        schema = {"why": "spd-decisions/1", "validate": "spd-validate/1",
                  "explain": "spd-explain/1"}[method]
        if r.get("schema") != schema or r.get("workload") != params["workload"]:
            return f"{method}: unexpected document", True
        if method == "validate" and r.get("refuted"):
            return "validate: refuted verdict", True
    return None


class Counter:
    """The index of the next request to send, shared by forked clients: a
    word of anonymous shared memory guarded by a one-byte pipe token."""

    def __init__(self):
        self.mem = mmap.mmap(-1, 8)
        self.rd, self.wr = os.pipe()
        os.write(self.wr, b"t")

    @property
    def value(self):
        return struct.unpack("q", self.mem[:8])[0]

    def take(self, limit):
        """Claim the next index, or None once ``limit()`` says stop."""
        os.read(self.rd, 1)
        try:
            i = self.value
            if limit(i):
                return None
            self.mem[:8] = struct.pack("q", i + 1)
            return i
        finally:
            os.write(self.wr, b"t")

    def close(self):
        os.close(self.rd)
        os.close(self.wr)
        self.mem.close()


def client(sock, seq, bodies, expected, ref, limit, counter):
    """One connection's closed loop: send the next request of the shared
    sequence, wait for its reply, check it.  Returns (latencies by method,
    failures, validate tallies by ledger)."""
    lat = {m: [] for m, _ in MIX}
    failures, ledgers = [], {}
    conn = None
    while (i := counter.take(limit)) is not None:
        method, params = seq[i]
        try:
            conn = conn or Conn(sock)
            t = time.perf_counter()
            conn.send(bodies[i])
            raw = conn.recv()
            dt = time.perf_counter() - t
            resp = json.loads(raw)
            failure = check(ref, method, params, expected[i], resp)
        except (OSError, ConnectionError, ValueError) as e:
            failure = (f"transport: {type(e).__name__}", False)
            if conn:
                conn.close()
            conn = None
        if failure:
            failures.append(failure)
            continue
        lat[method].append(dt)
        if method == "validate":
            r = resp["result"]
            ledgers[(params["workload"], params["mem_latency"])] = (
                r.get("proved", 0), r.get("unknown", 0))
    if conn:
        conn.close()
    return lat, failures, ledgers


# The window is cut into intervals of this length; ops_per_s and
# cpu_ms_per_op are medians over them, so that a rare long request (an
# explain takes up to a third of a second) or a stall of the host moves
# them by at most the intervals it covers.
INTERVAL_S = 1.0


def closed_loop(daemon, seq, expected, seconds, conns, tally, ledgers):
    """Send ``seq`` in order over ``conns`` connections until ``seconds``
    have passed (and at least MIN_REQUESTS went).  Each connection is a
    forked process, so checking one reply never delays another connection's
    clock.  Returns (latencies by method, wall seconds, requests sent,
    per-interval (seconds, requests taken, daemon CPU seconds))."""
    bodies = [json.dumps({"jsonrpc": "2.0", "id": i, "method": m, "params": p}).encode()
              for i, (m, p) in enumerate(seq)]
    ref = reference_values(reference())
    counter = Counter()
    t0 = time.perf_counter()
    marks = [(t0, 0, daemon.cpu_s())]

    def limit(i):
        return i >= len(seq) or (i >= MIN_REQUESTS and time.perf_counter() - t0 >= seconds)

    pending = {}
    for _ in range(conns):
        rd, wr = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(rd)
                with os.fdopen(wr, "wb") as out:
                    pickle.dump(client(daemon.sock, seq, bodies, expected, ref,
                                       limit, counter), out)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(wr)
        pending[rd] = pid
    lat = {m: [] for m, _ in MIX}
    while pending:
        tick = marks[-1][0] + INTERVAL_S
        ready, _, _ = select.select(list(pending), [], [],
                                    max(0.0, tick - time.perf_counter()))
        now = time.perf_counter()
        if now >= tick and now - t0 <= seconds:
            marks.append((now, counter.value, daemon.cpu_s()))
        for rd in ready:
            with os.fdopen(rd, "rb") as f:
                data = f.read()
            os.waitpid(pending.pop(rd), 0)
            part, failures, led = pickle.loads(data)
            for m, xs in part.items():
                lat[m] += xs
            for f in failures:
                tally.fail(*f)
            ledgers.update(led)
    wall = time.perf_counter() - t0
    sent = counter.value
    counter.close()
    tally.attempted += sent
    intervals = [(b[0] - a[0], b[1] - a[1], b[2] - a[2]) for a, b in zip(marks, marks[1:])]
    return lat, wall, sent, intervals


def rid_seq(rid):
    """The sequence number in a daemon request id ("r<pid>-<n>")."""
    return int(rid.rsplit("-", 1)[1])


def start_warm(work, tag, jobs, grid, ref, tally, ledgers, trace=False):
    """One set-up: a fresh daemon with an empty cache, warmed with ``grid``."""
    t0 = time.perf_counter()
    d = Daemon(work, tag, jobs, trace)
    try:
        d.warm_rid = d.warm(grid, ref, tally, ledgers)
        d.setup_rss_mb = d.peak_rss_mb()
    except BaseException:
        d.stop()
        raise
    d.setup_s = time.perf_counter() - t0
    return d


# Set-ups per untraced run, the measured one included; setup_s is their
# median.  Each computes the whole grid, about ten seconds at one job.
SETUPS = 2


def run(seed, seconds, trace, work, jobs, tally):
    seq, expected = generate(seed, max(MIN_REQUESTS, int(REQUESTS_PER_S * seconds)),
                             probe_programs(seed))
    log(f"requests: {len(seq)} generated from seed {seed}, sha256 {digest(seq)}")
    ref = reference_values(reference())
    grid = warm_grid(paper_workloads(reference()))
    ledgers = {}
    if not trace:
        setups = []
        for k in range(SETUPS - 1):
            d = start_warm(work, f"setup-{k}", jobs, grid, ref, tally, ledgers)
            setups.append(d)
            d.stop()
        d = start_warm(work, "measure", jobs, grid, ref, tally, ledgers)
        setups.append(d)
        try:
            cpu0 = d.cpu_s()
            lat, wall, sent, intervals = closed_loop(d, seq, expected, seconds, jobs,
                                                     tally, ledgers)
            cpu = d.cpu_s() - cpu0
            rss = d.peak_rss_mb()
        finally:
            d.stop()
        walls = [x for xs in lat.values() for x in xs]
        return {
            "setup_s": median([x.setup_s for x in setups]),
            "op_p50_ms": median(walls) * 1e3,
            "op_p99_ms": quantile(walls, 0.99) * 1e3,
            "ops_per_s": median([n / dt for dt, n, _ in intervals]),
            "cpu_ms_per_op": median([c * 1e3 / n if n else math.inf
                                     for _, n, c in intervals]),
            # the window's further growth is a step of the GC's heap
            # sizing whose timing varies from run to run
            "peak_rss_mb": median([x.setup_rss_mb for x in setups]),
        }, {"sent": sent, "completed": len(walls), "intervals": len(intervals),
            "window_ops_per_s": len(walls) / wall,
            "window_cpu_ms_per_op": cpu * 1e3 / sent,
            "window_peak_rss_mb": rss}
    # Traced run: the same prefix of the sequence against an untraced and a
    # traced daemon, half the window each; layers come from the traced one.
    plain = start_warm(work, "plain", jobs, grid, ref, tally, ledgers)
    try:
        lat_plain, _, _, _ = closed_loop(plain, seq, expected, seconds / 2, jobs, tally, ledgers)
        rss = plain.peak_rss_mb()
    finally:
        plain.stop()
    traced = start_warm(work, "traced", jobs, grid, ref, tally, ledgers, trace=True)
    try:
        lat_tr, wall, sent, _ = closed_loop(traced, seq, expected, seconds / 2, jobs, tally, ledgers)
        counters = traced.call("metrics")["counters"]
    finally:
        traced.stop()
    with open(traced.trace) as f:
        ss = spans.load(json.load(f))
    spans.check_tiling(ss)
    out = serve_layers(ss, traced.warm_rid, lat_plain, lat_tr, traced.setup_s + wall,
                       jobs, counters, ledgers, work)
    out["serve.window_peak_rss_mb"] = rss
    return out, {"sent": sent}


def serve_layers(ss, warm_rid, lat_plain, lat_tr, life_s, jobs, counters, ledgers, work):
    """Layer metrics of the traced daemon.  Stage, cell and validator times
    and the counters cover its whole life, warm-up grid included; the
    per-method server medians and the memo hit share cover the window."""
    b = spans.breakdown(ss)
    rpc, window = {}, {}
    for s in ss:
        if s.name.startswith("rpc:"):
            rpc.setdefault(s.name[4:], []).append(s)
            if rid_seq(s.rid) > warm_rid:
                window.setdefault(s.name[4:], []).append(s)
    cell_rids = {s.rid for s in ss if s.name.startswith("cell:")}
    queries = window.get("query", [])
    out = {}
    for m, _ in MIX:
        out[f"serve.{m}.client_p50_ms"] = median(lat_tr[m]) * 1e3 if lat_tr[m] else 0.0
        durs = [s.dur / 1e3 for s in window.get(m, [])]
        out[f"serve.{m}.server_p50_ms"] = median(durs) if durs else 0.0
    out["serve.transport_us"] = (out["serve.query.client_p50_ms"]
                                 - out["serve.query.server_p50_ms"]) * 1e3
    out["serve.memo_hit_share"] = (
        sum(s.rid not in cell_rids for s in queries) / len(queries) if queries else 0.0)
    # whole spans: the validator runs inside the cells a validate request opens
    out["validate.server_ms"] = sum(s.dur for s in rpc.get("validate", [])) / 1e3
    out["validate.proved"] = float(sum(p for p, _ in ledgers.values()))
    out["validate.unknown"] = float(sum(u for _, u in ledgers.values()))
    out.update(layer_metrics(b, counters))
    # the request spans' own time: dispatch, JSON, and the work done outside
    # the engine's cells (explain, run)
    out["harness.outside_cells_ms"] = sum(
        s.self_time for xs in rpc.values() for s in xs) / 1e3
    out["harness.pool_busy_share"] = b["cell_ms"] / (life_s * 1e3 * jobs)
    all_plain = [x for xs in lat_plain.values() for x in xs]
    out["serve.op_p99_ms"] = quantile(all_plain, 0.99) * 1e3
    all_tr = [x for xs in lat_tr.values() for x in xs]
    out["telemetry.trace_overhead_pct"] = (median(all_tr) / median(all_plain) - 1) * 100
    out["proc.startup_ms"] = empty_op_ms(work)
    return out
