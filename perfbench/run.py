"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the programs with dune, sets the
workload up, measures it for S seconds, checks every operation's output, and
prints the metrics by name with their units.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see metrics.py and README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import common  # noqa: E402
import metrics  # noqa: E402
import reports  # noqa: E402
import serve  # noqa: E402
from common import BUILD_DIR, WORK_DIR, Tally, binary, log  # noqa: E402

TARGETS = ["./bin/spd.exe", "./bench/main.exe", "./perfbench/probe.exe"]

# Engine jobs, daemon workers and client connections of every workload.  At
# two or more jobs the pool domains race on lazily created metric handles
# (CamlinternalLazy.Undefined, ROADMAP item 1): a third to a half of the
# report operations crash, and the surviving ones take 1x or 2.5x as long
# depending on how the domains meet.  One job measures the program, not the
# race; raise this once the race is fixed.
JOBS = 1


def build(jobs):
    """Build the measured programs and the probe; exits 1 if that fails."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: not the root of a checkout of the repository")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache", "disabled", "-j", str(jobs)] + TARGETS
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if res.returncode != 0:
        sys.exit(f"run.py: build failed ({res.returncode})")


def probe_layers(work):
    out = subprocess.run([binary("perfbench/probe.exe"), "layers",
                          os.path.join(work, "probe-cache")],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    nproc = len(os.sched_getaffinity(0))
    build(nproc)
    # Every process of the run shares one CPU: at one job nothing needs two
    # at once, and a reply then wakes its reader on the same CPU rather than
    # through a second, idle virtual CPU, whose wake-up latency varies.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ocaml = subprocess.run([binary("perfbench/probe.exe"), "version"],
                           capture_output=True, text=True, check=True).stdout.strip()
    log("record: " + json.dumps(common.run_record(nproc, ocaml), sort_keys=True))
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    trace = args.trace == 1
    try:
        if args.workload == "serve-mix":
            values, info = serve.run(args.seed, args.seconds, trace, work, JOBS, tally)
        else:
            values, info = reports.run(args.workload, args.seconds, trace, work,
                                       JOBS, tally)
        if trace:
            values.update(probe_layers(work))
            values["fail_share"] = tally.fail_share
            values["setup_failures"] = float(tally.setup_failed)
    finally:
        common.Spawner.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    units = {m[0]: m[1] for m in declared}
    printed = {} if trace else {m[0]: (values.pop(m[0]), m[1]) for m in metrics.PRINTED}
    unknown = set(values) - set(units)
    if unknown:
        sys.exit(f"run.py: undeclared metrics {sorted(unknown)}")
    values = {name: float(values.get(name, 0.0)) for name in units}

    log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}: " + json.dumps(info, sort_keys=True))
    log(f"fail_share {tally.fail_share:.6g} ratio "
        f"({tally.failed} failed of {tally.attempted} attempted, "
        f"{tally.mismatches} output mismatches; "
        f"{tally.setup_failed} of {tally.setup_attempts} set-up attempts failed)")
    for reason, n in sorted(tally.reasons.items(), key=lambda kv: -kv[1]):
        log(f"  failed {n:6d}  {reason}")
    for name, v in values.items():
        log(f"{name} {v:.6g} {units[name]}")
    for name, (v, unit) in printed.items():
        log(f"{name} {v:.6g} {unit} (printed, not gated)")
    print(json.dumps({
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
