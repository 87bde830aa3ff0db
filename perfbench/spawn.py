"""Runs operations for the benchmark and reports what the kernel measured.

Started once per run with ``python3 -S -I``; reads one JSON request per line
on stdin ({"argv", "cwd", "out", "err"}) and answers one JSON line per
operation ({"code", "wall_s", "cpu_s", "rss_mb"}).  A process forked from a
large parent inherits that parent's resident set as the start of its
``ru_maxrss``; forking from this small process keeps the operation's peak
its own.
"""

import json
import os
import sys
import time


def run(argv, cwd, out, err):
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            for fd, path in ((1, out), (2, err)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


for line in sys.stdin:
    req = json.loads(line)
    sys.stdout.write(json.dumps(run(req["argv"], req["cwd"], req["out"], req["err"])) + "\n")
    sys.stdout.flush()
