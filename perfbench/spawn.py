"""Run one command; write its wall time, exit code and peak RSS as JSON.

    python3 -S perfbench/spawn.py RESULT.json PROGRAM ARG...

A child's ru_maxrss starts from the resident size of the process that
spawned it, so run.py does not spawn the timed commands itself: this small
process (no site import, nothing else loaded) does, and times them.
"""
import json
import os
import sys
import time

result_path, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
seconds = time.perf_counter() - t0
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump({"seconds": seconds, "returncode": os.waitstatus_to_exitcode(status),
               "maxrss_kib": usage.ru_maxrss}, fh)
