"""A small process that starts the timed commands.

A child's ``ru_maxrss`` counts the memory image it was forked from, so a
command forked by the benchmark, which holds numpy and reference data,
would report the benchmark's memory. This process imports only the
standard library. It reads one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "timeout": seconds}``, runs the command
in its own working directory and environment, and answers with one line,
``{"elapsed": s, "code": exit code, "maxrss_kb": KB}``. Wall time spans
spawn to reap. A watchdog kills a command that runs past its timeout. The
process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=subprocess.DEVNULL)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"elapsed": elapsed, "code": proc.returncode,
                                  "maxrss_kb": usage.ru_maxrss}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
