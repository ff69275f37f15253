"""Starts CLI subprocesses on behalf of the benchmark and reports their
exit code, standard output and peak resident memory.

Linux records a process's peak RSS across ``exec``, and a child started
with ``vfork`` or ``fork`` begins with its parent's memory.  A CLI child
of the benchmark process would therefore report at least the benchmark's
own peak.  This process is started before the benchmark imports anything
large and stays small, so the peak it reports for each child is the
child's own.

Protocol: one JSON argument list per line on stdin; one JSON line
``[exit code, stdout, peak RSS in kB]`` per request on stdout.  It exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading

#: A CLI call that runs longer than this is killed and counts as failed.
TIMEOUT_S = 60


def run(argv: list):
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss


class Launcher:
    """The benchmark's handle on a launcher process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def run(self, argv: list):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self.proc.stdout.readline()))

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


if __name__ == "__main__":
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
