"""Child-process helpers: the environment every measured child gets, and a
timed run that reports wall time and the child's own peak RSS."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# One compute thread per child (at most nproc); a fixed hash seed so set
# iteration order, and with it the work done, repeats from run to run.
CHILD_THREADS = "1"
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = CHILD_THREADS
    return env


def cli(*args: str) -> list[str]:
    """Command line of one `jobgraph` CLI invocation."""
    return [sys.executable, "-m", "jobgraph.cli", *args]


def worker(*args: str) -> list[str]:
    """Command line of one benchmark worker process."""
    return [sys.executable, str(BENCH / "worker.py"), *args]


class Child:
    """A child process with a kill deadline; `finish` reaps it with wait4
    so the peak RSS is the child's own, not the maximum over all children."""

    def __init__(self, cmd: list[str], log: Path, *, pipe_stdout: bool = False):
        self._log = open(log, "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipe_stdout else subprocess.DEVNULL,
            stderr=self._log,
        )
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def readline(self) -> str:
        return self.proc.stdout.readline().decode()

    def finish(self) -> tuple[float, float, int, str]:
        """Wait for exit; returns (wall_s, peak_rss_mb, exit_code, rest_of_stdout)."""
        rest = self.proc.stdout.read().decode() if self.proc.stdout else ""
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.stdout:
            self.proc.stdout.close()
        self._log.close()
        return wall, usage.ru_maxrss / 1024.0, self.proc.returncode, rest
