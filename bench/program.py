"""Runs the real ``chainfrontier`` CLI in fresh subprocesses.

Each call is timed from spawn to reap, and its peak RSS is read from
``os.wait4``. On Linux that figure covers the process and every child it
reaped, so the pool workers of a ``workers = 2`` run are included, and no
process other than the program's own is counted.

The reference task measures the machine's speed. It uses none of the
program's code, only the interpreter start-up, the NumPy and SciPy imports
and the small SLSQP solves that dominate the program's own calls.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


REFERENCE_TASK = """
import numpy as np
from scipy.optimize import minimize

cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
for _ in range(150):
    minimize(
        lambda w: w @ cov @ w,
        np.full(3, 1 / 3),
        jac=lambda w: 2 * cov @ w,
        method="SLSQP",
        bounds=[(0.0, 0.9)] * 3,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
    )
"""


class CallFailed(RuntimeError):
    """A program call exited non-zero."""


@dataclass(frozen=True)
class Call:
    seconds: float
    stdout: str


class Program:
    """The CLI under test, run with the checkout's ``src`` on the path."""

    def __init__(self, root: Path, logs: Path) -> None:
        self.logs = logs
        logs.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""),
        )
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.reference_s: list[float] = []

    def cli(self, config: Path, workspace: Path, *args: str) -> Call:
        return self.python(
            "-m",
            "chainfrontier.cli",
            "--config",
            str(config),
            "--workspace",
            str(workspace),
            *args,
        )

    def inprocess(self, fn, *args):
        """Call a program function in this process, counting it as an operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise

    def timed_cli(self, config: Path, workspace: Path, *args: str) -> Call:
        """A CLI call right after a run of the reference task, which is not
        counted as a program call."""
        seconds, code, _ = self._spawn("-c", REFERENCE_TASK)
        if code != 0:
            raise RuntimeError(f"the reference task exited {code}")
        self.reference_s.append(seconds)
        return self.cli(config, workspace, *args)

    def python(self, *args: str) -> Call:
        """Run the interpreter on ``args``; raise CallFailed on a non-zero exit."""
        self.attempted += 1
        seconds, code, usage = self._spawn(*args)
        # ru_maxrss is in KiB on Linux
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if code != 0:
            self.failed += 1
            tail = (self.logs / "stderr.txt").read_text(errors="replace").strip()
            raise CallFailed(
                f"`{' '.join(args)}` exited {code}: " + " | ".join(tail.splitlines()[-5:])
            )
        return Call(seconds, (self.logs / "stdout.txt").read_text())

    def _spawn(self, *args: str):
        out_path = self.logs / "stdout.txt"
        err_path = self.logs / "stderr.txt"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        return seconds, os.waitstatus_to_exitcode(status), usage
