"""Running tolchain calls as child processes, timed from spawn to reap, in a closed loop."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from workloads import Op, Outcome, evaluate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The same entry point as the installed ``tolchain`` console script.
CLI = "import sys; from tolchain.cli import main; sys.exit(main())"


# The shared host this benchmark runs on changes speed by up to 1.6x for
# seconds to minutes at a time, each core on its own, and that swing, not
# the program, would set the run-to-run spread of wall times. So a fixed
# pure-Python loop is timed between calls, an equal share of it pinned to
# each usable core, and each call's wall time is scaled by REFERENCE_S over
# the loop's time around it: the time the call would take on a host that
# runs the loop in REFERENCE_S. The loop runs in the benchmark's own process
# while no call runs, so the program under test cannot change its time.
REFERENCE_LOOP = 500_000
REFERENCE_S = 0.03


def reference_seconds() -> float:
    """Wall time of the reference loop: how fast the host's cores run right now."""
    cores = os.sched_getaffinity(0)
    share = REFERENCE_LOOP // len(cores)
    elapsed = 0.0
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            start = perf_counter()
            total = 0
            for i in range(share):
                total += i
            elapsed += perf_counter() - start
    finally:
        os.sched_setaffinity(0, cores)
    return elapsed * REFERENCE_LOOP / (share * len(cores))


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` on a host that runs the reference loop in REFERENCE_S."""
    return seconds * REFERENCE_S / reference


@dataclass
class Record:
    """One timed call and its verdict."""

    op: Op
    seconds: float
    rss_kib: int
    samples: int
    failure: str | None
    # Mean reference-loop time just before and just after the call.
    reference: float = REFERENCE_S

    @property
    def scaled_seconds(self) -> float:
        return scaled(self.seconds, self.reference)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# A call that runs longer than this is killed, and fails on its exit code.
CALL_TIMEOUT_S = 60

# Starts one child per request line and answers with [exit code, seconds, peak RSS in KiB].
_SPAWNER = f"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, cwd, stdout_path = json.loads(line)
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=cwd)
        timer = threading.Timer({CALL_TIMEOUT_S}, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, seconds, usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """A small helper process that starts each child and times it from spawn to reap.

    Linux folds the parent's peak RSS into a forked child's ``ru_maxrss``, so
    a child started by the benchmark itself would report the benchmark's
    peak whenever that is larger. The helper stays small, so the children's
    figures are their own.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-c", _SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=child_env())

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path, stdout_path: Path) -> tuple[int, float, int]:
        """Runs a child to completion; returns exit code, wall seconds and its peak RSS in KiB."""
        self.proc.stdin.write(json.dumps([argv, str(cwd), str(stdout_path)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        code, seconds, rss = json.loads(line)
        return code, seconds, rss

    def cli(self, op: Op, work: Path) -> tuple[Outcome, float, int]:
        """Runs one tolchain call as a child process."""
        op.clear_outputs()
        stdout_path = work / "stdout"
        code, seconds, rss = self.run([sys.executable, "-c", CLI, *op.args], work, stdout_path)
        return Outcome(code, stdout_path.read_bytes(), op.read_outputs()), seconds, rss

    def tolchain_location(self, work: Path) -> Path:
        """Where a fresh interpreter finds tolchain; also compiles its bytecode."""
        out = work / "where"
        code, _, _ = self.run([sys.executable, "-c", "import tolchain.cli; print(tolchain.cli.__file__)"], work, out)
        if code != 0:
            raise SystemExit("tolchain does not import from this checkout")
        return Path(out.read_text().strip()).resolve()


def closed_loop(ops: list[Op], seconds: float, execute: Callable[[Op], tuple[Outcome, float, int]]
                ) -> tuple[list[Record], dict[str, Outcome]]:
    """Runs the ops in turn, one at a time, until ``seconds`` have passed.

    The reference loop is timed before the first call and after each call.
    Returns the records and the first outcome of each op.
    """
    records: list[Record] = []
    first: dict[str, Outcome] = {}
    start = perf_counter()
    before = reference_seconds()
    while not records or perf_counter() - start < seconds:
        op = ops[len(records) % len(ops)]
        outcome, elapsed, rss = execute(op)
        after = reference_seconds()
        samples, failure = evaluate(op, outcome)
        records.append(Record(op, elapsed, rss, samples, failure, (before + after) / 2))
        first.setdefault(op.label, outcome)
        before = after
    return records, first
