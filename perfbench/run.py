"""tolchain benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates its chain files from ``--seed``, runs the chosen
workload's ``tolchain`` calls one at a time for ``--seconds`` seconds, and
checks every call's exit code and output against its own arithmetic. The
library is taken from this checkout's ``src/``; nothing is installed.

``--trace 0`` runs each call as a child process and reports the end-to-end
metrics. Their times are scaled to a fixed host speed, measured between
calls with a reference loop (see ``harness.REFERENCE_S``), and the notes
give the unscaled wall-clock figures too. ``--trace 1`` runs the calls in
this process with a span around each public tolchain function and reports
the per-layer metrics. Either way
the last line of stdout is one JSON object; the lines before it start with
``#`` and stamp the result with the environment and notes. A fuller record
goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import REFERENCE_S, ROOT, SRC, Record, Spawner, closed_loop, reference_seconds, scaled
from workloads import WORKLOADS, Op, Outcome, Workload, build_ops

SETUP_REPEATS = 7


def measure_setup(spawner: Spawner, work: Path) -> tuple[float, float]:
    """Median time of a fresh interpreter importing tolchain.cli: scaled and wall seconds."""
    argv = [sys.executable, "-c", "import tolchain.cli"]
    walls, scaled_walls = [], []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        wall = spawner.run(argv, work, work / "setup")[1]
        after = reference_seconds()
        walls.append(wall)
        scaled_walls.append(scaled(wall, (before + after) / 2))
        before = after
    return statistics.median(scaled_walls), statistics.median(walls)


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def worker_invariance(op: Op, outcome: Outcome, execute) -> Record:
    """Re-runs ``op`` with the other worker count; the bytes must not change."""
    workers = int(op.args[op.args.index("--workers") + 1])
    other = op.with_workers(1 if workers != 1 else 2)
    alt, elapsed, rss = execute(other)
    same = alt.exit_code == outcome.exit_code and alt.stdout == outcome.stdout and alt.files == outcome.files
    failure = None if same else f"{other.label}: output bytes depend on --workers"
    return Record(other, elapsed, rss, 0, failure)


def untraced_run(workload: Workload, ops: list[Op], seconds: float, spawner: Spawner, work: Path
                 ) -> tuple[list[Record], dict[str, tuple[float, str]], list[str]]:
    """Every call in a child process: the end-to-end metrics."""
    setup_s, setup_wall_s = measure_setup(spawner, work)
    timed, first = closed_loop(ops, seconds, lambda op: spawner.cli(op, work))
    records = list(timed)
    if workload.sampling:
        records.append(worker_invariance(ops[0], first[ops[0].label], lambda op: spawner.cli(op, work)))
    metrics = end_to_end(workload, timed, [r.scaled_seconds for r in timed], setup_s)
    wall = end_to_end(workload, timed, [r.seconds for r in timed], setup_wall_s)
    notes = [
        f"op_s_tail is p{workload.tail_percentile} of {len(timed)} timed calls",
        "samples_per_s counts " + ("Monte Carlo realizations" if workload.sampling else
                                   "completed calls (this workload draws no samples)")
        + " per second spent inside calls",
        f"times are scaled to a host that runs the reference loop in {REFERENCE_S} s; here it took a median "
        f"{statistics.median(r.reference for r in timed):.4g} s",
        "unscaled wall-clock figures: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items() if name != "peak_rss_mb"),
    ]
    return records, metrics, notes


def end_to_end(workload: Workload, records: list[Record], times: list[float], setup_s: float
               ) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, from ``times``, one per record."""
    busy = sum(times)
    if workload.sampling:
        work = sum(r.samples for r in records)
    else:
        work = sum(1 for r in records if r.failure is None)
    return {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (nearest_rank(times, workload.tail_percentile), "s"),
        "samples_per_s": (work / busy, "1/s"),
        "peak_rss_mb": (statistics.median(r.rss_kib for r in records) * 1024 / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
    }


def llc_bytes() -> int | None:
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return size
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    return int(text[:-1]) * 1024 if text.endswith("K") else int(text)


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def source_digest() -> str:
    """SHA-256 of the tolchain sources: names the code under test where git describe cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tolchain").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment(ops: list[Op]) -> dict[str, object]:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    env: dict[str, object] = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_describe": git_describe(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "llc_bytes": llc_bytes(),
    }
    if ops:
        env["largest_array_bytes_computed"] = max(8 * op.n for op in ops)
        env["largest_batch_bytes_computed"] = max(8 * op.n * (op.dims + 1) for op in ops)
    return env


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tolchain" / "cli.py").is_file():
        print(f"perfbench: no tolchain sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        with Spawner() as spawner:
            location = spawner.tolchain_location(work)
            if not location.is_relative_to(SRC.resolve()):
                print(f"perfbench: tolchain imports from {location}, not from {SRC}", file=sys.stderr)
                return 2
            ops = build_ops(workload, args.seed, work / "chains")
            env = environment(ops)
            if args.trace:
                sys.path.insert(0, str(SRC))
                import layers

                traced = layers.traced_run(workload, ops, args.seconds, args.seed, spawner, work)
                records, metrics, notes = traced.records, traced.metrics, traced.notes
                out_dir.mkdir(exist_ok=True)
                spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
                with open(spans_path, "w") as f:
                    for span in traced.spans:
                        f.write(json.dumps(dataclasses.asdict(span)) + "\n")
                notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
            else:
                records, metrics, notes = untraced_run(workload, ops, args.seconds, spawner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r.failure for r in records if r.failure is not None]
    attempted = len(records)
    notes.append(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    print(f"# workload {workload.name}: {workload.why}")
    for note in notes:
        print(f"# {note}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "notes": notes, "failures": failures, "result": result,
              "calls": [{"label": r.op.label, "seconds": r.seconds, "reference_s": r.reference, "rss_kib": r.rss_kib}
                        for r in records]}
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
