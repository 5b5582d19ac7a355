"""The four closed-loop workloads and the operations they cycle through.

Each workload is one client that runs one ``tolchain`` call at a time and
waits for it. Sizes are set so that a 25-second run holds about 25 calls or
more, which leaves ten calls beyond the tail percentile, while 92 runs of the
four workloads fit in under an hour. That is why ``simulate-wide`` samples
1e6 realizations rather than 2e6, and ``simulate-export`` 5e4 rather than
5e5: at 5e5 a call takes about 3 s and a run would hold eight of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import chains
import oracle


@dataclass(frozen=True)
class Outcome:
    """What one call left behind: exit code, stdout, and any files it wrote."""

    exit_code: int
    stdout: bytes
    files: tuple[bytes, ...] = ()  # contents of Op.outputs, in order


@dataclass(frozen=True)
class Op:
    """One tolchain call with its expected exit code and output check.

    ``check`` raises :class:`oracle.CheckFailed` on a wrong output and
    returns the Monte Carlo realizations the call completed.
    """

    label: str
    args: tuple[str, ...]
    exit_code: int
    check: Callable[[Outcome], int]
    outputs: tuple[Path, ...] = ()
    # Realizations per sample_chain call and the chain's dimension count.
    n: int = 0
    dims: int = 0

    def with_workers(self, workers: int) -> "Op":
        """The same call with another worker count, writing beside the original outputs."""
        args = list(self.args)
        args[args.index("--workers") + 1] = str(workers)
        outputs = tuple(p.with_name(f"{p.stem}-w{workers}{p.suffix}") for p in self.outputs[:1])
        if outputs:
            args[args.index("--output") + 1] = str(outputs[0])
            outputs += tuple(outputs[0].with_name(outputs[0].stem + s) for s in (".samples.csv", ".hist.csv"))
        return replace(self, label=f"{self.label}-w{workers}", args=tuple(args), outputs=outputs)

    def clear_outputs(self) -> None:
        """Removes earlier outputs, so a call that writes nothing cannot pass on stale files."""
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def read_outputs(self) -> tuple[bytes, ...]:
        return tuple(p.read_bytes() if p.exists() else b"" for p in self.outputs)


def evaluate(op: Op, outcome: Outcome) -> tuple[int, str | None]:
    """``(realizations, None)`` for a correct call, ``(0, reason)`` otherwise."""
    if outcome.exit_code != op.exit_code:
        return 0, f"{op.label}: exit code {outcome.exit_code}, expected {op.exit_code}"
    try:
        return op.check(outcome), None
    except oracle.CheckFailed as exc:
        return 0, f"{op.label}: {exc}"
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return 0, f"{op.label}: unreadable output ({type(exc).__name__}: {exc})"


class _Writer:
    """Writes generated chain files into a run's directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def chain(self, name: str, doc: dict) -> tuple[Path, bytes]:
        path = self.directory / f"{name}.json"
        data = chains.render(doc)
        path.write_bytes(data)
        return path, data


def _analyze(w: _Writer, name: str, doc: dict) -> Op:
    path, data = w.chain(name, doc)

    def check(outcome: Outcome) -> int:
        report = json.loads(outcome.stdout)
        oracle.check_header(report, "analyze", data, doc)
        oracle.check_analyze(report, doc)
        return 0

    return Op(f"analyze-{name}", ("analyze", "--chain", str(path)), 0, check)


def _verify(w: _Writer, name: str, doc: dict) -> Op:
    path, data = w.chain(name, doc)
    exit_code = 1 if oracle.exact_status(doc).startswith("NonConforming") else 0

    def check(outcome: Outcome) -> int:
        report = json.loads(outcome.stdout)
        oracle.check_header(report, "verify", data, doc)
        oracle.check_verify(report, doc, outcome.exit_code)
        return 0

    return Op(f"verify-{name}", ("verify", "--chain", str(path)), exit_code, check)


def _solve(w: _Writer, name: str, doc: dict, unknown: str, feasible: bool) -> Op:
    path, data = w.chain(name, doc)

    def check(outcome: Outcome) -> int:
        if not feasible:
            oracle.expect(outcome.stdout == b"", "an infeasible solve wrote a report")
            return 0
        report = json.loads(outcome.stdout)
        oracle.check_header(report, "solve", data, doc)
        oracle.check_solve(report, doc, unknown)
        return 0

    args = ("solve", "--chain", str(path), "--unknown", unknown)
    return Op(f"solve-{name}", args, 0 if feasible else 3, check)


def worstcase_ops(seed: int, w: _Writer) -> list[Op]:
    ops = []
    for k in (4, 16):
        conforming = chains.verify_chain(seed, k, conforming=True)
        ops.append(_analyze(w, f"analyze-{k}", conforming))
        ops.append(_verify(w, f"verify-ok-{k}", conforming))
        ops.append(_verify(w, f"verify-bad-{k}", chains.verify_chain(seed, k, conforming=False)))
        for feasible in (True, False):
            doc, unknown = chains.solve_chain(seed, k, feasible)
            ops.append(_solve(w, f"solve-{'ok' if feasible else 'bad'}-{k}", doc, unknown, feasible))
    return ops


def simulate_op(w: _Writer, name: str, doc: dict, n: int, seed: int, workers: int, export: bool) -> Op:
    path, data = w.chain(name, doc)
    args = ["simulate", "--chain", str(path), "--samples", str(n), "--seed", str(seed), "--workers", str(workers)]
    outputs: tuple[Path, ...] = ()
    if export:
        report_path = w.directory / f"{name}.out.json"
        outputs = (report_path, *(w.directory / f"{name}.out{s}" for s in (".samples.csv", ".hist.csv")))
        args += ["--output", str(report_path)]

    def check(outcome: Outcome) -> int:
        if export:
            report_bytes, samples_bytes, hist_bytes = outcome.files
            oracle.expect(outcome.stdout == b"", "simulate --output also wrote to stdout")
            report = json.loads(report_bytes)
            oracle.check_samples_csv(samples_bytes.decode(), doc, n)
            oracle.check_histogram_csv(hist_bytes.decode(), n, report["config"]["bins"])
        else:
            report = json.loads(outcome.stdout)
        oracle.check_header(report, "simulate", data, doc)
        oracle.check_simulate(report, doc, n, seed)
        return n

    return Op(f"simulate-{name}", tuple(args), 0, check, outputs, n, len(doc["dimensions"]))


def synthesize_op(w: _Writer, name: str, doc: dict, n: int, seed: int, workers: int) -> Op:
    path, data = w.chain(name, doc)
    target = chains.TARGET_SCRAP
    args = ("synthesize", "--chain", str(path), "--target-scrap", repr(target),
            "--samples", str(n), "--seed", str(seed), "--workers", str(workers))

    def check(outcome: Outcome) -> int:
        report = json.loads(outcome.stdout)
        oracle.check_header(report, "synthesize", data, doc)
        return oracle.check_synthesize(report, doc, n, target)

    return Op(f"synthesize-{name}", args, 0, check, (), n, len(doc["dimensions"]))


# Each Monte Carlo workload cycles through this many generated chains.
VARIANTS = 4


def simulate_wide_ops(seed: int, w: _Writer) -> list[Op]:
    return [
        simulate_op(w, f"wide-{v}", chains.simulate_chain(seed * VARIANTS + v, "wide", 16), 1_000_000,
                    chains.tolchain_seed(f"wide-{v}", seed), workers=2, export=False)
        for v in range(VARIANTS)
    ]


def simulate_export_ops(seed: int, w: _Writer) -> list[Op]:
    return [
        simulate_op(w, f"export-{v}", chains.simulate_chain(seed * VARIANTS + v, "export", 4), 50_000,
                    chains.tolchain_seed(f"export-{v}", seed), workers=1, export=True)
        for v in range(VARIANTS)
    ]


def synthesize_ops(seed: int, w: _Writer) -> list[Op]:
    return [
        synthesize_op(w, f"synth-{v}", chains.synthesize_chain(seed * VARIANTS + v), 100_000,
                      chains.tolchain_seed(f"synth-{v}", seed), workers=2)
        for v in range(VARIANTS)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Percentile reported as op_s_tail: the highest with at least ten
    # operations beyond it in one run of the benchmark's run length.
    tail_percentile: int
    build: Callable[[int, _Writer], list[Op]]
    # Monte Carlo workloads take --workers; their outputs must not depend on it.
    sampling: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "worstcase-cli",
            "analyze, verify (exit 0 and 1) and solve (exit 0 and 3) on 4- and 16-dimension chains; no sampling, "
            "so interpreter start, imports and parsing dominate; the bypass side of every sampler change",
            75, worstcase_ops, sampling=False,
        ),
        Workload(
            "simulate-wide",
            "simulate to stdout, 16 dimensions, n=1e6, 2 workers; sampling and per-dimension reductions dominate "
            "and 17 arrays set peak memory",
            55, simulate_wide_ops, sampling=True,
        ),
        Workload(
            "simulate-export",
            "simulate --output, 4 dimensions, n=5e4, 1 worker; writing the samples CSV is the largest part after "
            "start-up, so it shows a streamed export and guards the write path against sampler changes",
            55, simulate_export_ops, sampling=True,
        ),
        Workload(
            "synthesize-loop",
            "synthesize to a 1e-3 scrap target, 4 dimensions, 1e5 samples per iteration, 2 workers; about 36 small "
            "sample_chain calls per op expose per-call overhead and the synthesis loop",
            55, synthesize_ops, sampling=True,
        ),
    )
}


def build_ops(workload: Workload, seed: int, directory: Path) -> list[Op]:
    return workload.build(seed, _Writer(directory))


def probe_ops(seed: int, directory: Path) -> dict[str, list[Op]]:
    """Small calls that reach each layer, for layers a workload does not reach."""
    w = _Writer(directory)
    return {
        "worstcase": worstcase_ops(seed, w)[:5],
        "montecarlo": [simulate_op(w, "probe-export", chains.simulate_chain(seed, "probe", 4), 20_000,
                                   chains.tolchain_seed("probe-export", seed), workers=1, export=True)],
        "synthesis": [synthesize_op(w, "probe-synth", chains.synthesize_chain(seed), 100_000,
                                    chains.tolchain_seed("probe-synth", seed), workers=2)],
    }
