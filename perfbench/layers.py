"""Traced run: per-layer metrics from spans around tolchain's public functions.

The workload's calls run in this process through ``tolchain.cli.main`` with
a span around every public function of ``model``, ``worstcase``,
``montecarlo``, ``synthesis`` and ``cli``. Each per-layer metric is the
median over calls of that layer's total per call. A layer the workload never
reaches is measured on a small probe call instead, and the notes say which.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from harness import Record, Spawner, closed_loop
from spans import Span, Tracer, self_time
from workloads import Op, Outcome, Workload, evaluate, probe_ops

# Least number of calls timed both as a child process and in process, and
# both untraced and traced in process, for the process and tracing overheads.
PAIRS = 4

# The actuator fixture from the README, for the sampler scaling sweep.
ACTUATOR = {
    "name": "actuator-clamping",
    "dimensions": [
        {"name": "a1", "nominal": 25.3, "upper_dev": 0.5, "lower_dev": 0.0, "coefficient": 1},
        {"name": "a2", "nominal": 9.0, "upper_dev": 0.1, "lower_dev": -0.1, "coefficient": -1},
        {"name": "a3", "nominal": 4.0, "upper_dev": 0.2, "lower_dev": -0.2, "coefficient": -1},
        {"name": "a7", "nominal": 2.0, "upper_dev": 0.0, "lower_dev": -0.06, "coefficient": -1},
    ],
    "condition": {"name": "Ja", "min": 10.0, "max": 11.16},
}
# (exponent of n, repeats): sample_chain is timed at n = 10**exponent.
SWEEP = ((5, 5), (6, 3), (7, 1))

# metric -> function whose total per call it reports
TOTALS = {
    "cli.run_s": "cli.run",
    "model.parse_chain_s": "model.parse_chain",
    "worstcase.worst_case_s": "worstcase.worst_case",
    "worstcase.solve_unknown_s": "worstcase.solve_unknown",
    "montecarlo.sample_chain_s": "montecarlo.sample_chain",
    "montecarlo.batch_summary_s": "montecarlo.batch_summary",
    "montecarlo.scrap_rate_s": "montecarlo.scrap_rate",
    "montecarlo.analytic_scrap_s": "montecarlo.analytic_scrap",
    "montecarlo.samples_csv_s": "montecarlo.samples_csv",
    "montecarlo.histogram_csv_s": "montecarlo.histogram_csv",
    "synthesis.synthesize_s": "synthesis.synthesize",
    "synthesis.report_document_s": "synthesis.synthesis_report_document",
}


def _sample_chain_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    dims, n = len(args[0].dimensions), result.n
    return {"draws": n * dims, "batch_bytes": (dims + 1) * n * 8}


def _synthesize_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {
        "iterations": len(result.iterations),
        "samples": sum(record.scrap.n for record in result.iterations),
        "analytic": sum(record.scrap_source == "analytic" for record in result.iterations),
    }


# Metrics derived from the calls' spans, beyond TOTALS.
CALL_METRICS = [
    *TOTALS,
    "cli.self_s", "cli.report_bytes",
    "worstcase.verify_calls_per_solve",
    "montecarlo.normal_draws", "montecarlo.draws_per_s", "montecarlo.batch_bytes", "montecarlo.samples_csv_bytes",
    "synthesis.iterations", "synthesis.s_per_iteration", "synthesis.samples_drawn",
    "synthesis.analytic_fallbacks", "synthesis.self_s",
]

COUNTERS = {
    "montecarlo.sample_chain": _sample_chain_counts,
    "montecarlo.samples_csv": lambda args, kwargs, result: {"bytes": len(result.encode())},
    "synthesis.synthesize": _synthesize_counts,
}


def call_values(spans: list[Span], report_bytes: int) -> dict[str, float]:
    """Per-layer values of one call, for the layers it reached."""
    named: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def own(name: str) -> float:
        return sum(self_time(s, children[s.id]) for s in named[name])

    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in named[name])

    values = {metric: sum(s.duration for s in named[name]) for metric, name in TOTALS.items() if named[name]}
    if named["cli.run"]:
        values["cli.self_s"] = own("cli.run")
        values["cli.report_bytes"] = report_bytes
    if named["montecarlo.sample_chain"]:
        values["montecarlo.normal_draws"] = count("montecarlo.sample_chain", "draws")
        values["montecarlo.batch_bytes"] = max(s.counts["batch_bytes"] for s in named["montecarlo.sample_chain"])
    if named["montecarlo.samples_csv"]:
        values["montecarlo.samples_csv_bytes"] = count("montecarlo.samples_csv", "bytes")
    if named["synthesis.synthesize"]:
        iterations = count("synthesis.synthesize", "iterations")
        values["synthesis.iterations"] = iterations
        values["synthesis.samples_drawn"] = count("synthesis.synthesize", "samples")
        values["synthesis.analytic_fallbacks"] = count("synthesis.synthesize", "analytic")
        values["synthesis.self_s"] = own("synthesis.synthesize")
        values["synthesis.s_per_iteration"] = values["synthesis.synthesize_s"] / iterations
    return values


def layer_metrics(tracer: Tracer, calls: dict[int, int]) -> dict[str, float]:
    """Medians over ``calls`` (span op id -> report bytes), plus whole-run ratios."""
    by_op = tracer.by_op()
    per_call = [call_values(by_op.get(op, []), report_bytes) for op, report_bytes in calls.items()]
    names = {name for values in per_call for name in values}
    metrics = {name: statistics.median(v[name] for v in per_call if name in v) for name in names}

    draws = sum(v.get("montecarlo.normal_draws", 0) for v in per_call)
    if draws:
        metrics["montecarlo.draws_per_s"] = draws / sum(v.get("montecarlo.sample_chain_s", 0) for v in per_call)
    spans = [s for op in calls for s in by_op.get(op, [])]
    solves = [s for s in spans if s.name == "worstcase.solve_unknown" and not s.error]
    if solves:
        ids = {s.id for s in solves}
        verifies = sum(1 for s in spans if s.name == "worstcase.verify_worst_case" and s.parent in ids)
        metrics["worstcase.verify_calls_per_solve"] = verifies / len(solves)
    return metrics


class InProcess:
    """Runs calls through ``tolchain.cli.main`` in this process."""

    def __init__(self, tracer: Tracer) -> None:
        import tolchain.cli

        self.cli = tolchain.cli
        self.tracer = tracer
        self.calls: dict[int, int] = {}

    def run(self, op: Op, traced: bool) -> tuple[Outcome, float, int]:
        op.clear_outputs()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if traced:
                self.tracer.op += 1
                with self.tracer.span("op"):
                    code = self.cli.main(list(op.args))
            else:
                code = self.cli.main(list(op.args))
        seconds = perf_counter() - start
        files = op.read_outputs()
        outcome = Outcome(code, out.getvalue().encode(), files)
        if traced:
            self.calls[self.tracer.op] = len(files[0]) if files else len(outcome.stdout)
        return outcome, seconds, 0


def sampler_sweep() -> dict[str, float]:
    """sample_chain on the actuator chain at 1e5..1e7 samples with 1 and 2 workers."""
    from tolchain import SigmaRule, parse_chain, sample_chain

    chain = parse_chain(json.dumps(ACTUATOR))
    metrics = {}
    for exponent, repeats in SWEEP:
        for workers in (1, 2):
            times = []
            for _ in range(repeats):
                start = perf_counter()
                batch = sample_chain(chain, SigmaRule.it6(), 10**exponent, 1, workers=workers)
                times.append(perf_counter() - start)
                del batch
            metrics[f"montecarlo.sample_chain_s.n1e{exponent}.w{workers}"] = statistics.median(times)
    metrics["montecarlo.speedup_w2.n1e7"] = (
        metrics["montecarlo.sample_chain_s.n1e7.w1"] / metrics["montecarlo.sample_chain_s.n1e7.w2"]
    )
    return metrics


@dataclass
class TracedResult:
    records: list[Record]
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    spans: list[Span]


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or "_s." in metric or metric.endswith(".s_per_iteration"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if ".speedup" in metric:
        return "x"
    return "count"


def traced_run(workload: Workload, ops: list[Op], seconds: float, seed: int, spawner: Spawner, work: Path
               ) -> TracedResult:
    import tolchain.cli
    from tolchain import model, montecarlo, synthesis, worstcase

    tracer = Tracer()
    runner = InProcess(tracer)
    records: list[Record] = []

    def checked(op: Op, result: tuple[Outcome, float, int]) -> float:
        samples, failure = evaluate(op, result[0])
        records.append(Record(op, result[1], result[2], samples, failure))
        return result[1]

    modules = [model, worstcase, montecarlo, synthesis, tolchain.cli]
    start = perf_counter()
    runner.run(ops[0], traced=False)  # imports, caches
    process_gaps = []
    for i in range(PAIRS):
        op = ops[i % len(ops)]
        child = checked(op, spawner.cli(op, work))
        process_gaps.append(child - checked(op, runner.run(op, traced=False)))
    # The same call untraced and traced, for at least PAIRS pairs and until a
    # tenth of the run has passed. Which runs first alternates from pair to
    # pair and flips for an op on each pass over the ops.
    trace_gaps: list[float] = []
    pairs_start = perf_counter()
    while len(trace_gaps) < PAIRS or perf_counter() - pairs_start < seconds / 10:
        k = len(trace_gaps)
        op = ops[k % len(ops)]
        traced_first = (k + k // len(ops)) % 2 == 1
        if not traced_first:
            plain = checked(op, runner.run(op, traced=False))
        with tracer.installed(modules, COUNTERS):
            traced = checked(op, runner.run(op, traced=True))
        if traced_first:
            plain = checked(op, runner.run(op, traced=False))
        trace_gaps.append(traced - plain)
    runner.calls = {}
    sweep = sampler_sweep()

    # The loop gets what is left of the run, but at least half of it.
    loop_seconds = max(seconds - (perf_counter() - start), seconds / 2)
    with tracer.installed(modules, COUNTERS):
        loop, _ = closed_loop(ops, loop_seconds, lambda op: runner.run(op, traced=True))
        records += loop
        metrics = layer_metrics(tracer, runner.calls)

        notes = []
        probes = probe_ops(seed, work / "probe")
        missing = {name.split(".")[0] for name in CALL_METRICS if name not in metrics}
        for layer in sorted(missing & probes.keys()):
            runner.calls = {}
            for op in probes[layer]:
                checked(op, runner.run(op, traced=True))
            probed = {k: v for k, v in layer_metrics(tracer, runner.calls).items() if k.startswith(layer + ".")}
            filled = sorted(k for k in probed if k not in metrics)
            metrics.update({k: probed[k] for k in filled})
            notes.append(f"not reached by {workload.name}, measured on probe calls: {', '.join(filled)}")

    metrics["cli.process_overhead_s"] = statistics.median(process_gaps)
    metrics["bench.trace_overhead_s"] = statistics.median(trace_gaps)
    metrics.update(sweep)
    notes += [
        f"{len(loop)} traced calls in {loop_seconds:.3g} s; per-layer values are medians over calls of each "
        "layer's total per call",
        f"cli.process_overhead_s is the median over {len(process_gaps)} calls of child-process time minus "
        f"in-process time; bench.trace_overhead_s the median over {len(trace_gaps)} calls of traced minus "
        "untraced in-process time, which noise can make negative",
        "spans cover the calling thread only: time it waits on the sampler's worker threads is counted in "
        "montecarlo.sample_chain and not split further, which needs spans inside the library",
        "montecarlo.batch_bytes is computed as (dims+1)*n*8, not measured",
    ]
    return TracedResult(records, {k: (v, unit(k)) for k, v in sorted(metrics.items())}, notes, tracer.spans)
