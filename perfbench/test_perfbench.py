"""The benchmark's own tests. Run with ``python3 -m pytest perfbench``.

They sit outside the package's ``testpaths`` so the main suite does not pay
for them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import chains  # noqa: E402
import oracle  # noqa: E402
from harness import REFERENCE_S, ROOT, SRC, closed_loop, scaled  # noqa: E402
from spans import Span, covered, self_time  # noqa: E402
from workloads import WORKLOADS, Outcome, build_ops, evaluate  # noqa: E402

sys.path.insert(0, str(SRC))

from tolchain import ConformityStatus, InfeasibleToleranceError, parse_chain, solve_unknown, verify_worst_case  # noqa: E402

SEEDS = range(200)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(workload: str, tmp_path: Path) -> None:
    build_ops(WORKLOADS[workload], 7, tmp_path / "a")
    build_ops(WORKLOADS[workload], 7, tmp_path / "b")
    build_ops(WORKLOADS[workload], 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_verify_outcomes_hold_over_many_seeds() -> None:
    for seed in SEEDS:
        for k in (4, 16):
            for conforming in (True, False):
                doc = chains.verify_chain(seed, k, conforming)
                status = verify_worst_case(parse_chain(json.dumps(doc))).status
                assert (status is ConformityStatus.CONFORMING) == conforming, (seed, k)
                assert status.value == oracle.exact_status(doc)


def test_solve_outcomes_hold_over_many_seeds() -> None:
    for seed in SEEDS:
        for k in (4, 16):
            doc, unknown = chains.solve_chain(seed, k, feasible=True)
            solved = solve_unknown(parse_chain(json.dumps(doc)), unknown)
            assert solved.it == float(oracle.available_it(doc, unknown)), (seed, k)
            doc, unknown = chains.solve_chain(seed, k, feasible=False)
            with pytest.raises(InfeasibleToleranceError):
                solve_unknown(parse_chain(json.dumps(doc)), unknown)


def test_synthesize_chains_converge(tmp_path: Path) -> None:
    """Runs the whole synthesize call and its output check on many seeds."""
    from layers import InProcess
    from spans import Tracer

    runner = InProcess(Tracer())
    iterations = []
    for seed in range(12):
        op = build_ops(WORKLOADS["synthesize-loop"], seed, tmp_path / str(seed))[0]
        outcome, _, _ = runner.run(op, traced=False)
        samples, failure = evaluate(op, outcome)
        assert failure is None, failure
        iterations.append(samples // op.n)
    assert max(iterations) < oracle.MAX_ITERATIONS - 10
    assert max(iterations) - min(iterations) <= 3


def test_self_time_subtracts_the_union_of_direct_children() -> None:
    parent = Span(0, None, 1, "p", 0.0, 10.0)
    children = [
        Span(1, 0, 1, "a", 1.0, 3.0),
        Span(2, 0, 1, "b", 2.0, 4.0),  # overlaps a: counted once
        Span(3, 0, 1, "c", 9.0, 12.0),  # runs past the parent: clipped
    ]
    assert covered([(c.start, c.end) for c in children], 0.0, 10.0) == 4.0
    assert self_time(parent, children) == 6.0
    assert self_time(parent, []) == 10.0


@pytest.fixture(scope="module")
def worstcase_ops(tmp_path_factory):
    return build_ops(WORKLOADS["worstcase-cli"], 3, tmp_path_factory.mktemp("wc"))


@pytest.fixture(scope="module")
def export_op(tmp_path_factory):
    return build_ops(WORKLOADS["simulate-export"], 3, tmp_path_factory.mktemp("export"))[0]


def _in_process(op):
    from layers import InProcess
    from spans import Tracer

    return InProcess(Tracer()).run(op, traced=False)[0]


def test_correct_outputs_pass(worstcase_ops, export_op) -> None:
    for op in [*worstcase_ops, export_op]:
        assert evaluate(op, _in_process(op))[1] is None, op.label


def _corrupt_number(text: bytes) -> bytes:
    report = json.loads(text)
    report["result"]["interval"]["max"] += 1e-3
    return json.dumps(report).encode()


def test_corrupted_output_and_wrong_exit_code_each_count_as_failures(worstcase_ops, export_op) -> None:
    analyze = worstcase_ops[0]
    good = _in_process(analyze)
    exported = _in_process(export_op)
    samples = exported.files[1].decode().split("\n")
    row = samples[5].split(",")
    row[-1] = repr(float(row[-1]) + 1e-3)
    samples[5] = ",".join(row)
    bad_csv = Outcome(0, b"", (exported.files[0], "\n".join(samples).encode(), exported.files[2]))
    cases = {
        analyze.label: Outcome(good.exit_code, _corrupt_number(good.stdout)),
        analyze.label + "-exit": Outcome(2, good.stdout),
        export_op.label: bad_csv,
    }
    ops = {analyze.label: analyze, analyze.label + "-exit": analyze, export_op.label: export_op}
    for label, outcome in cases.items():
        assert evaluate(ops[label], outcome)[1] is not None, label

    # One call per loop: a zero-second loop still runs its first call.
    outcomes = [cases[analyze.label], cases[analyze.label + "-exit"], good]
    records = [r for o in outcomes for r in closed_loop([analyze], 0.0, lambda op, o=o: (o, 0.5, 1))[0]]
    assert [r.failure is not None for r in records] == [True, True, False]


def test_loop_scales_each_call_by_the_reference_around_it(worstcase_ops) -> None:
    analyze = worstcase_ops[0]
    good = _in_process(analyze)
    record = closed_loop([analyze], 0.0, lambda op: (good, 0.5, 1))[0][0]
    assert record.failure is None and record.reference > 0
    assert record.scaled_seconds == scaled(0.5, record.reference) == 0.5 * REFERENCE_S / record.reference


def test_output_bytes_that_depend_on_workers_count_as_a_failure(export_op) -> None:
    from run import worker_invariance

    first = Outcome(0, b"", (b"report", b"samples", b"hist"))
    other = Outcome(0, b"", (b"report", b"samples!", b"hist"))
    assert worker_invariance(export_op, first, lambda op: (first, 0.5, 1)).failure is None
    assert worker_invariance(export_op, first, lambda op: (other, 0.5, 1)).failure is not None


def _bench(cwd: Path, *args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace: str, key: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench(ROOT, "--workload", "worstcase-cli", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}


def test_workloads_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]


def test_checkout_without_sources_fails(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "worstcase-cli", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.xfail(strict=True, reason="solve_unknown's one-ulp nudges cannot move nominal + deviation")
def test_solve_decimal_overshoot() -> None:
    """A feasible solve on decimal inputs: 0.4 of IT is left for b, yet the solver gives up."""
    doc = {
        "name": "c",
        "dimensions": [
            {"name": "a", "nominal": 15.802, "upper_dev": 0.1, "lower_dev": -0.1, "coefficient": 1},
            {"name": "b", "nominal": 33.565, "upper_dev": 0.05, "lower_dev": -0.05, "coefficient": -1},
        ],
        "condition": {"name": "J", "min": -18.06, "max": -17.46},
    }
    solve_unknown(parse_chain(json.dumps(doc)), "b")
