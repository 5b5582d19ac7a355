"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` or ``-rA`` to see
the verdict lines on passing runs too).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

import test_properties
from conftest import ACTUATOR_DOC, make_actuator_chain
from strategies import corner_extremes
from tolchain import (
    DimensionSpec,
    FunctionalCondition,
    SigmaRule,
    SynthesisAction,
    SynthesisConfig,
    ToleranceChain,
    it_budget,
    sample_chain,
    scrap_rate,
    statistical_interval,
    synthesize,
    worst_case,
)
from tolchain.cli import main

IT6 = SigmaRule.it6()


def _report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[{status}] criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "actuator.json"
    path.write_text(json.dumps(ACTUATOR_DOC, indent=2) + "\n", encoding="utf-8")
    return path


def test_criterion_1_worst_case_fixture(chain_file, capsys):
    code = main(["analyze", "--chain", str(chain_file)])
    report = json.loads(capsys.readouterr().out)
    interval = report["result"]["interval"]
    got = (round(interval["min"], 6), round(interval["max"], 6))
    ok = code == 0 and got == (10.0, 11.16)
    _report(1, "worst-case extremes equal 10.0 / 11.16", ok, f"got {got}")


def test_criterion_2_it_budget_fixture():
    chain = make_actuator_chain()
    per_dimension = tuple(d.it for d in chain.dimensions)
    budget = it_budget(chain)
    ok = (
        per_dimension == (0.5, 0.2, 0.4, 0.06)
        and round(budget, 6) == 1.16
        and budget == worst_case(chain).it
    )
    _report(2, "IT budget 1.16 with per-dimension ITs (0.5, 0.2, 0.4, 0.06)", ok,
            f"budget {budget!r}, per-dimension {per_dimension!r}")


def test_criterion_3_corner_enumeration_oracle():
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    mismatches = 0
    for case in range(1000):
        k = int(rng.integers(1, 11))
        dims = []
        for i in range(k):
            sign = 1.0 if rng.integers(0, 2) else -1.0
            coefficient = sign * int(rng.integers(10, 10_001)) / 1000.0
            nominal = int(rng.integers(-100_000_000, 100_000_001)) / 1e6
            d1 = int(rng.integers(-1_000_000, 1_000_001)) / 1e6
            d2 = int(rng.integers(-1_000_000, 1_000_001)) / 1e6
            dims.append(
                DimensionSpec(f"d{i}", nominal, max(d1, d2), min(d1, d2), coefficient)
            )
        chain = ToleranceChain(f"case{case}", tuple(dims))
        lo, hi = corner_extremes(chain)
        result = worst_case(chain)
        if not (result.min == lo and result.max == hi):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(3, "worst case equals corner enumeration on 1000 random chains", ok,
            f"{mismatches} mismatches in {elapsed:.2f} s")


def test_criterion_4_moment_propagation():
    chain = make_actuator_chain()
    n = 100_000
    start = time.perf_counter()
    batch = sample_chain(chain, IT6, n, 42)
    elapsed = time.perf_counter() - start
    mean = float(batch.fc_samples.mean())
    stdev = float(batch.fc_samples.std(ddof=1))
    sigma_j = math.sqrt((0.5**2 + 0.2**2 + 0.4**2 + 0.06**2) / 36.0)
    mean_ok = abs(mean - 10.58) <= 4.0 * sigma_j / math.sqrt(n)
    sigma_ok = abs(stdev / 0.112227 - 1.0) <= 0.02
    ok = mean_ok and sigma_ok and elapsed < 5.0
    _report(4, "seed-42 sample moments match propagated mean/sigma", ok,
            f"mean {mean:.6f}, stdev {stdev:.6f}, {elapsed:.2f} s")


def test_criterion_5_scrap_cross_check():
    z99 = 2.5758293035489004  # two-sided 99% normal quantile
    sigma = 1.0 / 6.0
    n = 100_000
    failures = []
    for i, p in enumerate(np.geomspace(1e-3, 1e-1, 20)):
        bound = sigma * float(-ndtri(p / 2.0))
        chain = ToleranceChain(
            f"cross{i}",
            (DimensionSpec("d0", 0.0, 0.5, -0.5, 1.0),),
            FunctionalCondition("J", -bound, bound),
        )
        batch = sample_chain(chain, IT6, n, 1000 + i)
        estimate = scrap_rate(batch.fc_samples, chain.condition).scrap_rate
        if abs(estimate - p) > z99 * math.sqrt(p * (1.0 - p) / n):
            failures.append((float(p), estimate))
    ok = not failures
    _report(5, "Monte Carlo scrap matches analytic scrap within 99% CI on 20 chains",
            ok, f"failures: {failures!r}" if failures else "20/20 inside the CI")


def test_criterion_6_statistical_below_arithmetic():
    chain = make_actuator_chain()
    batch = sample_chain(chain, IT6, 100_000, 42)
    it_st = statistical_interval(batch.fc_samples, 3.0).it
    it_ar = it_budget(chain)
    ok = it_st < it_ar and 0.65 < it_st < 0.70
    _report(6, "statistical IT is strictly below the arithmetic IT", ok,
            f"{it_st:.6f} < {it_ar:.6f}")


def test_criterion_7_synthesis_convergence():
    chain = make_actuator_chain()
    cfg = SynthesisConfig(target_scrap=1e-3)
    report = synthesize(chain, IT6, cfg)
    rerun = synthesize(chain, IT6, cfg)
    last = report.iterations[-1]
    ok = (
        report.converged
        and len(report.iterations) <= 50
        and report.iterations[0].action is SynthesisAction.WIDEN
        and last.action is SynthesisAction.ACCEPT
        and abs(last.effective_scrap - 1e-3) <= 0.25e-3
        and rerun == report
    )
    _report(7, "synthesis converges to the scrap target deterministically", ok,
            f"{len(report.iterations)} iterations, final scrap {last.effective_scrap:.6g}")


def test_criterion_8_byte_identical_outputs(chain_file, tmp_path):
    outputs = []
    for label, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        directory = tmp_path / label
        directory.mkdir()
        target = directory / "report.json"
        code = main(
            [
                "simulate", "--chain", str(chain_file), "--samples", "100000",
                "--seed", "1", "--workers", workers, "--output", str(target),
            ]
        )
        assert code == 0
        outputs.append(
            (
                target.read_bytes(),
                (directory / "report.samples.csv").read_bytes(),
                (directory / "report.hist.csv").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(8, "simulate output is byte-identical across reruns and worker counts", ok)


@pytest.mark.parametrize(
    "suite",
    [
        test_properties.check_round_trip_survives_serialization,
        test_properties.check_translation_shifts_extremes_exactly,
        test_properties.check_widening_never_shrinks_interval,
        test_properties.check_adjustment_preserves_midpoint,
        test_properties.check_solve_is_conforming_and_widest,
        test_properties.check_scrap_count_equals_the_samples,
    ],
    ids=["round-trip", "translation", "monotonicity", "midpoint-preservation", "widest-solve", "scrap-count"],
)
def test_criterion_9_property_suites(suite, request):
    name = request.node.callspec.id
    cases = suite._hypothesis_internal_use_settings.max_examples
    assert cases >= 200, f"{name} suite runs only {cases} cases"
    suite()
    _report(9, f"the {name} invariant property suite holds at >= 200 cases", True, f"{cases} cases")
