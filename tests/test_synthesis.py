"""Synthesis loop: re-specification, the adjustment policy, and its report."""

import json
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import counted_transforms, make_actuator_chain
from tolchain import montecarlo, synthesis
from tolchain.model import MAX_COUNT, MAX_SEED
from tolchain import (
    ChainValidationError,
    DimensionSpec,
    FunctionalCondition,
    SigmaRule,
    SynthesisAction,
    SynthesisConfig,
    ToleranceChain,
    analytic_scrap,
    parse_chain,
    respecify,
    sample_chain,
    scaled_deviations,
    scrap_rate,
    statistical_interval,
    synthesis_report_document,
    synthesize,
)

IT6 = SigmaRule.it6()


def bounded_chain(dimensions, lo, hi, name="c"):
    return ToleranceChain(name, dimensions, FunctionalCondition("J", lo, hi))


class TestScaledDeviations:
    def test_shrink_about_offset_midpoint(self):
        d = DimensionSpec("a", 10.0, 0.75, -0.25, 1.0)
        assert scaled_deviations(d, 0.5) == (0.5, 0.0)

    def test_widen_about_offset_midpoint(self):
        d = DimensionSpec("a", 10.0, 0.75, -0.25, 1.0)
        assert scaled_deviations(d, 1.5) == (1.0, -0.5)

    def test_unit_scale_is_identity(self):
        d = DimensionSpec("a", 10.0, 0.75, -0.25, 1.0)
        assert scaled_deviations(d, 1.0) == (0.75, -0.25)

    def test_symmetric_zone_stays_symmetric(self):
        upper, lower = scaled_deviations(DimensionSpec("a", 1.0, 0.25, -0.25, 1.0), 0.8)
        assert upper == 0.2
        assert lower == -0.2

    def test_zero_width_is_fixed_point(self):
        d = DimensionSpec("a", 1.0, 0.1, 0.1, 1.0)
        assert scaled_deviations(d, 3.0) == (0.1, 0.1)


class TestRespecify:
    def test_replaces_only_named_dimension(self, actuator_chain):
        out = respecify(actuator_chain, "a3", 0.15, -0.2)
        changed = out.dimension("a3")
        assert (changed.upper_dev, changed.lower_dev) == (0.15, -0.2)
        assert changed.it == pytest.approx(0.35)
        assert out.dimension("a1") == actuator_chain.dimension("a1")
        assert out.condition == actuator_chain.condition

    def test_original_untouched(self, actuator_chain):
        respecify(actuator_chain, "a3", 0.1, -0.1)
        assert actuator_chain.dimension("a3").upper_dev == 0.2

    def test_unknown_name(self, actuator_chain):
        with pytest.raises(ValueError, match="no dimension named 'a9'"):
            respecify(actuator_chain, "a9", 0.1, -0.1)

    def test_inverted_deviations_rejected(self, actuator_chain):
        with pytest.raises(ChainValidationError):
            respecify(actuator_chain, "a3", -0.1, 0.1)

    def test_narrower_zone_narrows_the_simulated_spread(self, actuator_chain):
        narrowed = respecify(actuator_chain, "a3", 0.1, -0.1)
        before = statistical_interval(sample_chain(actuator_chain, IT6, 50_000, 123).fc_samples)
        after = statistical_interval(sample_chain(narrowed, IT6, 50_000, 123).fc_samples)
        assert after.it < before.it


@pytest.fixture(scope="module")
def default_run():
    chain = make_actuator_chain()
    cfg = SynthesisConfig(target_scrap=0.001)
    return chain, cfg, synthesize(chain, IT6, cfg)


class TestSynthesizeActuator:
    def test_converges_within_budget(self, default_run):
        _, cfg, report = default_run
        assert report.converged
        assert len(report.iterations) <= cfg.max_iterations

    def test_first_move_widens_the_narrowest(self, default_run):
        _, _, report = default_run
        first = report.iterations[0]
        assert first.action is SynthesisAction.WIDEN
        assert first.dimension == "a7"

    def test_last_record_accepts_within_band(self, default_run):
        _, cfg, report = default_run
        last = report.iterations[-1]
        assert last.action is SynthesisAction.ACCEPT
        assert abs(last.effective_scrap - cfg.target_scrap) <= cfg.tolerance_band * cfg.target_scrap

    def test_indices_are_sequential(self, default_run):
        _, _, report = default_run
        assert [r.index for r in report.iterations] == list(range(len(report.iterations)))

    def test_first_snapshot_is_the_input_chain(self, default_run):
        chain, _, report = default_run
        assert report.iterations[0].chain == chain

    def test_trace_replays_into_the_final_chain(self, default_run):
        _, _, report = default_run
        current = report.iterations[0].chain
        for record in report.iterations:
            assert record.chain == current
            if record.action in (SynthesisAction.WIDEN, SynthesisAction.SHRINK):
                current = respecify(
                    current, record.dimension, record.new_upper_dev, record.new_lower_dev
                )
        assert current == report.final_chain

    def test_adjustment_preserves_nominals_and_midpoints(self, default_run):
        chain, _, report = default_run
        for before, after in zip(chain.dimensions, report.final_chain.dimensions):
            assert after.name == before.name
            assert after.nominal == before.nominal
            assert after.coefficient == before.coefficient
            assert after.midpoint == pytest.approx(before.midpoint, abs=1e-12)

    def test_rerun_is_identical(self, default_run):
        chain, cfg, report = default_run
        assert synthesize(chain, IT6, cfg) == report


class TestSynthesizePolicy:
    def test_each_iteration_uses_its_own_seed(self, actuator_chain):
        cfg = SynthesisConfig(target_scrap=0.05, n_per_iteration=20_000, seed=9, max_iterations=6)
        report = synthesize(actuator_chain, IT6, cfg)
        for record in report.iterations[:3]:
            batch = sample_chain(record.chain, IT6, cfg.n_per_iteration, cfg.seed + record.index)
            assert scrap_rate(batch.fc_samples, actuator_chain.condition) == record.scrap

    def test_accepts_immediately_inside_band(self):
        # Bounds at the 5% two-sided exceedance points of the derived normal.
        sigma = 0.1
        bound = sigma * float(ndtri(0.95))
        chain = bounded_chain(
            (DimensionSpec("d0", 0.0, 0.3, -0.3, 1.0),), -bound, bound
        )
        cfg = SynthesisConfig(target_scrap=0.1, n_per_iteration=20_000, seed=4)
        report = synthesize(chain, IT6, cfg)
        assert report.converged
        assert len(report.iterations) == 1
        only = report.iterations[0]
        assert only.action is SynthesisAction.ACCEPT
        assert only.scrap_source == "estimate"
        assert report.final_chain == chain

    def test_widens_when_scrap_is_zero(self):
        chain = bounded_chain((DimensionSpec("d0", 0.0, 0.3, -0.3, 1.0),), -300.0, 300.0)
        cfg = SynthesisConfig(target_scrap=0.01, n_per_iteration=1000, seed=2, max_iterations=1)
        report = synthesize(chain, IT6, cfg)
        assert not report.converged
        assert len(report.iterations) == 1
        record = report.iterations[0]
        assert record.action is SynthesisAction.WIDEN
        assert record.dimension == "d0"
        assert record.scrap_source == "estimate"
        assert record.effective_scrap == 0.0
        expected = scaled_deviations(chain.dimensions[0], 1.1)
        assert (record.new_upper_dev, record.new_lower_dev) == expected
        assert report.final_chain.dimension("d0").upper_dev == expected[0]

    def test_exhausting_iterations_reports_unconverged(self, actuator_chain):
        cfg = SynthesisConfig(target_scrap=0.001, n_per_iteration=2000, max_iterations=1)
        report = synthesize(actuator_chain, IT6, cfg)
        assert not report.converged
        assert len(report.iterations) == 1

    def test_analytic_value_accepts_unresolvable_target(self, actuator_chain):
        # 10k samples cannot resolve a 2.4e-7 target; the exact value stands in.
        expected = analytic_scrap(actuator_chain, IT6)
        cfg = SynthesisConfig(target_scrap=2.4e-7, n_per_iteration=10_000, seed=1)
        report = synthesize(actuator_chain, IT6, cfg)
        assert report.converged
        assert len(report.iterations) == 1
        record = report.iterations[0]
        assert record.action is SynthesisAction.ACCEPT
        assert record.scrap_source == "analytic"
        assert record.scrap.scrap_rate == 0.0
        assert record.effective_scrap == expected

    def test_analytic_value_drives_a_shrink(self, actuator_chain):
        cfg = SynthesisConfig(target_scrap=1e-7, n_per_iteration=10_000, seed=1, max_iterations=1)
        report = synthesize(actuator_chain, IT6, cfg)
        record = report.iterations[0]
        assert record.action is SynthesisAction.SHRINK
        assert record.scrap_source == "analytic"
        assert record.dimension == "a1"  # widest zone carries the most leverage
        expected = scaled_deviations(actuator_chain.dimension("a1"), 0.9)
        assert (record.new_upper_dev, record.new_lower_dev) == expected
        assert record.new_upper_dev == pytest.approx(0.475, abs=1e-15)
        assert record.new_lower_dev == pytest.approx(0.025, abs=1e-15)

    def test_frozen_dimension_is_skipped(self, actuator_chain):
        cfg = SynthesisConfig(
            target_scrap=0.001, n_per_iteration=10_000, seed=1, max_iterations=1,
            frozen={"a7"},
        )
        report = synthesize(actuator_chain, IT6, cfg)
        record = report.iterations[0]
        assert record.action is SynthesisAction.WIDEN
        assert record.dimension == "a2"  # narrowest after the frozen a7

    def test_widen_stalls_without_adjustable_width(self):
        dims = (DimensionSpec("d0", 5.0, 0.0, 0.0, 1.0),)
        chain = bounded_chain(dims, 4.0, 6.0)
        cfg = SynthesisConfig(target_scrap=0.01, n_per_iteration=100, seed=1)
        report = synthesize(chain, IT6, cfg)
        assert not report.converged
        assert len(report.iterations) == 1
        record = report.iterations[0]
        assert record.action is SynthesisAction.STALL
        assert record.dimension is None
        assert report.final_chain == chain

    def test_shrink_stalls_at_zero_width(self):
        dims = (DimensionSpec("d0", 5.0, 0.0, 0.0, 1.0),)
        chain = bounded_chain(dims, 6.0, 7.0)  # every sample falls below the window
        cfg = SynthesisConfig(target_scrap=0.01, n_per_iteration=100, seed=1)
        report = synthesize(chain, IT6, cfg)
        record = report.iterations[0]
        assert record.scrap.scrap_rate == 1.0
        assert record.action is SynthesisAction.STALL
        assert not report.converged

    def test_requires_two_sided_condition(self, actuator_chain):
        cfg = SynthesisConfig(target_scrap=0.01, n_per_iteration=100)
        with pytest.raises(ValueError, match="both bounds"):
            synthesize(make_actuator_chain(bounds=None), IT6, cfg)
        half = ToleranceChain(
            "half", actuator_chain.dimensions, FunctionalCondition("Ja", imposed_min=10.0)
        )
        with pytest.raises(ValueError, match="both bounds"):
            synthesize(half, IT6, cfg)

    def test_requires_a_non_frozen_dimension(self, actuator_chain):
        cfg = SynthesisConfig(
            target_scrap=0.01, n_per_iteration=100,
            frozen={"a1", "a2", "a3", "a7"},
        )
        with pytest.raises(ValueError, match="non-frozen"):
            synthesize(actuator_chain, IT6, cfg)

    def test_frozen_name_the_chain_lacks_is_named(self, actuator_chain):
        # A misspelt name would otherwise freeze nothing and let the loop move a1 instead.
        cfg = SynthesisConfig(target_scrap=0.01, n_per_iteration=100, frozen={"a9", "a1"})
        with pytest.raises(ValueError, match=r"^frozen dimension\(s\) \['a9'\] not in chain 'actuator-clamping'$"):
            synthesize(actuator_chain, IT6, cfg)


class TestSynthesizeSampling:
    """Each run draws the condition samples of sample_chain on at most one pool."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.shut = False
                made.append(self)

            def shutdown(self, *args, **kwargs):
                self.shut = True
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "usable_cores", lambda: 2)  # one thread would run in the caller
        return made

    @pytest.mark.parametrize("n", [1, 4097, 65_541, 100_003])
    def test_equal_reports_for_one_two_and_three_workers(self, actuator_chain, n):
        cfg = SynthesisConfig(target_scrap=0.001, n_per_iteration=n, seed=3, max_iterations=4)
        reports = [synthesize(actuator_chain, IT6, cfg, workers=workers) for workers in (1, 2, 3)]
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    @pytest.mark.parametrize("seed", [11, MAX_SEED - 2])
    def test_each_record_scrap_is_sample_chains_at_two_workers(self, actuator_chain, seed):
        cfg = SynthesisConfig(target_scrap=0.001, n_per_iteration=65_541, seed=seed, max_iterations=5)
        report = synthesize(actuator_chain, IT6, cfg, workers=2)
        assert len(report.iterations) == 5
        for record in report.iterations:
            batch = sample_chain(record.chain, IT6, cfg.n_per_iteration, (seed + record.index) % MAX_SEED)
            assert record.scrap == scrap_rate(batch.fc_samples, actuator_chain.condition)

    def test_one_pool_per_run_and_none_at_one_worker(self, actuator_chain, pools):
        cfg = SynthesisConfig(target_scrap=0.001, n_per_iteration=20_000, seed=2, max_iterations=5)
        assert len(synthesize(actuator_chain, IT6, cfg, workers=2).iterations) == 5
        assert len(pools) == 1
        assert pools[0].shut
        synthesize(actuator_chain, IT6, cfg, workers=1)
        assert len(pools) == 1

    def test_pool_is_shut_down_when_an_iteration_raises(self, actuator_chain, pools, monkeypatch):
        calls = []
        count = montecarlo._scrap_counts

        def second_call_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("second iteration fails")
            return count(*args)

        monkeypatch.setattr(synthesis, "_scrap_counts", second_call_fails)
        cfg = SynthesisConfig(target_scrap=0.001, n_per_iteration=20_000, seed=2, max_iterations=5)
        with pytest.raises(RuntimeError, match="second iteration fails"):
            synthesize(actuator_chain, IT6, cfg, workers=2)
        assert len(pools) == 1
        assert pools[0].shut

    def test_one_transform_per_count_job(self, actuator_chain, monkeypatch):
        # 1e5 rows are two chunk jobs at 1 or 2 threads; each transforms its undecided rows once.
        shapes = counted_transforms(monkeypatch)
        cfg = SynthesisConfig(target_scrap=1e-3, n_per_iteration=100_000, seed=7)
        report = synthesize(actuator_chain, IT6, cfg, workers=2)
        assert len(report.iterations) == 36
        assert len(shapes) == 72

    def test_zero_workers_is_rejected_before_anything_is_drawn(self, actuator_chain, monkeypatch):
        drawn = []
        monkeypatch.setattr(montecarlo, "_stream", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            synthesize(actuator_chain, IT6, SynthesisConfig(target_scrap=0.001), workers=0)
        assert drawn == []


class TestSynthesisConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"target_scrap": 0.0}, "target_scrap must lie in (0, 1), got 0.0"),
            ({"target_scrap": 1.0}, "target_scrap must lie in (0, 1), got 1.0"),
            ({"target_scrap": math.nan}, "target_scrap must lie in (0, 1), got nan"),
            ({"target_scrap": 0.01, "n_per_iteration": 0},
             f"n_per_iteration: sample count must lie in [1, {MAX_COUNT}], got 0"),
            ({"target_scrap": 0.01, "seed": -1}, "seed must be an unsigned 64-bit integer, got -1"),
            ({"target_scrap": 0.01, "seed": 2**64}, f"seed must be an unsigned 64-bit integer, got {2**64}"),
            ({"target_scrap": 0.01, "max_iterations": 0}, "max_iterations must be >= 1, got 0"),
            ({"target_scrap": 0.01, "max_iterations": np.int64(0)}, "max_iterations must be >= 1, got np.int64(0)"),
            ({"target_scrap": 0.01, "adjustment_factor": 0.0}, "adjustment_factor must lie in (0, 1), got 0.0"),
            ({"target_scrap": 0.01, "adjustment_factor": 1.0}, "adjustment_factor must lie in (0, 1), got 1.0"),
            ({"target_scrap": 0.01, "adjustment_factor": math.nan}, "adjustment_factor must lie in (0, 1), got nan"),
            ({"target_scrap": 0.01, "tolerance_band": -0.1}, "tolerance_band must be finite and >= 0, got -0.1"),
            ({"target_scrap": 0.01, "tolerance_band": math.inf}, "tolerance_band must be finite and >= 0, got inf"),
            ({"target_scrap": 0.01, "tolerance_band": math.nan}, "tolerance_band must be finite and >= 0, got nan"),
            ({"target_scrap": "0.1"}, "target_scrap must be a real number, got '0.1'"),
            ({"target_scrap": True}, "target_scrap must be a real number, got True"),
            ({"target_scrap": None}, "target_scrap must be a real number, got None"),
            ({"target_scrap": 0.01, "adjustment_factor": "0.1"}, "adjustment_factor must be a real number, got '0.1'"),
            ({"target_scrap": 0.01, "tolerance_band": True}, "tolerance_band must be a real number, got True"),
            ({"target_scrap": 0.01, "tolerance_band": [0.25]}, "tolerance_band must be a real number, got [0.25]"),
            ({"target_scrap": 0.01, "frozen": None}, "frozen must be a collection of dimension names, got None"),
            ({"target_scrap": 0.01, "frozen": 3}, "frozen must be a collection of dimension names, got 3"),
            ({"target_scrap": 0.01, "frozen": [["a"]]}, "frozen must hold dimension names as strings, got ['a']"),
            ({"target_scrap": 0.01, "frozen": ["zz", 1]}, "frozen must hold dimension names as strings, got 1"),
            ({"target_scrap": 0.01, "n_per_iteration": MAX_COUNT + 1},
             f"n_per_iteration: sample count must lie in [1, {MAX_COUNT}], got {MAX_COUNT + 1}"),
            ({"target_scrap": 0.01, "tolerance_band": 10**400},
             "tolerance_band must be finite and >= 0, got an integer of 1329 bits"),
            ({"target_scrap": 0.01, "seed": 10**5000},
             "seed must be an unsigned 64-bit integer, got an integer of 16610 bits"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_per_iteration": 1e4}, "n_per_iteration: sample count must be an integer, got 10000.0"),
            ({"n_per_iteration": True}, "n_per_iteration: sample count must be an integer, got True"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
            ({"max_iterations": np.float64(3.0)}, "max_iterations must be an integer, got np.float64(3.0)"),
        ],
    )
    def test_count_that_is_not_an_integer_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthesisConfig(target_scrap=0.01, **kwargs)

    def test_numpy_and_integer_fractions_are_accepted(self):
        cfg = SynthesisConfig(target_scrap=np.float64(0.01), adjustment_factor=np.float32(0.5), tolerance_band=0)
        assert (cfg.target_scrap, cfg.adjustment_factor, cfg.tolerance_band) == (0.01, 0.5, 0)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(MAX_SEED - 1)], ids=["int64", "uint64-wraps"])
    def test_numpy_integers_are_counts(self, actuator_chain, seed):
        plain = SynthesisConfig(target_scrap=0.05, n_per_iteration=2000, seed=int(seed), max_iterations=2)
        numpy_counts = replace(plain, n_per_iteration=np.int64(2000), seed=seed, max_iterations=np.int64(2))
        assert synthesize(actuator_chain, IT6, numpy_counts) == synthesize(actuator_chain, IT6, plain)

    def test_the_first_bad_field_is_blamed(self):
        # Fields are checked in declaration order, frozen last.
        bad = {"target_scrap": 0.0, "n_per_iteration": 0, "seed": -1, "max_iterations": 0,
               "adjustment_factor": 0.0, "tolerance_band": -0.1, "frozen": "a1"}
        for name in list(bad):
            with pytest.raises(ValueError, match=f"^{name}"):
                SynthesisConfig(**bad)
            del bad[name]
            if "target_scrap" not in bad:
                bad["target_scrap"] = 0.01

    def test_frozen_names_coerced_to_frozenset(self):
        cfg = SynthesisConfig(target_scrap=0.01, frozen=["a", "b"])
        assert cfg.frozen == frozenset({"a", "b"})

    def test_frozen_bare_string_is_rejected(self):
        # frozenset("a1") would freeze the names "a" and "1".
        with pytest.raises(ValueError, match="^frozen must be a collection of dimension names, not the string 'a1'$"):
            SynthesisConfig(target_scrap=0.01, frozen="a1")

    def test_exact_band_zero_is_allowed(self):
        assert SynthesisConfig(target_scrap=0.5, tolerance_band=0.0).tolerance_band == 0.0


class TestReportDocument:
    def test_accept_entry_shape(self, actuator_chain):
        cfg = SynthesisConfig(target_scrap=2.4e-7, n_per_iteration=10_000, seed=1)
        report = synthesize(actuator_chain, IT6, cfg)
        doc = synthesis_report_document(report)
        assert doc["converged"] is True
        entry = doc["iterations"][0]
        assert set(entry) == {"index", "scrap", "effective_scrap", "scrap_source", "action"}
        assert entry["action"] == "accept"
        assert set(entry["scrap"]) == {"n", "below", "above", "scrap_rate", "ci95_half_width"}

    def test_adjustment_entry_shape(self, actuator_chain):
        cfg = SynthesisConfig(target_scrap=1e-7, n_per_iteration=10_000, seed=1, max_iterations=1)
        doc = synthesis_report_document(synthesize(actuator_chain, IT6, cfg))
        entry = doc["iterations"][0]
        assert entry["action"] == "shrink"
        assert entry["dimension"] == "a1"
        assert {"new_upper_dev", "new_lower_dev"} <= set(entry)

    def test_final_chain_round_trips(self, actuator_chain):
        cfg = SynthesisConfig(target_scrap=0.05, n_per_iteration=5000, max_iterations=3)
        report = synthesize(actuator_chain, IT6, cfg)
        doc = synthesis_report_document(report)
        assert parse_chain(json.dumps(doc["final_chain"])) == report.final_chain
        assert json.dumps(doc)  # the whole document is JSON-serializable
