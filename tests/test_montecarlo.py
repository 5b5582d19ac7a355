"""Monte Carlo engine: distributions, sampling, statistics, scrap, exports."""

import concurrent.futures
import inspect
import math
import os
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from conftest import counted_transforms, traced_peak
from oracles import recompute_fc, reference_samples_csv, whole_draw_scrap
from tolchain import model, montecarlo
from tolchain import (
    ChainValidationError,
    DimensionSpec,
    DistributionParams,
    FunctionalCondition,
    IntervalResult,
    SigmaRule,
    ToleranceChain,
    analytic_scrap,
    batch_summary,
    derive_distribution,
    histogram_csv,
    it_budget,
    propagate_analytic,
    sample_chain,
    samples_csv,
    scrap_rate,
    statistical_interval,
)

IT6 = SigmaRule.it6()


def _phi(x: float) -> float:
    """Standard-normal CDF via erfc — independent of the engine's implementation."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def one_dim_chain(nominal, upper, lower, bounds=None, coefficient=1.0):
    condition = None if bounds is None else FunctionalCondition("J", bounds[0], bounds[1])
    return ToleranceChain("c", (DimensionSpec("d0", nominal, upper, lower, coefficient),), condition)


def zero_sigma_chain():
    dims = (
        DimensionSpec("a", 7.0, 0.0, 0.0, 2.0),
        DimensionSpec("b", 3.0, 0.0, 0.0, -1.0),
    )
    return ToleranceChain("const", dims)


def overflowing_chain():
    # a1's max limit, 1e308 + 1e308, is inf; a2 has no sigma in an explicit rule that names only a1.
    dims = (DimensionSpec("a1", 1e308, 1e308, 0.0, 1.0), DimensionSpec("a2", 1.0, 0.1, -0.1, 1.0))
    return ToleranceChain("overflowing", dims)


def scrap_counts(chain, rule, n, seed, workers):
    with montecarlo._scrap_counter(n, workers) as count:
        return count(chain, rule, seed)


def tight(chain):
    # About 5% of the actuator chain's samples lie below and 2.5% above.
    return replace(chain, condition=FunctionalCondition("Ja", 10.4, 10.8))


def wide_chain():
    dims = tuple(DimensionSpec(f"d{i}", 10.0 + i, 0.1, -0.1, (-1.0) ** i) for i in range(16))
    return ToleranceChain("wide", dims, FunctionalCondition("J", -1.0, 1.0))


class TestSigmaRule:
    def test_kinds(self):
        assert SigmaRule.it6().kind == "it6"
        assert SigmaRule.it3().kind == "it3"
        assert SigmaRule.explicit({"a": 0.05}).sigmas == {"a": 0.05}
        assert SigmaRule.explicit({"a": np.float32(0.5), "b": np.int64(2)}).sigmas == {"a": 0.5, "b": 2.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sigma rule"):
            SigmaRule("it9")

    def test_explicit_requires_mapping(self):
        with pytest.raises(ValueError, match="requires a per-dimension sigma"):
            SigmaRule("explicit")

    @pytest.mark.parametrize(
        "sigma, message",
        [
            (-0.1, "explicit sigma for 'a' must be finite and >= 0, got -0.1"),
            (math.nan, "explicit sigma for 'a' must be finite and >= 0, got nan"),
            (math.inf, "explicit sigma for 'a' must be finite and >= 0, got inf"),
            ("0.1", "explicit sigma for 'a' must be a real number, got '0.1'"),
            (True, "explicit sigma for 'a' must be a real number, got True"),
            (None, "explicit sigma for 'a' must be a real number, got None"),
            (1j, "explicit sigma for 'a' must be a real number, got 1j"),
            pytest.param(10**400, "explicit sigma for 'a' must be finite and >= 0, got an integer of 1329 bits",
                         id="1e400"),
        ],
    )
    def test_bad_explicit_sigma_rejected(self, sigma, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SigmaRule.explicit({"a": sigma})

    def test_mapping_only_for_explicit(self):
        with pytest.raises(ValueError, match="does not take"):
            SigmaRule("it6", {"a": 0.1})


class TestDeriveDistribution:
    def test_unilateral_zone(self):
        params = derive_distribution(DimensionSpec("a1", 25.3, 0.5, 0.0, 1.0), IT6)
        assert params.mean == pytest.approx(25.55, abs=1e-12)
        assert params.sigma == 0.5 / 6

    def test_bilateral_zone(self):
        params = derive_distribution(DimensionSpec("a2", 9.0, 0.1, -0.1, -1.0), IT6)
        assert params.mean == 9.0
        assert params.sigma == 0.2 / 6

    def test_degenerate_zone(self):
        params = derive_distribution(DimensionSpec("z", 7.0, 0.0, 0.0, 1.0), IT6)
        assert params == DistributionParams(7.0, 0.0)

    def test_it3_is_twice_it6(self):
        d = DimensionSpec("a", 5.0, 0.3, -0.3, 1.0)
        assert derive_distribution(d, SigmaRule.it3()).sigma == pytest.approx(
            2.0 * derive_distribution(d, IT6).sigma
        )

    def test_explicit_lookup(self):
        rule = SigmaRule.explicit({"a": 0.07})
        d = DimensionSpec("a", 5.0, 0.3, -0.3, 1.0)
        assert derive_distribution(d, rule).sigma == 0.07

    def test_explicit_missing_name(self):
        rule = SigmaRule.explicit({"other": 0.07})
        with pytest.raises(ValueError, match="no explicit sigma given for dimension 'a'"):
            derive_distribution(DimensionSpec("a", 5.0, 0.3, -0.3, 1.0), rule)

    @pytest.mark.parametrize("lower", [1e308, -1e308], ids=["midpoint", "sigma"])
    def test_overflowing_distribution_names_the_dimension(self, lower):
        # The limits are finite, but the midpoint's sum 1e308 + 1e308, or the width 1e308 - -1e308, is not.
        with pytest.raises(ValueError, match="^dimension 'a': distribution parameters must be finite$"):
            derive_distribution(DimensionSpec("a", 0.0, 1e308, lower, 1.0), IT6)

    @pytest.mark.parametrize(
        "mean, sigma, message",
        [(math.inf, 1.0, "distribution parameters must be finite"),
         (0.0, math.nan, "distribution parameters must be finite"),
         (0.0, -0.1, "sigma must be >= 0, got -0.1"),
         (10**400, 1.0, "mean must be finite, got an integer of 1329 bits"),
         (0.0, -(2**1024), "sigma must be finite, got an integer of 1025 bits"),
         ("a", 1.0, "mean must be a real number, got 'a'"),
         (0.0, None, "sigma must be a real number, got None")],
        ids=["inf-mean", "nan-sigma", "negative-sigma", "1e400-mean", "-2**1024-sigma", "str-mean", "none-sigma"],
    )
    def test_params_are_checked(self, mean, sigma, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DistributionParams(mean, sigma)


class TestPropagateAnalytic:
    def test_actuator_moments(self, actuator_chain):
        params = propagate_analytic(actuator_chain, IT6)
        assert params.mean == pytest.approx(10.58, abs=1e-12)
        # sigma^2 = (0.5^2 + 0.2^2 + 0.4^2 + 0.06^2) / 36 = 0.0126
        assert params.sigma == pytest.approx(math.sqrt(0.0126), rel=1e-14)
        assert params.sigma == pytest.approx(0.11224972160321824, rel=1e-14)

    def test_identity_propagation(self):
        chain = one_dim_chain(5.0, 0.3, -0.3)
        d = derive_distribution(chain.dimensions[0], IT6)
        assert propagate_analytic(chain, IT6) == d

    def test_symmetric_cancellation(self):
        dims = (
            DimensionSpec("a", 5.0, 0.3, -0.3, 1.0),
            DimensionSpec("b", 5.0, 0.3, -0.3, -1.0),
        )
        params = propagate_analytic(ToleranceChain("sym", dims), IT6)
        sigma_one = derive_distribution(dims[0], IT6).sigma
        assert params.mean == 0.0
        assert params.sigma == pytest.approx(sigma_one * math.sqrt(2.0), rel=1e-14)

    def test_coefficients_enter_squared(self):
        dims = (DimensionSpec("a", 1.0, 0.3, -0.3, 3.0),)
        params = propagate_analytic(ToleranceChain("w", dims), IT6)
        assert params.sigma == pytest.approx(3.0 * 0.1, rel=1e-14)

    @pytest.mark.parametrize("condition, name", [(FunctionalCondition("J", -1e300, 1e300), "J"), (None, "fc")])
    def test_overflowing_variance_names_the_condition(self, condition, name):
        # a's sigma, 1e155/3, is finite, but its square is not.
        chain = ToleranceChain("big", (DimensionSpec("a", 0.0, 1e155, -1e155, 1.0),), condition)
        assert math.isfinite(derive_distribution(chain.dimensions[0], IT6).sigma)
        message = f"^condition '{name}': distribution parameters must be finite$"
        with pytest.raises(ValueError, match=message):
            propagate_analytic(chain, IT6)
        if condition is not None:
            with pytest.raises(ValueError, match=message):
                analytic_scrap(chain, IT6)


class TestSampleChain:
    def test_moments_match_propagation(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 100_000, 42)
        params = propagate_analytic(actuator_chain, IT6)
        mean = float(batch.fc_samples.mean())
        stdev = float(batch.fc_samples.std(ddof=1))
        assert abs(mean - params.mean) <= 4.0 * params.sigma / math.sqrt(100_000)
        assert abs(stdev / params.sigma - 1.0) <= 0.02

    def test_bit_identical_repeats(self, actuator_chain):
        a = sample_chain(actuator_chain, IT6, 70_000, 7)
        b = sample_chain(actuator_chain, IT6, 70_000, 7)
        assert np.array_equal(a.fc_samples, b.fc_samples)
        for name in a.per_dimension:
            assert np.array_equal(a.per_dimension[name], b.per_dimension[name])

    def test_bit_identical_across_worker_counts(self, actuator_chain):
        # 70k samples span three transform blocks, all drawn in the calling thread at any worker count.
        serial = sample_chain(actuator_chain, IT6, 70_000, 7)
        threaded = sample_chain(actuator_chain, IT6, 70_000, 7, workers=4)
        assert np.array_equal(serial.fc_samples, threaded.fc_samples)
        for name in serial.per_dimension:
            assert np.array_equal(serial.per_dimension[name], threaded.per_dimension[name])

    def test_different_seeds_differ(self, actuator_chain):
        a = sample_chain(actuator_chain, IT6, 1000, 1)
        b = sample_chain(actuator_chain, IT6, 1000, 2)
        assert not np.array_equal(a.fc_samples, b.fc_samples)

    def test_zero_sigma_chain_is_exact(self):
        batch = sample_chain(zero_sigma_chain(), IT6, 500, 9)
        assert np.all(batch.per_dimension["a"] == 7.0)
        assert np.all(batch.per_dimension["b"] == 3.0)
        assert np.all(batch.fc_samples == 2.0 * 7.0 - 3.0)

    def test_condition_samples_recompute_bit_exactly(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 10_000, 3)
        assert np.array_equal(recompute_fc(actuator_chain, batch), batch.fc_samples)

    def test_arrays_are_read_only(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 100, 1)
        with pytest.raises(ValueError):
            batch.fc_samples[0] = 0.0
        with pytest.raises(ValueError):
            batch.per_dimension["a1"][0] = 0.0

    def test_batch_metadata(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 64, 5)
        assert batch.chain_name == "actuator-clamping"
        assert batch.n == 64
        assert batch.seed == 5
        assert batch.fc_name == "Ja"
        assert list(batch.per_dimension) == ["a1", "a2", "a3", "a7"]

    def test_fc_name_defaults_without_condition(self):
        chain = one_dim_chain(5.0, 0.1, -0.1)
        assert sample_chain(chain, IT6, 8, 1).fc_name == "fc"

    def test_input_validation(self, actuator_chain):
        with pytest.raises(ValueError, match="sample count"):
            sample_chain(actuator_chain, IT6, 0, 1)
        with pytest.raises(ValueError, match="seed"):
            sample_chain(actuator_chain, IT6, 10, -1)
        with pytest.raises(ValueError, match="seed"):
            sample_chain(actuator_chain, IT6, 10, 2**64)
        with pytest.raises(ValueError, match="workers"):
            sample_chain(actuator_chain, IT6, 10, 1, workers=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 1e4}, "sample count must be an integer, got 10000.0"),
            ({"n": np.float64(8.0)}, "sample count must be an integer, got np.float64(8.0)"),
            ({"n": True}, "sample count must be an integer, got True"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"seed": False}, "seed must be an integer, got False"),
            ({"workers": 2.0}, "workers must be an integer, got 2.0"),
        ],
        ids=["n-float", "n-numpy-float", "n-bool", "seed-float", "seed-bool", "workers-float"],
    )
    def test_count_that_is_not_an_integer_is_blamed(self, actuator_chain, kwargs, message, monkeypatch):
        # Before anything is drawn, and not by numpy: every draw enters a stream.
        drawn = []
        monkeypatch.setattr(montecarlo, "_stream", lambda *args: drawn.append(args))
        args = {"n": 8, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_chain(actuator_chain, IT6, args.pop("n"), args.pop("seed"), **args)
        assert drawn == []

    def test_numpy_integers_are_counts(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, np.int64(8), np.uint64(3), workers=np.int32(2))
        assert np.array_equal(batch.fc_samples, sample_chain(actuator_chain, IT6, 8, 3).fc_samples)

    @pytest.mark.parametrize(
        "bad, blamed",
        [
            ({"n": 0, "seed": -1}, "sample count"),
            ({"seed": -1, "workers": 0}, "seed"),
            ({"seed": 2**64, "chain": "overflowing"}, "seed"),
            ({"workers": 0, "chain": "overflowing"}, "workers"),
            ({"chain": "overflowing", "rule": "explicit"}, "interval max must be finite"),
            ({"n": 0, "rule": "explicit"}, "sample count"),
        ],
        ids=["count-before-seed", "seed-before-workers", "seed-before-overflow", "workers-before-overflow",
             "overflow-before-sigma", "count-before-sigma"],
    )
    def test_the_first_bad_input_is_blamed(self, actuator_chain, bad, blamed):
        # Checked in this order: sample count, seed, workers, overflow, a missing explicit sigma.
        chain = overflowing_chain() if bad.get("chain") == "overflowing" else actuator_chain
        rule = SigmaRule.explicit({"a1": 0.1}) if bad.get("rule") == "explicit" else IT6
        with pytest.raises(ValueError, match=blamed):
            sample_chain(chain, rule, bad.get("n", 10), bad.get("seed", 1), workers=bad.get("workers", 1))

    def test_scrap_count_rejects_an_overflowing_chain(self):
        chain = replace(overflowing_chain(), condition=FunctionalCondition("J", 0.0, 1.0))
        with pytest.raises(ChainValidationError, match="interval max must be finite"):
            scrap_counts(chain, IT6, 10, 1, 1)

    @pytest.mark.parametrize("n", [5, 65_537, 100_000])
    def test_bit_identical_for_one_two_and_three_workers(self, actuator_chain, n):
        batches = [sample_chain(actuator_chain, IT6, n, 7, workers=workers) for workers in (1, 2, 3)]
        for batch in batches[1:]:
            assert np.array_equal(batch.fc_samples, batches[0].fc_samples)
            assert batch.moments == batches[0].moments
        assert np.array_equal(recompute_fc(actuator_chain, batches[0]), batches[0].fc_samples)

    def test_threads_lose_no_update_to_the_condition_sum(self, actuator_chain):
        # Every scrap-count job returns its own counts, and sample_chain draws
        # in the calling thread at any worker count; a short switch interval
        # interleaves the threads as often as the interpreter allows.
        chain = tight(actuator_chain)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = sample_chain(chain, IT6, 300_001, 5, workers=8)
            counted = scrap_counts(chain, IT6, 300_001, 5, 8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(recompute_fc(chain, batch), batch.fc_samples)
        assert np.array_equal(sample_chain(chain, IT6, 300_001, 5).fc_samples, batch.fc_samples)
        assert counted == scrap_rate(batch.fc_samples, chain.condition)

    @pytest.mark.parametrize("cores, threads", [(1, 1), (2, 2), (4, 4)])
    def test_pool_is_capped_at_the_core_count(self, actuator_chain, monkeypatch, cores, threads):
        pools = []
        mapped = []

        class SerialPool:
            """Records the pool size and the part count of each map; runs the parts in the calling thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def map(self, fn, *iterables):
                spans = list(zip(*iterables))
                mapped.append(len(spans))
                return (fn(*span) for span in spans)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo, "usable_cores", lambda: cores)
        # 1000 workers are planned as the capped thread count: 1e5 samples are
        # one contiguous part per thread. The caller counts the first, and the
        # one map hands the pool the other threads - 1 parts; one thread hands
        # it none.
        counted = scrap_counts(actuator_chain, IT6, 100_000, 7, 1000)
        assert pools == [max(threads - 1, 1)]
        assert mapped == [threads - 1]
        assert counted == scrap_counts(actuator_chain, IT6, 100_000, 7, 1)

    def test_sampler_starts_no_pool(self, actuator_chain, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("sample_chain started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(montecarlo, "usable_cores", lambda: 2)
        batch, alone = (sample_chain(actuator_chain, IT6, 100_000, 7, workers=workers) for workers in (2, 1))
        assert batch.fc_samples.tobytes() == alone.fc_samples.tobytes()

    @pytest.mark.parametrize(
        "affinity, cores, usable",
        [({0, 3}, 8, 2), (None, 3, 3), (None, None, 1)],
        ids=["affinity", "no-affinity", "unknown"],
    )
    def test_usable_cores(self, monkeypatch, affinity, cores, usable):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert model.usable_cores() == usable

    @pytest.mark.parametrize("n", [1, 5, 65_541, 100_003])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_scrap_counter_covers_the_rows_in_order(self, actuator_chain, monkeypatch, n, workers):
        # One contiguous part per thread, the threads capped at the cores and at
        # n: the caller counts the part at row 0, and pool threads the others.
        # Each part counts its rows and one row below, so the report sums every
        # part once.
        monkeypatch.setattr(montecarlo, "usable_cores", lambda: 3)
        spans, caller = [], threading.get_ident()

        def count_part(seed, tables, columns, bounds, start, stop):
            spans.append((start, stop))
            assert (threading.get_ident() == caller) == (start == 0)
            return np.array([stop - start, 1, 0, 0])

        monkeypatch.setattr(montecarlo, "_count_rows", count_part)
        total = scrap_counts(actuator_chain, IT6, n, 7, workers)
        spans.sort()
        assert len(spans) == min(workers, 3, n)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
        sizes = [stop - start for start, stop in spans]
        assert max(sizes) - min(sizes) <= 1
        assert (total.n, total.below, total.above) == (sum(sizes), len(spans), 0)

    def test_chunk_plan_holds_nothing_per_chunk(self):
        # 1e11 rows at 2 threads are 2 parts; entering the plan holds their cuts and nothing per row.
        def enter():
            with montecarlo._scrap_counter(10**11, 2):
                pass

        assert traced_peak(enter) < 64 * 1024

    def test_chunk_map_holds_nothing_per_row(self, actuator_chain, monkeypatch):
        # 2e8 rows at 2 threads are 2 parts, and a count sums the parts' counts:
        # the caller counts the first, the pool is handed the second, and nothing
        # is held per row. The count builds the chain's tables, so the bound is on
        # what 2e8 rows add to the peak of the same count at 2 rows.
        monkeypatch.setattr(montecarlo, "usable_cores", lambda: 2)
        handed = []

        class RecordingPool(ThreadPoolExecutor):
            def map(self, fn, *iterables):
                items = list(zip(*iterables))
                handed.extend(items)
                return super().map(lambda item: fn(*item), items)

        def count_part(seed, tables, columns, bounds, start, stop):
            if threading.get_ident() == caller:
                counted.append((start, stop))
            return np.array([stop - start, 0, 0, 0])

        def enter_and_count(n):
            return lambda: scrap_counts(actuator_chain, IT6, n, 7, 2)

        caller, counted = threading.get_ident(), []
        monkeypatch.setattr(montecarlo, "_count_rows", count_part)
        enter_and_count(2)()  # so that neither peak holds what a first count sets up once
        assert traced_peak(enter_and_count(2 * 10**8)) - traced_peak(enter_and_count(2)) < 64 * 1024
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        enter_and_count(2 * 10**8)()
        assert handed == [(10**8, 2 * 10**8)]
        assert counted == [(0, 1), (0, 10**8), (0, 1), (0, 10**8)]  # once in each count

    def test_workers_default_to_the_usable_cores(self):
        assert inspect.signature(sample_chain).parameters["workers"].default == model.usable_cores()

    @pytest.mark.parametrize("n", [1, 2, 5, 4097, 65_541, 70_000])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_moments_are_taken_from_the_full_draw(self, actuator_chain, n, workers):
        batch = sample_chain(actuator_chain, IT6, n, 7, workers=workers)
        assert list(batch.moments) == list(batch.per_dimension)

        def numpy_moments(samples):
            return float(samples.mean()), float(samples.std(ddof=1)) if n > 1 else 0.0

        for name, column in batch.per_dimension.items():
            assert batch.moments[name] == numpy_moments(column)
        mean, stdev = numpy_moments(batch.fc_samples)
        expected = IntervalResult(mean - 2.5 * stdev, mean + 2.5 * stdev, 2.0 * 2.5 * stdev)
        assert statistical_interval(batch.fc_samples, 2.5) == expected
        fc = batch_summary(actuator_chain, batch, IT6, 2.5)["fc"]
        assert (fc["mean"], fc["stdev"], fc["interval"]) == (mean, stdev, asdict(expected))

    def test_redrawn_columns_are_equal_and_read_only(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 4097, 3, workers=3)
        first, second = batch.per_dimension["a3"], batch.per_dimension["a3"]
        assert first is not second
        assert np.array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable

    def test_memory_is_bounded_for_many_dimensions(self):
        # 16 dimensions: holding every column would trace about 19 arrays of n
        # doubles. The sampler holds fc, one buffer and the transform's work
        # array (1 MB, here 0.6 of an array); batch_summary's fc moments then
        # take a copy of fc.
        chain, n = wide_chain(), 200_000
        peak = traced_peak(lambda: batch_summary(chain, sample_chain(chain, IT6, n, 3, workers=2), IT6))
        assert peak <= 3 * 8 * n

    def test_sampler_holds_two_arrays_of_n(self):
        # fc and the reused buffer, whose moments are taken in place, plus the
        # transform's 1 MB work array: about 2.15 arrays of n doubles.
        chain, n = wide_chain(), 1_000_000
        peak = traced_peak(lambda: sample_chain(chain, IT6, n, 3, workers=2))
        assert peak <= 2.5 * 8 * n

    def test_column_redraw_holds_one_array_of_n(self, actuator_chain):
        # The column is drawn and transformed in place, with no bits array beside
        # it, and the transform's work array has n/256 rows.
        n = 200_000
        batch = sample_chain(actuator_chain, IT6, n, 3, workers=1)
        assert traced_peak(lambda: batch.per_dimension["a3"]) <= 1.05 * 8 * n

    @pytest.mark.parametrize("n", [1, 4097, 65_541, 100_003, 200_003])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bounds", ["actuator", "tight"])
    def test_scrap_count_equals_sample_chains(self, actuator_chain, n, workers, bounds):
        chain = tight(actuator_chain) if bounds == "tight" else actuator_chain
        report = scrap_rate(sample_chain(chain, IT6, n, 7, workers=workers).fc_samples, chain.condition)
        assert scrap_counts(chain, IT6, n, 7, workers) == report

    @pytest.mark.parametrize(
        "chain, rule",
        [
            (wide_chain(), IT6),
            # -1.0 * 0.0 is -0.0, which is neither below 0.0 nor above it.
            (ToleranceChain("zero", tuple(DimensionSpec(f"z{i}", 0.0, 0.0, 0.0, -1.0) for i in range(2)),
                            FunctionalCondition("J", 0.0, 0.0)), IT6),
            # A zero-width dimension beside one of unit sigma, bounds 0.5 sigma off the mean.
            (ToleranceChain("point", (DimensionSpec("p", 3.0, 0.0, 0.0, -2.0), DimensionSpec("d", 1.0, 3.0, -3.0, 1.0)),
                            FunctionalCondition("J", -5.5, -4.5)), IT6),
            # Mean 0, sigma 1e308: a draw beyond 1.8 sigma overflows to +/-inf, on the negative coefficient too.
            (ToleranceChain("huge", (DimensionSpec("h", 0.0, 0.0, 0.0, -1.0), DimensionSpec("d", 1.0, 0.3, -0.3, 1.0)),
                            FunctionalCondition("J", -1e300, 1e300)), SigmaRule.explicit({"h": 1e308, "d": 0.1})),
            # Two such dimensions: a row of +inf and -inf sums to NaN.
            (ToleranceChain("nan", tuple(DimensionSpec(f"h{i}", 0.0, 0.0, 0.0, 1.0) for i in range(2)),
                            FunctionalCondition("J", -1e300, 1e300)), SigmaRule.explicit({"h0": 1e308, "h1": 1e308})),
        ],
        ids=["wide", "signed-zero", "zero-width", "overflow", "inf-minus-inf"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scrap_count_on_edge_chains(self, chain, rule, workers):
        def outcome(count):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # numpy's warning of a draw that overflows
                try:
                    return count()
                except ValueError as exc:
                    return str(exc)

        expected = outcome(lambda: whole_draw_scrap(chain, rule, 70_001, 5))
        assert outcome(lambda: scrap_counts(chain, rule, 70_001, 5, workers)) == expected
        if chain.name == "nan":
            assert re.fullmatch(r"\d+ of 70001 samples are NaN, neither inside nor outside", expected)
        elif chain.name in ("huge", "point"):
            assert 0 < expected.below and 0 < expected.above

    @pytest.mark.parametrize("start", [0, 12, 13, 14, 15])
    def test_uniforms_are_the_words_top_53_bits(self, start):
        # Uniform k of the stream entered at any row is word start + k of the whole stream.
        words = Philox(counter=0, key=np.array([11, 2], dtype=np.uint64)).random_raw(start + 1000)[start:]
        uniforms = montecarlo._stream(11, 2, start).random(1000)
        assert np.array_equal(uniforms, (words >> np.uint64(11)) * 2.0**-53)

    def test_bracket_holds_every_reachable_draw(self):
        # The least and greatest uniform of each bucket, and a million at random.
        buckets = np.arange(4096) * 2**41
        tops = np.concatenate([buckets, buckets + 2**41 - 1, np.random.default_rng(3).integers(0, 2**53, 10**6)])
        uniforms = tops * 2.0**-53
        draws = montecarlo._to_normal(uniforms.copy(), 1.0, 0.0)
        low, high = montecarlo._BRACKET[tops >> 41].T
        assert np.all(low <= draws)
        assert np.all(draws <= high)
        assert np.all(np.isfinite(montecarlo._BRACKET))
        assert not montecarlo._BRACKET.flags.writeable  # every thread of every count shares it

    def test_the_top_word_draws_a_finite_normal(self):
        # Word 2**64 - 1 has uniform 1 - 2**-53, and that plus 2**-54 would round
        # to 1.0, whose ndtri is inf: it draws as the word 2**11 below it does.
        uniforms = np.array([(2**64 - 1) >> 11, (2**64 - 2**11 - 1) >> 11]) * 2.0**-53
        draws = montecarlo._to_normal(uniforms, 1.0, 0.0)
        assert math.isfinite(draws[0])
        assert draws[0] == draws[1] == montecarlo._ndtri(np.array([1.0 - 2.0**-52]))[0]
        assert draws[0] == pytest.approx(ndtri(1.0 - 2.0**-52), rel=NDTRI_ULPS * 2.0**-52)

    @pytest.mark.parametrize("bounds, rows, n", [("actuator", 16384, 200_000), ("tight", 64, 50_000)],
                             ids=["actuator", "tight-64"])
    def test_scrap_count_memory_does_not_grow_with_n(self, actuator_chain, monkeypatch, bounds, rows, n):
        # A part holds one block's uniforms, buckets and brackets, and fewer than
        # two blocks of undecided rows, whatever n is; one worker keeps the peak
        # free of how the threads overlap. The actuator chain's undecided rows
        # fill no block of 16384 at n or 10 n. In blocks of 64 the tight chain's
        # fill one and are transformed 2 times at n and 12 times at 10 n, so both
        # peaks hold the most a part ever holds.
        chain = tight(actuator_chain) if bounds == "tight" else actuator_chain
        monkeypatch.setattr(montecarlo, "_COUNT_ROWS", rows)

        def peak(n):
            with montecarlo._scrap_counter(n, 1) as count:
                return traced_peak(lambda: count(chain, IT6, 3))

        small, large = peak(n), peak(10 * n)
        assert large <= 1.1 * small
        assert large <= 8 * 10 * n / 4

    @pytest.mark.parametrize("n", [100_000, 200_003])
    def test_scrap_count_transforms_once_per_job(self, actuator_chain, monkeypatch, n):
        # A part's undecided rows, every dimension, go through one transform
        # when they fill a block, and at its end. At one worker, those of 1e5
        # and of 200003 rows fill no block of 16384: one transform each.
        expected = scrap_counts(actuator_chain, IT6, n, 7, 1)
        shapes = counted_transforms(monkeypatch)
        assert scrap_counts(actuator_chain, IT6, n, 7, 1) == expected
        assert [dims for dims, _ in shapes] == [4]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scrap_count_transforms_when_undecided_rows_fill_a_block(self, actuator_chain, monkeypatch, workers):
        # In blocks of 16 rows, each part of the tight chain's 50000 rows fills
        # a block of undecided rows more than once, and never holds two.
        chain = tight(actuator_chain)
        expected = scrap_rate(sample_chain(chain, IT6, 50_000, 7).fc_samples, chain.condition)
        part, parts = threading.local(), []
        count, transform = montecarlo._count_rows, montecarlo._to_normal

        def count_part(*args):
            part.rows = []
            parts.append(part.rows)
            return count(*args)

        def counted(uniforms, *args):
            part.rows.append(uniforms.shape[1])
            return transform(uniforms, *args)

        monkeypatch.setattr(montecarlo, "_COUNT_ROWS", 16)
        monkeypatch.setattr(montecarlo, "usable_cores", lambda: 2)
        monkeypatch.setattr(montecarlo, "_count_rows", count_part)
        monkeypatch.setattr(montecarlo, "_to_normal", counted)
        assert scrap_counts(chain, IT6, 50_000, 7, workers) == expected
        assert len(parts) == workers
        for rows in parts:
            assert len(rows) > 1
            assert max(rows) < 32

    def test_overflowing_spread_names_the_dimension(self):
        # a's draws are finite, but their squared deviations, near 1e399, are not.
        chain = ToleranceChain("big", (DimensionSpec("a", 0.0, 1e200, -1e200, 1.0),),
                               FunctionalCondition("J", -1e300, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
            with pytest.raises(ValueError, match=r"^the samples of dimension 'a' hold a NaN or an inf, or their "
                                                 r"spread overflows: mean -?\d.*e\+19\d, stdev inf$"):
                sample_chain(chain, IT6, 1000, 1)

    def test_overflowing_condition_spread_names_the_condition(self):
        # Each dimension's squared deviations sum to about 6e307; the condition's, four times that, overflow.
        dims = tuple(DimensionSpec(f"d{i}", 0.0, 7.3e152, -7.3e152, 1.0) for i in range(4))
        chain = ToleranceChain("spread", dims, FunctionalCondition("J", -1e300, 1e300))
        batch = sample_chain(chain, IT6, 1000, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the samples of condition 'J' hold a NaN or an inf, or their spread"):
                batch_summary(chain, batch, IT6)


def ulps_apart(a, b):
    """How many doubles lie between each element of ``a`` and of ``b``, both finite and of one sign."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def sampled(seed, index, size=2**20):
    """``size`` uniforms of Philox stream ``index``, carried into (0, 1) as ``_to_normal`` carries them."""
    y = montecarlo._stream(seed, index, 0).random(size)
    np.minimum(y, 1.0 - 2.0**-52, out=y)
    y += 2.0**-54
    return y


def tails(seed, index, size=2**20):
    """Inputs of both tails, log-uniform over [2**-54, e**-2] and mirrored, from Philox stream ``index``."""
    low = np.exp2(-54.0 + sampled(seed, index, size) * (54.0 + math.log2(montecarlo._E2)))
    return np.concatenate([low, 1.0 - low[low >= 2.0**-52]])


def consecutive(edge, count=1000):
    """The ``count`` doubles below ``edge``, ``edge`` and the ``count`` above it."""
    return (np.array([edge]).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


# The transform's tails against scipy's: 6 ulps at most on 24 million tail
# inputs; 8 leaves a last bit either way to scipy's libm log.
NDTRI_ULPS = 8

# Where the transform changes branch or its log's reduction: both ends of the
# central region; y = e**-4, e**-8, e**-16 and e**-32, where x = sqrt(-2 log y),
# the second log's argument, is 2 sqrt(2), 4, 4 sqrt(2) and 8 (binade edges and
# sqrt(1/2) switches; the far tail starts at 8); and powers of 2 and their
# sqrt(1/2) multiples, the first log's binade edges and switches.
NDTRI_EDGES = [montecarlo._E2, 1.0 - montecarlo._E2, math.exp(-32.0), math.exp(-4.0), math.exp(-8.0),
               math.exp(-16.0), 1.0 - math.exp(-4.0), 1.0 - math.exp(-16.0),
               *(2.0**-k for k in (3, 4, 10, 30, 53)), *(math.sqrt(0.5) * 2.0**-k for k in (3, 4, 10, 30, 53)),
               *(1.0 - 2.0**-k for k in (3, 4, 10, 30)), *(1.0 - math.sqrt(0.5) * 2.0**-k for k in (3, 4, 10, 30))]


class TestNdtri:
    def test_central_bits_equal_scipy(self):
        y = sampled(7, 0)
        central = (y > montecarlo._E2) & (y <= 1.0 - montecarlo._E2)
        assert 0.7 < central.mean() < 0.76
        assert np.array_equal(montecarlo._ndtri(y.copy())[central], ndtri(y[central]))

    @pytest.mark.parametrize("inputs", ["sampled", "tails", "edges"])
    def test_tails_lie_within_a_few_ulps_of_scipy(self, inputs):
        y = {"sampled": lambda: sampled(7, 1), "tails": lambda: tails(7, 2),
             "edges": lambda: np.concatenate([consecutive(edge) for edge in NDTRI_EDGES])}[inputs]()
        assert ulps_apart(montecarlo._ndtri(y.copy()), ndtri(y)).max() <= NDTRI_ULPS

    def test_is_monotone_over_sorted_inputs(self):
        y = np.sort(np.concatenate([sampled(7, 3), tails(7, 4)]))
        assert np.all(np.diff(montecarlo._ndtri(y)) >= 0.0)

    @pytest.mark.parametrize("edge", NDTRI_EDGES)
    def test_is_monotone_across_each_edge_up_to_its_error(self, edge):
        # Consecutive doubles: scipy's own ndtri falls out of order by a few ulps
        # here, and so may the port, but by no more than _BRACKET allows for.
        # Doubles 4096 apart keep strict order.
        y = consecutive(edge)
        draws = montecarlo._ndtri(y.copy())
        assert np.all(np.maximum.accumulate(draws) - draws <= 4e-15 * np.abs(draws))
        coarse = (np.array([edge]).view(np.int64) + np.arange(-1000, 1001) * 2**12).view(np.float64)
        assert np.all(np.diff(montecarlo._ndtri(coarse)) > 0.0)

    def test_is_finite_at_both_ends_of_the_domain(self):
        ends = np.array([2.0**-54, 1.0 - 2.0**-52 + 2.0**-54])
        draws = montecarlo._ndtri(ends.copy())
        assert np.all(np.isfinite(draws))
        assert draws[0] < -8.0 < 8.0 < draws[1]
        assert ulps_apart(draws, ndtri(ends)).max() <= NDTRI_ULPS

    @pytest.mark.parametrize("rows", [1, 3, 7, 1024])
    def test_blocks_change_no_bit(self, rows):
        # The column re-draw runs _ndtri slice by slice.
        for y in (sampled(7, 5, 3000), np.empty(0)):
            sliced = np.concatenate([montecarlo._ndtri(y[first:first + rows].copy())
                                     for first in range(0, y.size, rows)] or [np.empty(0)])
            assert np.array_equal(sliced, montecarlo._ndtri(y.copy()))

    @pytest.mark.parametrize("rows", [None], ids=["default"])
    def test_a_block_of_rows_transforms_as_each_row_alone(self, rows):
        # A C-ordered block of four streams, each row with its own sigma and mean.
        uniforms = np.stack([montecarlo._stream(7, index, 0).random(4097) for index in range(4)])
        sigma, mean = np.array([[0.5], [2.0], [1e-3], [7.0]]), np.array([[25.3], [-9.0], [0.0], [1e6]])
        alone = [montecarlo._to_normal(row.copy(), s, m) for row, s, m in zip(uniforms, sigma[:, 0], mean[:, 0])]
        block = montecarlo._to_normal(uniforms.copy(), sigma, mean)
        assert block.flags.c_contiguous and np.array_equal(block, alone)


class TestStatisticalInterval:
    def test_constant_samples(self):
        result = statistical_interval([4.25] * 10, 3.0)
        assert result.min == result.max == 4.25
        assert result.it == 0.0

    def test_single_sample(self):
        result = statistical_interval([1.5])
        assert result.min == result.max == 1.5

    def test_unit_coverage_of_standard_normal(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(200_000)
        result = statistical_interval(samples, 1.0)
        assert result.it == pytest.approx(2.0, rel=0.02)

    def test_width_definition(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        sd = float(samples.std(ddof=1))
        result = statistical_interval(samples, 2.5)
        assert result.it == 2.0 * 2.5 * sd
        assert result.min == pytest.approx(2.5 - 2.5 * sd, rel=1e-14)

    def test_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            statistical_interval([])
        with pytest.raises(ValueError, match="coverage"):
            statistical_interval([1.0], 0.0)

    @pytest.mark.parametrize("coverage", [True, "3", None], ids=["bool", "str", "none"])
    def test_coverage_that_is_not_a_real_number_is_blamed(self, coverage):
        message = f"coverage_sigmas must be a real number, got {coverage!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            statistical_interval([1.0, 2.0], coverage)

    def test_integer_and_numpy_coverages_are_real_numbers(self):
        expected = statistical_interval([1.0, 2.0], 3.0)
        assert statistical_interval([1.0, 2.0], 3) == statistical_interval([1.0, 2.0], np.float64(3.0)) == expected

    @pytest.mark.parametrize("samples", [[1.0, 2.0], [1.0, 1.0]], ids=["spread", "constant"])
    def test_infinite_coverage_is_blamed(self, samples):
        with pytest.raises(ValueError, match="coverage_sigmas must be finite"):
            statistical_interval(samples, math.inf)

    @pytest.mark.parametrize("samples", [[1.0, 2.0], [1.0, 1.0]], ids=["spread", "constant"])
    def test_coverage_beyond_a_double_is_named_by_its_length(self, samples):
        message = "coverage_sigmas must be finite and > 0, got an integer of 1329 bits"
        with pytest.raises(ValueError, match=f"^{message}$"):
            statistical_interval(samples, 10**400)

    @pytest.mark.parametrize("samples", [[1.0, 2.0], [1.0, 1.0]], ids=["spread", "constant"])
    def test_overflowing_coverage_is_blamed(self, samples):
        # 2 * 1e308 overflows, so the interval's width is inf (or nan at stdev 0).
        with pytest.raises(ValueError, match="coverage_sigmas 1e"):
            statistical_interval(samples, 1e308)

    @pytest.mark.parametrize(
        "samples", [[1.0, math.nan], [math.inf, 1.0], [1e308, -1e308, 1e308]], ids=["nan", "inf", "spread-overflows"]
    )
    def test_non_finite_moments_blame_the_samples(self, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
            with pytest.raises(ValueError, match="the samples hold a NaN or an inf, or their spread overflows"):
                statistical_interval(samples, 3.0)


class TestScrapRate:
    def test_all_inside(self):
        report = scrap_rate([1.0, 2.0, 3.0], FunctionalCondition("J", 0.0, 4.0))
        assert report.scrap_rate == 0.0
        assert report.ci95_half_width == 0.0

    def test_strict_exceedance_counting(self):
        condition = FunctionalCondition("J", 2.0, 3.0)
        report = scrap_rate([1.0, 2.0, 3.0, 4.0], condition)
        assert (report.below, report.above) == (1, 1)
        assert report.scrap_rate == 0.5
        assert report.ci95_half_width == pytest.approx(1.96 * math.sqrt(0.25 / 4))

    @pytest.mark.parametrize(
        "n, below, above", [(0, 0, 0), (3, -1, 0), (3, 0, -1), (3, 2, 2)], ids=["empty", "below", "above", "sum"]
    )
    def test_inconsistent_counts_rejected(self, n, below, above):
        with pytest.raises(ValueError, match="^inconsistent scrap counts$"):
            montecarlo.ScrapReport(n=n, below=below, above=above)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_report_is_its_counts(self, n):
        # Every split of n samples below, inside and above the bounds, from no event to all of them.
        condition = FunctionalCondition("J", 0.0, 1.0)
        for below in range(n + 1):
            for above in range(n + 1 - below):
                report = montecarlo.ScrapReport(n, below, above)
                assert report == scrap_rate([-1.0] * below + [2.0] * above + [0.5] * (n - below - above), condition)
                assert list(asdict(report)) == ["n", "below", "above", "scrap_rate", "ci95_half_width"]

    def test_report_rejects_nan_samples(self):
        with pytest.raises(ValueError, match="^1 of 5 samples are NaN, neither inside nor outside$"):
            montecarlo.ScrapReport(5, 0, 0, nans=1)

    @pytest.mark.parametrize(
        "derived", [{"scrap_rate": 0.5}, {"ci95_half_width": 0.0}, {"scrap_rate": 0.5, "ci95_half_width": 0.0}],
        ids=["rate", "half-width", "both"],
    )
    def test_report_takes_no_derived_value(self, derived):
        with pytest.raises(TypeError):
            montecarlo.ScrapReport(n=10, below=0, above=0, **derived)

    def test_boundary_values_conform(self):
        report = scrap_rate([2.0, 3.0], FunctionalCondition("J", 2.0, 3.0))
        assert report.scrap_rate == 0.0

    def test_single_bound(self):
        report = scrap_rate([1.0, 5.0], FunctionalCondition("J", imposed_min=2.0))
        assert (report.below, report.above) == (1, 0)

    def test_half_mass_outside_symmetric_bounds(self):
        rng = np.random.default_rng(21)
        samples = rng.standard_normal(100_000)
        quartile = 0.6744897501960817  # upper quartile of the standard normal
        report = scrap_rate(samples, FunctionalCondition("J", -quartile, quartile))
        # Half the mass lies outside; allow a 99% binomial window.
        assert abs(report.scrap_rate - 0.5) <= 2.5758 * math.sqrt(0.25 / 100_000)

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one bound"):
            scrap_rate([1.0], FunctionalCondition("J"))
        with pytest.raises(ValueError, match="non-empty"):
            scrap_rate([], FunctionalCondition("J", 0.0, 1.0))

    @pytest.mark.parametrize(
        "condition", [FunctionalCondition("J", 0.0, 1.0), FunctionalCondition("J", imposed_max=1.0)], ids=["both", "max"]
    )
    def test_nan_samples_are_named_not_counted_as_conforming(self, condition):
        with pytest.raises(ValueError, match="3 of 4 samples are NaN"):
            scrap_rate([math.nan, math.nan, math.nan, 0.5], condition)

    def test_infinities_count_below_and_above(self):
        report = scrap_rate([-math.inf, math.inf, math.inf, 0.5], FunctionalCondition("J", 0.0, 1.0))
        assert (report.below, report.above) == (1, 2)


class TestAnalyticScrap:
    def test_actuator_value(self, actuator_chain):
        params = propagate_analytic(actuator_chain, IT6)
        expected = (
            _phi((10.0 - params.mean) / params.sigma)
            + 1.0
            - _phi((11.16 - params.mean) / params.sigma)
        )
        value = analytic_scrap(actuator_chain, IT6)
        assert value == pytest.approx(expected, rel=1e-9)
        assert 1e-7 < value < 1e-6

    def test_three_sigma_bounds(self):
        chain = one_dim_chain(0.0, 0.3, -0.3, bounds=(-0.3, 0.3))
        # sigma = 0.1, bounds at +/-3 sigma: the textbook two-sided tail mass.
        assert analytic_scrap(chain, IT6) == pytest.approx(0.0026998, abs=1e-7)

    def test_absent_bound_contributes_nothing(self):
        chain = one_dim_chain(0.0, 0.3, -0.3)
        params = propagate_analytic(chain, IT6)
        max_only = replace(chain, condition=FunctionalCondition("J", imposed_max=0.3))
        half = analytic_scrap(max_only, IT6)
        assert half == pytest.approx(0.0026998 / 2.0, abs=1e-7)
        # Exactly the one-sided tail: the absent bound's, at -inf or +inf, adds 0.0.
        assert half == 0.5 * math.erfc((0.3 - params.mean) / params.sigma / math.sqrt(2.0))
        min_only = replace(chain, condition=FunctionalCondition("J", imposed_min=-0.3))
        assert analytic_scrap(min_only, IT6) == 0.5 * math.erfc((params.mean + 0.3) / params.sigma / math.sqrt(2.0))

    def test_far_tails_do_not_cancel(self):
        # Mean 0 and sigma 1, so the bound at 9 is 9 sigma out: Q(9) is 1.1285884059538e-19,
        # where 1 - Phi(9) in doubles is 0.0.
        upper = one_dim_chain(0.0, 3.0, -3.0, bounds=(None, 9.0))
        assert analytic_scrap(upper, IT6) == pytest.approx(1.1285884059538e-19, rel=1e-13)
        lower = one_dim_chain(0.0, 3.0, -3.0, bounds=(-9.0, None))
        assert analytic_scrap(lower, IT6) == analytic_scrap(upper, IT6)

    @pytest.mark.parametrize("bounds", [(10.0, 11.16), (None, 11.9), (9.0, None), (10.5, 10.9)])
    def test_a_chain_and_its_mirror_agree(self, actuator_chain, bounds):
        chain = replace(actuator_chain, condition=FunctionalCondition("Ja", *bounds))
        low, high = chain.condition.bounds
        mirror = replace(chain, dimensions=tuple(replace(d, coefficient=-d.coefficient) for d in chain.dimensions),
                         condition=FunctionalCondition("Ja", -high if high < math.inf else None,
                                                       -low if low > -math.inf else None))
        assert analytic_scrap(mirror, IT6) == analytic_scrap(chain, IT6)

    def test_point_mass(self):
        inside = one_dim_chain(5.0, 0.0, 0.0, bounds=(4.0, 6.0))
        assert analytic_scrap(inside, IT6) == 0.0
        outside = one_dim_chain(5.0, 0.0, 0.0, bounds=(6.0, 7.0))
        assert analytic_scrap(outside, IT6) == 1.0
        at_bound = one_dim_chain(5.0, 0.0, 0.0, bounds=(5.0, 7.0))
        assert analytic_scrap(at_bound, IT6) == 0.0
        # A lone bound: the mean below a min, above a max, then on each.
        for low, high, scrap in [(6.0, None, 1.0), (None, 4.0, 1.0), (5.0, None, 0.0), (None, 5.0, 0.0)]:
            chain = replace(inside, condition=FunctionalCondition("J", low, high))
            assert analytic_scrap(chain, IT6) == scrap

    def test_agrees_with_simulation(self):
        chain = one_dim_chain(0.0, 0.5, -0.5, bounds=(-0.35, 0.35))
        p = analytic_scrap(chain, IT6)
        assert 0.01 < p < 0.1
        batch = sample_chain(chain, IT6, 100_000, 17)
        report = scrap_rate(batch.fc_samples, chain.condition)
        half = 2.5758 * math.sqrt(p * (1.0 - p) / 100_000)
        assert abs(report.scrap_rate - p) <= half

    def test_requires_bounds(self):
        with pytest.raises(ValueError, match="at least one bound"):
            analytic_scrap(one_dim_chain(0.0, 0.1, -0.1), IT6)


class TestExports:
    def test_samples_csv_layout(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 3, 1)
        lines = samples_csv(batch).splitlines()
        assert lines[0] == "index,a1,a2,a3,a7,Ja"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == format(batch.per_dimension["a1"][0], ".9g")
        assert first[5] == format(batch.fc_samples[0], ".9g")

    @pytest.mark.parametrize("n", [1, 3, 4, 4097, 65_541])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("constant", [False, True], ids=["actuator", "zero-sigma"])
    def test_samples_csv_matches_reference(self, actuator_chain, n, workers, constant):
        chain = zero_sigma_chain() if constant else actuator_chain
        batch = sample_chain(chain, IT6, n, 5, workers=workers)
        # Compared as lines, so that a mismatch reports its first row quickly.
        expected = reference_samples_csv(batch).splitlines(keepends=True)
        assert samples_csv(batch).splitlines(keepends=True) == expected

    @pytest.mark.parametrize("n", [1, 3, 4096, 4097, 65_541])
    @pytest.mark.parametrize("block", [3, 4, 4096, 4097, 8192])
    def test_samples_csv_blocks_join_into_the_export(self, actuator_chain, n, block):
        batch = sample_chain(actuator_chain, IT6, n, 5)
        # Compared as lines, as in the reference test above.
        whole = samples_csv(batch).splitlines(keepends=True)
        assert whole == reference_samples_csv(batch).splitlines(keepends=True)
        joined = "".join(samples_csv(batch, s, min(s + block, n)) for s in range(0, n, block))
        assert joined.splitlines(keepends=True) == whole
        assert "".join(montecarlo._samples_csv_blocks(batch)).splitlines(keepends=True) == whole

    def test_samples_csv_starts_at_any_row(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 8192, 5)
        whole = samples_csv(batch).splitlines(keepends=True)
        for start in (1, 2, 4097, 8191):
            assert samples_csv(batch, start).splitlines(keepends=True) == whole[1 + start :]
        with pytest.raises(ValueError, match=r"^start must be non-negative, got -4$"):
            samples_csv(batch, -4)

    @pytest.mark.parametrize(
        "start, stop, message",
        [(True, None, "start must be an integer, got True"), (2.5, None, "start must be an integer, got 2.5"),
         (0, -1, "stop must be non-negative, got -1"), (0, False, "stop must be an integer, got False"),
         (0, 3.0, "stop must be an integer, got 3.0"), ("1", None, "start must be an integer, got '1'")],
        ids=["bool-start", "float-start", "negative-stop", "bool-stop", "float-stop", "str-start"],
    )
    def test_samples_csv_rejects_a_row_range_that_is_not_counts(self, actuator_chain, start, stop, message):
        batch = sample_chain(actuator_chain, IT6, 16, 5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            samples_csv(batch, start, stop)

    def test_samples_csv_range_ending_before_it_starts_is_empty(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 16, 5)
        whole = samples_csv(batch).splitlines(keepends=True)
        assert samples_csv(batch, 7, 3) == samples_csv(batch, 7, 7) == ""
        assert samples_csv(batch, 0, 0) == whole[0]
        assert samples_csv(batch, np.int64(3), np.int64(5)).splitlines(keepends=True) == whole[4:6]

    def test_samples_csv_takes_a_row_beyond_a_double(self, actuator_chain):
        # Counts are compared exactly: stop is capped at n, and no row lies at or past 10**400.
        batch = sample_chain(actuator_chain, IT6, 16, 5)
        assert samples_csv(batch, 0, 10**400) == samples_csv(batch)
        assert samples_csv(batch, 10**400) == ""

    def test_samples_csv_transforms_once_per_block(self, actuator_chain, monkeypatch):
        batch = sample_chain(actuator_chain, IT6, 50_000, 5)
        shapes = counted_transforms(monkeypatch)
        samples_csv(batch)
        full, rest = divmod(50_000, montecarlo._EXPORT_ROWS)
        assert shapes == [(4, montecarlo._EXPORT_ROWS)] * full + [(4, rest)]

    @pytest.mark.parametrize(
        "names, condition, repeated",
        [(["index", "b"], "Ja", "index"), (["a", "Ja"], "Ja", "Ja"), (["fc", "b"], None, "fc"),
         (["a", "b"], "index", "index")],
        ids=["dimension-index", "dimension-as-condition", "dimension-fc-no-condition", "condition-index"],
    )
    def test_samples_csv_rejects_a_repeated_column(self, monkeypatch, names, condition, repeated):
        dimensions = [DimensionSpec(name, 10.0, 0.1, -0.1, 1.0) for name in names]
        bounded = None if condition is None else FunctionalCondition(condition, 19.0, 21.0)
        batch = sample_chain(ToleranceChain("c", dimensions, bounded), IT6, 5000, 1)
        shapes = counted_transforms(monkeypatch)
        message = f"the samples CSV would repeat the column {repeated!r}; rename the dimension or condition"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            samples_csv(batch)
        assert shapes == []  # raised before a row was drawn
        assert samples_csv(batch, 1, 3).count("\n") == 2  # a range after the header writes its rows

    def test_samples_csv_ends_with_newline(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 2, 1)
        assert samples_csv(batch).endswith("\n")

    def test_histogram_counts_cover_all_samples(self):
        samples = np.linspace(0.0, 1.0, 1000)
        text = histogram_csv(samples, bins=20)
        lines = text.splitlines()
        assert lines[0] == "bin_lower,bin_upper,count"
        assert len(lines) == 21
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 1000
        lowers = [float(line.split(",")[0]) for line in lines[1:]]
        assert lowers == sorted(lowers)

    def test_histogram_of_constant_samples(self):
        text = histogram_csv([3.0, 3.0, 3.0], bins=4)
        total = sum(int(line.split(",")[2]) for line in text.splitlines()[1:])
        assert total == 3

    def test_histogram_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            histogram_csv([], bins=10)
        with pytest.raises(ValueError, match="bin count"):
            histogram_csv([1.0], bins=0)
        with pytest.raises(ValueError, match=r"^bin count must be an integer, got 2\.0$"):
            histogram_csv([1.0, 2.0], bins=2.0)
        with pytest.raises(ValueError, match=r"^bin count must be an integer, got True$"):
            histogram_csv([1.0, 2.0], bins=True)
        assert histogram_csv([1.0, 2.0], bins=np.int64(2)) == histogram_csv([1.0, 2.0], bins=2)

    @pytest.mark.parametrize(
        "samples, bounds",
        [([1.0, math.nan], "min nan, max nan"), ([math.inf, 1.0], "min 1.0, max inf"),
         ([1e308, -1e308], "min -1e+308, max 1e+308")],
        ids=["nan", "inf", "range-overflows"],
    )
    def test_histogram_blames_non_finite_samples(self, samples, bounds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
            with pytest.raises(ValueError) as excinfo:
                histogram_csv(samples, 2)
        assert str(excinfo.value) == f"the samples hold a NaN or an inf, or their range overflows: {bounds}"

    @pytest.mark.parametrize("n", [50_000, 2_000_000])
    def test_histogram_holds_one_block_of_rows(self, n):
        # Counted in blocks; one np.histogram call over every row traces 1.66 MB at 5e4 rows and 2.24 MB at 2e6.
        samples = np.random.default_rng(3).normal(size=n)
        histogram_csv(samples, 50)  # imports and caches
        assert traced_peak(lambda: histogram_csv(samples, 50)) < 128 * 1024

    @pytest.mark.parametrize(
        "samples, bins",
        [(np.array([1.5]), 50), (np.full(5000, 3.0), 7),
         (np.random.default_rng(4).normal(size=montecarlo._EXPORT_ROWS + 1), 50),
         (np.random.default_rng(5).normal(size=3 * montecarlo._EXPORT_ROWS + 5), montecarlo._EXPORT_ROWS + 3),
         (np.tile(np.arange(41) * 0.25, 200), 40), (np.random.default_rng(6).normal(size=10_000) * 1e300, 50)],
        ids=["one", "constant", "step-plus-one", "bins-above-step", "on-edges", "wide-range"],
    )
    def test_histogram_equals_one_numpy_call(self, samples, bins):
        counts, edges = np.histogram(samples, bins)
        rows = np.column_stack([edges[:-1], edges[1:], counts]).ravel().tolist()
        assert histogram_csv(samples, bins) == "bin_lower,bin_upper,count\n" + "%.9g,%.9g,%d\n" * bins % tuple(rows)

    def test_histogram_too_many_bins_as_numpy(self):
        samples = np.array([1.0, np.nextafter(1.0, 2.0)] * montecarlo._EXPORT_ROWS)
        with pytest.raises(ValueError) as expected:
            np.histogram(samples, 50)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            histogram_csv(samples, 50)

    def test_batch_summary_contents(self, actuator_chain):
        batch = sample_chain(actuator_chain, IT6, 5000, 11)
        summary = batch_summary(actuator_chain, batch, IT6, 3.0)
        assert summary["n"] == 5000
        assert summary["seed"] == 11
        assert set(summary["per_dimension"]) == {"a1", "a2", "a3", "a7"}
        fc = summary["fc"]
        assert fc["name"] == "Ja"
        assert fc["mean"] == pytest.approx(float(batch.fc_samples.mean()), rel=1e-14)
        interval = statistical_interval(batch.fc_samples, 3.0)
        assert fc["interval"]["it"] == interval.it
        assert summary["analytic"]["sigma"] == propagate_analytic(actuator_chain, IT6).sigma
        assert summary["scrap"]["n"] == 5000
        assert summary["analytic_scrap"] == analytic_scrap(actuator_chain, IT6)

    def test_batch_summary_without_condition(self):
        chain = one_dim_chain(5.0, 0.1, -0.1)
        batch = sample_chain(chain, IT6, 100, 1)
        summary = batch_summary(chain, batch, IT6)
        assert "scrap" not in summary
        assert summary["fc"]["name"] == "fc"


def test_statistical_interval_narrower_than_budget(actuator_chain):
    batch = sample_chain(actuator_chain, IT6, 100_000, 42)
    interval = statistical_interval(batch.fc_samples, 3.0)
    assert interval.it < it_budget(actuator_chain)
    assert interval.it == pytest.approx(6.0 * propagate_analytic(actuator_chain, IT6).sigma, rel=0.03)
