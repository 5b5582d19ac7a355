"""Monte Carlo engine: distributions, sampling, statistics, scrap, exports."""

import math
import os
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import traced_peak
from oracles import recompute_fc, reference_samples_csv
from tolchain import montecarlo
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


def wide_chain():
    dims = tuple(DimensionSpec(f"d{i}", 10.0 + i, 0.1, -0.1, (-1.0) ** i) for i in range(16))
    return ToleranceChain("wide", dims, FunctionalCondition("J", -1.0, 1.0))


class TestSigmaRule:
    def test_kinds(self):
        assert SigmaRule.it6().kind == "it6"
        assert SigmaRule.it3().kind == "it3"
        assert SigmaRule.explicit({"a": 0.05}).sigmas == {"a": 0.05}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sigma rule"):
            SigmaRule("it9")

    def test_explicit_requires_mapping(self):
        with pytest.raises(ValueError, match="requires a per-dimension sigma"):
            SigmaRule("explicit")

    def test_negative_explicit_sigma_rejected(self):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            SigmaRule.explicit({"a": -0.1})

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
         (0.0, -0.1, "sigma must be >= 0, got -0.1")],
        ids=["inf-mean", "nan-sigma", "negative-sigma"],
    )
    def test_params_are_checked(self, mean, sigma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
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
        # 70k samples spans two generator chunks, so parallel assembly is exercised.
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

    def test_condition_only_draws_reject_an_overflowing_chain(self):
        with montecarlo._chunk_jobs(10, 1) as (size, run):
            with pytest.raises(ChainValidationError, match="interval max must be finite"):
                montecarlo._fc_samples(overflowing_chain(), IT6, 10, 1, size, run)

    @pytest.mark.parametrize("n", [5, 65_537, 100_000])
    def test_bit_identical_for_one_two_and_three_workers(self, actuator_chain, n):
        batches = [sample_chain(actuator_chain, IT6, n, 7, workers=workers) for workers in (1, 2, 3)]
        for batch in batches[1:]:
            assert np.array_equal(batch.fc_samples, batches[0].fc_samples)
            assert batch.moments == batches[0].moments
        assert np.array_equal(recompute_fc(actuator_chain, batches[0]), batches[0].fc_samples)

    def test_threads_lose_no_update_to_the_condition_sum(self, actuator_chain):
        # Every chunk job adds its own slice of fc, in sample_chain and in the
        # condition-only draws; a short switch interval interleaves the threads
        # as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = sample_chain(actuator_chain, IT6, 300_001, 5, workers=8)
            with montecarlo._chunk_jobs(300_001, 8) as (size, run):
                fc = montecarlo._fc_samples(actuator_chain, IT6, 300_001, 5, size, run)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(recompute_fc(actuator_chain, batch), batch.fc_samples)
        assert np.array_equal(sample_chain(actuator_chain, IT6, 300_001, 5).fc_samples, batch.fc_samples)
        assert fc.tobytes() == batch.fc_samples.tobytes()

    @pytest.mark.parametrize("cores, threads", [(None, 1), (2, 2), (4, 4)])
    def test_pool_is_capped_at_the_core_count(self, actuator_chain, monkeypatch, cores, threads):
        pools = []
        mapped = []

        class SerialPool:
            """Records the pool size and the chunk count of each map; runs the chunks in the calling thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def map(self, fn, iterable):
                starts = list(iterable)
                mapped.append(len(starts))
                return map(fn, starts)

            def shutdown(self):
                pass

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        # 1000 workers are planned as the capped thread count: 1e5 samples need
        # two chunks of at most 65536, rounded up to a multiple of the threads.
        batch = sample_chain(actuator_chain, IT6, 100_000, 7, workers=1000)
        assert pools == [threads]
        assert mapped == [max(2, threads)] * len(actuator_chain.dimensions)
        assert batch.fc_samples.tobytes() == sample_chain(actuator_chain, IT6, 100_000, 7).fc_samples.tobytes()

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
        # doubles. The sampler holds fc, one buffer and a chunk of bits per
        # thread (here a quarter of n each); batch_summary's fc moments then
        # take a copy of fc.
        chain, n = wide_chain(), 200_000
        peak = traced_peak(lambda: batch_summary(chain, sample_chain(chain, IT6, n, 3, workers=2), IT6))
        assert peak <= 3 * 8 * n

    def test_sampler_holds_two_arrays_of_n(self):
        # fc and the reused buffer, whose moments are taken in place, plus a
        # 62500-sample chunk of bits per thread: about 2.13 arrays of n doubles.
        chain, n = wide_chain(), 1_000_000
        peak = traced_peak(lambda: sample_chain(chain, IT6, n, 3, workers=2))
        assert peak <= 2.5 * 8 * n

    @pytest.mark.parametrize("n", [1, 4097, 65_541, 100_003])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_condition_only_draws_equal_sample_chain(self, actuator_chain, n, workers):
        with montecarlo._chunk_jobs(n, workers) as (size, run):
            fc = montecarlo._fc_samples(actuator_chain, IT6, n, 7, size, run)
        assert fc.tobytes() == sample_chain(actuator_chain, IT6, n, 7, workers=workers).fc_samples.tobytes()

    @pytest.mark.parametrize(
        "chain",
        [wide_chain(), ToleranceChain("zero", tuple(DimensionSpec(f"z{i}", 0.0, 0.0, 0.0, -1.0) for i in range(2)))],
        ids=["wide", "signed-zero"],
    )
    def test_condition_only_draws_keep_every_bit(self, chain):
        # -1.0 * 0.0 is -0.0: the sum must start from +0.0 as sample_chain's does.
        with montecarlo._chunk_jobs(70_001, 2) as (size, run):
            fc = montecarlo._fc_samples(chain, IT6, 70_001, 5, size, run)
        assert fc.tobytes() == sample_chain(chain, IT6, 70_001, 5, workers=2).fc_samples.tobytes()

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

    @pytest.mark.parametrize("samples", [[1.0, 2.0], [1.0, 1.0]], ids=["spread", "constant"])
    def test_infinite_coverage_is_blamed(self, samples):
        with pytest.raises(ValueError, match="coverage_sigmas must be finite"):
            statistical_interval(samples, math.inf)

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
            montecarlo.ScrapReport(n=n, below=below, above=above, scrap_rate=0.0, ci95_half_width=0.0)

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
        chain = replace(chain, condition=FunctionalCondition("J", imposed_max=0.3))
        half = analytic_scrap(chain, IT6)
        assert half == pytest.approx(0.0026998 / 2.0, abs=1e-7)

    def test_point_mass(self):
        inside = one_dim_chain(5.0, 0.0, 0.0, bounds=(4.0, 6.0))
        assert analytic_scrap(inside, IT6) == 0.0
        outside = one_dim_chain(5.0, 0.0, 0.0, bounds=(6.0, 7.0))
        assert analytic_scrap(outside, IT6) == 1.0
        at_bound = one_dim_chain(5.0, 0.0, 0.0, bounds=(5.0, 7.0))
        assert analytic_scrap(at_bound, IT6) == 0.0

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
    @pytest.mark.parametrize("block", [4, 4096, 8192])
    def test_samples_csv_blocks_join_into_the_export(self, actuator_chain, n, block):
        batch = sample_chain(actuator_chain, IT6, n, 5)
        # Compared as lines, as in the reference test above.
        whole = samples_csv(batch).splitlines(keepends=True)
        assert whole == reference_samples_csv(batch).splitlines(keepends=True)
        joined = "".join(samples_csv(batch, s, min(s + block, n)) for s in range(0, n, block))
        assert joined.splitlines(keepends=True) == whole
        assert "".join(montecarlo._samples_csv_blocks(batch)).splitlines(keepends=True) == whole

    @pytest.mark.parametrize("start", [2, 4097, -4])
    def test_samples_csv_rejects_a_misaligned_start(self, actuator_chain, start):
        batch = sample_chain(actuator_chain, IT6, 8192, 5)
        with pytest.raises(ValueError, match=rf"^start must be .*, got {start}$"):
            samples_csv(batch, start)

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
