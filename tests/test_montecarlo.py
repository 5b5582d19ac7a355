"""Monte Carlo engine: distributions, sampling, statistics, scrap, exports."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import recompute_fc
from tolchain import (
    DimensionSpec,
    DistributionParams,
    FunctionalCondition,
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
        dims = (
            DimensionSpec("a", 7.0, 0.0, 0.0, 2.0),
            DimensionSpec("b", 3.0, 0.0, 0.0, -1.0),
        )
        chain = ToleranceChain("const", dims)
        batch = sample_chain(chain, IT6, 500, 9)
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
