"""Worst-case engine: extremes, IT budget, conformity, and the inverse problem."""

import itertools
import math
from dataclasses import replace

import pytest

from tolchain import (
    ConformityStatus,
    DimensionSpec,
    FunctionalCondition,
    InfeasibleToleranceError,
    ToleranceChain,
    it_budget,
    solve_unknown,
    verify_worst_case,
    worst_case,
)

from conftest import make_actuator_chain
from oracles import one_double_wider


def actuator_within(low, high):
    """The actuator chain under the condition ``low <= Ja <= high``."""
    return replace(make_actuator_chain(), condition=FunctionalCondition("Ja", low, high))


class TestWorstCase:
    def test_actuator_extremes(self, actuator_chain):
        result = worst_case(actuator_chain)
        # Frozen full-precision values; the quoted figures are 10.0 and 11.16.
        assert result.min == 10.000000000000004
        assert result.max == 11.159999999999998
        assert round(result.min, 6) == 10.0
        assert round(result.max, 6) == 11.16
        assert round(result.it, 6) == 1.16

    def test_identity_chain(self):
        chain = ToleranceChain("one", (DimensionSpec("x", 10.0, 0.0, 0.0, 1.0),))
        result = worst_case(chain)
        assert result.min == result.max == 10.0
        assert result.it == 0.0

    def test_matches_exhaustive_corner_evaluation(self):
        chain = ToleranceChain(
            "mixed",
            (
                DimensionSpec("u", 12.5, 0.25, -0.05, 2.0),
                DimensionSpec("v", 3.2, 0.0, -0.4, -1.5),
                DimensionSpec("w", 7.75, 0.1, 0.05, 1.0),
            ),
        )
        sums = []
        for picks in itertools.product(*((d.min_limit, d.max_limit) for d in chain.dimensions)):
            total = 0.0
            for d, value in zip(chain.dimensions, picks):
                total += d.coefficient * value
            sums.append(total)
        result = worst_case(chain)
        assert result.min == min(sums)
        assert result.max == max(sums)

    def test_interval_width_consistent(self, actuator_chain):
        result = worst_case(actuator_chain)
        assert result.it == pytest.approx(result.max - result.min, rel=1e-12)


class TestItBudget:
    def test_actuator_budget(self, actuator_chain):
        assert it_budget(actuator_chain) == 1.1600000000000001
        assert round(it_budget(actuator_chain), 6) == 1.16

    def test_weighted_formula(self):
        chain = ToleranceChain(
            "w",
            (
                DimensionSpec("a", 5.0, 0.05, -0.05, 2.0),
                DimensionSpec("b", 3.0, 0.15, -0.15, -1.0),
            ),
        )
        assert it_budget(chain) == 0.5
        assert it_budget(chain) == worst_case(chain).it

    def test_zero_tolerances(self):
        chain = ToleranceChain(
            "z",
            (DimensionSpec("a", 5.0, 0.0, 0.0, 1.0), DimensionSpec("b", 3.0, 0.0, 0.0, -1.0)),
        )
        assert it_budget(chain) == 0.0


class TestVerifyWorstCase:
    def test_actuator_conforms_to_its_own_extremes(self, actuator_chain):
        verdict = verify_worst_case(actuator_chain)
        assert verdict.status is ConformityStatus.CONFORMING

    def test_exact_boundary_conforms(self):
        chain = ToleranceChain(
            "b",
            (DimensionSpec("x", 10.0, 0.1, -0.1, 1.0),),
            FunctionalCondition("J", 9.9, 10.1),
        )
        assert verify_worst_case(chain).status is ConformityStatus.CONFORMING

    def test_non_conforming_high(self):
        verdict = verify_worst_case(actuator_within(10.0, 11.0))
        assert verdict.status is ConformityStatus.NON_CONFORMING_HIGH

    def test_non_conforming_low(self):
        verdict = verify_worst_case(actuator_within(10.5, 11.5))
        assert verdict.status is ConformityStatus.NON_CONFORMING_LOW

    def test_non_conforming_both(self):
        verdict = verify_worst_case(actuator_within(10.5, 11.0))
        assert verdict.status is ConformityStatus.NON_CONFORMING_BOTH

    def test_single_bound_checked(self):
        chain = ToleranceChain(
            "hi",
            (DimensionSpec("x", 10.0, 0.2, 0.0, 1.0),),
            FunctionalCondition("J", imposed_max=10.1),
        )
        assert verify_worst_case(chain).status is ConformityStatus.NON_CONFORMING_HIGH

        chain = replace(chain, condition=FunctionalCondition("J", imposed_min=9.0))
        assert verify_worst_case(chain).status is ConformityStatus.CONFORMING

        chain = replace(chain, condition=FunctionalCondition("J", imposed_min=10.1))
        assert verify_worst_case(chain).status is ConformityStatus.NON_CONFORMING_LOW

    def test_unchecked_when_no_bounds(self, actuator_chain):
        assert verify_worst_case(replace(actuator_chain, condition=None)).status is ConformityStatus.UNCHECKED
        unbounded = replace(actuator_chain, condition=FunctionalCondition("Ja"))
        verdict = verify_worst_case(unbounded)
        assert verdict.status is ConformityStatus.UNCHECKED
        assert verdict.imposed == FunctionalCondition("Ja")

    def test_verdict_carries_computed_interval(self, actuator_chain):
        verdict = verify_worst_case(actuator_chain)
        assert verdict.computed == worst_case(actuator_chain)
        assert verdict.imposed is actuator_chain.condition


class TestSolveUnknown:
    def test_actuator_third_dimension(self, actuator_chain):
        solved = solve_unknown(actuator_chain, "a3")
        assert solved.name == "a3"
        assert solved.nominal == 4.0
        assert solved.coefficient == -1.0
        assert solved.upper_dev == pytest.approx(0.2, abs=1e-9)
        assert solved.lower_dev == pytest.approx(-0.2, abs=1e-9)
        # The available budget is the imposed IT minus the other dimensions'.
        assert solved.it == pytest.approx(1.16 - (0.5 + 0.2 + 0.06), rel=1e-9)

    def test_solution_completes_to_a_conforming_chain(self, actuator_chain):
        solved = solve_unknown(actuator_chain, "a3")
        dims = list(actuator_chain.dimensions)
        dims[2] = solved
        completed = replace(actuator_chain, dimensions=tuple(dims))
        assert verify_worst_case(completed).status is ConformityStatus.CONFORMING

        # Any real widening past the solution must break conformity.
        wider = replace(completed, dimensions=tuple(
            replace(d, upper_dev=d.upper_dev + 1e-9) if d.name == "a3" else d for d in dims
        ))
        assert verify_worst_case(wider).status is not ConformityStatus.CONFORMING

    def test_actuator_limits_are_the_widest_doubles(self, actuator_chain):
        solved = solve_unknown(actuator_chain, "a3")
        assert (solved.max_limit, solved.min_limit) == (4.200000000000004, 3.7999999999999985)
        wider = one_double_wider(actuator_chain, solved)
        assert len(wider) == 2
        for chain in wider:
            assert verify_worst_case(chain).status is not ConformityStatus.CONFORMING

    def test_decimal_overshoot_is_solved(self):
        # No input is exact in binary, and dividing the window out overshoots a bound.
        chain = ToleranceChain(
            "c",
            (
                DimensionSpec("a", 15.802, 0.1, -0.1, 1.0),
                DimensionSpec("b", 33.565, 0.05, -0.05, -1.0),
            ),
            FunctionalCondition("J", -18.06, -17.46),
        )
        solved = solve_unknown(chain, "b")
        assert solved.it == pytest.approx(0.4, abs=1e-12)
        completed = replace(chain, dimensions=(chain.dimensions[0], solved))
        assert verify_worst_case(completed).status is ConformityStatus.CONFORMING
        wider = one_double_wider(chain, solved)
        assert len(wider) == 2
        for moved in wider:
            assert verify_worst_case(moved).status is not ConformityStatus.CONFORMING

    def test_single_unknown_dimension(self):
        chain = ToleranceChain(
            "one",
            (DimensionSpec("x", 10.0, 0.0, 0.0, 1.0),),
            FunctionalCondition("J", 9.9, 10.1),
        )
        solved = solve_unknown(chain, "x")
        assert solved.upper_dev == pytest.approx(0.1)
        assert solved.lower_dev == pytest.approx(-0.1)

    def test_positive_weighted_coefficient(self):
        chain = ToleranceChain(
            "two",
            (
                DimensionSpec("a", 50.0, 0.0, 0.0, 2.0),
                DimensionSpec("b", 30.0, 0.3, -0.3, -1.0),
            ),
            FunctionalCondition("J", 69.0, 71.0),
        )
        solved = solve_unknown(chain, "a")
        assert solved.upper_dev == pytest.approx(0.35, abs=1e-12)
        assert solved.lower_dev == pytest.approx(-0.35, abs=1e-12)
        completed = replace(chain, dimensions=(solved, chain.dimensions[1]))
        assert verify_worst_case(completed).status is ConformityStatus.CONFORMING

    def test_infeasible_when_budget_exhausted(self, actuator_chain):
        tight = replace(actuator_chain, condition=FunctionalCondition("Ja", 10.0, 10.5))
        with pytest.raises(InfeasibleToleranceError, match="available IT is negative"):
            solve_unknown(tight, "a3")

    def test_unknown_name_rejected(self, actuator_chain):
        with pytest.raises(ValueError, match="no dimension named 'a4'"):
            solve_unknown(actuator_chain, "a4")

    def test_requires_both_bounds(self, actuator_chain):
        for condition in (None, FunctionalCondition("Ja", imposed_min=10.0)):
            partial = replace(actuator_chain, condition=condition)
            with pytest.raises(ValueError, match="both bounds"):
                solve_unknown(partial, "a3")

    def test_zero_budget_pins_deviations(self):
        # Condition IT exactly equal to the fixed dimensions' budget: the
        # unknown gets a zero-width zone.
        chain = ToleranceChain(
            "pinned",
            (
                DimensionSpec("a", 10.0, 0.25, -0.25, 1.0),
                DimensionSpec("b", 4.0, 0.0, 0.0, -1.0),
            ),
            FunctionalCondition("J", 5.75, 6.25),
        )
        solved = solve_unknown(chain, "b")
        assert solved.it == pytest.approx(0.0, abs=1e-12)
