"""Chain model: construction invariants, document parsing, serialization."""

import json
import math

import pytest

from tolchain import (
    ChainSyntaxError,
    ChainValidationError,
    ConformityStatus,
    DimensionSpec,
    FunctionalCondition,
    IntervalResult,
    ToleranceChain,
    parse_chain,
    serialize_chain,
)

from conftest import ACTUATOR_DOC


class TestDimensionSpec:
    def test_limits_and_zone(self):
        d = DimensionSpec("a2", 9.0, 0.1, -0.1, -1.0)
        assert d.min_limit == pytest.approx(8.9)
        assert d.max_limit == pytest.approx(9.1)
        assert d.min_limit <= d.max_limit
        assert d.midpoint == 9.0
        assert d.it == d.upper_dev - d.lower_dev

    def test_integer_inputs_become_floats(self):
        d = DimensionSpec("x", 10, 1, 0, 1)
        assert isinstance(d.nominal, float)
        assert isinstance(d.coefficient, float)
        assert d == DimensionSpec("x", 10.0, 1.0, 0.0, 1.0)

    def test_inverted_deviations_rejected(self):
        with pytest.raises(ChainValidationError, match="'bad'.*lower_dev"):
            DimensionSpec("bad", 1.0, 0.0, 0.1, 1.0)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ChainValidationError, match="coefficient must be nonzero"):
            DimensionSpec("a", 1.0, 0.1, -0.1, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ChainValidationError, match="finite"):
            DimensionSpec("a", value, 0.1, -0.1, 1.0)

    def test_blank_name_rejected(self):
        with pytest.raises(ChainValidationError):
            DimensionSpec("", 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ChainValidationError):
            DimensionSpec(" padded ", 1.0, 0.0, 0.0, 1.0)

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ChainValidationError, match="real number"):
            DimensionSpec("a", "25.3", 0.0, 0.0, 1.0)
        with pytest.raises(ChainValidationError, match="real number"):
            DimensionSpec("a", True, 0.0, 0.0, 1.0)


def test_it_of_matches_quoted_tolerances():
    assert DimensionSpec("a1", 25.3, 0.5, 0.0, 1.0).it == 0.5
    assert DimensionSpec("a7", 2.0, 0.0, -0.06, -1.0).it == 0.06
    assert DimensionSpec("z", 10.0, 0.0, 0.0, 1.0).it == 0.0


class TestFunctionalCondition:
    def test_bounds_optional(self):
        assert FunctionalCondition("J").is_bounded is False
        assert FunctionalCondition("J", imposed_min=1.0).is_bounded is True
        assert FunctionalCondition("J", imposed_max=1.0).is_bounded is True

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ChainValidationError, match="imposed_min"):
            FunctionalCondition("J", 2.0, 1.0)

    def test_equal_bounds_allowed(self):
        c = FunctionalCondition("J", 1.5, 1.5)
        assert c.imposed_min == c.imposed_max == 1.5


class TestToleranceChain:
    def test_requires_a_dimension(self):
        with pytest.raises(ChainValidationError, match="at least one"):
            ToleranceChain("empty", ())

    def test_duplicate_names_rejected(self):
        dims = (
            DimensionSpec("a", 1.0, 0.1, -0.1, 1.0),
            DimensionSpec("a", 2.0, 0.1, -0.1, 1.0),
        )
        with pytest.raises(ChainValidationError, match="more than once"):
            ToleranceChain("dup", dims)

    def test_dimension_lookup(self):
        dims = (DimensionSpec("a", 1.0, 0.0, 0.0, 1.0), DimensionSpec("b", 2.0, 0.0, 0.0, 1.0))
        chain = ToleranceChain("c", dims)
        assert chain.index_of("b") == 1
        assert chain.dimension("a") is dims[0]
        with pytest.raises(ValueError, match="no dimension named 'zz'"):
            chain.index_of("zz")

    def test_dimensions_normalized_to_tuple(self):
        chain = ToleranceChain("c", [DimensionSpec("a", 1.0, 0.0, 0.0, 1.0)])
        assert isinstance(chain.dimensions, tuple)


class TestIntervalResult:
    def test_ordering_enforced(self):
        with pytest.raises(ChainValidationError):
            IntervalResult(2.0, 1.0, 1.0)

    def test_negative_it_rejected(self):
        with pytest.raises(ChainValidationError):
            IntervalResult(0.0, 1.0, -0.5)

    def test_degenerate_ok(self):
        r = IntervalResult(3.0, 3.0, 0.0)
        assert r.min == r.max == 3.0


def test_conformity_status_values_are_stable():
    assert ConformityStatus.CONFORMING.value == "Conforming"
    assert ConformityStatus.NON_CONFORMING_LOW.value == "NonConformingLow"
    assert ConformityStatus.NON_CONFORMING_HIGH.value == "NonConformingHigh"
    assert ConformityStatus.NON_CONFORMING_BOTH.value == "NonConformingBoth"
    assert ConformityStatus.UNCHECKED.value == "Unchecked"


class TestParseChain:
    def test_actuator_document(self, actuator_text):
        chain = parse_chain(actuator_text)
        assert chain.name == "actuator-clamping"
        assert [d.name for d in chain.dimensions] == ["a1", "a2", "a3", "a7"]
        assert [d.coefficient for d in chain.dimensions] == [1.0, -1.0, -1.0, -1.0]
        assert chain.condition == FunctionalCondition("Ja", 10.0, 11.16)

    def test_single_dimension_without_condition(self):
        text = json.dumps(
            {
                "name": "one",
                "dimensions": [
                    {"name": "x", "nominal": 10.0, "upper_dev": 0.0, "lower_dev": 0.0, "coefficient": 1.0}
                ],
            }
        )
        chain = parse_chain(text)
        assert chain.condition is None
        assert chain.dimensions[0].it == 0.0

    def test_partial_condition_bounds(self):
        doc = dict(ACTUATOR_DOC, condition={"name": "Ja", "min": 10.0})
        chain = parse_chain(json.dumps(doc))
        assert chain.condition.imposed_min == 10.0
        assert chain.condition.imposed_max is None

        doc = dict(ACTUATOR_DOC, condition={"name": "Ja"})
        assert parse_chain(json.dumps(doc)).condition.is_bounded is False

    def test_validation_error_names_dimension_and_invariant(self):
        doc = {
            "name": "c",
            "dimensions": [
                {"name": "a9", "nominal": 1.0, "upper_dev": -0.2, "lower_dev": 0.1, "coefficient": 1.0}
            ],
        }
        with pytest.raises(ChainValidationError, match="'a9'.*lower_dev.*upper_dev"):
            parse_chain(json.dumps(doc))

    def test_malformed_json_is_a_syntax_error(self):
        with pytest.raises(ChainSyntaxError, match="invalid JSON"):
            parse_chain("{not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ChainSyntaxError, match="document must be a JSON object"):
            parse_chain("[1, 2]")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(extra=1), "unknown key"),
            (lambda d: d.pop("dimensions"), "missing key"),
            (lambda d: d.update(dimensions={}), "must be an array"),
            (lambda d: d.update(name=42), "must be a string"),
        ],
    )
    def test_document_shape_errors(self, mutate, message):
        doc = json.loads(json.dumps(ACTUATOR_DOC))
        mutate(doc)
        with pytest.raises(ChainSyntaxError, match=message):
            parse_chain(json.dumps(doc))

    def test_dimension_shape_errors(self):
        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["dimensions"][1]["surprise"] = 0
        with pytest.raises(ChainSyntaxError, match=r"dimensions\[1\].*unknown key"):
            parse_chain(json.dumps(doc))

        doc = json.loads(json.dumps(ACTUATOR_DOC))
        del doc["dimensions"][2]["nominal"]
        with pytest.raises(ChainSyntaxError, match=r"dimensions\[2\].*missing key"):
            parse_chain(json.dumps(doc))

        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["dimensions"][0]["nominal"] = "25.3"
        with pytest.raises(ChainSyntaxError, match="must be a number"):
            parse_chain(json.dumps(doc))

        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["dimensions"][0]["nominal"] = True
        with pytest.raises(ChainSyntaxError, match="must be a number"):
            parse_chain(json.dumps(doc))

    def test_condition_shape_errors(self):
        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["condition"]["limit"] = 1
        with pytest.raises(ChainSyntaxError, match="condition.*unknown key"):
            parse_chain(json.dumps(doc))

        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["condition"]["min"] = None
        with pytest.raises(ChainSyntaxError, match="must be a number"):
            parse_chain(json.dumps(doc))

        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["condition"] = None
        with pytest.raises(ChainSyntaxError, match="condition must be a JSON object"):
            parse_chain(json.dumps(doc))

    def test_non_finite_numbers_rejected(self):
        text = (
            '{"name": "c", "dimensions": [{"name": "a", "nominal": NaN, '
            '"upper_dev": 0.0, "lower_dev": 0.0, "coefficient": 1.0}]}'
        )
        with pytest.raises(ChainSyntaxError, match="non-finite"):
            parse_chain(text)

        # A decimal literal too large for a double overflows to infinity and
        # must be caught by validation even though it is syntactically a number.
        text = text.replace("NaN", "1e999")
        with pytest.raises(ChainValidationError, match="finite"):
            parse_chain(text)

    def test_duplicate_keys_rejected(self):
        text = '{"name": "c", "name": "d", "dimensions": []}'
        with pytest.raises(ChainSyntaxError, match="duplicate key"):
            parse_chain(text)

    def test_duplicate_dimension_names_fail_validation(self):
        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["dimensions"][1]["name"] = "a1"
        with pytest.raises(ChainValidationError, match="more than once"):
            parse_chain(json.dumps(doc))


class TestSerializeChain:
    def test_round_trip_is_field_for_field_identical(self, actuator_chain):
        assert parse_chain(serialize_chain(actuator_chain)) == actuator_chain

    def test_round_trip_without_condition(self):
        chain = ToleranceChain("c", (DimensionSpec("a", 1.25, 0.5, -0.25, -2.5),))
        assert parse_chain(serialize_chain(chain)) == chain

    def test_output_is_strict_document(self, actuator_chain):
        text = serialize_chain(actuator_chain)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"name", "dimensions", "condition"}
        assert set(doc["dimensions"][0]) == {"name", "nominal", "upper_dev", "lower_dev", "coefficient"}

    def test_absent_bounds_are_omitted(self):
        chain = ToleranceChain(
            "c", (DimensionSpec("a", 1.0, 0.0, 0.0, 1.0),), FunctionalCondition("J", imposed_max=2.0)
        )
        doc = json.loads(serialize_chain(chain))
        assert set(doc["condition"]) == {"name", "max"}
