"""Chain model: construction invariants, document parsing, serialization."""

import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tolchain.model import MAX_COUNT, SAMPLING_RULES, check

from conftest import ACTUATOR_DOC
from strategies import chains


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

    def test_numpy_integers_and_other_reals_become_floats(self):
        d = DimensionSpec("x", np.int64(10), np.float32(0.5), np.uint8(0), Fraction(-1))
        assert d == DimensionSpec("x", 10.0, 0.5, 0.0, -1.0)
        assert {type(v) for v in (d.nominal, d.upper_dev, d.lower_dev, d.coefficient)} == {float}
        assert FunctionalCondition("J", np.int32(-1), np.int16(2)) == FunctionalCondition("J", -1.0, 2.0)
        with pytest.raises(ChainValidationError, match="^dimension 'x': nominal must be a real number, got "):
            DimensionSpec("x", np.bool_(True), 0.5, 0.0, 1.0)  # not a numbers.Real, unlike a numpy integer
        message = "dimension 'x': nominal must be finite, got a number of 1328 bits"
        with pytest.raises(ChainValidationError, match=f"^{message}$"):
            DimensionSpec("x", Fraction(10**400, 3), 0.5, 0.0, 1.0)

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

    @pytest.mark.parametrize(
        "value, bits", [(10**400, 1329), (-(2**1024), 1025), (10**5000, 16610)], ids=["1e400", "-2**1024", "1e5000"]
    )
    def test_integers_beyond_a_double_are_named_not_printed(self, value, bits):
        # repr of an int past 4300 digits raises, so the message gives its size
        message = f"dimension 'a': nominal must be finite, got an integer of {bits} bits"
        with pytest.raises(ChainValidationError, match=f"^{message}$"):
            DimensionSpec("a", value, 0.1, 0.0, 1.0)
        with pytest.raises(ChainValidationError, match="^condition 'J': imposed_max must be finite, got an integer"):
            FunctionalCondition("J", None, value)

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
        message = r"^condition 'J': imposed_min \(2\.0\) must not exceed imposed_max \(1\.0\)$"
        with pytest.raises(ChainValidationError, match=message):
            FunctionalCondition("J", 2.0, 1.0)
        # A lone bound faces an infinite absent side, so no value crosses it.
        assert FunctionalCondition("J", imposed_min=5.0).bounds == (5.0, math.inf)
        assert FunctionalCondition("J", imposed_max=-5.0).bounds == (-math.inf, -5.0)

    def test_equal_bounds_allowed(self):
        c = FunctionalCondition("J", 1.5, 1.5)
        assert c.imposed_min == c.imposed_max == 1.5

    def test_bounds_read_an_absent_side_as_infinite(self):
        assert FunctionalCondition("J", 1.0, 2.0).bounds == (1.0, 2.0)
        assert FunctionalCondition("J", imposed_min=1.0).bounds == (1.0, math.inf)
        assert FunctionalCondition("J", imposed_max=2.0).bounds == (-math.inf, 2.0)
        assert FunctionalCondition("J").bounds == (-math.inf, math.inf)


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

    def test_element_that_is_not_a_dimension_rejected(self):
        with pytest.raises(ChainValidationError, match=r"^chain 'c': \('a', 1.0\) is not a DimensionSpec$"):
            ToleranceChain("c", (DimensionSpec("b", 1.0, 0.1, -0.1, 1.0), ("a", 1.0)))

    def test_condition_that_is_not_a_functional_condition_rejected(self):
        with pytest.raises(ChainValidationError, match="^chain 'c': condition must be a FunctionalCondition$"):
            ToleranceChain("c", (DimensionSpec("a", 1.0, 0.1, -0.1, 1.0),), ("J", 0.0, 2.0))

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


class TestParameterRules:
    @pytest.mark.parametrize(
        "name, value, message",
        [("coverage_sigmas", 10**400, "coverage_sigmas must be finite and > 0, got an integer of 1329 bits"),
         ("target_scrap", -(2**1024), "target_scrap must lie in (0, 1), got an integer of 1025 bits"),
         ("adjustment_factor", Fraction(10**400, 3), "adjustment_factor must lie in (0, 1), got a number of 1328 bits"),
         ("seed", 10**5000, "seed must be an unsigned 64-bit integer, got an integer of 16610 bits"),
         ("samples", -(10**400), f"sample count must lie in [1, {MAX_COUNT}], got an integer of 1329 bits")],
        ids=["coverage-1e400", "target-scrap--2**1024", "adjustment-factor-fraction", "seed-1e5000", "samples--1e400"],
    )
    def test_a_number_beyond_a_double_is_named_by_its_length(self, name, value, message):
        # Not passed as finite, and not printed: past 4300 digits an integer's repr raises.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(name, value)

    @pytest.mark.parametrize("name", SAMPLING_RULES)
    def test_every_rule_names_its_parameter_beyond_a_double(self, name):
        # -10**400 breaks every rule; 10**400 is a worker or iteration count their rules admit.
        subject = re.escape(SAMPLING_RULES[name][2].split(" must ")[0])
        with pytest.raises(ValueError, match=f"^--flag: {subject} must .*, got an integer of 1329 bits$"):
            check(name, -(10**400), "--flag: ")

    @pytest.mark.parametrize("name", ["workers", "max_iterations"])
    def test_a_count_beyond_a_double_that_its_rule_admits_passes(self, name):
        check(name, 10**400)
        check(name, 10**5000)

    def test_max_count_is_the_longest_array_numpy_can_address(self):
        assert MAX_COUNT == sys.maxsize // 8
        with pytest.raises(ValueError, match="array is too big"):  # refused before anything is allocated
            np.empty(MAX_COUNT + 1)
        check("samples", MAX_COUNT)
        check("bins", MAX_COUNT - 1)  # its histogram has MAX_COUNT edges
        with pytest.raises(ValueError, match=rf"^bin count must lie in \[1, {MAX_COUNT - 1}\], got {MAX_COUNT}$"):
            check("bins", MAX_COUNT)


def test_conformity_status_values_are_stable():
    assert ConformityStatus.CONFORMING.value == "Conforming"
    assert ConformityStatus.NON_CONFORMING_LOW.value == "NonConformingLow"
    assert ConformityStatus.NON_CONFORMING_HIGH.value == "NonConformingHigh"
    assert ConformityStatus.NON_CONFORMING_BOTH.value == "NonConformingBoth"
    assert ConformityStatus.UNCHECKED.value == "Unchecked"


DROP = object()  # with_value deletes the key instead of setting it


def with_value(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path`` (a tuple of keys and indices), or that key dropped."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


_NUMBER_KEYS = ("nominal", "upper_dev", "lower_dev", "coefficient")
_JSON_TYPE_NAMES = ((None, "NoneType"), (True, "bool"), ("1.0", "str"), ([], "list"), ({}, "dict"))

# Every ChainSyntaxError of the document shape, with its full message: for the
# document, a dimension and the condition, an object of the wrong type, an
# unknown key, a missing key, each key wrongly typed and a bool as a number.
SHAPE_FAULTS = [
    ((), [1, 2], "document must be a JSON object, got list"),
    ((), None, "document must be a JSON object, got NoneType"),
    ((), "chain", "document must be a JSON object, got str"),
    (("extra",), 1, "document: unknown key(s) ['extra']"),
    (("name",), DROP, "document: missing key(s) ['name']"),
    (("dimensions",), DROP, "document: missing key(s) ['dimensions']"),
    (("name",), 42, "document: 'name' must be a string, got int"),
    (("name",), True, "document: 'name' must be a string, got bool"),
    (("name",), ["a"], "document: 'name' must be a string, got list"),
    (("dimensions",), {}, "document: 'dimensions' must be an array, got dict"),
    (("dimensions",), True, "document: 'dimensions' must be an array, got bool"),
    (("dimensions",), "a1", "document: 'dimensions' must be an array, got str"),
    (("dimensions",), None, "document: 'dimensions' must be an array, got NoneType"),
    (("condition",), None, "condition must be a JSON object, got NoneType"),
    (("condition",), [], "condition must be a JSON object, got list"),
    (("condition",), True, "condition must be a JSON object, got bool"),
    (("condition",), 10.0, "condition must be a JSON object, got float"),
    (("dimensions", 1), 7, "dimensions[1] must be a JSON object, got int"),
    (("dimensions", 0), [], "dimensions[0] must be a JSON object, got list"),
    (("dimensions", 3), None, "dimensions[3] must be a JSON object, got NoneType"),
    (("dimensions", 1, "surprise"), 0, "dimensions[1]: unknown key(s) ['surprise']"),
    (("dimensions", 0), {"name": "a1", "zz": 1, "aa": 2}, "dimensions[0]: unknown key(s) ['aa', 'zz']"),
    (("dimensions", 0), {"name": "a1"},
     "dimensions[0]: missing key(s) ['coefficient', 'lower_dev', 'nominal', 'upper_dev']"),
    *[(("dimensions", 2, key), DROP, f"dimensions[2]: missing key(s) ['{key}']") for key in ("name", *_NUMBER_KEYS)],
    (("dimensions", 0, "name"), 7, "dimensions[0]: 'name' must be a string, got int"),
    (("dimensions", 0, "name"), True, "dimensions[0]: 'name' must be a string, got bool"),
    (("dimensions", 0, "name"), None, "dimensions[0]: 'name' must be a string, got NoneType"),
    *[
        (("dimensions", 1, key), value, f"dimensions[1]: '{key}' must be a number, got {type_name}")
        for key in _NUMBER_KEYS
        for value, type_name in _JSON_TYPE_NAMES
    ],
    (("dimensions", 0, "coefficient"), False, "dimensions[0]: 'coefficient' must be a number, got bool"),
    (("condition", "limit"), 1, "condition: unknown key(s) ['limit']"),
    (("condition",), {"name": "Ja", "min": 1.0, "lo": 1, "hi": 2}, "condition: unknown key(s) ['hi', 'lo']"),
    (("condition", "name"), DROP, "condition: missing key(s) ['name']"),
    (("condition", "name"), 5, "condition: 'name' must be a string, got int"),
    (("condition", "name"), False, "condition: 'name' must be a string, got bool"),
    *[
        (("condition", key), value, f"condition: '{key}' must be a number, got {type_name}")
        for key in ("min", "max")
        for value, type_name in _JSON_TYPE_NAMES
    ],
]


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

    @pytest.mark.parametrize("path, value, message", SHAPE_FAULTS, ids=[m for _, _, m in SHAPE_FAULTS])
    def test_shape_error_messages_in_full(self, path, value, message):
        with pytest.raises(ChainSyntaxError) as excinfo:
            parse_chain(json.dumps(with_value(ACTUATOR_DOC, path, value)))
        assert str(excinfo.value) == message

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

    @pytest.mark.parametrize(
        "old, field", [('"nominal": 25.3', "dimension 'a1': nominal"), ('"min": 10.0', "condition 'Ja': imposed_min"),
                       ('"max": 11.16', "condition 'Ja': imposed_max")],
        ids=["nominal", "min", "max"],
    )
    def test_integers_beyond_a_double_are_validation_errors(self, old, field):
        text = json.dumps(ACTUATOR_DOC).replace(old, old.split(":")[0] + ": -1" + "0" * 400)
        with pytest.raises(ChainValidationError, match=rf"^{field} must be finite, got an integer of 1329 bits$"):
            parse_chain(text)

    @pytest.mark.parametrize(
        "text, reason",
        [("[" * 100_000, "maximum recursion depth exceeded"),
         (json.dumps(ACTUATOR_DOC).replace("25.3", "1" * 5000), "Exceeds the limit (4300 digits)")],
        ids=["nesting", "digits"],
    )
    def test_decoder_failures_are_invalid_json(self, text, reason):
        with pytest.raises(ChainSyntaxError) as excinfo:
            parse_chain(text)
        assert str(excinfo.value).startswith(f"invalid JSON: {reason}")

    def test_utf8_bytes_parse_as_their_text(self, actuator_text):
        assert parse_chain(actuator_text.encode("utf-8")) == parse_chain(actuator_text)

    @pytest.mark.parametrize(
        "raw, position",
        [(b'{"name": "\xff"}', 10), ('{"name": "c"}'.encode("utf-16"), 0), ('{"name": "c"}'.encode("utf-32"), 0)],
        ids=["latin-1", "utf-16", "utf-32"],
    )
    def test_bytes_that_are_not_utf8_are_invalid_json(self, raw, position):
        message = f"invalid JSON: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"
        with pytest.raises(ChainSyntaxError, match=f"^{message}$"):
            parse_chain(raw)

    def test_duplicate_keys_rejected(self):
        text = '{"name": "c", "name": "d", "dimensions": []}'
        with pytest.raises(ChainSyntaxError, match="duplicate key"):
            parse_chain(text)

    @pytest.mark.parametrize(
        "text, message",
        [('{"name": "c", "name": "d"}', "duplicate key 'name' in document"),
         ('{"name": -Infinity}', "non-finite number '-Infinity' is not permitted")],
        ids=["duplicate-key", "non-finite"],
    )
    def test_decoder_hooks_keep_their_messages(self, text, message):
        with pytest.raises(ChainSyntaxError) as excinfo:
            parse_chain(text)
        assert str(excinfo.value) == message

    def test_duplicate_dimension_names_fail_validation(self):
        doc = json.loads(json.dumps(ACTUATOR_DOC))
        doc["dimensions"][1]["name"] = "a1"
        with pytest.raises(ChainValidationError, match="more than once"):
            parse_chain(json.dumps(doc))


def document_paths(doc, path=()):
    """Every key path of a document, the root included, and one unknown key under each object."""
    yield path
    if isinstance(doc, dict):
        yield (*path, "extra")
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for step, child in children:
        yield from document_paths(child, (*path, step))


BEYOND_A_DOUBLE = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | BEYOND_A_DOUBLE | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(chains(max_dims=3, condition="sometimes"), st.data())
def test_any_value_at_any_key_is_a_chain_or_a_chain_error(chain, data):
    doc = json.loads(serialize_chain(chain))
    path = data.draw(st.sampled_from(list(document_paths(doc))))
    value = data.draw(JSON_VALUES if not path or path[-1] == "extra" else st.just(DROP) | JSON_VALUES)
    try:
        parse_chain(json.dumps(with_value(doc, path, value)))
    except (ChainSyntaxError, ChainValidationError):
        pass


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
