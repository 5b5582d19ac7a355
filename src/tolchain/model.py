"""Data model for 1D dimensional tolerance chains.

A chain is an ordered list of toleranced dimensions, each carrying a signed
coefficient that gives its direction in the stack. The signed sum of the
dimensions is the functional condition the assembly must hold; an optional
pair of imposed bounds on that condition drives conformity checks and
tolerance synthesis.

Deviations are stored signed relative to the nominal, so a dimension quoted
as ``9 +/-0.1`` has ``upper_dev=0.1, lower_dev=-0.1`` and one quoted as
``2 +0/-0.06`` has ``upper_dev=0.0, lower_dev=-0.06``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "ChainSyntaxError",
    "ChainValidationError",
    "ConformityStatus",
    "ConformityVerdict",
    "DimensionSpec",
    "FunctionalCondition",
    "IntervalResult",
    "ToleranceChain",
    "chain_document",
    "parse_chain",
    "respecify",
    "serialize_chain",
]


class ChainSyntaxError(ValueError):
    """A chain-definition document is malformed (wrong JSON shape or types)."""


class ChainValidationError(ValueError):
    """A chain, condition, or dimension violates a model invariant."""


def as_real(value: Any, what: str, valid: Callable[[Any], bool] = math.isfinite, rule: str = "must be finite, got {!r}",
            integral: bool = False, error: type[ValueError] = ValueError) -> float:
    """``float(value)``, once ``value`` is a real number but not a bool, lies within a double's range and is
    ``valid``; where ``integral``, ``value`` itself, once it is an integer and ``valid`` at any length. Else raises
    ``error``: ``what``, then the type wanted or ``rule``, which for a value beyond the range gives its bit length
    in place of the value."""
    kind, wanted = (numbers.Integral, "an integer") if integral else (numbers.Real, "a real number")
    if isinstance(value, bool) or not isinstance(value, kind):  # numpy's integers and floats pass
        raise error(f"{what} must be {wanted}, got {value!r}")
    if integral and valid(value):  # a count is compared exactly, at any length
        return value
    try:
        number = float(value)
    except OverflowError:  # named by its length: past 4300 digits an integer is too long to print
        kind = "an integer" if isinstance(value, numbers.Integral) else "a number"
        raise error(f"{what} {rule.rpartition(', got ')[0]}, got {kind} of {int(value).bit_length()} bits") from None
    if integral or not valid(number):
        raise error(f"{what} {rule.format(value)}")
    return number


def _checked_name(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value or value.strip() != value:
        raise ChainValidationError(
            f"{what} must be a non-empty name without surrounding whitespace, got {value!r}"
        )
    return value


# Seeds key the Philox streams of the Monte Carlo layer, one 64-bit word each.
MAX_SEED = 2**64


def usable_cores() -> int:
    """The cores this process may run on: the default worker count and the cap of the synthesis count's threads."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# The longest float64 array numpy can address (its size in bytes fits a signed word): the most samples or bin edges.
MAX_COUNT = sys.maxsize // 8

# Each sampling and synthesis parameter's default (None where a caller must give one), what it must satisfy, and
# the error's text for a value that does not, quoted with str for the sample, worker and bin counts, else with repr.
# A parameter whose default is an int takes only integers, any other only real numbers: numpy's pass, a bool does not.
# Keyed by its RunConfig or SynthesisConfig field; every default and check of these parameters reads it.
SAMPLING_RULES: dict[str, tuple[Any, Callable[[Any], bool], str]] = {
    "samples": (100_000, lambda n: 1 <= n <= MAX_COUNT, f"sample count must lie in [1, {MAX_COUNT}], got {{}}"),
    "seed": (1, lambda seed: 0 <= seed < MAX_SEED, "seed must be an unsigned 64-bit integer, got {!r}"),
    "workers": (usable_cores(), lambda workers: workers >= 1, "workers must be >= 1, got {}"),
    "coverage_sigmas": (3.0, lambda c: 0.0 < c < math.inf, "coverage_sigmas must be finite and > 0, got {!r}"),
    "bins": (50, lambda bins: 1 <= bins < MAX_COUNT, f"bin count must lie in [1, {MAX_COUNT - 1}], got {{}}"),
    "target_scrap": (None, lambda p: 0.0 < p < 1.0, "target_scrap must lie in (0, 1), got {!r}"),
    "max_iterations": (50, lambda n: n >= 1, "max_iterations must be >= 1, got {!r}"),
    "adjustment_factor": (0.1, lambda f: 0.0 < f < 1.0, "adjustment_factor must lie in (0, 1), got {!r}"),
    "tolerance_band": (0.25, lambda b: 0.0 <= b < math.inf, "tolerance_band must be finite and >= 0, got {!r}"),
}
DEFAULTS = {name: default for name, (default, _, _) in SAMPLING_RULES.items()}


def check(name: str, value: Any, prefix: str = "") -> None:
    """Raise ``ValueError``, its message led by ``prefix``, unless ``value`` meets the rule of parameter ``name``."""
    default, valid, message = SAMPLING_RULES[name]
    subject, _, rule = message.partition(" must ")
    as_real(value, prefix + subject, valid, "must " + rule, isinstance(default, int))


@dataclass(frozen=True)
class DimensionSpec:
    """One toleranced dimension of a chain.

    ``nominal`` is the drawing value, ``upper_dev``/``lower_dev`` are signed
    deviations from it, and ``coefficient`` is the dimension's signed weight
    in the stack (+1 for increasing contributors, -1 for decreasing; other
    nonzero reals are allowed for lever-arm chains).
    """

    name: str
    nominal: float
    upper_dev: float
    lower_dev: float
    coefficient: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _checked_name(self.name, "dimension name"))
        for field_name in ("nominal", "upper_dev", "lower_dev", "coefficient"):
            what = f"dimension {self.name!r}: {field_name}"
            object.__setattr__(self, field_name, as_real(getattr(self, field_name), what, error=ChainValidationError))
        if self.lower_dev > self.upper_dev:
            raise ChainValidationError(
                f"dimension {self.name!r}: lower_dev ({self.lower_dev!r}) must not exceed "
                f"upper_dev ({self.upper_dev!r})"
            )
        if self.coefficient == 0.0:
            raise ChainValidationError(f"dimension {self.name!r}: coefficient must be nonzero")

    @property
    def min_limit(self) -> float:
        """Smallest acceptable realization, ``nominal + lower_dev``."""
        return self.nominal + self.lower_dev

    @property
    def max_limit(self) -> float:
        """Largest acceptable realization, ``nominal + upper_dev``."""
        return self.nominal + self.upper_dev

    @property
    def it(self) -> float:
        """Width of the tolerance zone, ``upper_dev - lower_dev``."""
        return self.upper_dev - self.lower_dev

    @property
    def midpoint(self) -> float:
        """Center of the tolerance zone, ``nominal + (upper_dev + lower_dev)/2``."""
        return self.nominal + (self.upper_dev + self.lower_dev) / 2.0


@dataclass(frozen=True)
class FunctionalCondition:
    """Named bounds imposed on the chain's resultant dimension.

    Either bound may be absent; a condition with no bounds is legal and makes
    conformity checks report ``Unchecked``.
    """

    name: str
    imposed_min: float | None = None
    imposed_max: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _checked_name(self.name, "condition name"))
        for field_name in ("imposed_min", "imposed_max"):
            value = getattr(self, field_name)
            if value is not None:
                what = f"condition {self.name!r}: {field_name}"
                object.__setattr__(self, field_name, as_real(value, what, error=ChainValidationError))
        if self.bounds[0] > self.bounds[1]:
            raise ChainValidationError(
                f"condition {self.name!r}: imposed_min ({self.imposed_min!r}) must not exceed "
                f"imposed_max ({self.imposed_max!r})"
            )

    @property
    def is_bounded(self) -> bool:
        """True when at least one bound is present."""
        return self.imposed_min is not None or self.imposed_max is not None

    @property
    def bounds(self) -> tuple[float, float]:
        """``(imposed_min, imposed_max)``, an absent one as -inf or +inf, which no value lies strictly beyond."""
        return (-math.inf if self.imposed_min is None else self.imposed_min,
                math.inf if self.imposed_max is None else self.imposed_max)


@dataclass(frozen=True)
class ToleranceChain:
    """An ordered, validated set of dimensions plus an optional imposed condition."""

    name: str
    dimensions: tuple[DimensionSpec, ...]
    condition: FunctionalCondition | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _checked_name(self.name, "chain name"))
        dims = tuple(self.dimensions)
        object.__setattr__(self, "dimensions", dims)
        if not dims:
            raise ChainValidationError(f"chain {self.name!r}: must contain at least one dimension")
        for d in dims:
            if not isinstance(d, DimensionSpec):
                raise ChainValidationError(f"chain {self.name!r}: {d!r} is not a DimensionSpec")
        seen: set[str] = set()
        for d in dims:
            if d.name in seen:
                raise ChainValidationError(
                    f"chain {self.name!r}: dimension name {d.name!r} appears more than once"
                )
            seen.add(d.name)
        if self.condition is not None and not isinstance(self.condition, FunctionalCondition):
            raise ChainValidationError(f"chain {self.name!r}: condition must be a FunctionalCondition")

    @property
    def fc_name(self) -> str:
        """The name of the condition's samples: the condition's own, or ``"fc"`` for a chain without one."""
        return self.condition.name if self.condition is not None else "fc"

    def index_of(self, name: str) -> int:
        """Position of the named dimension, raising ``ValueError`` when absent."""
        for i, d in enumerate(self.dimensions):
            if d.name == name:
                return i
        raise ValueError(f"no dimension named {name!r} in chain {self.name!r}")

    def dimension(self, name: str) -> DimensionSpec:
        return self.dimensions[self.index_of(name)]


def _samples_header(dimensions: Iterable[str], fc_name: str) -> str:
    """The samples CSV's header line, or the ``ValueError`` of ``samples_csv`` if it would repeat a column name."""
    names = ["index", *dimensions, fc_name]
    # The dimension names differ, so only the index's or the condition's name can repeat.
    for name in ("index", fc_name):
        if names.count(name) > 1:
            raise ValueError(f"the samples CSV would repeat the column {name!r}; rename the dimension or condition")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(names)
    return header.getvalue()


def respecify(
    chain: ToleranceChain, name: str, new_upper: float, new_lower: float
) -> ToleranceChain:
    """Copy of the chain with one dimension's deviations replaced.

    The original chain is untouched. Raises ``ValueError`` for an unknown
    name and ``ChainValidationError`` when the new deviations are invalid.
    """
    index = chain.index_of(name)
    dims = list(chain.dimensions)
    dims[index] = replace(dims[index], upper_dev=new_upper, lower_dev=new_lower)
    return replace(chain, dimensions=tuple(dims))


@dataclass(frozen=True)
class IntervalResult:
    """A computed [min, max] together with its tolerance interval."""

    min: float
    max: float
    it: float

    def __post_init__(self) -> None:
        for field_name in ("min", "max", "it"):
            value = as_real(getattr(self, field_name), f"interval {field_name}", error=ChainValidationError)
            object.__setattr__(self, field_name, value)
        if self.min > self.max:
            raise ChainValidationError(f"interval min ({self.min!r}) must not exceed max ({self.max!r})")
        if self.it < 0.0:
            raise ChainValidationError(f"interval it must be non-negative, got {self.it!r}")


class ConformityStatus(str, Enum):
    CONFORMING = "Conforming"
    NON_CONFORMING_LOW = "NonConformingLow"
    NON_CONFORMING_HIGH = "NonConformingHigh"
    NON_CONFORMING_BOTH = "NonConformingBoth"
    UNCHECKED = "Unchecked"


@dataclass(frozen=True)
class ConformityVerdict:
    """Outcome of checking a computed interval against imposed bounds."""

    status: ConformityStatus
    computed: IntervalResult
    imposed: FunctionalCondition | None


# --- chain-definition documents ---------------------------------------------

# The keys of each document object and the JSON type of each value; a key
# ending in "?" is optional. The condition is checked as its own object after
# the dimensions are built, so the document declares it as any value.
_DOCUMENT = {"name": str, "dimensions": list, "condition?": object}
_DIMENSION = {"name": str, "nominal": float, "upper_dev": float, "lower_dev": float, "coefficient": float}
_CONDITION = {"name": str, "min?": float, "max?": float}

# The decoded Python types of each declared JSON type, matched exactly so that
# a bool is not a number, and the name an error gives the type.
_JSON_TYPES = {str: ({str}, "a string"), list: ({list}, "an array"), float: ({int, float}, "a number")}


def _reject_duplicates(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ChainSyntaxError(f"duplicate key {key!r} in document")
        out[key] = value
    return out


def _reject_constant(text: str) -> float:
    raise ChainSyntaxError(f"non-finite number {text!r} is not permitted")


def _checked(obj: Any, where: str, table: Mapping[str, type]) -> dict[str, Any]:
    """``obj`` once it is a JSON object with the table's keys and value types, else a ChainSyntaxError."""
    if not isinstance(obj, dict):
        raise ChainSyntaxError(f"{where} must be a JSON object, got {type(obj).__name__}")
    types = {key.rstrip("?"): kind for key, kind in table.items()}
    unknown = sorted(obj.keys() - types.keys())
    if unknown:
        raise ChainSyntaxError(f"{where}: unknown key(s) {unknown}")
    missing = sorted(key for key in table if not key.endswith("?") and key not in obj)
    if missing:
        raise ChainSyntaxError(f"{where}: missing key(s) {missing}")
    for key, kind in types.items():
        if key in obj and kind is not object:
            decoded, type_name = _JSON_TYPES[kind]
            if type(obj[key]) not in decoded:
                raise ChainSyntaxError(f"{where}: {key!r} must be {type_name}, got {type(obj[key]).__name__}")
    return obj


def parse_chain(text: str | bytes) -> ToleranceChain:
    """Parse and validate a chain-definition document, given as text or as its UTF-8 bytes.

    The document is a strict UTF-8 JSON object::

        {
          "name": "<chain id>",
          "dimensions": [
            {"name": "a1", "nominal": 25.3, "upper_dev": 0.5,
             "lower_dev": 0.0, "coefficient": 1.0},
            ...
          ],
          "condition": {"name": "Ja", "min": 10.0, "max": 11.16}
        }

    ``condition`` is optional, as are its ``min``/``max`` bounds. Unknown or
    duplicate keys are rejected, as are non-finite numbers and numbers beyond
    a double's range. Bytes that are not UTF-8, a document too deeply nested
    for the decoder, or one with an integer of more digits than Python
    converts, are invalid JSON.

    Raises:
        ChainSyntaxError: the document is not the expected JSON shape.
        ChainValidationError: a model invariant is violated; the message names
            the invariant and the offending dimension.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")  # strict: a UTF-16 or UTF-32 file is not a chain document
        raw = json.loads(text, object_pairs_hook=_reject_duplicates, parse_constant=_reject_constant)
    except ChainSyntaxError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ChainSyntaxError(f"invalid JSON: {exc}") from exc

    top = _checked(raw, "document", _DOCUMENT)
    dimensions = [
        DimensionSpec(**_checked(obj, f"dimensions[{i}]", _DIMENSION)) for i, obj in enumerate(top["dimensions"])
    ]
    condition = None
    if "condition" in top:
        obj = _checked(top["condition"], "condition", _CONDITION)
        condition = FunctionalCondition(obj["name"], obj.get("min"), obj.get("max"))
    return ToleranceChain(top["name"], dimensions, condition)


def chain_document(chain: ToleranceChain) -> dict[str, Any]:
    """The chain as a plain dict in the chain-definition document shape."""
    doc: dict[str, Any] = {
        "name": chain.name,
        "dimensions": [asdict(d) for d in chain.dimensions],
    }
    if chain.condition is not None:
        cond: dict[str, Any] = {"name": chain.condition.name}
        if chain.condition.imposed_min is not None:
            cond["min"] = chain.condition.imposed_min
        if chain.condition.imposed_max is not None:
            cond["max"] = chain.condition.imposed_max
        doc["condition"] = cond
    return doc


def serialize_chain(chain: ToleranceChain) -> str:
    """Render a chain back to its document form; parsing the result round-trips."""
    return json.dumps(chain_document(chain), indent=2, allow_nan=False) + "\n"
