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

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping

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
    "it_of",
    "parse_chain",
    "serialize_chain",
]


class ChainSyntaxError(ValueError):
    """A chain-definition document is malformed (wrong JSON shape or types)."""


class ChainValidationError(ValueError):
    """A chain, condition, or dimension violates a model invariant."""


def _as_finite_float(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChainValidationError(f"{what} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ChainValidationError(f"{what} must be finite, got {value!r}")
    return value


def _checked_name(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value or value.strip() != value:
        raise ChainValidationError(
            f"{what} must be a non-empty name without surrounding whitespace, got {value!r}"
        )
    return value


# Seeds key the Philox streams of the Monte Carlo layer, one 64-bit word each.
MAX_SEED = 2**64


def check_seed(seed: int) -> None:
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


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
            object.__setattr__(
                self,
                field_name,
                _as_finite_float(getattr(self, field_name), f"dimension {self.name!r}: {field_name}"),
            )
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


def it_of(dimension: DimensionSpec) -> float:
    """Tolerance interval of a dimension: upper deviation minus lower deviation."""
    return dimension.upper_dev - dimension.lower_dev


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
                object.__setattr__(
                    self, field_name, _as_finite_float(value, f"condition {self.name!r}: {field_name}")
                )
        if (
            self.imposed_min is not None
            and self.imposed_max is not None
            and self.imposed_min > self.imposed_max
        ):
            raise ChainValidationError(
                f"condition {self.name!r}: imposed_min ({self.imposed_min!r}) must not exceed "
                f"imposed_max ({self.imposed_max!r})"
            )

    @property
    def is_bounded(self) -> bool:
        """True when at least one bound is present."""
        return self.imposed_min is not None or self.imposed_max is not None


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

    def index_of(self, name: str) -> int:
        """Position of the named dimension, raising ``ValueError`` when absent."""
        for i, d in enumerate(self.dimensions):
            if d.name == name:
                return i
        raise ValueError(f"no dimension named {name!r} in chain {self.name!r}")

    def dimension(self, name: str) -> DimensionSpec:
        return self.dimensions[self.index_of(name)]


@dataclass(frozen=True)
class IntervalResult:
    """A computed [min, max] together with its tolerance interval."""

    min: float
    max: float
    it: float

    def __post_init__(self) -> None:
        for field_name in ("min", "max", "it"):
            object.__setattr__(
                self, field_name, _as_finite_float(getattr(self, field_name), f"interval {field_name}")
            )
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

_TOP_KEYS = ({"name", "dimensions"}, {"condition"})
_DIM_KEYS = ({"name", "nominal", "upper_dev", "lower_dev", "coefficient"}, set())
_COND_KEYS = ({"name"}, {"min", "max"})


def _reject_duplicates(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ChainSyntaxError(f"duplicate key {key!r} in document")
        out[key] = value
    return out


def _reject_constant(text: str) -> float:
    raise ChainSyntaxError(f"non-finite number {text!r} is not permitted")


def _check_keys(obj: Any, where: str, keys: tuple[set[str], set[str]]) -> Mapping[str, Any]:
    required, optional = keys
    if not isinstance(obj, dict):
        raise ChainSyntaxError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - required - optional)
    if unknown:
        raise ChainSyntaxError(f"{where}: unknown key(s) {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise ChainSyntaxError(f"{where}: missing key(s) {missing}")
    return obj


def _syntax_str(obj: Mapping[str, Any], key: str, where: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ChainSyntaxError(f"{where}: {key!r} must be a string, got {type(value).__name__}")
    return value


def _syntax_number(obj: Mapping[str, Any], key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChainSyntaxError(f"{where}: {key!r} must be a number, got {type(value).__name__}")
    return float(value)


def parse_chain(text: str) -> ToleranceChain:
    """Parse and validate a chain-definition document.

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
    duplicate keys are rejected, as are non-finite numbers.

    Raises:
        ChainSyntaxError: the document is not the expected JSON shape.
        ChainValidationError: a model invariant is violated; the message names
            the invariant and the offending dimension.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ChainSyntaxError(f"invalid JSON: {exc}") from exc

    top = _check_keys(raw, "document", _TOP_KEYS)
    chain_name = _syntax_str(top, "name", "document")
    dims_raw = top["dimensions"]
    if not isinstance(dims_raw, list):
        raise ChainSyntaxError(f"document: 'dimensions' must be an array, got {type(dims_raw).__name__}")

    dimensions = []
    for i, entry in enumerate(dims_raw):
        where = f"dimensions[{i}]"
        obj = _check_keys(entry, where, _DIM_KEYS)
        dimensions.append(
            DimensionSpec(
                name=_syntax_str(obj, "name", where),
                nominal=_syntax_number(obj, "nominal", where),
                upper_dev=_syntax_number(obj, "upper_dev", where),
                lower_dev=_syntax_number(obj, "lower_dev", where),
                coefficient=_syntax_number(obj, "coefficient", where),
            )
        )

    condition = None
    if "condition" in top:
        obj = _check_keys(top["condition"], "condition", _COND_KEYS)
        condition = FunctionalCondition(
            name=_syntax_str(obj, "name", "condition"),
            imposed_min=_syntax_number(obj, "min", "condition") if "min" in obj else None,
            imposed_max=_syntax_number(obj, "max", "condition") if "max" in obj else None,
        )

    return ToleranceChain(name=chain_name, dimensions=tuple(dimensions), condition=condition)


def chain_document(chain: ToleranceChain) -> dict[str, Any]:
    """The chain as a plain dict in the chain-definition document shape."""
    doc: dict[str, Any] = {
        "name": chain.name,
        "dimensions": [
            {
                "name": d.name,
                "nominal": d.nominal,
                "upper_dev": d.upper_dev,
                "lower_dev": d.lower_dev,
                "coefficient": d.coefficient,
            }
            for d in chain.dimensions
        ],
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
