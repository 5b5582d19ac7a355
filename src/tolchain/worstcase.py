"""Extreme-value (worst-case) analysis of tolerance chains.

The worst-case method assumes total interchangeability: every dimension may
sit anywhere in its tolerance zone, so the functional condition is bracketed
by evaluating each dimension at whichever limit drives the sum up (for the
max) or down (for the min).
"""

from __future__ import annotations

import math
from typing import Iterable

from .model import (
    ConformityStatus,
    ConformityVerdict,
    DimensionSpec,
    IntervalResult,
    ToleranceChain,
    respecify,
)

__all__ = [
    "InfeasibleToleranceError",
    "it_budget",
    "solve_unknown",
    "verify_worst_case",
    "worst_case",
]


class InfeasibleToleranceError(ValueError):
    """No deviations can satisfy the imposed condition (negative available IT)."""


def _extremes(dimensions: Iterable[DimensionSpec]) -> tuple[float, float]:
    """Minimum and maximum of the signed sum over the dimensions' limits, summed in order."""
    low = 0.0
    high = 0.0
    for d in dimensions:
        a = d.coefficient
        if a > 0:
            high += a * d.max_limit
            low += a * d.min_limit
        else:
            high += a * d.min_limit
            low += a * d.max_limit
    return low, high


def worst_case(chain: ToleranceChain) -> IntervalResult:
    """Extreme values of the functional condition over all limit combinations.

    Dimensions with a positive coefficient contribute their max limit to the
    maximum and their min limit to the minimum; negative coefficients swap the
    roles. The interval's ``it`` equals :func:`it_budget`.
    """
    low, high = _extremes(chain.dimensions)
    return IntervalResult(min=low, max=high, it=it_budget(chain))


def it_budget(chain: ToleranceChain) -> float:
    """Arithmetic tolerance budget: sum of |coefficient| * IT over the chain."""
    total = 0.0
    for d in chain.dimensions:
        total += abs(d.coefficient) * d.it
    return total


def verify_worst_case(chain: ToleranceChain) -> ConformityVerdict:
    """Check the worst-case interval against the chain's imposed bounds.

    The conformity domain is closed: an interval that exactly reaches an
    imposed bound still conforms. Comparisons are exact on doubles; no hidden
    epsilon. A chain without any imposed bound yields ``Unchecked``.
    """
    computed = worst_case(chain)
    condition = chain.condition
    if condition is None or not condition.is_bounded:
        return ConformityVerdict(ConformityStatus.UNCHECKED, computed, condition)
    too_low = condition.imposed_min is not None and computed.min < condition.imposed_min
    too_high = condition.imposed_max is not None and computed.max > condition.imposed_max
    if too_low and too_high:
        status = ConformityStatus.NON_CONFORMING_BOTH
    elif too_low:
        status = ConformityStatus.NON_CONFORMING_LOW
    elif too_high:
        status = ConformityStatus.NON_CONFORMING_HIGH
    else:
        status = ConformityStatus.CONFORMING
    return ConformityVerdict(status, computed, condition)


def solve_unknown(chain: ToleranceChain, unknown: str) -> DimensionSpec:
    """Widest deviations for one dimension so the whole chain conforms.

    The named dimension's deviations are ignored; every other dimension is
    taken as specified. The imposed condition must carry both bounds. The
    extreme-value relations are linear in the unknown limits, so inverting
    them gives the maximal deviations directly; the result is nudged inward
    by at most a few ulps when rounding would overshoot a bound.

    Raises:
        ValueError: the name is absent, or the condition lacks a bound.
        InfeasibleToleranceError: no deviations fit (available IT negative).
    """
    condition = chain.condition
    if condition is None or condition.imposed_min is None or condition.imposed_max is None:
        raise ValueError("solve_unknown requires an imposed condition with both bounds")
    index = chain.index_of(unknown)
    target = chain.dimensions[index]

    known_min, known_max = _extremes(d for i, d in enumerate(chain.dimensions) if i != index)

    a = target.coefficient
    if a > 0:
        upper = (condition.imposed_max - known_max) / a - target.nominal
        lower = (condition.imposed_min - known_min) / a - target.nominal
    else:
        upper = (condition.imposed_min - known_min) / a - target.nominal
        lower = (condition.imposed_max - known_max) / a - target.nominal

    if lower > upper:
        raise InfeasibleToleranceError(
            f"dimension {unknown!r} cannot satisfy condition {condition.name!r}: "
            f"available IT is negative ({upper - lower:.6g})"
        )

    # Rounding in the divisions above can overshoot a bound by an ulp; walk
    # the offending deviation inward until the completed chain conforms.
    for _ in range(64):
        completed = respecify(chain, unknown, upper, lower)
        verdict = verify_worst_case(completed)
        if verdict.status is ConformityStatus.CONFORMING:
            return completed.dimensions[index]
        if verdict.status in (ConformityStatus.NON_CONFORMING_HIGH, ConformityStatus.NON_CONFORMING_BOTH):
            if a > 0:
                upper = math.nextafter(upper, -math.inf)
            else:
                lower = math.nextafter(lower, math.inf)
        if verdict.status in (ConformityStatus.NON_CONFORMING_LOW, ConformityStatus.NON_CONFORMING_BOTH):
            if a > 0:
                lower = math.nextafter(lower, math.inf)
            else:
                upper = math.nextafter(upper, -math.inf)
        if lower > upper:
            raise InfeasibleToleranceError(
                f"dimension {unknown!r} cannot satisfy condition {condition.name!r}: "
                "available IT is negative"
            )
    raise InfeasibleToleranceError(
        f"dimension {unknown!r}: could not settle deviations inside condition {condition.name!r}"
    )
