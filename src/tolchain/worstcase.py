"""Extreme-value (worst-case) analysis of tolerance chains.

The worst-case method assumes total interchangeability: every dimension may
sit anywhere in its tolerance zone, so the functional condition is bracketed
by evaluating each dimension at whichever limit drives the sum up (for the
max) or down (for the min).
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable

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
    low, high = condition.bounds
    too_low, too_high = computed.min < low, computed.max > high
    if too_low and too_high:
        status = ConformityStatus.NON_CONFORMING_BOTH
    elif too_low:
        status = ConformityStatus.NON_CONFORMING_LOW
    elif too_high:
        status = ConformityStatus.NON_CONFORMING_HIGH
    else:
        status = ConformityStatus.CONFORMING
    return ConformityVerdict(status, computed, condition)


def _widest(fits: Callable[[float], bool]) -> float:
    """Largest finite double that ``fits``, which holds up to some double and fails above it.

    Bisects over keys that order the doubles as the reals (the bits as an integer,
    sign bit cleared and negated when negative). Returns the lowest double if none fits.
    """
    def double(key: int) -> float:
        return struct.unpack("<d", struct.pack("<Q", key if key >= 0 else (1 << 63) - key))[0]

    lo, hi = -0x7FEFFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF  # the keys of the extreme finite doubles
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(double(mid)):
            lo = mid
        else:
            hi = mid - 1
    return double(lo)


def solve_unknown(chain: ToleranceChain, unknown: str) -> DimensionSpec:
    """Widest deviations for one dimension so the whole chain conforms.

    The named dimension's deviations are ignored; every other dimension is
    taken as specified. The imposed condition must carry both bounds. Each
    limit moves one extreme of the worst-case sum, monotonically even under
    rounding, so one bisection per limit finds the widest conforming deviation;
    one double further breaks conformity. Each reads ``limit - nominal`` if exact.

    Raises:
        ValueError: the name is absent, or the condition lacks a bound.
        ChainValidationError: the other dimensions' worst case is not finite.
        InfeasibleToleranceError: no deviations fit (available IT negative).
    """
    condition = chain.condition
    if condition is None or condition.imposed_min is None or condition.imposed_max is None:
        raise ValueError("solve_unknown requires an imposed condition with both bounds")
    target = chain.dimension(unknown)
    worst_case(respecify(chain, unknown, 0.0, 0.0))  # an overflow is the chain's fault, as in analyze

    def fits(deviation: float, upper: bool) -> bool:
        # The upper limit of a positive term moves the max; of a negative one, the min.
        low, high = _extremes(respecify(chain, unknown, deviation, deviation).dimensions)
        return high <= condition.imposed_max if (target.coefficient > 0) == upper else low >= condition.imposed_min

    def tidy(deviation: float) -> float:
        exact = (target.nominal + deviation) - target.nominal
        return exact if target.nominal + exact == target.nominal + deviation else deviation

    upper = tidy(_widest(lambda d: fits(d, True)))
    lower = tidy(-_widest(lambda d: fits(-d, False)))
    if lower <= upper:
        completed = respecify(chain, unknown, upper, lower)
        if verify_worst_case(completed).status is ConformityStatus.CONFORMING:
            return completed.dimension(unknown)
    raise InfeasibleToleranceError(
        f"dimension {unknown!r} cannot satisfy condition {condition.name!r}: "
        f"available IT is negative ({upper - lower:.6g})"
    )
