"""Hypothesis strategies for chains, plus the brute-force corner oracle.

Two families of strategies exist for two kinds of assertions. The general
family draws values on decimal grids wide enough that distinct worst-case
corners differ by far more than accumulated rounding (ITs are multiples of
1e-6 and |coefficient| >= 0.01, so corner gaps are at least ~1e-8 while the
rounding noise of a ten-term stack sits around 1e-12). Its decimal values are
not exact in binary, so every sum rounds; ``solvable_chains`` uses them to
check that ``solve`` finds the widest conforming limits under that rounding.
The dyadic family draws everything as small multiples of negative powers of
two, which makes every product and sum in the engine exact in double
precision — the right setting for asserting translation, monotonicity, and
midpoint preservation with `==` instead of tolerances.
"""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from tolchain import DimensionSpec, FunctionalCondition, ToleranceChain


def _decimal(lo_units: int, hi_units: int, scale: float):
    return st.integers(lo_units, hi_units).map(lambda n: n / scale)


def coefficients():
    """Nonzero signed reals on a 3-decimal grid, magnitude in [0.01, 10]."""
    return st.tuples(st.booleans(), st.integers(10, 10_000)).map(
        lambda t: (t[1] / 1000.0) * (1.0 if t[0] else -1.0)
    )


@st.composite
def dimensions(draw, index: int = 0) -> DimensionSpec:
    nominal = draw(_decimal(-100_000_000, 100_000_000, 1e6))
    d1 = draw(_decimal(-1_000_000, 1_000_000, 1e6))
    d2 = draw(_decimal(-1_000_000, 1_000_000, 1e6))
    return DimensionSpec(f"d{index}", nominal, max(d1, d2), min(d1, d2), draw(coefficients()))


@st.composite
def chains(draw, max_dims: int = 10, condition: str = "never") -> ToleranceChain:
    """A validated chain; ``condition`` is "never" or "sometimes"."""
    k = draw(st.integers(1, max_dims))
    dims = tuple(draw(dimensions(index=i)) for i in range(k))
    cond = None
    if condition == "sometimes" and draw(st.booleans()):
        bound = _decimal(-1_000_000_000, 1_000_000_000, 1e6)
        lo = draw(st.none() | bound)
        hi = draw(st.none() | bound)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        cond = FunctionalCondition("J", lo, hi)
    return ToleranceChain("chain", dims, cond)


@st.composite
def solvable_chains(draw, max_dims: int = 6) -> tuple[ToleranceChain, str]:
    """A chain with both bounds and the name of a dimension that ``solve`` can fit.

    The window is the other dimensions' worst case, with the unknown pinned at
    its nominal, widened on each side by a slack of at least 0.001, far above
    the rounding of the stack. So it is wider than the other dimensions'
    combined budget, and the unknown keeps a nonempty zone.
    """
    k = draw(st.integers(1, max_dims))
    dims = [draw(dimensions(index=i)) for i in range(k)]
    unknown = draw(st.integers(0, k - 1))
    pinned = dims[:unknown] + [replace(dims[unknown], upper_dev=0.0, lower_dev=0.0)] + dims[unknown + 1 :]
    lo, hi = corner_extremes(ToleranceChain("pinned", tuple(pinned)))
    slack = draw(st.tuples(_decimal(1_000, 1_000_000, 1e6), _decimal(1_000, 1_000_000, 1e6)))
    condition = FunctionalCondition("J", round(lo - slack[0], 6), round(hi + slack[1], 6))
    return ToleranceChain("chain", tuple(dims), condition), dims[unknown].name


# --- dyadic family (every engine operation is exact on these inputs) ---------

_GRID = 2.0**-16


def _dyadic(lo_units: int, hi_units: int):
    return st.integers(lo_units, hi_units).map(lambda n: n * _GRID)


def dyadic_coefficients():
    # grid 2^-8, magnitude in [2^-8, 16]
    return st.tuples(st.booleans(), st.integers(1, 1 << 12)).map(
        lambda t: (t[1] * 2.0**-8) * (1.0 if t[0] else -1.0)
    )


@st.composite
def dyadic_dimensions(draw, index: int = 0) -> DimensionSpec:
    nominal = draw(_dyadic(-(1 << 22), 1 << 22))  # +/- 64
    d1 = draw(_dyadic(-(1 << 16), 1 << 16))  # +/- 1
    d2 = draw(_dyadic(-(1 << 16), 1 << 16))
    return DimensionSpec(
        f"d{index}", nominal, max(d1, d2), min(d1, d2), draw(dyadic_coefficients())
    )


@st.composite
def dyadic_chains(draw, max_dims: int = 10) -> ToleranceChain:
    k = draw(st.integers(1, max_dims))
    return ToleranceChain("chain", tuple(draw(dyadic_dimensions(index=i)) for i in range(k)))


def dyadic_shifts():
    return _dyadic(-(1 << 20), 1 << 20)  # +/- 16


def dyadic_widenings():
    return _dyadic(0, 1 << 14)  # [0, 0.25]


# --- oracle -------------------------------------------------------------------


def corner_extremes(chain: ToleranceChain) -> tuple[float, float]:
    """Exhaustive stack evaluation over every min/max-limit corner.

    Accumulates corner sums dimension-by-dimension in chain order, the same
    association the engine uses, so agreement can be asserted exactly.
    """
    count = 1 << len(chain.dimensions)
    picks = np.arange(count)
    totals = np.zeros(count)
    for i, d in enumerate(chain.dimensions):
        at_max = (picks >> i) & 1 == 1
        totals = totals + d.coefficient * np.where(at_max, d.max_limit, d.min_limit)
    return float(totals.min()), float(totals.max())
