"""Seeded chain generator.

Every chain file is a pure function of ``(kind, seed)``. Each one is built so
its outcome is known before tolchain sees it, and the generator re-checks
that outcome in exact arithmetic:

- conforming and non-conforming ``verify`` chains miss or clear their bounds
  by at least 2% of the IT budget, far beyond any rounding, so no ulp tie
  can decide them;
- a feasible ``solve`` leaves the unknown at least 0.01 of IT and an
  infeasible one overdraws the window by at least 20% of the fixed
  dimensions' IT;
- a ``synthesize`` chain has four equal tolerances and a window placed so
  that, in the normal model, the 36th iteration lands at the centre of the
  target band; Monte Carlo noise moves acceptance by about one iteration,
  far inside the 50-iteration cap.

Numbers are rounded to a few decimals so the files read like drawings.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Any

from oracle import BAND, FACTOR, U, available_it, exact_interval, exact_status, it6_moments, magnitude, status_margin

TARGET_SCRAP = 1e-3
SYNTHESIS_DIMS = 4
# Widen steps before the normal-model scrap reaches the target's centre.
SYNTHESIS_STEPS = 35


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"tolchain-bench/{kind}/{seed}")


def _round(x: float | Fraction, places: int, direction: int = 0) -> float:
    """Round to ``places`` decimals: down (-1), up (+1) or to nearest (0)."""
    scaled = Fraction(x) * 10**places
    step = math.floor(scaled) if direction < 0 else math.ceil(scaled) if direction > 0 else round(scaled)
    return float(Fraction(step, 10**places))


def _dimension(rng: random.Random, index: int, it: float, lever_arms: bool) -> dict[str, Any]:
    upper = _round(it * rng.uniform(0.0, 1.0), 4)
    coefficient = rng.choice([1.0, -1.0])
    if lever_arms and rng.random() < 0.2:
        coefficient = rng.choice([2.0, -2.0, 0.5, -0.5])
    return {
        "name": f"d{index}",
        "nominal": _round(rng.uniform(2.0, 60.0), 3),
        "upper_dev": upper,
        "lower_dev": _round(upper - it, 4),
        "coefficient": coefficient,
    }


def random_dimensions(rng: random.Random, k: int, lever_arms: bool = True) -> list[dict[str, Any]]:
    return [_dimension(rng, i, _round(rng.uniform(0.02, 0.4), 3), lever_arms) for i in range(k)]


def _doc(name: str, dims: list[dict[str, Any]], imin: float, imax: float) -> dict[str, Any]:
    return {"name": name, "dimensions": dims, "condition": {"name": "J", "min": imin, "max": imax}}


def render(doc: dict[str, Any]) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"generator broke its own construction: {what}")


# --- worst case -----------------------------------------------------------------


def verify_chain(seed: int, k: int, conforming: bool) -> dict[str, Any]:
    """A chain whose worst-case verdict is fixed by construction."""
    rng = _rng(f"verify-{k}-{conforming}", seed)
    dims = random_dimensions(rng, k)
    low, high, budget = exact_interval(dims)
    outside = budget * Fraction(rng.uniform(0.02, 0.2))
    if conforming:
        doc = _doc(f"verify-ok-{k}", dims, _round(low - outside, 4, -1), _round(high + outside, 4, +1))
        expected = "Conforming"
    else:
        inside = budget * Fraction(rng.uniform(0.1, 0.3))
        kind = rng.choice(["Low", "High", "Both"])
        imin = _round(low + inside, 4) if kind in ("Low", "Both") else _round(low - outside, 4, -1)
        imax = _round(high - inside, 4) if kind in ("High", "Both") else _round(high + outside, 4, +1)
        doc = _doc(f"verify-bad-{k}", dims, imin, imax)
        expected = f"NonConforming{kind}"
    _require(exact_status(doc) == expected, f"{doc['name']} is not {expected}")
    _require(status_margin(doc) >= 0.01 * float(budget) > 1e6 * U * magnitude(dims), f"{doc['name']} margin")
    return doc


# Solve chains sit on a grid of 1/1024 so double arithmetic on them is exact
# and whether the solver must nudge a rounded bound never depends on the
# draw. With decimal inputs a feasible solve can exit 3: when a division
# overshoots a bound by an ulp, the solver's 64 one-ulp nudges of a deviation
# are too small to move ``nominal + deviation`` (see test_perfbench.py,
# test_solve_decimal_overshoot).
GRID = 1024


def _on_grid(x: float | Fraction) -> float:
    return round(Fraction(x) * GRID) / GRID


def solve_chain(seed: int, k: int, feasible: bool) -> tuple[dict[str, Any], str]:
    """A chain and the dimension to solve for, feasible or not by construction."""
    rng = _rng(f"solve-{k}-{feasible}", seed)
    dims = [
        {**d, **{key: _on_grid(d[key]) for key in ("nominal", "upper_dev", "lower_dev")}}
        for d in random_dimensions(rng, k)
    ]
    unknown = dims[rng.randrange(k)]
    known = sum(
        abs(Fraction(d["coefficient"])) * (Fraction(d["upper_dev"]) - Fraction(d["lower_dev"]))
        for d in dims
        if d is not unknown
    )
    if feasible:
        window = known + abs(Fraction(unknown["coefficient"])) * Fraction(rng.uniform(0.02, 0.3))
    else:
        window = known * Fraction(rng.uniform(0.4, 0.75))
    low, high, _ = exact_interval(dims)
    center = (low + high) / 2
    doc = _doc(f"solve-{k}", dims, _on_grid(center - window / 2), _on_grid(center + window / 2))
    left = available_it(doc, unknown["name"])
    if feasible:
        _require(left >= Fraction(1, 100), f"{doc['name']} leaves {float(left)} of IT")
    else:
        _require(left * abs(Fraction(unknown["coefficient"])) <= -known / 5, f"{doc['name']} is feasible")
    return doc, unknown["name"]


# --- Monte Carlo ------------------------------------------------------------------


def simulate_chain(seed: int, kind: str, k: int) -> dict[str, Any]:
    """k dimensions and a window 2.3 to 3 sigma from the mean on each side."""
    rng = _rng(f"simulate-{kind}-{k}", seed)
    dims = random_dimensions(rng, k)
    mean, sigma = it6_moments(dims)
    imin = _round(mean - rng.uniform(2.3, 3.0) * sigma, 6)
    imax = _round(mean + rng.uniform(2.3, 3.0) * sigma, 6)
    return _doc(f"{kind}-{k}", dims, imin, imax)


def _two_sided(z: float) -> float:
    return math.erfc(z / math.sqrt(2.0))


def synthesis_half_width() -> float:
    """Half-width of the window, in starting sigmas, for the synthesis chains.

    With four equal tolerances, widening the narrowest one each step grows
    sigma by the same ratios for every chain. The window is set so that
    after SYNTHESIS_STEPS steps the scrap sits at the target band's centre
    on a log scale.
    """
    lo, hi = math.log(1.0 - BAND), math.log(1.0 + BAND)
    goal = TARGET_SCRAP * math.exp((lo + hi) / 2.0)
    z_lo, z_hi = 0.0, 40.0
    for _ in range(200):
        z = (z_lo + z_hi) / 2.0
        z_lo, z_hi = (z, z_hi) if _two_sided(z) > goal else (z_lo, z)
    widths = [1.0] * SYNTHESIS_DIMS
    for _ in range(SYNTHESIS_STEPS):
        narrowest = widths.index(min(widths))
        widths[narrowest] *= 1.0 + FACTOR
    ratio = math.sqrt(sum(w * w for w in widths) / SYNTHESIS_DIMS)
    return z_lo * ratio


def synthesize_chain(seed: int) -> dict[str, Any]:
    rng = _rng("synthesize", seed)
    it = _round(rng.uniform(0.05, 0.4), 3)
    dims = [_dimension(rng, i, it, lever_arms=False) for i in range(SYNTHESIS_DIMS)]
    mean, sigma = it6_moments(dims)
    half = synthesis_half_width() * sigma
    return _doc("synthesize-4", dims, _round(mean - half, 6), _round(mean + half, 6))


def tolchain_seed(kind: str, seed: int) -> int:
    """The ``--seed`` tolchain samples with, drawn from the workload seed."""
    return _rng(f"tolchain-seed-{kind}", seed).randrange(1, 2**31)
