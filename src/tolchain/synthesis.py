"""Iterative scrap-driven tolerance adjustment.

The loop alternates simulation and re-specification: estimate the scrap rate,
stop when it sits within a band around the target, otherwise shrink the
widest tolerance (too much scrap) or widen the narrowest one (scrap below
target, i.e. tolerances tighter — and costlier — than necessary). Every
adjustment is symmetric about the tolerance-zone midpoint, so nominals and
zone centers never move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any

from .model import MAX_SEED, DimensionSpec, ToleranceChain, chain_document, check_seed
from .montecarlo import ScrapReport, SigmaRule, analytic_scrap, sample_chain, scrap_rate

__all__ = [
    "IterationRecord",
    "SynthesisAction",
    "SynthesisConfig",
    "SynthesisReport",
    "respecify",
    "scaled_deviations",
    "synthesize",
    "synthesis_report_document",
]


class SynthesisAction(str, Enum):
    WIDEN = "widen"
    SHRINK = "shrink"
    ACCEPT = "accept"
    STALL = "stall"


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the adjustment loop.

    ``tolerance_band`` is the acceptable relative deviation from the target:
    the loop stops once |scrap - target| <= tolerance_band * target. Names in
    ``frozen`` are never adjusted.
    """

    target_scrap: float
    n_per_iteration: int = 100_000
    seed: int = 1
    max_iterations: int = 50
    adjustment_factor: float = 0.1
    tolerance_band: float = 0.25
    frozen: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not (0.0 < self.target_scrap < 1.0):
            raise ValueError(f"target_scrap must lie in (0, 1), got {self.target_scrap!r}")
        if self.n_per_iteration < 1:
            raise ValueError(f"n_per_iteration must be >= 1, got {self.n_per_iteration!r}")
        check_seed(self.seed)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not (0.0 < self.adjustment_factor < 1.0):
            raise ValueError(f"adjustment_factor must lie in (0, 1), got {self.adjustment_factor!r}")
        if not (self.tolerance_band >= 0.0 and math.isfinite(self.tolerance_band)):
            raise ValueError(f"tolerance_band must be finite and >= 0, got {self.tolerance_band!r}")
        object.__setattr__(self, "frozen", frozenset(self.frozen))


@dataclass(frozen=True)
class IterationRecord:
    """One sampling round: the chain as sampled, its scrap, and the action taken.

    ``effective_scrap`` is the value actually compared against the target; it
    is the Monte Carlo estimate except when that estimate is 0 and too coarse
    to resolve the target, in which case the analytic value stands in
    (``scrap_source`` says which).
    """

    index: int
    chain: ToleranceChain
    scrap: ScrapReport
    effective_scrap: float
    scrap_source: str
    action: SynthesisAction
    dimension: str | None = None
    new_upper_dev: float | None = None
    new_lower_dev: float | None = None


@dataclass(frozen=True)
class SynthesisReport:
    iterations: tuple[IterationRecord, ...]
    final_chain: ToleranceChain
    converged: bool


def scaled_deviations(dimension: DimensionSpec, scale: float) -> tuple[float, float]:
    """Deviations with the tolerance zone scaled about its midpoint.

    Returns ``(new_upper_dev, new_lower_dev)``; the zone center is preserved
    and the width is multiplied by ``scale``.
    """
    center = (dimension.upper_dev + dimension.lower_dev) / 2.0
    half_width = (dimension.upper_dev - dimension.lower_dev) / 2.0 * scale
    return center + half_width, center - half_width


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


def _pick_widest(chain: ToleranceChain, frozen: frozenset[str]) -> DimensionSpec | None:
    best: DimensionSpec | None = None
    for d in chain.dimensions:
        if d.name in frozen:
            continue
        if best is None or d.it > best.it:
            best = d
    return best


def _pick_narrowest_adjustable(chain: ToleranceChain, frozen: frozenset[str]) -> DimensionSpec | None:
    # Widening multiplies the width, so a zero-width zone can never grow:
    # skip those entirely.
    best: DimensionSpec | None = None
    for d in chain.dimensions:
        if d.name in frozen or d.it == 0.0:
            continue
        if best is None or d.it < best.it:
            best = d
    return best


def synthesize(
    chain: ToleranceChain, rule: SigmaRule, cfg: SynthesisConfig, *, workers: int = 1
) -> SynthesisReport:
    """Adjust tolerances until the scrap rate meets the target band.

    Each iteration samples ``cfg.n_per_iteration`` realizations at seed
    ``cfg.seed + iteration`` and compares the scrap estimate to the target:
    inside the band stops the loop (action ``accept``); above it shrinks the
    widest non-frozen tolerance; below it widens the narrowest non-frozen,
    nonzero one. Ties fall to chain order. When no adjustable tolerance can
    move in the required direction the loop stops unconverged (``stall``);
    running out of iterations likewise returns ``converged=False`` with the
    full trace.

    A zero scrap estimate is trusted only when the sample size can resolve
    the target (target > 3/n, the rule-of-three bound); otherwise the exact
    analytic scrap stands in for the comparison.
    """
    condition = chain.condition
    if condition is None or condition.imposed_min is None or condition.imposed_max is None:
        raise ValueError("synthesize requires an imposed condition with both bounds")
    if all(d.name in cfg.frozen for d in chain.dimensions):
        raise ValueError("synthesize requires at least one non-frozen dimension")

    current = chain
    records: list[IterationRecord] = []
    converged = False
    for k in range(cfg.max_iterations):
        batch = sample_chain(
            current, rule, cfg.n_per_iteration, (cfg.seed + k) % MAX_SEED, workers=workers
        )
        report = scrap_rate(batch.fc_samples, condition)
        effective = report.scrap_rate
        source = "estimate"
        if report.scrap_rate == 0.0 and cfg.target_scrap <= 3.0 / cfg.n_per_iteration:
            effective = analytic_scrap(current, rule)
            source = "analytic"

        if abs(effective - cfg.target_scrap) <= cfg.tolerance_band * cfg.target_scrap:
            records.append(
                IterationRecord(k, current, report, effective, source, SynthesisAction.ACCEPT)
            )
            converged = True
            break

        if effective > cfg.target_scrap:
            picked = _pick_widest(current, cfg.frozen)
            action = SynthesisAction.SHRINK
            scale = 1.0 - cfg.adjustment_factor
            if picked is not None and picked.it == 0.0:
                picked = None
        else:
            picked = _pick_narrowest_adjustable(current, cfg.frozen)
            action = SynthesisAction.WIDEN
            scale = 1.0 + cfg.adjustment_factor

        if picked is None:
            records.append(
                IterationRecord(k, current, report, effective, source, SynthesisAction.STALL)
            )
            break

        new_upper, new_lower = scaled_deviations(picked, scale)
        records.append(
            IterationRecord(
                k, current, report, effective, source, action,
                dimension=picked.name, new_upper_dev=new_upper, new_lower_dev=new_lower,
            )
        )
        current = respecify(current, picked.name, new_upper, new_lower)

    return SynthesisReport(iterations=tuple(records), final_chain=current, converged=converged)


def synthesis_report_document(report: SynthesisReport) -> dict[str, Any]:
    """The report as a plain dict (JSON-ready): per-iteration deltas plus the final chain."""
    iterations = []
    for record in report.iterations:
        entry: dict[str, Any] = {
            "index": record.index,
            "scrap": {
                "n": record.scrap.n,
                "below": record.scrap.below,
                "above": record.scrap.above,
                "scrap_rate": record.scrap.scrap_rate,
                "ci95_half_width": record.scrap.ci95_half_width,
            },
            "effective_scrap": record.effective_scrap,
            "scrap_source": record.scrap_source,
            "action": record.action.value,
        }
        if record.dimension is not None:
            entry["dimension"] = record.dimension
            entry["new_upper_dev"] = record.new_upper_dev
            entry["new_lower_dev"] = record.new_lower_dev
        iterations.append(entry)
    return {
        "converged": report.converged,
        "iterations": iterations,
        "final_chain": chain_document(report.final_chain),
    }
