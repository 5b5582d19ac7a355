"""Iterative scrap-driven tolerance adjustment.

The loop alternates simulation and re-specification: estimate the scrap rate,
stop when it sits within a band around the target, otherwise shrink the
widest tolerance (too much scrap) or widen the narrowest one (scrap below
target, i.e. tolerances tighter — and costlier — than necessary). Every
adjustment is symmetric about the tolerance-zone midpoint, so nominals and
zone centers never move.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Any, Iterable

from .model import DEFAULTS, MAX_SEED, DimensionSpec, ToleranceChain, chain_document, check, respecify
from .montecarlo import ScrapReport, SigmaRule, _scrap_counter, analytic_scrap

__all__ = [
    "IterationRecord",
    "SynthesisAction",
    "SynthesisConfig",
    "SynthesisReport",
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
    the loop stops once |scrap - target| <= tolerance_band * target. The
    dimensions named in ``frozen``, which the chain must have, are never adjusted.
    """

    target_scrap: float
    n_per_iteration: int = DEFAULTS["samples"]
    seed: int = DEFAULTS["seed"]
    max_iterations: int = DEFAULTS["max_iterations"]
    adjustment_factor: float = DEFAULTS["adjustment_factor"]
    tolerance_band: float = DEFAULTS["tolerance_band"]
    frozen: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        check("target_scrap", self.target_scrap)
        check("samples", self.n_per_iteration, "n_per_iteration: ")
        for name in ("seed", "max_iterations", "adjustment_factor", "tolerance_band"):
            check(name, getattr(self, name))
        if isinstance(self.frozen, str):
            raise ValueError(f"frozen must be a collection of dimension names, not the string {self.frozen!r}")
        if not isinstance(self.frozen, Iterable):
            raise ValueError(f"frozen must be a collection of dimension names, got {self.frozen!r}")
        names = tuple(self.frozen)
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"frozen must hold dimension names as strings, got {name!r}")
        object.__setattr__(self, "frozen", frozenset(names))


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

    @property
    def converged(self) -> bool:
        """True when the last iteration accepted; a stall or the iteration limit leaves it False."""
        return self.iterations[-1].action is SynthesisAction.ACCEPT


def scaled_deviations(dimension: DimensionSpec, scale: float) -> tuple[float, float]:
    """Deviations with the tolerance zone scaled about its midpoint.

    Returns ``(new_upper_dev, new_lower_dev)``; the zone center is preserved
    and the width is multiplied by ``scale``.
    """
    center = (dimension.upper_dev + dimension.lower_dev) / 2.0
    half_width = (dimension.upper_dev - dimension.lower_dev) / 2.0 * scale
    return center + half_width, center - half_width


def _decide(
    chain: ToleranceChain, effective: float, cfg: SynthesisConfig
) -> tuple[SynthesisAction, str | None, float | None, float | None]:
    """One step's action and, for a shrink or widen, the dimension it moves and its new deviations."""
    if abs(effective - cfg.target_scrap) <= cfg.tolerance_band * cfg.target_scrap:
        return SynthesisAction.ACCEPT, None, None, None
    shrink = effective > cfg.target_scrap
    # Scaling leaves a zero-width zone at zero, so such a zone never moves.
    # max and min return the first of equals: ties go to chain order.
    movable = [d for d in chain.dimensions if d.name not in cfg.frozen and d.it > 0.0]
    picked = (max if shrink else min)(movable, key=lambda d: d.it, default=None)
    if picked is None:
        return SynthesisAction.STALL, None, None, None
    if shrink:
        return SynthesisAction.SHRINK, picked.name, *scaled_deviations(picked, 1.0 - cfg.adjustment_factor)
    return SynthesisAction.WIDEN, picked.name, *scaled_deviations(picked, 1.0 + cfg.adjustment_factor)


def synthesize(
    chain: ToleranceChain, rule: SigmaRule, cfg: SynthesisConfig, *, workers: int = DEFAULTS["workers"]
) -> SynthesisReport:
    """Adjust tolerances until the scrap rate meets the target band.

    Each iteration counts the scrap of ``cfg.n_per_iteration`` samples, exactly as ``scrap_rate`` counts
    ``sample_chain``'s at seed ``cfg.seed + iteration`` but without holding them (memory is per block of rows, not
    per sample), on at most ``workers`` threads, capped at the usable cores; ``workers=1`` starts no thread, and the
    report is identical for any ``workers``. An estimate inside the target band stops the loop (action ``accept``);
    above it shrinks the widest non-frozen tolerance; below it widens the narrowest non-frozen, nonzero one. Ties
    fall to chain order. When no adjustable tolerance can move in the required direction the loop stops unconverged
    (``stall``); running out of iterations likewise ends unconverged, with the full trace.

    A zero scrap estimate is trusted only when the sample size can resolve
    the target (target > 3/n, the rule-of-three bound); otherwise the exact
    analytic scrap stands in for the comparison.
    """
    condition = chain.condition
    if condition is None or condition.imposed_min is None or condition.imposed_max is None:
        raise ValueError("synthesize requires an imposed condition with both bounds")
    unknown = sorted(cfg.frozen - {d.name for d in chain.dimensions})
    if unknown:
        raise ValueError(f"frozen dimension(s) {unknown} not in chain {chain.name!r}")
    if all(d.name in cfg.frozen for d in chain.dimensions):
        raise ValueError("synthesize requires at least one non-frozen dimension")

    current = chain
    records: list[IterationRecord] = []
    with _scrap_counter(cfg.n_per_iteration, workers) as count:
        for k in range(cfg.max_iterations):
            report = count(current, rule, (int(cfg.seed) + k) % MAX_SEED)
            effective, source = report.scrap_rate, "estimate"
            if report.scrap_rate == 0.0 and cfg.target_scrap <= 3.0 / cfg.n_per_iteration:
                effective, source = analytic_scrap(current, rule), "analytic"

            record = IterationRecord(k, current, report, effective, source, *_decide(current, effective, cfg))
            records.append(record)
            if record.action in (SynthesisAction.ACCEPT, SynthesisAction.STALL):
                break
            current = respecify(current, record.dimension, record.new_upper_dev, record.new_lower_dev)

    return SynthesisReport(iterations=tuple(records), final_chain=current)


def synthesis_report_document(report: SynthesisReport) -> dict[str, Any]:
    """The report as a plain dict (JSON-ready): per-iteration deltas plus the final chain.

    Each entry is its record's fields in order, less the chain and a step not taken.
    """
    iterations = [
        {key: value for key, value in asdict(replace(record, chain=None)).items() if value is not None}
        for record in report.iterations
    ]
    return {
        "converged": report.converged,
        "iterations": iterations,
        "final_chain": chain_document(report.final_chain),
    }
