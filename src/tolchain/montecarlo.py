"""Monte Carlo simulation of tolerance chains.

Each dimension is realized as an independent normal variate whose parameters
derive from its tolerance zone; the functional-condition samples are the
signed sum of the per-dimension realizations. Generation is counter-based:
every sample's position (dimension index, sample index, seed) maps to a fixed
point in a Philox stream, so identical inputs give bit-identical batches no
matter how the work is chunked or parallelized.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np
from numpy.random import Philox
from scipy.special import ndtr, ndtri

from .model import (
    DimensionSpec,
    FunctionalCondition,
    IntervalResult,
    ToleranceChain,
    check_seed,
    it_of,
)

__all__ = [
    "DistributionParams",
    "SampleBatch",
    "ScrapReport",
    "SigmaRule",
    "analytic_scrap",
    "batch_summary",
    "derive_distribution",
    "histogram_csv",
    "propagate_analytic",
    "sample_chain",
    "samples_csv",
    "scrap_rate",
    "statistical_interval",
]

# Philox advances its counter in blocks of four 64-bit words, so chunk
# boundaries must stay multiples of four for block-aligned restarts.
_CHUNK = 65536


@dataclass(frozen=True)
class SigmaRule:
    """How a dimension's tolerance zone maps to a process standard deviation.

    ``it6`` reads the zone as +/-3 sigma (sigma = IT/6, a centered process at
    Cp = 1); ``it3`` is the looser sigma = IT/3; ``explicit`` supplies a
    per-dimension sigma table for processes characterized by measurement.
    """

    kind: str
    sigmas: Mapping[str, float] | None = None

    _KINDS: ClassVar[tuple[str, ...]] = ("it6", "it3", "explicit")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown sigma rule {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "explicit":
            if not self.sigmas:
                raise ValueError("explicit sigma rule requires a per-dimension sigma mapping")
            clean = {}
            for name, sigma in self.sigmas.items():
                sigma = float(sigma)
                if not math.isfinite(sigma) or sigma < 0.0:
                    raise ValueError(f"explicit sigma for {name!r} must be finite and >= 0, got {sigma!r}")
                clean[str(name)] = sigma
            object.__setattr__(self, "sigmas", clean)
        elif self.sigmas is not None:
            raise ValueError(f"sigma rule {self.kind!r} does not take a sigma mapping")

    @classmethod
    def it6(cls) -> "SigmaRule":
        return cls("it6")

    @classmethod
    def it3(cls) -> "SigmaRule":
        return cls("it3")

    @classmethod
    def explicit(cls, sigmas: Mapping[str, float]) -> "SigmaRule":
        return cls("explicit", dict(sigmas))


@dataclass(frozen=True)
class DistributionParams:
    """Mean and standard deviation of one normal distribution."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.sigma)):
            raise ValueError("distribution parameters must be finite")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")


def derive_distribution(dimension: DimensionSpec, rule: SigmaRule) -> DistributionParams:
    """Distribution of one dimension: mean at the tolerance-zone midpoint, sigma per the rule."""
    if rule.kind == "it6":
        sigma = it_of(dimension) / 6.0
    elif rule.kind == "it3":
        sigma = it_of(dimension) / 3.0
    else:
        assert rule.sigmas is not None
        try:
            sigma = rule.sigmas[dimension.name]
        except KeyError:
            raise ValueError(f"no explicit sigma given for dimension {dimension.name!r}") from None
    return DistributionParams(mean=dimension.midpoint, sigma=sigma)


def propagate_analytic(chain: ToleranceChain, rule: SigmaRule) -> DistributionParams:
    """Exact moments of the functional condition under the derived distributions.

    The mean is the coefficient-weighted sum of the dimension means; the
    variance is the sum of squared-coefficient-weighted variances (the
    dimensions are independent), so sigma combines root-sum-square.
    """
    mean = 0.0
    variance = 0.0
    for d in chain.dimensions:
        params = derive_distribution(d, rule)
        mean += d.coefficient * params.mean
        variance += d.coefficient * d.coefficient * params.sigma * params.sigma
    return DistributionParams(mean=mean, sigma=math.sqrt(variance))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Realizations of every dimension plus the derived functional-condition samples.

    ``fc_samples[k]`` is exactly the signed sum of the per-dimension samples at
    row ``k``, accumulated in chain order, so summing the per-dimension arrays
    in that order reproduces it bit-for-bit. Arrays are read-only.
    """

    chain_name: str
    n: int
    seed: int
    per_dimension: Mapping[str, np.ndarray]
    fc_samples: np.ndarray
    fc_name: str


def _normal_chunk(
    seed: int, dim_index: int, start: int, count: int, mean: float, sigma: float
) -> np.ndarray:
    """Draws [start, start+count) of the dimension's stream. ``start`` must be a multiple of 4."""
    key = np.array([seed, dim_index], dtype=np.uint64)
    bits = Philox(counter=start // 4, key=key).random_raw(count)
    # Top 53 bits, centered on the open interval (0, 1): never 0 or 1, so the
    # inverse CDF below stays finite.
    uniforms = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return mean + sigma * ndtri(uniforms)


def _sample_dimension(
    seed: int, dim_index: int, n: int, params: DistributionParams, pool: ThreadPoolExecutor | None
) -> np.ndarray:
    out = np.empty(n, dtype=np.float64)
    starts = range(0, n, _CHUNK)
    if pool is None:
        for start in starts:
            count = min(_CHUNK, n - start)
            out[start : start + count] = _normal_chunk(
                seed, dim_index, start, count, params.mean, params.sigma
            )
    else:
        futures = [
            (start, pool.submit(_normal_chunk, seed, dim_index, start, min(_CHUNK, n - start),
                                params.mean, params.sigma))
            for start in starts
        ]
        for start, future in futures:
            chunk = future.result()
            out[start : start + chunk.shape[0]] = chunk
    return out


def sample_chain(
    chain: ToleranceChain, rule: SigmaRule, n: int, seed: int, *, workers: int = 1
) -> SampleBatch:
    """Draw ``n`` independent realizations of every dimension and of the condition.

    Dimension ``i`` uses its own Philox stream keyed by ``(seed, i)``; sample
    ``k`` always consumes word ``k`` of that stream. ``workers`` only controls
    how many threads evaluate chunks; the output is bit-identical for any
    worker count.

    Args:
        chain: the chain to realize.
        rule: tolerance-to-sigma mapping for every dimension.
        n: number of realizations, >= 1.
        seed: 64-bit unsigned stream selector.
        workers: thread count for chunk evaluation (>= 1).
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    check_seed(seed)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        per_dimension: dict[str, np.ndarray] = {}
        fc = np.zeros(n, dtype=np.float64)
        for i, d in enumerate(chain.dimensions):
            params = derive_distribution(d, rule)
            samples = _sample_dimension(seed, i, n, params, pool)
            fc += d.coefficient * samples
            samples.setflags(write=False)
            per_dimension[d.name] = samples
        fc.setflags(write=False)
    finally:
        if pool is not None:
            pool.shutdown()

    fc_name = chain.condition.name if chain.condition is not None else "fc"
    return SampleBatch(
        chain_name=chain.name,
        n=n,
        seed=seed,
        per_dimension=per_dimension,
        fc_samples=fc,
        fc_name=fc_name,
    )


def statistical_interval(samples: Sequence[float] | np.ndarray, coverage_sigmas: float = 3.0) -> IntervalResult:
    """Mean +/- ``coverage_sigmas`` sample standard deviations.

    The standard deviation uses the n-1 denominator; a single sample has
    stdev 0. The default coverage of 3 reads as the conventional 99.73%
    two-sided normal coverage.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("statistical_interval requires a non-empty sample set")
    if not (coverage_sigmas > 0.0):
        raise ValueError(f"coverage_sigmas must be > 0, got {coverage_sigmas!r}")
    mean = float(arr.mean())
    stdev = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return IntervalResult(
        min=mean - coverage_sigmas * stdev,
        max=mean + coverage_sigmas * stdev,
        it=2.0 * coverage_sigmas * stdev,
    )


@dataclass(frozen=True)
class ScrapReport:
    """Counts and rate of realizations falling outside the imposed bounds."""

    n: int
    below: int
    above: int
    scrap_rate: float
    ci95_half_width: float

    def __post_init__(self) -> None:
        if self.n < 1 or self.below < 0 or self.above < 0 or self.below + self.above > self.n:
            raise ValueError("inconsistent scrap counts")


def scrap_rate(samples: Sequence[float] | np.ndarray, condition: FunctionalCondition) -> ScrapReport:
    """Fraction of samples strictly outside the condition's bounds.

    A missing bound contributes nothing. The confidence half-width is the
    normal approximation 1.96 * sqrt(p(1-p)/n), adequate for n in the
    thousands and beyond.
    """
    if condition is None or not condition.is_bounded:
        raise ValueError("scrap_rate requires a condition with at least one bound")
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("scrap_rate requires a non-empty sample set")
    below = int(np.count_nonzero(arr < condition.imposed_min)) if condition.imposed_min is not None else 0
    above = int(np.count_nonzero(arr > condition.imposed_max)) if condition.imposed_max is not None else 0
    n = int(arr.size)
    rate = (below + above) / n
    half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / n)
    return ScrapReport(n=n, below=below, above=above, scrap_rate=rate, ci95_half_width=half_width)


def analytic_scrap(chain: ToleranceChain, rule: SigmaRule) -> float:
    """Exact out-of-bounds probability under the propagated normal model.

    Computes Phi((min - mu)/sigma) + 1 - Phi((max - mu)/sigma) with the
    machine-accurate normal CDF; an absent bound contributes nothing. A
    zero-sigma chain is a point mass: scrap is 0 or 1 depending on whether
    the mean sits inside the (closed) bounds.
    """
    condition = chain.condition
    if condition is None or not condition.is_bounded:
        raise ValueError("analytic_scrap requires a condition with at least one bound")
    params = propagate_analytic(chain, rule)
    below = 0.0
    above = 0.0
    if condition.imposed_min is not None:
        if params.sigma == 0.0:
            below = 1.0 if params.mean < condition.imposed_min else 0.0
        else:
            below = float(ndtr((condition.imposed_min - params.mean) / params.sigma))
    if condition.imposed_max is not None:
        if params.sigma == 0.0:
            above = 1.0 if params.mean > condition.imposed_max else 0.0
        else:
            above = float(1.0 - ndtr((condition.imposed_max - params.mean) / params.sigma))
    return below + above


# --- exports -----------------------------------------------------------------


def samples_csv(batch: SampleBatch) -> str:
    """The batch as CSV: ``index,<dimension names...>,<fc name>``, 9 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index", *batch.per_dimension.keys(), batch.fc_name])
    columns = [*batch.per_dimension.values(), batch.fc_samples]
    for k in range(batch.n):
        writer.writerow([k, *(format(column[k], ".9g") for column in columns)])
    return buffer.getvalue()


def histogram_csv(samples: Sequence[float] | np.ndarray, bins: int = 50) -> str:
    """Binned counts of the samples as CSV rows ``bin_lower,bin_upper,count``."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("histogram requires a non-empty sample set")
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    counts, edges = np.histogram(arr, bins=bins)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bin_lower", "bin_upper", "count"])
    for i in range(bins):
        writer.writerow([format(edges[i], ".9g"), format(edges[i + 1], ".9g"), int(counts[i])])
    return buffer.getvalue()


def batch_summary(
    chain: ToleranceChain, batch: SampleBatch, rule: SigmaRule, coverage_sigmas: float = 3.0
) -> dict[str, Any]:
    """Summary statistics of a batch as a plain dict (JSON-ready).

    Contains per-dimension and functional-condition sample moments and
    statistical intervals, the analytically propagated moments, and — when the
    chain carries a bounded condition — the observed and analytic scrap.
    """

    def _stats(arr: np.ndarray) -> dict[str, Any]:
        interval = statistical_interval(arr, coverage_sigmas)
        return {
            "mean": float(arr.mean()),
            "stdev": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            "interval": {"min": interval.min, "max": interval.max, "it": interval.it},
        }

    propagated = propagate_analytic(chain, rule)
    summary: dict[str, Any] = {
        "n": batch.n,
        "seed": batch.seed,
        "coverage_sigmas": coverage_sigmas,
        "per_dimension": {name: _stats(arr) for name, arr in batch.per_dimension.items()},
        "fc": {"name": batch.fc_name, **_stats(batch.fc_samples)},
        "analytic": {"mean": propagated.mean, "sigma": propagated.sigma},
    }
    if chain.condition is not None and chain.condition.is_bounded:
        report = scrap_rate(batch.fc_samples, chain.condition)
        summary["scrap"] = {
            "n": report.n,
            "below": report.below,
            "above": report.above,
            "scrap_rate": report.scrap_rate,
            "ci95_half_width": report.ci95_half_width,
        }
        summary["analytic_scrap"] = analytic_scrap(chain, rule)
    return summary
