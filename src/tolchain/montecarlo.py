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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, ClassVar, Iterator, Mapping, Sequence

import numpy as np
from numpy.random import Philox
from scipy.special import ndtr, ndtri

from .model import (
    DEFAULTS,
    DimensionSpec,
    FunctionalCondition,
    IntervalResult,
    ToleranceChain,
    check,
    usable_cores,
)
from .worstcase import worst_case

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
# Rows per block of the samples export: a multiple of 4, and small enough
# that a block's re-drawn columns and text stay a few hundred kilobytes.
_EXPORT_ROWS = 4096


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
        sigma = dimension.it / 6.0
    elif rule.kind == "it3":
        sigma = dimension.it / 3.0
    else:
        assert rule.sigmas is not None
        try:
            sigma = rule.sigmas[dimension.name]
        except KeyError:
            raise ValueError(f"no explicit sigma given for dimension {dimension.name!r}") from None
    try:
        return DistributionParams(mean=dimension.midpoint, sigma=sigma)
    except ValueError as exc:  # a midpoint or a width that overflows, though both limits are finite
        raise ValueError(f"dimension {dimension.name!r}: {exc}") from None


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
    try:
        return DistributionParams(mean=mean, sigma=math.sqrt(variance))
    except ValueError as exc:  # a sum or a square that overflows, though each dimension's moments are finite
        name = chain.condition.name if chain.condition is not None else "fc"
        raise ValueError(f"condition {name!r}: {exc}") from None


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Realizations of every dimension plus the derived functional-condition samples.

    ``fc_samples[k]`` is exactly the signed sum of the per-dimension samples at
    row ``k``, accumulated in chain order, so summing the per-dimension arrays
    in that order reproduces it bit-for-bit. Only ``fc_samples`` is held in
    memory: each ``per_dimension`` column is re-drawn from its stream on
    access, and ``moments`` holds each dimension's sample mean and stdev,
    taken from the full draw. Arrays are read-only.
    """

    chain_name: str
    n: int
    seed: int
    per_dimension: _Columns
    moments: Mapping[str, tuple[float, float]]
    fc_samples: np.ndarray
    fc_name: str


def _normal_chunk(seed: int, index: int, params: DistributionParams, start: int, out: np.ndarray) -> np.ndarray:
    """Fills ``out`` with draws [start, start+out.size) of stream ``index``. ``start`` must be a multiple of 4."""
    key = np.array([seed, index], dtype=np.uint64)
    bits = Philox(counter=start // 4, key=key).random_raw(out.size)
    # Top 53 bits, centered on the open interval (0, 1): never 0 or 1, so the
    # inverse CDF below stays finite. In place, with the rounding of
    # mean + sigma * ndtri((top + 0.5) * 2**-53).
    bits >>= np.uint64(11)
    out[...] = bits
    out += 0.5
    out *= 2.0**-53
    ndtri(out, out=out)
    out *= params.sigma
    out += params.mean
    return out


class _Columns(Mapping[str, np.ndarray]):
    """Each dimension's samples, re-drawn from its Philox stream on every access."""

    def __init__(self, seed: int, n: int, streams: dict[str, tuple[int, float, DistributionParams]]) -> None:
        self._seed, self._n, self._streams = seed, n, streams

    def rows(self, start: int, count: int) -> list[np.ndarray]:
        """Rows [start, start+count) of every column. ``start`` must be a multiple of 4."""
        return [_normal_chunk(self._seed, i, p, start, np.empty(count)) for i, _, p in self._streams.values()]

    def __getitem__(self, name: str) -> np.ndarray:
        index, _, params = self._streams[name]
        column = np.empty(self._n)
        for start in range(0, self._n, _CHUNK):
            _normal_chunk(self._seed, index, params, start, column[start : start + _CHUNK])
        column.setflags(write=False)
        return column

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)


def sample_chain(
    chain: ToleranceChain, rule: SigmaRule, n: int, seed: int, *, workers: int = DEFAULTS["workers"]
) -> SampleBatch:
    """Draw ``n`` independent realizations of every dimension and of the condition.

    Dimension ``i`` uses its own Philox stream keyed by ``(seed, i)``; sample
    ``k`` always consumes word ``k`` of that stream. ``workers`` only controls
    how many threads evaluate chunks; the output is bit-identical for any
    worker count. Each dimension is drawn into one reused buffer, whose
    moments are then taken in place, so peak memory is about two arrays of
    ``n`` doubles for any dimension count. A chain whose worst case overflows
    raises ``ChainValidationError`` before anything is drawn.

    Args:
        chain: the chain to realize.
        rule: tolerance-to-sigma mapping for every dimension.
        n: number of realizations, >= 1.
        seed: 64-bit unsigned stream selector.
        workers: thread count for chunk evaluation (>= 1), capped at and by default the usable cores.
    """
    check("samples", n)
    check("seed", seed)
    with _chunk_jobs(n, workers) as (size, run):
        streams = _streams(chain, rule)
        fc = np.zeros(n, dtype=np.float64)
        buf = np.empty(n, dtype=np.float64)
        moments: dict[str, tuple[float, float]] = {}
        for name, stream in streams.items():
            list(run(partial(_add_draws, fc, seed, [stream], size, buf), range(0, n, size)))
            moments[name] = _moments_in_place(buf, f" of dimension {name!r}")
    fc.setflags(write=False)

    fc_name = chain.condition.name if chain.condition is not None else "fc"
    return SampleBatch(chain_name=chain.name, n=n, seed=seed, per_dimension=_Columns(seed, n, streams),
                       moments=moments, fc_samples=fc, fc_name=fc_name)


@contextmanager
def _chunk_jobs(n: int, workers: int) -> Iterator[tuple[int, Callable]]:
    """``(size, map)`` for jobs over ``n`` rows: equal chunks of at most _CHUNK rows, each a multiple of 4, in a
    multiple of the thread count, run on a pool capped at the usable cores, or in the caller at 1 worker."""
    check("workers", workers)
    threads = min(workers, usable_cores())
    chunks = -(-n // _CHUNK)
    chunks += -chunks % threads
    pool = ThreadPoolExecutor(max_workers=threads) if workers > 1 else None
    try:
        yield (-(-n // chunks) + 3) // 4 * 4, (map if pool is None else pool.map)
    finally:
        if pool is not None:
            pool.shutdown()


def _streams(chain: ToleranceChain, rule: SigmaRule) -> dict[str, tuple[int, float, DistributionParams]]:
    """Each dimension's ``(stream index, coefficient, distribution)`` by name, in chain order."""
    worst_case(chain)  # an overflow is the chain's fault, as in analyze
    return {d.name: (i, d.coefficient, derive_distribution(d, rule)) for i, d in enumerate(chain.dimensions)}


def _add_draws(fc: np.ndarray, seed: int, streams: list[tuple[int, float, DistributionParams]], size: int,
               keep: np.ndarray | None, start: int) -> None:
    """``fc += coefficient * draws`` on rows [start, start+size), stream by stream, drawn into those rows of
    ``keep`` or, if None, one chunk array. Elementwise in stream order, so the chunking changes no bit."""
    out = fc[start : start + size]
    target = np.empty(out.size) if keep is None else keep[start : start + size]
    for index, coefficient, params in streams:
        # The product's temporary is made only once _normal_chunk has freed its bits.
        out += coefficient * _normal_chunk(seed, index, params, start, target)


def _fc_samples(chain: ToleranceChain, rule: SigmaRule, n: int, seed: int, size: int, run: Callable) -> np.ndarray:
    """``sample_chain(chain, rule, n, seed).fc_samples`` bit for bit, by one job per chunk over every dimension."""
    streams = list(_streams(chain, rule).values())
    fc = np.zeros(n, dtype=np.float64)
    list(run(partial(_add_draws, fc, seed, streams, size, None), range(0, n, size)))
    return fc


def statistical_interval(
    samples: Sequence[float] | np.ndarray, coverage_sigmas: float = DEFAULTS["coverage_sigmas"]
) -> IntervalResult:
    """Mean +/- ``coverage_sigmas`` sample standard deviations.

    The standard deviation uses the n-1 denominator; a single sample has
    stdev 0. The default coverage of 3 reads as the conventional 99.73%
    two-sided normal coverage. The samples' mean and stdev must be finite;
    ``coverage_sigmas`` must be finite, > 0, and keep the interval finite.
    """
    arr = np.array(samples, dtype=np.float64)  # a copy, which the moments overwrite
    if arr.size == 0:
        raise ValueError("statistical_interval requires a non-empty sample set")
    return _interval(*_moments_in_place(arr), coverage_sigmas)


def _moments_in_place(x: np.ndarray, of: str = "") -> tuple[float, float]:
    """``(x.mean(), x.std(ddof=1))``, or stdev 0 for one element, by numpy's own steps; overwrites ``x``. Both must
    be finite, or the error blames the samples, which ``of`` names (such as ``" of dimension 'a'"``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.sum()) / x.size
        np.subtract(x, mean, out=x)
        np.square(x, out=x)
        moments = mean, (math.sqrt(float(x.sum()) / (x.size - 1)) if x.size > 1 else 0.0)
    if not all(map(math.isfinite, moments)):
        raise ValueError("the samples%s hold a NaN or an inf, or their spread overflows: mean %r, stdev %r"
                         % (of, *moments))
    return moments


def _interval(mean: float, stdev: float, coverage_sigmas: float) -> IntervalResult:
    """The statistical interval mean +/- ``coverage_sigmas`` * stdev."""
    check("coverage_sigmas", coverage_sigmas)
    bounds = (mean - coverage_sigmas * stdev, mean + coverage_sigmas * stdev, 2.0 * coverage_sigmas * stdev)
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"coverage_sigmas {coverage_sigmas!r} makes the interval of stdev {stdev!r} non-finite")
    return IntervalResult(*bounds)


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

    A missing bound contributes nothing; +/-inf counts as below or above, and
    NaN is an error. The confidence half-width is the normal approximation
    1.96 * sqrt(p(1-p)/n), adequate for n in the thousands and beyond.
    """
    if condition is None or not condition.is_bounded:
        raise ValueError("scrap_rate requires a condition with at least one bound")
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("scrap_rate requires a non-empty sample set")
    if math.isnan(arr.min()):  # min propagates NaN
        raise ValueError(f"{np.count_nonzero(np.isnan(arr))} of {arr.size} samples are NaN, neither inside nor outside")
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


def samples_csv(batch: SampleBatch, start: int = 0, stop: int | None = None) -> str:
    """Rows [start, stop) of the batch as CSV, 9 significant digits; ``start`` a multiple of 4.

    The header ``index,<dimension names...>,<fc name>`` leads only at ``start``
    0, so consecutive ranges join into the whole export, which is the default.
    """
    if start < 0 or start % 4:
        raise ValueError(f"start must be a non-negative multiple of 4, got {start}")
    stop = batch.n if stop is None else min(stop, batch.n)
    header = io.StringIO()
    if start == 0:
        csv.writer(header, lineterminator="\n").writerow(["index", *batch.per_dimension.keys(), batch.fc_name])
    parts = [header.getvalue()]
    row = "%d" + ",%.9g" * (len(batch.per_dimension) + 1) + "\n"
    # The index rides in the float block; %d prints it exactly below 2**53.
    for lo in range(start, stop, _EXPORT_ROWS):
        hi = min(lo + _EXPORT_ROWS, stop)
        block = np.column_stack([np.arange(lo, hi), *batch.per_dimension.rows(lo, hi - lo), batch.fc_samples[lo:hi]])
        parts.append(row * (hi - lo) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _samples_csv_blocks(batch: SampleBatch) -> Iterator[str]:
    """The samples export in blocks of ``_EXPORT_ROWS`` rows, for a caller that writes each as it comes."""
    # samples_csv is looked up at each call, so a wrapper put on it sees every block.
    for start in range(0, batch.n, _EXPORT_ROWS):
        yield samples_csv(batch, start, start + _EXPORT_ROWS)


def histogram_csv(samples: Sequence[float] | np.ndarray, bins: int = DEFAULTS["bins"]) -> str:
    """Binned counts of the samples as CSV rows ``bin_lower,bin_upper,count``."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("histogram requires a non-empty sample set")
    check("bins", bins)
    low, high = float(arr.min()), float(arr.max())  # min and max propagate NaN
    if not math.isfinite(high - low):
        raise ValueError(f"the samples hold a NaN or an inf, or their range overflows: min {low!r}, max {high!r}")
    counts, edges = np.histogram(arr, bins=bins)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bin_lower", "bin_upper", "count"])
    for i in range(bins):
        writer.writerow([format(edges[i], ".9g"), format(edges[i + 1], ".9g"), int(counts[i])])
    return buffer.getvalue()


def batch_summary(
    chain: ToleranceChain, batch: SampleBatch, rule: SigmaRule, coverage_sigmas: float = DEFAULTS["coverage_sigmas"]
) -> dict[str, Any]:
    """Summary statistics of a batch as a plain dict (JSON-ready).

    Contains per-dimension and functional-condition sample moments and
    statistical intervals, the analytically propagated moments, and — when the
    chain carries a bounded condition — the observed and analytic scrap.
    """

    def _stats(mean: float, stdev: float) -> dict[str, Any]:
        return {"mean": mean, "stdev": stdev, "interval": asdict(_interval(mean, stdev, coverage_sigmas))}

    summary: dict[str, Any] = {
        "n": batch.n,
        "seed": batch.seed,
        "coverage_sigmas": coverage_sigmas,
        "per_dimension": {name: _stats(*moments) for name, moments in batch.moments.items()},
        "fc": {"name": batch.fc_name,  # moments of a copy, which they overwrite
               **_stats(*_moments_in_place(np.array(batch.fc_samples), f" of condition {batch.fc_name!r}"))},
        "analytic": asdict(propagate_analytic(chain, rule)),
    }
    if chain.condition is not None and chain.condition.is_bounded:
        summary["scrap"] = asdict(scrap_rate(batch.fc_samples, chain.condition))
        summary["analytic_scrap"] = analytic_scrap(chain, rule)
    return summary
