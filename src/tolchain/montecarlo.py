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
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Any, Callable, ClassVar, Iterator, Mapping, Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri

from .model import (
    DEFAULTS,
    DimensionSpec,
    FunctionalCondition,
    IntervalResult,
    ToleranceChain,
    as_real,
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

# Rows per chunk job, at most.
_CHUNK = 65536
# Rows per block of the samples export, few enough that a block's re-drawn
# columns and text stay a few hundred kilobytes.
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
            clean, rule = {}, "must be finite and >= 0, got {!r}"
            for name, sigma in self.sigmas.items():
                clean[str(name)] = as_real(sigma, f"explicit sigma for {name!r}", lambda s: 0.0 <= s < math.inf, rule)
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
        mean, sigma = (as_real(getattr(self, name), name, lambda _: True) for name in ("mean", "sigma"))
        if not (math.isfinite(mean) and math.isfinite(sigma)):
            raise ValueError("distribution parameters must be finite")
        if sigma < 0.0:
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


def _stream(seed: int, index: int, start: int) -> Generator:
    """Philox stream ``index`` from word ``start``. The counter counts blocks of four 64-bit words, and each
    uniform takes one word, so the stream enters at its block and passes the words before ``start``."""
    stream = Generator(Philox(counter=start // 4, key=np.array([seed, index], dtype=np.uint64)))
    stream.random(start % 4)
    return stream


def _to_normal(uniforms: np.ndarray, sigma: float | np.ndarray, mean: float | np.ndarray) -> np.ndarray:
    """The normal draws of ``uniforms``, each word's top 53 bits times 2**-53, in place. ``sigma`` and ``mean``
    are numbers or, for the rows of ``uniforms``, columns."""
    # Capped at 1 - 2**-52 and centered, the uniform lies in [2**-54, 1 - 2**-52],
    # so the inverse CDF below stays finite. (Uncapped, the top word's
    # 1 - 2**-53 + 2**-54 would round to 1.) With top the word's top 53 bits,
    # this rounds as mean + sigma * ndtri((top + 0.5) * 2**-53).
    np.minimum(uniforms, 1.0 - 2.0**-52, out=uniforms)
    uniforms += 2.0**-54
    ndtri(uniforms, out=uniforms)
    uniforms *= sigma
    uniforms += mean
    return uniforms


def _normal_chunk(seed: int, index: int, params: DistributionParams, start: int, out: np.ndarray) -> np.ndarray:
    """Fills ``out`` with draws [start, start+out.size) of stream ``index``."""
    return _to_normal(_stream(seed, index, start).random(out=out), params.sigma, params.mean)


class _Columns(Mapping[str, np.ndarray]):
    """Each dimension's samples, re-drawn from its Philox stream on every access."""

    def __init__(self, seed: int, n: int, streams: dict[str, tuple[int, float, DistributionParams]]) -> None:
        self._seed, self._n, self._streams = seed, n, streams

    def rows(self, start: int, count: int) -> list[np.ndarray]:
        """Rows [start, start+count) of every column."""
        return [_normal_chunk(self._seed, i, p, start, np.empty(count)) for i, _, p in self._streams.values()]

    def __getitem__(self, name: str) -> np.ndarray:
        index, _, params = self._streams[name]
        column = _normal_chunk(self._seed, index, params, 0, np.empty(self._n))
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
    with _chunk_jobs(n, workers) as run:
        streams = _streams(chain, rule)
        fc = np.zeros(n, dtype=np.float64)
        buf = np.empty(n, dtype=np.float64)
        moments: dict[str, tuple[float, float]] = {}
        for name, stream in streams.items():
            run(partial(_add_draws, fc, seed, stream, buf))
            moments[name] = _moments_in_place(buf, f" of dimension {name!r}")
    fc.setflags(write=False)

    fc_name = chain.condition.name if chain.condition is not None else "fc"
    return SampleBatch(chain_name=chain.name, n=n, seed=seed, per_dimension=_Columns(seed, n, streams),
                       moments=moments, fc_samples=fc, fc_name=fc_name)


@contextmanager
def _chunk_jobs(n: int, workers: int) -> Iterator[Callable[[Callable], list]]:
    """``run``, where ``run(job)`` is ``[job(start, stop), ...]`` over [0, n) in order: equal chunks of at most
    _CHUNK rows, in a multiple of the thread count, run on a pool capped at the usable cores, or in the caller
    at 1 worker."""
    check("workers", workers)
    threads = min(workers, usable_cores())
    chunks = -(-n // _CHUNK)
    chunks += -chunks % threads
    edges = [*range(0, n, -(-n // chunks)), int(n)]
    with ThreadPoolExecutor(max_workers=threads) if workers > 1 else nullcontext() as pool:
        apply = map if pool is None else pool.map
        yield lambda job: list(apply(lambda span: job(*span), zip(edges, edges[1:])))


def _streams(chain: ToleranceChain, rule: SigmaRule) -> dict[str, tuple[int, float, DistributionParams]]:
    """Each dimension's ``(stream index, coefficient, distribution)`` by name, in chain order."""
    worst_case(chain)  # an overflow is the chain's fault, as in analyze
    return {d.name: (i, d.coefficient, derive_distribution(d, rule)) for i, d in enumerate(chain.dimensions)}


def _add_draws(fc: np.ndarray, seed: int, stream: tuple[int, float, DistributionParams], keep: np.ndarray,
               start: int, stop: int) -> None:
    """``fc += coefficient * draws`` on rows [start, stop), drawn into those rows of ``keep``. Elementwise, so the
    chunking changes no bit."""
    index, coefficient, params = stream
    out = fc[start:stop]
    out += coefficient * _normal_chunk(seed, index, params, start, keep[start:stop])


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
    low, high = condition.bounds
    nans = int(np.count_nonzero(np.isnan(arr))) if math.isnan(arr.min()) else 0  # min propagates NaN
    return _scrap_report(arr.size, int(np.count_nonzero(arr < low)), int(np.count_nonzero(arr > high)), nans)


def _scrap_report(n: int, below: int, above: int, nans: int) -> ScrapReport:
    """The report of ``n`` samples, ``below`` and ``above`` of them outside, with the Wald half-width; any NaN
    sample is an error."""
    if nans:
        raise ValueError(f"{nans} of {n} samples are NaN, neither inside nor outside")
    rate = (below + above) / n
    half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / n)
    return ScrapReport(n=n, below=below, above=above, scrap_rate=rate, ci95_half_width=half_width)


# Rows per block of the scrap count. Each thread holds a block's uniforms of
# every dimension; smaller blocks lose time to the interpreter lock.
_COUNT_ROWS = 16384


@cache
def _bracket() -> np.ndarray:
    """Row b: bounds on ndtri of every value _to_normal passes it from a uniform whose top 12 bits are b. Built
    on first use, so that only synthesis holds it."""
    # Bucket b's uniforms lie in [b/4096, (b+1)/4096), and _to_normal is monotone,
    # so it maps those two ends to bounds on the bucket's draws. Each edge is
    # widened by 1e-12 relative, about 2000 times cephes' documented peak error.
    edges = _to_normal(np.append(np.arange(4096) / 4096, 1.0), 1.0, 0.0)
    bracket = np.stack([edges[:-1] - np.abs(edges[:-1]) * 1e-12, edges[1:] + np.abs(edges[1:]) * 1e-12], axis=1)
    bracket.setflags(write=False)
    return bracket


def _scrap_counts(chain: ToleranceChain, rule: SigmaRule, seed: int, run: Callable) -> ScrapReport:
    """``scrap_rate(sample_chain(chain, rule, n, seed).fc_samples, chain.condition)`` for the ``n`` rows of ``run``
    (from ``_chunk_jobs``), by one job per chunk over every dimension, without holding the samples. The condition
    must have a bound.

    Each draw's bucket brackets its term: the bucket's edges carried through
    the sampler's own steps. The terms' brackets add up in chain order, and
    IEEE rounding is monotone, so a row's bracket holds its sample. Only a row
    whose bracket has a NaN end or straddles a bound is drawn exactly.
    """
    streams = list(_streams(chain, rule).values())
    tables = []
    with np.errstate(over="ignore", invalid="ignore"):  # an edge may overflow where no draw does
        for _, coefficient, params in streams:
            ends = _bracket() * params.sigma
            ends += params.mean
            ends *= coefficient
            tables.append(ends if coefficient > 0.0 else ends[:, ::-1].copy())  # the low edge's term is the greater
    # Rows sigma, mean and coefficient, each a column over the dimensions.
    columns = np.array([(p.sigma, p.mean, c) for _, c, p in streams]).T[:, :, None]
    return _scrap_report(*map(sum, zip(*run(partial(_count_rows, seed, tables, columns, chain.condition.bounds)))))


def _count_rows(seed: int, tables: list[np.ndarray], columns: np.ndarray, bounds: tuple[float, float], start: int,
                stop: int) -> tuple[int, int, int, int]:
    """``(rows, below, above, NaN)`` counts of the samples on rows [start, stop), block by block. ``tables`` holds
    each dimension's least and greatest term by bucket, and ``columns`` their sigma, mean and coefficient."""
    low, high = bounds
    sigma, mean, coefficient = columns
    block = min(_COUNT_ROWS, stop - start)
    streams = [_stream(seed, index, start) for index in range(len(tables))]
    # Reused block by block: fresh arrays cost page faults, which threads take in turn.
    uniforms, buckets = np.empty((len(tables), block)), np.empty((len(tables), block), dtype=np.intp)
    sums, terms = np.empty((block, 2)), np.empty((block, 2))
    below = above = nans = 0
    for first in range(start, stop, block):
        rows = min(block, stop - first)
        drawn, bucket, bracket, term = uniforms[:, :rows], buckets[:, :rows], sums[:rows], terms[:rows]
        for stream, row in zip(streams, drawn):
            stream.random(out=row)
        np.multiply(drawn, 4096.0, out=bucket, casting="unsafe")  # the top 12 bits
        with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow, or be inf - inf
            np.take(tables[0], bucket[0], axis=0, out=bracket, mode="clip")
            for table, index in zip(tables[1:], bucket[1:]):
                np.take(table, index, axis=0, out=term, mode="clip")
                bracket += term
        # No term is NaN, as no coefficient is 0, so a NaN sample needs +inf and
        # -inf. A hi that is a number rules out +inf in every term and partial
        # sum of the sample, and a lo that is a number rules out -inf: a row
        # either end decides has a sample that is no NaN and lies on the same
        # side of the bound. A NaN end, from inf - inf, decides nothing.
        lo, hi = bracket.T
        sure_below, sure_above = hi < low, lo > high
        exact = np.flatnonzero(~(sure_below | sure_above | (lo >= low) & (hi <= high)))
        draws = _to_normal(drawn[:, exact], sigma, mean)
        draws *= coefficient
        fc = np.zeros(exact.size)
        for draw in draws:  # in chain order from +0.0, as sample_chain adds them
            fc += draw
        below += np.count_nonzero(sure_below) + np.count_nonzero(fc < low)
        above += np.count_nonzero(sure_above) + np.count_nonzero(fc > high)
        nans += np.count_nonzero(np.isnan(fc))
    return stop - start, int(below), int(above), int(nans)


def analytic_scrap(chain: ToleranceChain, rule: SigmaRule) -> float:
    """Exact out-of-bounds probability under the propagated normal model.

    Computes Phi((min - mu)/sigma) + 1 - Phi((max - mu)/sigma) with the
    machine-accurate normal CDF; an absent bound, read as -inf or +inf,
    contributes exactly 0. A zero-sigma chain is a point mass: scrap is 0
    or 1 depending on whether the mean sits inside the (closed) bounds.
    """
    condition = chain.condition
    if condition is None or not condition.is_bounded:
        raise ValueError("analytic_scrap requires a condition with at least one bound")
    low, high = condition.bounds
    params = propagate_analytic(chain, rule)
    if params.sigma == 0.0:
        return float(params.mean < low) + float(params.mean > high)
    return float(ndtr((low - params.mean) / params.sigma)) + float(1.0 - ndtr((high - params.mean) / params.sigma))


# --- exports -----------------------------------------------------------------


def samples_csv(batch: SampleBatch, start: int = 0, stop: int | None = None) -> str:
    """Rows [start, stop) of the batch as CSV, 9 significant digits.

    The header ``index,<dimension names...>,<fc name>`` leads only at ``start``
    0, so consecutive ranges join into the whole export, which is the default.
    """
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
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
    rows = np.column_stack([edges[:-1], edges[1:], counts]).ravel().tolist()
    return "bin_lower,bin_upper,count\n" + "%.9g,%.9g,%d\n" * bins % tuple(rows)


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
