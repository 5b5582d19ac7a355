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


# The inverse of the standard normal CDF, by cephes' ndtri (S. L. Moshier, Methods
# and Programs for Mathematical Functions, 1989), which scipy.special.ndtri still
# implements. On the central region e**-2 < y <= 1 - e**-2 it is a rational
# function of (y - 0.5)**2, by cephes' own steps, so its bits are scipy's. In
# either tail it takes x = sqrt(-2 log y') of the nearer tail y' and returns
# +/-(x - log(x)/x - r(1/x)), r rational, one for x < 8 and one beyond. Their log
# is fdlibm's, built of IEEE +, -, *, / and frexp. These and sqrt round alike on
# every host, so no bit follows numpy's SIMD dispatch or the platform's libm.
_E2 = 0.13533528323661269189  # e**-2
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# cephes' P0 and Q0 for the central region; each Q leads with an implied 1.0.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0)
# P1 and Q1 for 2 <= x < 8, that is y' down to e**-32.
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0, -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# P2 and Q2 for x >= 8.
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2, 3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9)
# fdlibm's ln 2, split so that k * _LN2_HI is exact, and its Lg7 ... Lg1.
_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42feep-1"), float.fromhex("0x1.a39ef35793c76p-33")
_LG = tuple(map(float.fromhex, ("0x1.2f112df3e5244p-3", "0x1.39a09d078c69fp-3", "0x1.7466496cb03dep-3",
                                "0x1.c71c51d8e78afp-3", "0x1.2492494229359p-2", "0x1.999999997fa04p-2",
                                "0x1.5555555555593p-1")))
# Rows per block of the transform, at most. Its scratch takes 40 bytes a row, so
# sample_chain's one scratch is 1 MB, beside its two arrays of n; fewer rows
# would pay numpy's cost per call more often.
_NDTRI_ROWS = 24576


def _rational(x: np.ndarray, num: np.ndarray, den: np.ndarray, p: tuple[float, ...], q: tuple[float, ...]
              ) -> np.ndarray:
    """``x * polevl(x, p) / p1evl(x, q)`` into ``num``, by cephes' own steps: polevl is Horner's rule on ``p``,
    and p1evl the same on ``q`` after an implied leading 1.0. ``den`` is a work array."""
    np.multiply(x, p[0], out=num)
    num += p[1]
    for c in p[2:]:
        num *= x
        num += c
    np.add(x, q[0], out=den)
    for c in q[1:]:
        den *= x
        den += c
    num *= x
    num /= den
    return num


def _scratch(rows: int) -> np.ndarray:
    """Work rows for ``_ndtri`` in blocks of up to ``rows`` rows, at least one."""
    return np.empty((5, max(1, rows)))


def _log(v: np.ndarray, work: np.ndarray) -> None:
    """The natural log of each positive normal double of ``v``, in place, as fdlibm's ``__ieee754_log`` takes it
    (within 1 ulp): ``v = 2**k (1 + f)`` with ``sqrt(1/2) <= 1 + f < sqrt(2)``, ``s = f / (2 + f)``, and
    ``log(1 + f) = f - (f*f/2 - s (f*f/2 + R(s*s)))``, R a polynomial. ``work`` is three rows of ``v``'s size."""
    s, z, r = work
    _, k = np.frexp(v, out=(v, np.empty(v.size, dtype=np.intc)))  # v in [0.5, 1)
    small = v < math.sqrt(0.5)
    np.ldexp(v, small, out=v)
    k -= small
    v -= 1.0  # f, exactly
    np.add(v, 2.0, out=s)
    np.divide(v, s, out=s)
    np.multiply(s, s, out=z)
    np.multiply(z, _LG[0], out=r)
    for c in _LG[1:]:
        r += c
        r *= z
    np.multiply(v, v, out=z)
    z *= 0.5  # f*f/2
    r += z
    r *= s
    np.multiply(k, _LN2_LO, out=s)
    r += s
    np.subtract(z, r, out=z)
    z -= v
    np.multiply(k, _LN2_HI, out=v)
    v -= z


def _ndtri(y: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """cephes' ``ndtri`` of each element of the 1-D ``y``, which lie in [2**-54, 1 - 2**-52], in place, in blocks
    of the rows of ``scratch``, from ``_scratch`` (by default, one of up to ``_NDTRI_ROWS``)."""
    if scratch is None:
        scratch = _scratch(min(y.size, _NDTRI_ROWS))
    rows = scratch.shape[1]
    for first in range(0, y.size, rows):
        _ndtri_block(y[first:first + rows], scratch)
    return y


def _ndtri_block(y: np.ndarray, scratch: np.ndarray) -> None:
    """``_ndtri`` of one block. The tails' rows are gathered into the scratch and run there; the central
    function then runs on every row, and the tails' results are put back over it."""
    index = np.flatnonzero((y <= _E2) | (y > 1.0 - _E2))
    # The tails, on their rows alone: x = sqrt(-2 log y') of the nearer tail y',
    # then x - log(x)/x - r(1/x), and the sign of y - 0.5.
    x, *work = scratch[:, :index.size]
    np.take(y, index, out=x)
    upper = x > 0.5
    np.subtract(1.0, x, out=work[0])
    np.minimum(x, work[0], out=x)  # y', exactly
    _log(x, work[:3])
    x *= -2.0
    np.sqrt(x, out=x)
    far = np.flatnonzero(x >= 8.0)
    log_x, inverse = work[:2]
    np.copyto(log_x, x)
    _log(log_x, work[1:])
    log_x /= x
    np.divide(1.0, x, out=inverse)
    x -= log_x
    ratio = _rational(inverse, *work[2:], _P1, _Q1)
    if far.size:  # y' below e**-32, so rarely drawn
        ratio[far] = _rational(inverse[far], *np.empty((2, far.size)), _P2, _Q2)
    x -= ratio
    np.subtract(upper, 0.5, out=work[0])
    np.copysign(x, work[0], out=x)

    # The central function, on every row: (y + y r(y*y)) sqrt(2 pi), y taken less 0.5.
    y -= 0.5
    square, num, den = scratch[1:4, :y.size]
    np.multiply(y, y, out=square)
    ratio = _rational(square, num, den, _P0, _Q0)
    ratio *= y
    y += ratio
    y *= _S2PI
    y[index] = x


def _to_normal(uniforms: np.ndarray, sigma: float | np.ndarray, mean: float | np.ndarray,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """The normal draws of ``uniforms``, each word's top 53 bits times 2**-53, in place, through ``_ndtri`` on
    ``scratch``. ``uniforms`` is contiguous in C or Fortran order. ``sigma`` and ``mean`` are numbers or, for the
    rows of ``uniforms``, columns."""
    # Capped at 1 - 2**-52 and centered, the uniform lies in [2**-54, 1 - 2**-52],
    # so the inverse CDF below stays finite. (Uncapped, the top word's
    # 1 - 2**-53 + 2**-54 would round to 1.) With top the word's top 53 bits,
    # this rounds as mean + sigma * ndtri((top + 0.5) * 2**-53).
    np.minimum(uniforms, 1.0 - 2.0**-52, out=uniforms)
    uniforms += 2.0**-54
    _ndtri(uniforms.ravel(order="K"), scratch)  # a view, in memory order
    uniforms *= sigma
    uniforms += mean
    return uniforms


class _Columns(Mapping[str, np.ndarray]):
    """Each dimension's samples, re-drawn from its Philox stream on every access."""

    def __init__(self, seed: int, n: int, streams: dict[str, tuple[int, float, DistributionParams]]) -> None:
        self._seed, self._n, self._streams = seed, n, streams

    def rows(self, start: int, count: int) -> np.ndarray:
        """Rows [start, start+count) of every column, one column a row, by one transform."""
        drawn = np.empty((len(self._streams), count))
        for (index, _, _), row in zip(self._streams.values(), drawn):
            _stream(self._seed, index, start).random(out=row)
        sigma, mean = np.array([(p.sigma, p.mean) for _, _, p in self._streams.values()]).T[:, :, None]
        return _to_normal(drawn, sigma, mean)

    def __getitem__(self, name: str) -> np.ndarray:
        index, _, params = self._streams[name]
        # A scratch of n/256 rows (at least 512) holds about 2% of the column's bytes.
        scratch = _scratch(min(self._n, _NDTRI_ROWS, max(512, self._n // 256)))
        column = _to_normal(_stream(self._seed, index, 0).random(self._n), params.sigma, params.mean, scratch)
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
    how many threads draw the chunks' uniforms; the output is bit-identical
    for any worker count. Each dimension is drawn into one reused buffer,
    transformed there block by block, and its moments are then taken in place,
    so peak memory is about two arrays of ``n`` doubles for any dimension
    count. A chain whose worst case overflows raises ``ChainValidationError``
    before anything is drawn.

    Args:
        chain: the chain to realize.
        rule: tolerance-to-sigma mapping for every dimension.
        n: number of realizations, >= 1.
        seed: 64-bit unsigned stream selector.
        workers: thread count for drawing uniforms (>= 1), capped at and by default the usable cores.
    """
    check("samples", n)
    check("seed", seed)
    with _chunk_jobs(n, workers) as run:
        streams = _streams(chain, rule)
        fc = np.zeros(n, dtype=np.float64)
        buf = np.empty(n, dtype=np.float64)
        scratch = _scratch(min(n, _NDTRI_ROWS))
        moments: dict[str, tuple[float, float]] = {}
        for name, (index, coefficient, params) in streams.items():
            run(lambda start, stop: _stream(seed, index, start).random(out=buf[start:stop]))
            _add_draws(fc, coefficient, params, buf, scratch)
            moments[name] = _moments_in_place(buf, f" of dimension {name!r}")
    fc.setflags(write=False)

    fc_name = chain.condition.name if chain.condition is not None else "fc"
    return SampleBatch(chain_name=chain.name, n=n, seed=seed, per_dimension=_Columns(seed, n, streams),
                       moments=moments, fc_samples=fc, fc_name=fc_name)


@contextmanager
def _chunk_jobs(n: int, workers: int) -> Iterator[Callable[[Callable], list]]:
    """``run``, where ``run(job)`` is ``[job(start, stop), ...]`` over [0, n) in order: equal chunks of at most
    _CHUNK rows, in a multiple of the thread count, run on a pool capped at the usable cores, or in the caller
    at one thread."""
    check("workers", workers)
    threads = min(workers, usable_cores())
    chunks = -(-n // _CHUNK)
    chunks += -chunks % threads
    step = -(-n // chunks)
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        apply = map if pool is None else pool.map
        yield lambda job: list(apply(lambda start: job(start, min(start + step, n)), range(0, n, step)))


def _streams(chain: ToleranceChain, rule: SigmaRule) -> dict[str, tuple[int, float, DistributionParams]]:
    """Each dimension's ``(stream index, coefficient, distribution)`` by name, in chain order."""
    worst_case(chain)  # an overflow is the chain's fault, as in analyze
    return {d.name: (i, d.coefficient, derive_distribution(d, rule)) for i, d in enumerate(chain.dimensions)}


def _add_draws(fc: np.ndarray, coefficient: float, params: DistributionParams, draws: np.ndarray,
               scratch: np.ndarray) -> None:
    """Turns the uniforms ``draws`` into normal draws in place and adds ``coefficient * draws`` to ``fc``, block
    by block through ``scratch``, so that nothing else of their size is allocated. Elementwise, so the blocks
    change no bit.

    This runs in the calling thread. numpy frees the interpreter lock around
    each of the transform's passes, which are short, so two threads running
    them at once hand the lock back and forth: on 2 cores, sample_chain took
    1.1-1.3 s on 16 dimensions at n = 1e6 with the transform in two threads,
    and 0.7-0.9 s with it in one."""
    product = scratch[0]
    for first in range(0, draws.size, product.size):
        block = _to_normal(draws[first:first + product.size], params.sigma, params.mean, scratch)
        out = fc[first:first + block.size]
        out += np.multiply(coefficient, block, out=product[:block.size])


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
    # Bucket b's uniforms lie in [b/4096, (b+1)/4096), and _to_normal is monotone
    # up to its error, so it maps those two ends to bounds on the bucket's draws.
    # _ndtri's central bits are scipy's, its tails lie within 6 ulps of scipy's
    # (tested), and cephes documents scipy's peak error as 7.2e-16, so a draw is
    # within about 2e-15 relative of the true quantile and falls out of order by
    # less than 4e-15. Each edge is widened by 1e-12 relative, 250 times that.
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
    """``(rows, below, above, NaN)`` counts of the samples on rows [start, stop): the brackets block by block, then
    the undecided rows of every block by one transform. ``tables`` holds each dimension's least and greatest term
    by bucket, and ``columns`` their sigma, mean and coefficient."""
    low, high = bounds
    sigma, mean, coefficient = columns
    block = min(_COUNT_ROWS, stop - start)
    streams = [_stream(seed, index, start) for index in range(len(tables))]
    # Reused block by block: fresh arrays cost page faults, which threads take in turn.
    uniforms, buckets = np.empty((len(tables), block)), np.empty((len(tables), block), dtype=np.intp)
    sums, terms = np.empty((block, 2)), np.empty((block, 2))
    below = above = 0
    undecided = []
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
        below += np.count_nonzero(sure_below)
        above += np.count_nonzero(sure_above)
        undecided.append(drawn[:, np.flatnonzero(~(sure_below | sure_above | (lo >= low) & (hi <= high)))])
    draws = _to_normal(np.concatenate(undecided, axis=1), sigma, mean)
    draws *= coefficient
    fc = np.zeros(draws.shape[1])
    for draw in draws:  # in chain order from +0.0, as sample_chain adds them
        fc += draw
    below += np.count_nonzero(fc < low)
    above += np.count_nonzero(fc > high)
    return stop - start, int(below), int(above), int(np.count_nonzero(np.isnan(fc)))


def analytic_scrap(chain: ToleranceChain, rule: SigmaRule) -> float:
    """Exact out-of-bounds probability under the propagated normal model.

    Computes Phi((min - mu)/sigma) + 1 - Phi((max - mu)/sigma), each tail as
    0.5 * erfc(distance / sigma / sqrt(2)) of the bound's distance beyond the
    mean, so that neither tail cancels and a chain and its mirror image agree;
    an absent bound, read as -inf or +inf, contributes exactly 0. A zero-sigma
    chain is a point mass: scrap is 0 or 1 depending on whether the mean sits
    inside the (closed) bounds.
    """
    condition = chain.condition
    if condition is None or not condition.is_bounded:
        raise ValueError("analytic_scrap requires a condition with at least one bound")
    low, high = condition.bounds
    params = propagate_analytic(chain, rule)
    if params.sigma == 0.0:
        return float(params.mean < low) + float(params.mean > high)
    return sum(0.5 * math.erfc(distance / params.sigma / math.sqrt(2.0))
               for distance in (params.mean - low, high - params.mean))


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
