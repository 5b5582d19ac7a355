"""Reference computations the tests check the library against."""

import csv
import io
import math

import numpy as np

from tolchain import DimensionSpec, SampleBatch, ScrapReport, SigmaRule, ToleranceChain, montecarlo, respecify
from tolchain import derive_distribution, scrap_rate


def recompute_fc(chain: ToleranceChain, batch: SampleBatch) -> np.ndarray:
    """Rebuild the functional-condition samples from the per-dimension arrays.

    Uses the same accumulation order as :func:`tolchain.sample_chain`, so the
    result is bit-identical to ``batch.fc_samples``.
    """
    fc = np.zeros(batch.n, dtype=np.float64)
    for d in chain.dimensions:
        fc += d.coefficient * batch.per_dimension[d.name]
    return fc


def whole_draw_scrap(chain: ToleranceChain, rule: SigmaRule, n: int, seed: int) -> ScrapReport:
    """``scrap_rate`` of the chain's condition samples, each column drawn whole.

    The columns are added in chain order from +0.0, as in
    :func:`tolchain.sample_chain`, but without its moments check, which
    rejects a column that holds an inf.
    """
    fc = np.zeros(n, dtype=np.float64)
    for index, d in enumerate(chain.dimensions):
        params = derive_distribution(d, rule)
        fc += d.coefficient * montecarlo._to_normal(montecarlo._stream(seed, index, 0).random(n), params.sigma,
                                                    params.mean)
    return scrap_rate(fc, chain.condition)


def reference_samples_csv(batch: SampleBatch) -> str:
    """The samples export formatted one row at a time with :mod:`csv`.

    :func:`tolchain.samples_csv` must produce exactly these bytes.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index", *batch.per_dimension.keys(), batch.fc_name])
    columns = [*batch.per_dimension.values(), batch.fc_samples]
    for k in range(batch.n):
        writer.writerow([k, *(format(column[k], ".9g") for column in columns)])
    return buffer.getvalue()


def one_double_wider(chain: ToleranceChain, solved: DimensionSpec) -> list[ToleranceChain]:
    """The chain with ``solved`` in place and one of its limits moved one double outward.

    The moved deviation is ``nextafter(limit, +/-inf) - nominal``. A move whose
    deviation leaves the limit where it was is dropped, so the list may hold
    fewer than the two chains, upper limit first.
    """
    chains = []
    up = math.nextafter(solved.max_limit, math.inf) - solved.nominal
    if solved.nominal + up != solved.max_limit:
        chains.append(respecify(chain, solved.name, up, solved.lower_dev))
    down = math.nextafter(solved.min_limit, -math.inf) - solved.nominal
    if solved.nominal + down != solved.min_limit:
        chains.append(respecify(chain, solved.name, solved.upper_dev, down))
    return chains
