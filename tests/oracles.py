"""Reference computations the tests check the library against."""

import csv
import io

import numpy as np

from tolchain import SampleBatch, ToleranceChain


def recompute_fc(chain: ToleranceChain, batch: SampleBatch) -> np.ndarray:
    """Rebuild the functional-condition samples from the per-dimension arrays.

    Uses the same accumulation order as :func:`tolchain.sample_chain`, so the
    result is bit-identical to ``batch.fc_samples``.
    """
    fc = np.zeros(batch.n, dtype=np.float64)
    for d in chain.dimensions:
        fc += d.coefficient * batch.per_dimension[d.name]
    return fc


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
