"""Reference computations the tests check the library against."""

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
