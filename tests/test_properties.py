"""Property-based invariants.

The six ``check_`` suites are the library's core invariants (round-trip,
translation, monotonicity, midpoint preservation, the widest solve, the exact
scrap count) and run with enlarged case counts; the dyadic strategies make
the equalities of the middle three exact rather than approximate. pytest does
not collect them here: acceptance criterion 9 in ``test_acceptance.py`` runs
each once. The tests cross-check the engines against brute-force oracles and
each other.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import one_double_wider, recompute_fc
from strategies import (
    chains,
    corner_extremes,
    dyadic_chains,
    dyadic_dimensions,
    dyadic_shifts,
    dyadic_widenings,
    solvable_chains,
)
from tolchain import montecarlo
from tolchain import (
    ConformityStatus,
    FunctionalCondition,
    SigmaRule,
    analytic_scrap,
    it_budget,
    parse_chain,
    propagate_analytic,
    respecify,
    sample_chain,
    scaled_deviations,
    scrap_rate,
    serialize_chain,
    solve_unknown,
    verify_worst_case,
    worst_case,
)

IT6 = SigmaRule.it6()


@settings(max_examples=250, deadline=None)
@given(chains(condition="sometimes"))
def check_round_trip_survives_serialization(chain):
    assert parse_chain(serialize_chain(chain)) == chain
    for d in chain.dimensions:
        assert d.min_limit <= d.max_limit
        assert d.it >= 0.0


@settings(max_examples=250, deadline=None)
@given(dyadic_chains(), dyadic_shifts(), st.data())
def check_translation_shifts_extremes_exactly(chain, delta, data):
    index = data.draw(st.integers(0, len(chain.dimensions) - 1))
    moved = chain.dimensions[index]
    dims = list(chain.dimensions)
    dims[index] = replace(moved, nominal=moved.nominal + delta)
    shifted = replace(chain, dimensions=tuple(dims))

    base = worst_case(chain)
    out = worst_case(shifted)
    offset = moved.coefficient * delta
    assert out.min == base.min + offset
    assert out.max == base.max + offset
    assert out.it == base.it


@settings(max_examples=250, deadline=None)
@given(dyadic_chains(), dyadic_widenings(), dyadic_widenings(), st.data())
def check_widening_never_shrinks_interval(chain, up, down, data):
    index = data.draw(st.integers(0, len(chain.dimensions) - 1))
    d = chain.dimensions[index]
    widened = respecify(chain, d.name, d.upper_dev + up, d.lower_dev - down)

    base = worst_case(chain)
    out = worst_case(widened)
    assert out.min <= base.min
    assert out.max >= base.max
    assert out.it >= base.it


@settings(max_examples=250, deadline=None)
@given(
    dyadic_dimensions(),
    st.sampled_from((0.0625, 0.125, 0.25, 0.5)),
    st.booleans(),
)
def check_adjustment_preserves_midpoint(dimension, factor, widen):
    scale = 1.0 + factor if widen else 1.0 - factor
    new_upper, new_lower = scaled_deviations(dimension, scale)
    adjusted = replace(dimension, upper_dev=new_upper, lower_dev=new_lower)

    assert new_lower <= new_upper
    assert adjusted.nominal == dimension.nominal
    assert adjusted.midpoint == dimension.midpoint
    assert adjusted.it == scale * dimension.it


@settings(max_examples=200, deadline=None)
@given(solvable_chains())
def check_solve_is_conforming_and_widest(case):
    chain, name = case
    solved = solve_unknown(chain, name)
    completed = respecify(chain, name, solved.upper_dev, solved.lower_dev)
    assert verify_worst_case(completed).status is ConformityStatus.CONFORMING
    wider = one_double_wider(chain, solved)
    assume(len(wider) == 2)
    for moved in wider:
        assert verify_worst_case(moved).status is not ConformityStatus.CONFORMING


@settings(max_examples=200, deadline=None)
@given(
    chains(max_dims=5),
    st.integers(-40, 40),
    st.integers(0, 80),
    st.sampled_from(("both", "min", "max")),
    st.integers(1, 40_000),
    st.integers(0, 2**64 - 1),
    st.integers(1, 3),
)
def check_scrap_count_equals_the_samples(chain, offset, width, kept, n, seed, workers):
    # Bounds a tenth of a sigma apart on a grid around the mean, so that rows
    # straddle them, and on the point mass of a chain of zero-width zones.
    params = propagate_analytic(chain, IT6)
    low = params.mean + offset / 10.0 * params.sigma
    high = params.mean + (offset + width) / 10.0 * params.sigma
    condition = FunctionalCondition("J", low if kept != "max" else None, high if kept != "min" else None)
    chain = replace(chain, condition=condition)
    with montecarlo._scrap_counter(n, workers) as count:
        counted = count(chain, IT6, seed)
    assert counted == scrap_rate(sample_chain(chain, IT6, n, seed).fc_samples, condition)


@settings(max_examples=200, deadline=None)
@given(chains(max_dims=6))
def test_extremes_match_corner_enumeration(chain):
    lo, hi = corner_extremes(chain)
    result = worst_case(chain)
    assert result.min == lo
    assert result.max == hi
    span = hi - lo
    assert math.isclose(result.it, span, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(chains(max_dims=8))
def test_budget_equals_worst_case_width(chain):
    assert it_budget(chain) == worst_case(chain).it


@settings(max_examples=60, deadline=None)
@given(
    chains(max_dims=4),
    st.integers(0, 2**32),
    st.integers(-3, 3),
)
def test_scaling_coefficients_scales_samples(chain, seed, exponent):
    factor = 2.0**exponent
    scaled = replace(
        chain,
        dimensions=tuple(
            replace(d, coefficient=d.coefficient * factor) for d in chain.dimensions
        ),
    )
    base = sample_chain(chain, IT6, 64, seed)
    out = sample_chain(scaled, IT6, 64, seed)
    for name in base.per_dimension:
        assert np.array_equal(out.per_dimension[name], base.per_dimension[name])
    assert np.array_equal(out.fc_samples, factor * base.fc_samples)


@settings(max_examples=100, deadline=None)
@given(chains(max_dims=5), st.integers(0, 2**64 - 1), st.integers(1, 128))
def test_fc_recomputes_from_dimension_samples(chain, seed, n):
    batch = sample_chain(chain, IT6, n, seed)
    assert np.array_equal(recompute_fc(chain, batch), batch.fc_samples)
    assert not batch.fc_samples.flags.writeable


@settings(max_examples=25, deadline=None, derandomize=True)
@given(chains(max_dims=4), st.integers(0, 2**32), st.integers(1, 300))
def test_sampling_is_deterministic(chain, seed, n):
    first = sample_chain(chain, IT6, n, seed)
    second = sample_chain(chain, IT6, n, seed)
    threaded = sample_chain(chain, IT6, n, seed, workers=3)
    assert np.array_equal(first.fc_samples, second.fc_samples)
    assert np.array_equal(first.fc_samples, threaded.fc_samples)
    for name in first.per_dimension:
        assert np.array_equal(first.per_dimension[name], threaded.per_dimension[name])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(chains(max_dims=4), st.integers(0, 2**32))
def test_sample_moments_track_propagation(chain, seed):
    n = 20_000
    params = propagate_analytic(chain, IT6)
    batch = sample_chain(chain, IT6, n, seed)
    mean = float(batch.fc_samples.mean())
    assert abs(mean - params.mean) <= 5.0 * params.sigma / math.sqrt(n) + 1e-12
    if params.sigma > 0.0:
        stdev = float(batch.fc_samples.std(ddof=1))
        assert abs(stdev / params.sigma - 1.0) <= 0.05


def _uniformly_scaled(chain, scale):
    out = chain
    for d in chain.dimensions:
        new_upper, new_lower = scaled_deviations(d, scale)
        out = respecify(out, d.name, new_upper, new_lower)
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chains(max_dims=5), st.data())
def test_analytic_scrap_monotone_in_zone_width(chain, data):
    params = propagate_analytic(chain, IT6)
    assume(params.sigma > 0.0)
    spread = max(params.sigma, 1e-6)
    lo = params.mean - data.draw(st.integers(5, 40)) / 10.0 * spread
    hi = params.mean + data.draw(st.integers(5, 40)) / 10.0 * spread
    bounded = replace(chain, condition=FunctionalCondition("J", lo, hi))

    p0 = analytic_scrap(bounded, IT6)
    shrunk = analytic_scrap(_uniformly_scaled(bounded, 0.9), IT6)
    widened = analytic_scrap(_uniformly_scaled(bounded, 1.1), IT6)
    assert shrunk <= p0 * (1.0 + 1e-12) + 1e-18
    assert widened >= p0 * (1.0 - 1e-12) - 1e-18
