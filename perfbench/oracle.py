"""Output checks for tolchain reports, computed without the library.

Every expected value comes from the chain file's own numbers and the
benchmark's arithmetic: exact ``fractions.Fraction`` sums for worst-case
results, and ``math.erfc`` for the normal model behind the Monte Carlo
results. The checks hold for any generated chain, any seed and any checkout
path. They read only report fields that are meant to stay: never
``chain_file`` (it echoes the path as passed) and never ``ci95_half_width``
(its interval is due to change).

A failed check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import hashlib
import io
import math
from fractions import Fraction
from typing import Any

import numpy as np

# Unit roundoff of an IEEE double.
U = 2.0**-53

# The synthesis loop's settings that the CLI does not expose: SynthesisConfig's
# defaults as documented in the README.
BAND = 0.25
FACTOR = 0.1
MAX_ITERATIONS = 50

# Statistical checks accept a deviation of up to six standard errors.
SIGMAS = 6.0

# "%.9g" keeps nine significant digits: a printed value is within this share
# of the double it stands for.
PRINT_REL = 5e-9


class CheckFailed(Exception):
    """An output differs from what the chain file implies."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- worst-case arithmetic ----------------------------------------------------


def exact_interval(dims: list[dict[str, Any]]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact worst-case ``(min, max, it_budget)`` of the dimensions' doubles."""
    low = high = budget = Fraction(0)
    for d in dims:
        a = Fraction(d["coefficient"])
        upper = Fraction(d["upper_dev"])
        lower = Fraction(d["lower_dev"])
        top = Fraction(d["nominal"]) + upper
        bottom = Fraction(d["nominal"]) + lower
        if a > 0:
            high += a * top
            low += a * bottom
        else:
            high += a * bottom
            low += a * top
        budget += abs(a) * (upper - lower)
    return low, high, budget


def magnitude(dims: list[dict[str, Any]]) -> float:
    """Sum of |coefficient| * (|nominal| + |upper_dev| + |lower_dev|)."""
    return sum(
        abs(d["coefficient"]) * (abs(d["nominal"]) + abs(d["upper_dev"]) + abs(d["lower_dev"]))
        for d in dims
    )


def rounding_bound(dims: list[dict[str, Any]], extra: float = 0.0) -> float:
    """Bound on the rounding error of a double-precision chain sum.

    Each of the k terms takes two roundings and the running sum k more, so
    the error is below (k+2)*U times the magnitude. The bound allows twice
    that plus two terms, i.e. 2(k+4)*U*(magnitude + extra).
    """
    return 2 * (len(dims) + 4) * U * (magnitude(dims) + extra)


def _bounds(condition: dict[str, Any] | None) -> tuple[float | None, float | None]:
    if condition is None:
        return None, None
    return condition.get("min"), condition.get("max")


def exact_status(doc: dict[str, Any]) -> str:
    """The worst-case conformity verdict in exact arithmetic."""
    imin, imax = _bounds(doc.get("condition"))
    if imin is None and imax is None:
        return "Unchecked"
    low, high, _ = exact_interval(doc["dimensions"])
    too_low = imin is not None and low < Fraction(imin)
    too_high = imax is not None and high > Fraction(imax)
    if too_low and too_high:
        return "NonConformingBoth"
    if too_low:
        return "NonConformingLow"
    if too_high:
        return "NonConformingHigh"
    return "Conforming"


def status_margin(doc: dict[str, Any]) -> float:
    """Smallest exact distance between a worst-case limit and an imposed bound."""
    imin, imax = _bounds(doc.get("condition"))
    low, high, _ = exact_interval(doc["dimensions"])
    gaps = []
    if imin is not None:
        gaps.append(abs(low - Fraction(imin)))
    if imax is not None:
        gaps.append(abs(high - Fraction(imax)))
    return float(min(gaps))


def available_it(doc: dict[str, Any], unknown: str) -> Fraction:
    """Exact IT left for ``unknown`` by the imposed window and the other dimensions."""
    imin, imax = _bounds(doc["condition"])
    known = Fraction(0)
    coefficient = None
    for d in doc["dimensions"]:
        if d["name"] == unknown:
            coefficient = Fraction(d["coefficient"])
        else:
            known += abs(Fraction(d["coefficient"])) * (Fraction(d["upper_dev"]) - Fraction(d["lower_dev"]))
    assert coefficient is not None, unknown
    return (Fraction(imax) - Fraction(imin) - known) / abs(coefficient)


# --- normal model ---------------------------------------------------------------


def it6_moments(dims: list[dict[str, Any]]) -> tuple[float, float]:
    """Mean and sigma of the condition when every sigma is IT/6."""
    mean = Fraction(0)
    variance = Fraction(0)
    for d in dims:
        a = Fraction(d["coefficient"])
        upper = Fraction(d["upper_dev"])
        lower = Fraction(d["lower_dev"])
        mean += a * (Fraction(d["nominal"]) + (upper + lower) / 2)
        variance += a * a * ((upper - lower) / 6) ** 2
    return float(mean), math.sqrt(variance)


def tail_masses(doc: dict[str, Any]) -> tuple[float, float]:
    """Normal-model probabilities of falling below the min and above the max."""
    mean, sigma = it6_moments(doc["dimensions"])
    imin, imax = _bounds(doc["condition"])
    below = 0.5 * math.erfc((mean - imin) / (sigma * math.sqrt(2.0))) if imin is not None else 0.0
    above = 0.5 * math.erfc((imax - mean) / (sigma * math.sqrt(2.0))) if imax is not None else 0.0
    return below, above


def count_within(count: int, n: int, p: float, what: str) -> None:
    """A binomial count lies within six standard deviations (plus six) of n*p."""
    spread = SIGMAS * math.sqrt(n * p * (1.0 - p)) + SIGMAS
    expect(abs(count - n * p) <= spread, f"{what}: {count} outside {n * p:.6g} +/- {spread:.3g}")


def close(value: float, expected: float, tol: float, what: str) -> None:
    expect(abs(value - expected) <= tol, f"{what}: {value!r} differs from {expected!r} by more than {tol:.3g}")


# --- report checks --------------------------------------------------------------


def check_header(report: dict[str, Any], command: str, chain_bytes: bytes, doc: dict[str, Any]) -> None:
    expect(report.get("tool") == "tolchain", "report does not name the tool")
    expect(report.get("command") == command, f"report command {report.get('command')!r} != {command!r}")
    expect(report.get("chain_sha256") == hashlib.sha256(chain_bytes).hexdigest(), "chain_sha256 does not match the file")
    expect(report.get("chain_name") == doc["name"], "chain_name does not match the file")


def _check_interval(computed: dict[str, Any], doc: dict[str, Any]) -> None:
    dims = doc["dimensions"]
    low, high, budget = exact_interval(dims)
    tol = rounding_bound(dims)
    close(computed["min"], float(low), tol, "worst-case min")
    close(computed["max"], float(high), tol, "worst-case max")
    close(computed["it"], float(budget), tol, "worst-case it")


def check_analyze(report: dict[str, Any], doc: dict[str, Any]) -> None:
    result = report["result"]
    _check_interval(result["interval"], doc)
    _, _, budget = exact_interval(doc["dimensions"])
    close(result["it_budget"], float(budget), rounding_bound(doc["dimensions"]), "it_budget")


def check_verify(report: dict[str, Any], doc: dict[str, Any], exit_code: int) -> None:
    result = report["result"]
    status = exact_status(doc)
    expect(result["status"] == status, f"status {result['status']!r}, exact arithmetic gives {status!r}")
    expect(exit_code == (1 if status.startswith("NonConforming") else 0), f"exit code {exit_code} for {status}")
    _check_interval(result["computed"], doc)
    imin, imax = _bounds(doc["condition"])
    imposed = result["imposed"]
    expect(imposed["min"] == imin and imposed["max"] == imax, "imposed bounds do not echo the file")


def check_solve(report: dict[str, Any], doc: dict[str, Any], unknown: str) -> None:
    solved = report["result"]["dimension"]
    original = next(d for d in doc["dimensions"] if d["name"] == unknown)
    expect(solved["name"] == unknown, f"solved {solved['name']!r}, asked for {unknown!r}")
    expect(solved["nominal"] == original["nominal"], "solve moved the nominal")
    expect(solved["coefficient"] == original["coefficient"], "solve changed the coefficient")
    expect(report["result"]["it"] == solved["upper_dev"] - solved["lower_dev"], "reported it is not upper - lower")

    completed = [
        {**d, "upper_dev": solved["upper_dev"], "lower_dev": solved["lower_dev"]} if d["name"] == unknown else d
        for d in doc["dimensions"]
    ]
    imin, imax = _bounds(doc["condition"])
    extra = abs(imin) + abs(imax)
    tol = rounding_bound(completed, extra)
    low, high, _ = exact_interval(completed)
    expect(float(low) >= imin - tol and float(high) <= imax + tol, "the completed chain does not conform")
    # The solver may step a deviation inward by a few ulps; allow eight.
    a = abs(original["coefficient"])
    tol_it = (rounding_bound(doc["dimensions"], extra) + 16 * U * (magnitude(doc["dimensions"]) + extra)) / a
    close(report["result"]["it"], float(available_it(doc, unknown)), tol_it, "solved it vs available it")


def _parse_csv(text: str, header: list[str], what: str) -> np.ndarray:
    lines = text.split("\n", 1)
    expect(lines[0] == ",".join(header), f"{what} header {lines[0]!r}")
    body = lines[1] if len(lines) > 1 else ""
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    expect(data.shape[1] == len(header), f"{what} has {data.shape[1]} columns")
    return data


def check_samples_csv(text: str, doc: dict[str, Any], n: int) -> None:
    """n rows, indexes 0..n-1, and fc = sum(coefficient * column) within %.9g rounding."""
    dims = doc["dimensions"]
    names = [d["name"] for d in dims]
    data = _parse_csv(text, ["index", *names, doc["condition"]["name"]], "samples CSV")
    expect(data.shape[0] == n, f"samples CSV has {data.shape[0]} rows, expected {n}")
    expect(bool(np.array_equal(data[:, 0], np.arange(n, dtype=np.float64))), "samples CSV index column")
    fc = data[:, -1]
    total = np.zeros(n)
    scale = np.abs(fc)
    for i, d in enumerate(dims):
        column = data[:, 1 + i]
        total += d["coefficient"] * column
        scale = scale + abs(d["coefficient"]) * np.abs(column)
    # Each printed value is within PRINT_REL of its double; the slack covers
    # the sum's own rounding.
    worst = float(np.max(np.abs(fc - total) - (PRINT_REL * 1.2) * scale))
    expect(worst <= 0.0, f"samples CSV fc column differs from the sum of its columns by {worst:.3g} beyond rounding")


def check_histogram_csv(text: str, n: int, bins: int) -> None:
    data = _parse_csv(text, ["bin_lower", "bin_upper", "count"], "histogram CSV")
    expect(data.shape[0] == bins, f"histogram has {data.shape[0]} bins, expected {bins}")
    expect(int(data[:, 2].sum()) == n, f"histogram counts sum to {int(data[:, 2].sum())}, expected {n}")
    expect(bool(np.all(data[:, 0] <= data[:, 1])), "histogram bin edges out of order")
    expect(bool(np.all(data[1:, 0] == data[:-1, 1])), "histogram bins are not contiguous")


def check_simulate(report: dict[str, Any], doc: dict[str, Any], n: int, seed: int) -> None:
    result = report["result"]
    dims = doc["dimensions"]
    expect(report["config"]["samples"] == n and result["n"] == n, "sample count")
    expect(report["config"]["seed"] == seed and result["seed"] == seed, "seed")

    mean, sigma = it6_moments(dims)
    se_mean = sigma / math.sqrt(n)
    se_stdev = sigma / math.sqrt(2.0 * (n - 1))
    fc = result["fc"]
    expect(fc["name"] == doc["condition"]["name"], "fc name")
    close(fc["mean"], mean, SIGMAS * se_mean, "fc mean vs analytic mean")
    close(fc["stdev"], sigma, SIGMAS * se_stdev, "fc stdev vs analytic sigma")
    close(result["analytic"]["mean"], mean, rounding_bound(dims), "analytic mean")
    close(result["analytic"]["sigma"], sigma, 1e-12 * sigma, "analytic sigma")

    per_dimension = result["per_dimension"]
    expect(list(per_dimension) == [d["name"] for d in dims], "per-dimension names")
    for d in dims:
        mid = d["nominal"] + (d["upper_dev"] + d["lower_dev"]) / 2.0
        s = (d["upper_dev"] - d["lower_dev"]) / 6.0
        stats = per_dimension[d["name"]]
        close(stats["mean"], mid, SIGMAS * s / math.sqrt(n) + rounding_bound([d]), f"{d['name']} mean")
        close(stats["stdev"], s, SIGMAS * s / math.sqrt(2.0 * (n - 1)), f"{d['name']} stdev")

    below, above = tail_masses(doc)
    scrap = result["scrap"]
    expect(scrap["n"] == n, "scrap n")
    count_within(scrap["below"], n, below, "scrap below")
    count_within(scrap["above"], n, above, "scrap above")
    count_within(scrap["below"] + scrap["above"], n, below + above, "scrap total")
    expect(scrap["scrap_rate"] == (scrap["below"] + scrap["above"]) / n, "scrap_rate is not the counted share")
    close(result["analytic_scrap"], below + above, 1e-9 * (below + above), "analytic_scrap")


def _apply(dims: list[dict[str, Any]], name: str, upper: float, lower: float) -> list[dict[str, Any]]:
    return [{**d, "upper_dev": upper, "lower_dev": lower} if d["name"] == name else d for d in dims]


def check_synthesize(report: dict[str, Any], doc: dict[str, Any], n: int, target: float) -> int:
    """Replays every iteration's decision; returns the realizations drawn."""
    result = report["result"]
    iterations = result["iterations"]
    expect(1 <= len(iterations) <= MAX_ITERATIONS, f"{len(iterations)} iterations")
    expect(result["converged"] is True, "synthesis did not converge")
    condition = doc["condition"]
    dims = [dict(d) for d in doc["dimensions"]]

    for k, record in enumerate(iterations):
        where = f"iteration {k}"
        expect(record["index"] == k, f"{where}: index {record['index']}")
        scrap = record["scrap"]
        count = scrap["below"] + scrap["above"]
        expect(scrap["n"] == n, f"{where}: drew {scrap['n']} samples, expected {n}")
        expect(scrap["scrap_rate"] == count / n, f"{where}: scrap_rate is not the counted share")
        below, above = tail_masses({"dimensions": dims, "condition": condition})
        count_within(count, n, below + above, f"{where}: scrap count")
        effective = record["effective_scrap"]
        if count == 0 and target <= 3.0 / n:
            expect(record["scrap_source"] == "analytic", f"{where}: scrap source")
            close(effective, below + above, 1e-9 * (below + above), f"{where}: analytic scrap")
        else:
            expect(record["scrap_source"] == "estimate", f"{where}: scrap source")
            expect(effective == scrap["scrap_rate"], f"{where}: effective scrap is not the estimate")

        action = record["action"]
        if abs(effective - target) <= BAND * target:
            expect(action == "accept", f"{where}: {action}, expected accept")
            expect(k == len(iterations) - 1, f"{where}: accepted but the loop went on")
            break
        if effective > target:
            picked = max(dims, key=lambda d: d["upper_dev"] - d["lower_dev"])  # first of equals
            expected_action, scale = "shrink", 1.0 - FACTOR
        else:
            candidates = [d for d in dims if d["upper_dev"] - d["lower_dev"] != 0.0]
            picked = min(candidates, key=lambda d: d["upper_dev"] - d["lower_dev"])
            expected_action, scale = "widen", 1.0 + FACTOR
        expect(action == expected_action, f"{where}: {action}, expected {expected_action}")
        expect(record["dimension"] == picked["name"], f"{where}: adjusted {record['dimension']!r}, expected {picked['name']!r}")
        upper, lower = Fraction(picked["upper_dev"]), Fraction(picked["lower_dev"])
        center, half = (upper + lower) / 2, (upper - lower) / 2 * Fraction(scale)
        tol = 8 * U * (abs(picked["upper_dev"]) + abs(picked["lower_dev"]))
        close(record["new_upper_dev"], float(center + half), tol, f"{where}: new upper_dev")
        close(record["new_lower_dev"], float(center - half), tol, f"{where}: new lower_dev")
        dims = _apply(dims, picked["name"], record["new_upper_dev"], record["new_lower_dev"])
    else:
        raise CheckFailed("no iteration accepted")

    final = result["final_chain"]
    expect(final["name"] == doc["name"], "final chain name")
    expect(final["condition"] == condition, "final chain condition")
    expect(len(final["dimensions"]) == len(dims), "final chain dimensions")
    for got, want in zip(final["dimensions"], dims):
        expect(all(got[key] == want[key] for key in want), f"final chain dimension {want['name']!r}")
    return len(iterations) * n
