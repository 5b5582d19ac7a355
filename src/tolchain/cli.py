"""Command-line front end.

Five subcommands cover the analysis and synthesis paths: ``analyze`` (worst
case interval and IT budget), ``verify`` (conformity verdict, encoded in the
exit code), ``solve`` (widest deviations for one unknown dimension),
``simulate`` (Monte Carlo summary plus sample and histogram exports), and
``synthesize`` (iterative scrap-driven adjustment).

Exit codes: 0 success or Conforming; 1 NonConforming (verify only); 2 input
or validation error; 3 infeasible solve. Reports embed the tool version, the
chain file's SHA-256, and the full effective configuration, and contain no
timestamps, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import __version__
from .model import (
    ChainSyntaxError,
    ChainValidationError,
    ConformityStatus,
    ToleranceChain,
    chain_document,
    parse_chain,
)
from .worstcase import InfeasibleToleranceError, it_budget, solve_unknown, verify_worst_case, worst_case

__all__ = ["RunConfig", "build_parser", "main", "run"]


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; built from parsed flags."""

    command: str
    chain_path: Path
    output_path: Path | None = None
    format: str = "json"
    samples: int = 100_000
    seed: int = 1
    sigma_rule: str = "it6"
    coverage_sigmas: float = 3.0
    target_scrap: float | None = None
    unknown_name: str | None = None
    bins: int = 50
    workers: int = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tolchain",
        description="Worst-case and Monte Carlo analysis of 1D dimensional tolerance chains.",
    )
    parser.add_argument("--version", action="version", version=f"tolchain {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--chain", required=True, type=Path, help="chain-definition JSON file")
        sub.add_argument("--output", type=Path, default=None, help="write the report here instead of stdout")
        sub.add_argument("--format", choices=("json", "csv"), default="json", help="report format")

    def add_sampling_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--samples", type=int, default=100_000, help="number of realizations")
        sub.add_argument("--seed", type=int, default=1, help="random stream selector")
        sub.add_argument("--sigma-rule", choices=("it6", "it3"), default="it6",
                         help="tolerance-to-sigma mapping (IT/6 or IT/3)")
        sub.add_argument("--workers", type=int, default=1,
                         help="threads for sample generation (output is identical for any count)")

    analyze = subparsers.add_parser("analyze", help="worst-case interval and IT budget")
    add_io_flags(analyze)

    verify = subparsers.add_parser("verify", help="worst-case conformity verdict (exit code 1 when non-conforming)")
    add_io_flags(verify)

    solve = subparsers.add_parser("solve", help="widest deviations for one unknown dimension")
    add_io_flags(solve)
    solve.add_argument("--unknown", required=True, help="name of the dimension to solve for")

    simulate = subparsers.add_parser("simulate", help="Monte Carlo summary, sample CSV, histogram CSV")
    add_io_flags(simulate)
    add_sampling_flags(simulate)
    simulate.add_argument("--coverage", type=float, default=3.0,
                          help="statistical-interval half-width in sigmas")
    simulate.add_argument("--bins", type=int, default=50, help="histogram bin count")

    synthesize_cmd = subparsers.add_parser("synthesize", help="adjust tolerances toward a target scrap rate")
    add_io_flags(synthesize_cmd)
    add_sampling_flags(synthesize_cmd)
    synthesize_cmd.add_argument("--target-scrap", type=float, required=True,
                                help="desired scrap fraction in (0, 1)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        chain_path=args.chain,
        output_path=args.output,
        format=args.format,
        samples=getattr(args, "samples", 100_000),
        seed=getattr(args, "seed", 1),
        sigma_rule=getattr(args, "sigma_rule", "it6"),
        coverage_sigmas=getattr(args, "coverage", 3.0),
        target_scrap=getattr(args, "target_scrap", None),
        unknown_name=getattr(args, "unknown", None),
        bins=getattr(args, "bins", 50),
        workers=getattr(args, "workers", 1),
    )


def _flatten(value: Any, prefix: str, rows: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}.{i}", rows)
    else:
        rows.append((prefix, value))


def _report_csv(report: dict[str, Any]) -> str:
    rows: list[tuple[str, Any]] = []
    _flatten(report, "", rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, "" if value is None else json.dumps(value)])
    return buffer.getvalue()


def _render_report(report: dict[str, Any], fmt: str) -> str:
    if fmt == "csv":
        return _report_csv(report)
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _sibling(path: Path, suffix: str) -> Path:
    return path.parent / f"{path.stem}{suffix}"


def _interval_dict(interval) -> dict[str, float]:
    return {"min": interval.min, "max": interval.max, "it": interval.it}


def _condition_dict(condition) -> dict[str, Any] | None:
    if condition is None:
        return None
    out: dict[str, Any] = {"name": condition.name}
    out["min"] = condition.imposed_min
    out["max"] = condition.imposed_max
    return out


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code.

    Raises the underlying errors (I/O, syntax, validation, infeasibility);
    :func:`main` maps them to exit codes and stderr messages.
    """
    # Flags first: a bad flag must not leave a partial export behind.
    if cfg.command == "simulate":
        if not (math.isfinite(cfg.coverage_sigmas) and cfg.coverage_sigmas > 0.0):
            raise ValueError(f"--coverage must be finite and > 0, got {cfg.coverage_sigmas!r}")
        if cfg.bins < 1:
            raise ValueError(f"--bins must be >= 1, got {cfg.bins}")

    raw = cfg.chain_path.read_bytes()
    chain = parse_chain(raw.decode("utf-8"))

    report: dict[str, Any] = {
        "tool": "tolchain",
        "version": __version__,
        "command": cfg.command,
        "chain_file": str(cfg.chain_path),
        "chain_sha256": hashlib.sha256(raw).hexdigest(),
        "chain_name": chain.name,
    }
    exit_code = 0

    if cfg.command == "analyze":
        report["config"] = {"format": cfg.format}
        interval = worst_case(chain)
        report["result"] = {
            "interval": _interval_dict(interval),
            "it_budget": it_budget(chain),
        }

    elif cfg.command == "verify":
        report["config"] = {"format": cfg.format}
        verdict = verify_worst_case(chain)
        report["result"] = {
            "status": verdict.status.value,
            "computed": _interval_dict(verdict.computed),
            "imposed": _condition_dict(verdict.imposed),
        }
        if verdict.status in (
            ConformityStatus.NON_CONFORMING_LOW,
            ConformityStatus.NON_CONFORMING_HIGH,
            ConformityStatus.NON_CONFORMING_BOTH,
        ):
            exit_code = 1

    elif cfg.command == "solve":
        assert cfg.unknown_name is not None
        report["config"] = {"format": cfg.format, "unknown": cfg.unknown_name}
        solved = solve_unknown(chain, cfg.unknown_name)
        report["result"] = {
            "dimension": {
                "name": solved.name,
                "nominal": solved.nominal,
                "upper_dev": solved.upper_dev,
                "lower_dev": solved.lower_dev,
                "coefficient": solved.coefficient,
            },
            "it": solved.it,
        }

    elif cfg.command == "simulate":
        # Imported here so that the worst-case commands never load numpy or
        # scipy; names are looked up on the module at each call.
        from . import montecarlo

        rule = montecarlo.SigmaRule(cfg.sigma_rule)
        # Deliberately no worker count here: parallelism cannot change the
        # results, so it is not configuration a reader needs to reproduce them.
        report["config"] = {
            "format": cfg.format,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "sigma_rule": cfg.sigma_rule,
            "coverage_sigmas": cfg.coverage_sigmas,
            "bins": cfg.bins,
        }
        batch = montecarlo.sample_chain(chain, rule, cfg.samples, cfg.seed, workers=cfg.workers)
        report["result"] = montecarlo.batch_summary(chain, batch, rule, cfg.coverage_sigmas)
        if cfg.output_path is not None:
            _emit(montecarlo.samples_csv(batch), _sibling(cfg.output_path, ".samples.csv"))
            _emit(montecarlo.histogram_csv(batch.fc_samples, cfg.bins), _sibling(cfg.output_path, ".hist.csv"))

    elif cfg.command == "synthesize":
        from . import montecarlo, synthesis

        assert cfg.target_scrap is not None
        rule = montecarlo.SigmaRule(cfg.sigma_rule)
        synthesis_cfg = synthesis.SynthesisConfig(
            target_scrap=cfg.target_scrap,
            n_per_iteration=cfg.samples,
            seed=cfg.seed,
        )
        report["config"] = {
            "format": cfg.format,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "sigma_rule": cfg.sigma_rule,
            "target_scrap": cfg.target_scrap,
            "max_iterations": synthesis_cfg.max_iterations,
            "adjustment_factor": synthesis_cfg.adjustment_factor,
            "tolerance_band": synthesis_cfg.tolerance_band,
        }
        result = synthesis.synthesize(chain, rule, synthesis_cfg, workers=cfg.workers)
        report["result"] = synthesis.synthesis_report_document(result)

    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown command {cfg.command!r}")

    _emit(_render_report(report, cfg.format), cfg.output_path)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    try:
        return run(cfg)
    except InfeasibleToleranceError as exc:
        print(f"tolchain: infeasible: {exc}", file=sys.stderr)
        return 3
    except (ChainSyntaxError, ChainValidationError) as exc:
        print(f"tolchain: invalid chain: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tolchain: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"tolchain: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
