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
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Iterator

# CPython's own SHA-256: importing hashlib loads OpenSSL's libcrypto, about 4 MB
# of resident memory, and the worst-case commands hash nothing else.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .model import (DEFAULTS, ChainSyntaxError, ChainValidationError, ConformityStatus, _samples_header, check,
                    parse_chain)
from .worstcase import InfeasibleToleranceError, it_budget, solve_unknown, verify_worst_case, worst_case

__all__ = ["RunConfig", "build_parser", "main", "run"]


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; its defaults are the CLI's defaults.

    Each field but ``command`` is the ``dest`` of the flag in :data:`_FLAGS`.
    """

    command: str
    chain: Path
    output: Path | None = None
    format: str = "json"
    samples: int = DEFAULTS["samples"]
    seed: int = DEFAULTS["seed"]
    sigma_rule: str = "it6"
    coverage_sigmas: float = DEFAULTS["coverage_sigmas"]
    target_scrap: float | None = DEFAULTS["target_scrap"]
    unknown: str | None = None
    bins: int = DEFAULTS["bins"]
    workers: int = DEFAULTS["workers"]


# Spelling and parser settings of each flag, keyed by its RunConfig field.
_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    "chain": ("--chain", {"required": True, "type": Path, "help": "chain-definition JSON file"}),
    "output": ("--output", {"type": Path, "help": "write the report here instead of stdout"}),
    "format": ("--format", {"choices": ("json", "csv"), "help": "report format"}),
    "samples": ("--samples", {"type": int, "help": "number of realizations"}),
    "seed": ("--seed", {"type": int, "help": "random stream selector"}),
    "sigma_rule": ("--sigma-rule", {"choices": ("it6", "it3"),
                                    "help": "tolerance-to-sigma mapping (IT/6 or IT/3)"}),
    "workers": ("--workers", {"type": int,
                              "help": "threads for the synthesis count, by default and at most the usable cores; "
                                      "1 starts none (simulate draws in one; output is identical for any count)"}),
    "unknown": ("--unknown", {"required": True, "help": "name of the dimension to solve for"}),
    "coverage_sigmas": ("--coverage", {"type": float, "metavar": "COVERAGE",
                                       "help": "statistical-interval half-width in sigmas"}),
    "bins": ("--bins", {"type": int, "help": "histogram bin count"}),
    "target_scrap": ("--target-scrap", {"type": float, "required": True,
                                        "help": "desired scrap fraction in (0, 1)"}),
}

_IO = ("chain", "output", "format")
_SAMPLING = ("samples", "seed", "sigma_rule", "workers")

# The help line and the flags of each command, in the order ``--help`` lists them.
_COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "analyze": ("worst-case interval and IT budget", _IO),
    "verify": ("worst-case conformity verdict (exit code 1 when non-conforming)", _IO),
    "solve": ("widest deviations for one unknown dimension", (*_IO, "unknown")),
    "simulate": ("Monte Carlo summary, sample CSV, histogram CSV",
                 (*_IO, *_SAMPLING, "coverage_sigmas", "bins")),
    "synthesize": ("adjust tolerances toward a target scrap rate", (*_IO, *_SAMPLING, "target_scrap")),
}

# The chain file and the output path appear elsewhere in the report; the worker
# count cannot change the results, so a reader needs none of them to reproduce one.
_UNREPORTED = ("chain", "output", "workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tolchain",
        description="Worst-case and Monte Carlo analysis of 1D dimensional tolerance chains.",
    )
    parser.add_argument("--version", action="version", version=f"tolchain {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        # A flag not given stays out of the namespace, so RunConfig supplies its default.
        sub = subparsers.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for dest in flags:
            spelling, settings = _FLAGS[dest]
            sub.add_argument(spelling, dest=dest, **settings)
    return parser


def _config_block(cfg: RunConfig) -> dict[str, Any]:
    flags = set(_COMMANDS[cfg.command][1]) - set(_UNREPORTED)
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name in flags}


def _leaves(value: Any, key: str = "") -> Iterator[tuple[str, Any]]:
    """Yield each leaf of a report as its dotted key and its value."""
    if isinstance(value, (dict, list)):
        for part, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, f"{key}.{part}" if key else str(part))
    else:
        yield key, value


def _render(report: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows((key, "" if value is None else json.dumps(value)) for key, value in _leaves(report))
    return buffer.getvalue()


def _write_all(outputs: list[tuple[Path, Iterable[str]]]) -> None:
    """Write every output or none.

    Each output is an iterable of text chunks, written as they arrive to a
    temporary file beside its target; the files move into place only after
    every write succeeded. Any failure, also one while a chunk is rendered,
    removes the temporary files and the outputs this call already moved.
    """
    staged: list[tuple[Path, Path, Path]] = []
    moved: list[Path] = []
    try:
        for path, chunks in outputs:
            if path.exists() and not path.is_file():
                # A device or a pipe is written in place, since a rename would
                # replace it; a directory raises here.
                with open(path, "w", encoding="utf-8") as f:
                    f.writelines(chunks)
                continue
            target = _target(path)
            tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8") as f:
                staged.append((tmp, target, path))
                f.writelines(chunks)
        for tmp, target, path in staged:
            os.replace(tmp, target)
            moved.append(target)
    except BaseException as exc:
        for tmp, *_ in staged:
            tmp.unlink(missing_ok=True)
        for target in moved:
            target.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:  # the output as given, not its temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _target(path: Path) -> Path:
    """The file that ``_write_all`` stages beside and replaces for ``path``: through a symlink, not over it."""
    return Path(os.path.realpath(path))


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code.

    Raises ``ValueError`` naming the flag for a field its flag would reject,
    and the underlying errors (I/O, syntax, validation, infeasibility);
    :func:`main` maps them to exit codes and stderr messages.
    """
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    # Flags first: a bad flag is blamed, as it was spelled, before the chain is read.
    for dest in _COMMANDS[cfg.command][1]:
        spelling, settings = _FLAGS[dest]
        value = getattr(cfg, dest)
        if dest in DEFAULTS:
            check(dest, value, f"{spelling}: ")
        elif value is None and settings.get("required"):
            raise ValueError(f"{spelling} is required")
        elif "choices" in settings and value not in settings["choices"]:
            raise ValueError(f"{spelling}: invalid choice {value!r} (choose from {', '.join(settings['choices'])})")
        elif value is not None and not isinstance(value, kind := settings.get("type", str)):
            raise ValueError(f"{spelling} must be a {kind.__name__}, got {value!r}")

    raw = cfg.chain.read_bytes()
    chain = parse_chain(raw)
    # The outputs in the order _write_all writes them. A samples CSV that would repeat a column and a target's missing
    # directory are refused before the work, named as samples_csv and _write_all name them.
    outputs = [] if cfg.output is None else [cfg.output]
    if cfg.command == "simulate" and outputs:
        _samples_header((d.name for d in chain.dimensions), chain.fc_name)
        outputs[:0] = (cfg.output.parent / f"{cfg.output.stem}{suffix}" for suffix in (".samples.csv", ".hist.csv"))
    for path in outputs:
        try:
            os.stat(_target(path).parent)
        except FileNotFoundError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None

    report: dict[str, Any] = {
        "tool": "tolchain",
        "version": __version__,
        "command": cfg.command,
        "chain_file": str(cfg.chain),
        "chain_sha256": sha256(raw).hexdigest(),
        "chain_name": chain.name,
        "config": _config_block(cfg),
    }
    exports: list[tuple[Path, Iterable[str]]] = []
    exit_code = 0

    if cfg.command == "analyze":
        report["result"] = {"interval": asdict(worst_case(chain)), "it_budget": it_budget(chain)}

    elif cfg.command == "verify":
        verdict = verify_worst_case(chain)
        # Keyed as in the chain document, with an absent bound as null.
        c = verdict.imposed
        imposed = None if c is None else {"name": c.name, "min": c.imposed_min, "max": c.imposed_max}
        report["result"] = {
            "status": verdict.status.value,
            "computed": asdict(verdict.computed),
            "imposed": imposed,
        }
        exit_code = int(verdict.status not in (ConformityStatus.CONFORMING, ConformityStatus.UNCHECKED))

    elif cfg.command == "solve":
        solved = solve_unknown(chain, cfg.unknown)
        report["result"] = {"dimension": asdict(solved), "it": solved.it}

    else:
        # Imported here so that the worst-case commands never load numpy, nor simulate
        # the synthesis module or the thread pool, which only the synthesis count
        # imports; names are looked up on the module at each call.
        from . import montecarlo

        rule = montecarlo.SigmaRule(cfg.sigma_rule)
        if cfg.command == "simulate":
            batch = montecarlo.sample_chain(chain, rule, cfg.samples, cfg.seed)
            report["result"] = montecarlo.batch_summary(chain, batch, rule, cfg.coverage_sigmas)
            if cfg.output is not None:
                exports = [(outputs[0], montecarlo._samples_csv_blocks(batch)),
                           (outputs[1], [montecarlo.histogram_csv(batch.fc_samples, cfg.bins)])]
        else:  # synthesize
            from . import synthesis

            loop_cfg = synthesis.SynthesisConfig(cfg.target_scrap, n_per_iteration=cfg.samples, seed=cfg.seed)
            # The loop's parameters that have a rule and no flag, at their defaults.
            report["config"].update((k, v) for k, v in asdict(loop_cfg).items() if k in DEFAULTS and k not in _FLAGS)
            result = synthesis.synthesize(chain, rule, loop_cfg, workers=cfg.workers)
            report["result"] = synthesis.synthesis_report_document(result)

    text = _render(report, cfg.format)
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        _write_all([*exports, (cfg.output, [text])])
    return exit_code


def main(argv: list[str] | None = None) -> int:
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        return run(cfg)
    except InfeasibleToleranceError as exc:
        print(f"tolchain: infeasible: {exc}", file=sys.stderr)
        return 3
    except (ChainSyntaxError, ChainValidationError) as exc:
        print(f"tolchain: invalid chain: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"tolchain: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large for this host, such as --samples; never verify's exit 1
        print(f"tolchain: out of memory: {exc}" if str(exc) else "tolchain: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
