"""ROADMAP's Baseline table, measured again by this harness.

Usage, from the root of a checkout (about a minute):

    python3 perfbench/baseline.py

Each row is timed three times and reported as the best with the range, next
to the figure ROADMAP.md recorded. The tier-1 suite time is left out.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from harness import CLI, ROOT, SRC, Spawner
from layers import ACTUATOR
from run import environment

REPEATS = 3


def best(times: list[float], scale: float = 1.0, unit: str = "s") -> str:
    return f"{min(times) * scale:.3g} {unit} (range {min(times) * scale:.3g}-{max(times) * scale:.3g})"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from numpy.random import Philox
    from scipy.special import ndtri

    import tolchain.cli
    from tolchain import SigmaRule, parse_chain, sample_chain, samples_csv

    rows: list[tuple[str, str, str]] = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp, Spawner() as spawner:
        work = Path(tmp)
        chain_path = work / "actuator.json"
        chain_path.write_text(json.dumps(ACTUATOR))

        def cli(*args: str) -> tuple[list[float], list[int]]:
            runs = [spawner.run([sys.executable, "-c", CLI, *args], work, work / "stdout") for _ in range(REPEATS)]
            if any(code != 0 for code, _, _ in runs):
                raise SystemExit(f"tolchain {args[0]} failed")
            return [s for _, s, _ in runs], [rss for _, _, rss in runs]

        times, _ = cli("analyze", "--chain", str(chain_path))
        rows.append(("CLI `analyze`, cold", "0.47 s", best(times)))
        times, _ = cli("simulate", "--chain", str(chain_path), "--samples", "1000000")
        rows.append(("`simulate --samples 1e6` to stdout", "0.62 s", best(times)))
        times, rss = cli("simulate", "--chain", str(chain_path), "--samples", "1000000",
                         "--output", str(work / "r.json"))
        rows.append(("`simulate --samples 1e6 --output`", "6.9 s, peak RSS 217 MB",
                     f"{best(times)}, peak RSS {max(rss) * 1024 / 1e6:.0f} MB"))

        chain = parse_chain(json.dumps(ACTUATOR))
        rule = SigmaRule.it6()

        def timed(fn, repeats: int = REPEATS) -> list[float]:
            out = []
            for _ in range(repeats):
                start = perf_counter()
                fn()
                out.append(perf_counter() - start)
            return out

        batch = sample_chain(chain, rule, 1_000_000, 1)
        rows.append(("`samples_csv`, 1e6 rows, in process", "about 5.6 s", best(timed(lambda: samples_csv(batch), 1))))
        del batch
        sweep = (
            (1_000_000, 1, "106-163 ms"),
            (1_000_000, 2, "no faster than 1 worker"),
            (1_000_000, 4, "no faster than 1 worker"),
            (10_000_000, 1, "not recorded"),
            (10_000_000, 2, "1.3x faster than 1 worker"),
        )
        for n, workers, recorded in sweep:
            t = timed(lambda: sample_chain(chain, rule, n, 1, workers=workers), 1 if n > 1_000_000 else REPEATS)
            rows.append((f"`sample_chain`, 4 dims, n={n:.0e}, {workers} worker(s)", recorded, best(t, 1e3, "ms")))

        key = np.array([1, 0], dtype=np.uint64)
        bits = Philox(counter=0, key=key).random_raw(65536)
        uniforms = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        rows.append(("One 65536-sample chunk: Philox draw", "0.27 ms",
                     best(timed(lambda: Philox(counter=0, key=key).random_raw(65536), 20), 1e3, "ms")))
        rows.append(("One 65536-sample chunk: `ndtri`", "0.99 ms", best(timed(lambda: ndtri(uniforms), 20), 1e3, "ms")))

        synth_args = ["synthesize", "--chain", str(chain_path), "--target-scrap", "1e-3"]
        with redirect_stdout(io.StringIO()) as out:
            tolchain.cli.main(synth_args)
        iterations = len(json.loads(out.getvalue())["result"]["iterations"])

        def in_process() -> None:
            with redirect_stdout(io.StringIO()):
                tolchain.cli.main(synth_args)

        times, _ = cli(*synth_args)
        rows.append(("`synthesize --target-scrap 1e-3`",
                     "38 iterations, 0.43 s in-process, 1.24 s through the CLI",
                     f"{iterations} iterations, {best(timed(in_process))} in-process, {best(times)} through the CLI"))

    for key, value in environment([]).items():
        print(f"# env {key}: {value}")
    print("| Path | ROADMAP baseline | This harness, best of 3 |")
    print("|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
