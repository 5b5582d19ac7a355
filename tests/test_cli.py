"""Command-line interface: flags, report envelopes, exports, exit codes."""

import copy
import csv
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import ACTUATOR_DOC, make_actuator_chain, traced_peak
import tolchain
from tolchain import SigmaRule, SynthesisConfig, histogram_csv, montecarlo, parse_chain, sample_chain
from tolchain import statistical_interval
from tolchain.cli import main

# The library call that checks each sampling flag's value.
LIBRARY_ENTRY_POINTS = {
    "--samples": lambda value: sample_chain(make_actuator_chain(), SigmaRule.it6(), value, 1),
    "--seed": lambda value: sample_chain(make_actuator_chain(), SigmaRule.it6(), 10, value),
    "--workers": lambda value: sample_chain(make_actuator_chain(), SigmaRule.it6(), 10, 1, workers=value),
    "--coverage": lambda value: statistical_interval([1.0, 2.0], value),
    "--bins": lambda value: histogram_csv([1.0, 2.0], value),
    "--target-scrap": lambda value: SynthesisConfig(target_scrap=value),
}


def write_chain(directory, doc, name="chain.json"):
    path = directory / name
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == ["key", "value"]
    return dict(reader)


@pytest.fixture()
def chain_file(tmp_path):
    return write_chain(tmp_path, ACTUATOR_DOC)


class TestAnalyze:
    def test_report_envelope_and_interval(self, chain_file, capsys):
        code, out, err = run_cli(["analyze", "--chain", str(chain_file)], capsys)
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["tool"] == "tolchain"
        assert report["command"] == "analyze"
        assert report["chain_file"] == str(chain_file)
        assert report["chain_sha256"] == hashlib.sha256(chain_file.read_bytes()).hexdigest()
        assert report["chain_name"] == "actuator-clamping"
        interval = report["result"]["interval"]
        assert round(interval["min"], 6) == 10.0
        assert round(interval["max"], 6) == 11.16
        assert report["result"]["it_budget"] == pytest.approx(1.16)

    def test_output_file_instead_of_stdout(self, chain_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["analyze", "--chain", str(chain_file), "--output", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["result"]["it_budget"] == pytest.approx(1.16)

    def test_csv_format_flattens_keys(self, chain_file, capsys):
        code, out, _ = run_cli(
            ["analyze", "--chain", str(chain_file), "--format", "csv"], capsys
        )
        assert code == 0
        rows = csv_rows(out)
        assert json.loads(rows["result.interval.min"]) == 10.000000000000004
        assert json.loads(rows["result.interval.max"]) == 11.159999999999998
        assert rows["tool"] == '"tolchain"'


class TestVerify:
    def test_conforming_exits_zero(self, chain_file, capsys):
        code, out, _ = run_cli(["verify", "--chain", str(chain_file)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["status"] == "Conforming"
        assert report["result"]["imposed"] == {"name": "Ja", "min": 10.0, "max": 11.16}

    def test_non_conforming_exits_one_with_report(self, tmp_path, capsys):
        doc = copy.deepcopy(ACTUATOR_DOC)
        doc["condition"]["max"] = 11.0
        path = write_chain(tmp_path, doc)
        code, out, _ = run_cli(["verify", "--chain", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["result"]["status"] == "NonConformingHigh"

    def test_unchecked_exits_zero(self, tmp_path, capsys):
        doc = copy.deepcopy(ACTUATOR_DOC)
        del doc["condition"]
        path = write_chain(tmp_path, doc)
        code, out, _ = run_cli(["verify", "--chain", str(path), "--format", "csv"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert rows["result.status"] == '"Unchecked"'
        assert rows["result.imposed"] == ""  # absent condition flattens to an empty cell


class TestSolve:
    def test_recovers_widest_deviations(self, chain_file, capsys):
        code, out, _ = run_cli(
            ["solve", "--chain", str(chain_file), "--unknown", "a3"], capsys
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["dimension"]["name"] == "a3"
        assert result["dimension"]["upper_dev"] == pytest.approx(0.2, abs=1e-9)
        assert result["dimension"]["lower_dev"] == pytest.approx(-0.2, abs=1e-9)
        assert result["it"] == pytest.approx(0.4, abs=1e-9)

    def test_infeasible_exits_three(self, tmp_path, capsys):
        doc = copy.deepcopy(ACTUATOR_DOC)
        doc["condition"]["max"] = 10.5  # imposed IT below the fixed dimensions' budget
        path = write_chain(tmp_path, doc)
        code, out, err = run_cli(["solve", "--chain", str(path), "--unknown", "a3"], capsys)
        assert code == 3
        assert out == ""
        assert "infeasible" in err

    def test_overflowing_chain_is_blamed_not_the_condition(self, tmp_path, capsys):
        doc = copy.deepcopy(ACTUATOR_DOC)
        doc["dimensions"][0].update(nominal=1e308, upper_dev=1e308)  # a1's max limit is inf
        path = write_chain(tmp_path, doc)
        for argv in (
            ["analyze"], ["verify"], ["solve", "--unknown", "a3"],
            ["simulate"], ["synthesize", "--target-scrap", "0.01"],
        ):
            code, out, err = run_cli([*argv, "--chain", str(path)], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("tolchain: invalid chain: interval max must be finite")

    def test_unknown_flag_is_required(self, chain_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--chain", str(chain_file)])
        assert exc.value.code == 2

    def test_unknown_name_exits_two(self, chain_file, capsys):
        code, _, err = run_cli(["solve", "--chain", str(chain_file), "--unknown", "a9"], capsys)
        assert code == 2
        assert err.startswith("tolchain:")


class TestSimulate:
    def test_stdout_summary_writes_no_files(self, chain_file, tmp_path, capsys):
        before = set(tmp_path.iterdir())
        code, out, _ = run_cli(
            ["simulate", "--chain", str(chain_file), "--samples", "2000", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert set(tmp_path.iterdir()) == before
        report = json.loads(out)
        assert report["config"] == {
            "format": "json",
            "samples": 2000,
            "seed": 3,
            "sigma_rule": "it6",
            "coverage_sigmas": 3.0,
            "bins": 50,
        }
        result = report["result"]
        assert result["n"] == 2000
        assert result["fc"]["name"] == "Ja"
        assert set(result["per_dimension"]) == {"a1", "a2", "a3", "a7"}
        assert 0.0 <= result["scrap"]["scrap_rate"] <= 1.0

    def test_output_writes_report_samples_histogram(self, chain_file, tmp_path, capsys):
        target = tmp_path / "run.json"
        code, out, _ = run_cli(
            [
                "simulate", "--chain", str(chain_file), "--samples", "1500",
                "--bins", "12", "--output", str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        samples = (tmp_path / "run.samples.csv").read_text(encoding="utf-8")
        hist = (tmp_path / "run.hist.csv").read_text(encoding="utf-8")
        assert len(samples.splitlines()) == 1501
        assert samples.splitlines()[0] == "index,a1,a2,a3,a7,Ja"
        assert len(hist.splitlines()) == 13
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["result"]["n"] == 1500

    def test_byte_identical_reruns_and_worker_counts(self, chain_file, tmp_path, capsys):
        outputs = []
        for i, workers in enumerate(("1", "1", "4")):
            directory = tmp_path / f"run{i}"
            directory.mkdir()
            target = directory / "report.json"
            code, _, _ = run_cli(
                [
                    "simulate", "--chain", str(chain_file), "--samples", "2000",
                    "--seed", "5", "--workers", workers, "--output", str(target),
                ],
                capsys,
            )
            assert code == 0
            outputs.append(
                (
                    target.read_bytes(),
                    (directory / "report.samples.csv").read_bytes(),
                    (directory / "report.hist.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_it3_doubles_the_spread(self, chain_file, capsys):
        stdevs = {}
        for rule in ("it6", "it3"):
            _, out, _ = run_cli(
                [
                    "simulate", "--chain", str(chain_file), "--samples", "20000",
                    "--sigma-rule", rule,
                ],
                capsys,
            )
            stdevs[rule] = json.loads(out)["result"]["fc"]["stdev"]
        assert 1.8 <= stdevs["it3"] / stdevs["it6"] <= 2.2

    def test_invalid_sample_count_exits_two(self, chain_file, capsys):
        code, _, err = run_cli(
            ["simulate", "--chain", str(chain_file), "--samples", "0"], capsys
        )
        assert code == 2
        assert "sample count" in err

    @pytest.mark.parametrize("coverage", ["inf", "nan", "0", "-1"])
    def test_bad_coverage_is_a_flag_error(self, chain_file, tmp_path, capsys, coverage):
        before = set(tmp_path.iterdir())
        code, _, err = run_cli(
            [
                "simulate", "--chain", str(chain_file), "--samples", "100",
                "--coverage", coverage, "--output", str(tmp_path / "r.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "--coverage" in err
        assert "invalid chain" not in err
        assert set(tmp_path.iterdir()) == before

    def test_overflowing_coverage_is_blamed_not_the_chain(self, tmp_path, capsys):
        doc = {
            "name": "one",
            "dimensions": [{"name": "d", "nominal": 5.0, "upper_dev": 0.1, "lower_dev": -0.1, "coefficient": 1}],
        }
        code, _, err = run_cli(
            ["simulate", "--chain", str(write_chain(tmp_path, doc)), "--samples", "100", "--coverage", "1e308"],
            capsys,
        )
        assert code == 2
        assert "coverage_sigmas 1e+308" in err
        assert "invalid chain" not in err

    def test_zero_bins_exits_two_without_writing(self, chain_file, tmp_path, capsys):
        before = set(tmp_path.iterdir())
        code, _, err = run_cli(
            [
                "simulate", "--chain", str(chain_file), "--samples", "100",
                "--bins", "0", "--output", str(tmp_path / "r.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "--bins" in err
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("blocked", ["r.hist.csv", "r.json"])
    def test_failed_write_leaves_no_output(self, chain_file, tmp_path, capsys, blocked):
        (tmp_path / blocked).mkdir()
        before = set(tmp_path.iterdir())
        code, _, err = run_cli(
            [
                "simulate", "--chain", str(chain_file), "--samples", "100",
                "--output", str(tmp_path / "r.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "Is a directory" in err
        assert set(tmp_path.iterdir()) == before

    def test_failed_move_removes_the_outputs_already_moved(self, chain_file, tmp_path, capsys, monkeypatch):
        report = tmp_path / "r.json"
        real_replace = os.replace
        targets = []

        def replace(src, dst):
            targets.append(Path(dst).name)
            if Path(dst).name == report.name:
                raise PermissionError(13, "Permission denied", str(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        before = set(tmp_path.iterdir())
        code, _, err = run_cli(
            ["simulate", "--chain", str(chain_file), "--samples", "100", "--output", str(report)],
            capsys,
        )
        assert code == 2
        assert "Permission denied" in err
        assert targets == ["r.samples.csv", "r.hist.csv", "r.json"]
        assert set(tmp_path.iterdir()) == before

    def test_failed_block_leaves_no_output(self, chain_file, tmp_path, capsys, monkeypatch):
        real = montecarlo.samples_csv
        starts = []

        def second_block_fails(batch, start=0, stop=None):
            starts.append(start)
            if len(starts) == 2:
                raise OSError(28, "No space left on device")
            return real(batch, start, stop)

        monkeypatch.setattr(montecarlo, "samples_csv", second_block_fails)
        before = set(tmp_path.iterdir())
        code, _, err = run_cli(
            ["simulate", "--chain", str(chain_file), "--samples", "10000", "--output", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        assert "No space left on device" in err
        assert starts == [0, 4096]
        assert set(tmp_path.iterdir()) == before

    def test_export_is_written_block_by_block(self, chain_file, tmp_path):
        # The sampler holds fc and one buffer, and batch_summary a copy of fc:
        # about 2.5 arrays of n doubles. The export adds one 4096-row block at
        # a time; holding its whole text would take about 16 arrays of n.
        n = 200_000
        argv = ["simulate", "--chain", str(chain_file), "--samples", str(n), "--output", str(tmp_path / "r.json")]
        assert main(argv) == 0  # imports and caches
        assert traced_peak(lambda: main(argv)) <= 4 * 8 * n

    def test_unknown_sigma_rule_rejected_by_parser(self, chain_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--chain", str(chain_file), "--sigma-rule", "it9"])
        assert exc.value.code == 2


class TestSynthesize:
    def test_report_shape(self, chain_file, capsys):
        code, out, _ = run_cli(
            [
                "synthesize", "--chain", str(chain_file), "--samples", "2000",
                "--target-scrap", "0.05",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["target_scrap"] == 0.05
        assert report["config"]["max_iterations"] == 50
        result = report["result"]
        assert isinstance(result["converged"], bool)
        assert result["iterations"][0]["index"] == 0
        final = parse_chain(json.dumps(result["final_chain"]))
        assert final.name == "actuator-clamping"

    def test_target_scrap_is_required(self, chain_file):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--chain", str(chain_file)])
        assert exc.value.code == 2

    def test_out_of_range_target_exits_two(self, chain_file, capsys):
        code, _, err = run_cli(
            ["synthesize", "--chain", str(chain_file), "--target-scrap", "1.5"], capsys
        )
        assert code == 2
        assert "target_scrap" in err


class TestOutputTargets:
    def test_pipe_is_written_in_place(self, chain_file, tmp_path, capsys):
        pipe = tmp_path / "report.pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(["analyze", "--chain", str(chain_file), "--output", str(pipe)], capsys)
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert json.loads(data)["command"] == "analyze"
        assert stat.S_ISFIFO(pipe.stat().st_mode)

    def test_samples_pipe_receives_the_file_bytes(self, chain_file, tmp_path, capsys):
        argv = ["simulate", "--chain", str(chain_file), "--samples", "10000", "--seed", "4"]
        regular, piped = tmp_path / "regular", tmp_path / "piped"
        regular.mkdir()
        piped.mkdir()
        assert run_cli([*argv, "--output", str(regular / "r.json")], capsys)[0] == 0
        pipe = piped / "r.samples.csv"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run_cli([*argv, "--output", str(piped / "r.json")], capsys)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert received == [(regular / "r.samples.csv").read_bytes()]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert (piped / "r.hist.csv").read_bytes() == (regular / "r.hist.csv").read_bytes()

    def test_symlink_is_written_through(self, chain_file, tmp_path, capsys):
        real = tmp_path / "real.json"
        link = tmp_path / "link.json"
        link.symlink_to(real)
        code, _, _ = run_cli(["analyze", "--chain", str(chain_file), "--output", str(link)], capsys)
        assert code == 0
        assert link.is_symlink()
        assert json.loads(real.read_text(encoding="utf-8"))["command"] == "analyze"


@pytest.mark.parametrize(
    "argv, config",
    [
        (["analyze"], {"format": "json"}),
        (["verify"], {"format": "json"}),
        (["solve", "--unknown", "a3"], {"format": "json", "unknown": "a3"}),
        (
            ["simulate"],
            {
                "format": "json",
                "samples": 100_000,
                "seed": 1,
                "sigma_rule": "it6",
                "coverage_sigmas": 3.0,
                "bins": 50,
            },
        ),
        (
            ["synthesize", "--target-scrap", "2.4e-7"],
            {
                "format": "json",
                "samples": 100_000,
                "seed": 1,
                "sigma_rule": "it6",
                "target_scrap": 2.4e-7,
                "max_iterations": 50,
                "adjustment_factor": 0.1,
                "tolerance_band": 0.25,
            },
        ),
    ],
    ids=["analyze", "verify", "solve", "simulate", "synthesize"],
)
def test_default_config_block(chain_file, capsys, argv, config):
    code, out, _ = run_cli([*argv, "--chain", str(chain_file)], capsys)
    assert code == 0
    assert list(json.loads(out)["config"].items()) == list(config.items())


class TestErrorPaths:
    def test_missing_chain_file(self, tmp_path, capsys):
        code, _, err = run_cli(["analyze", "--chain", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert err.startswith("tolchain:")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["analyze", "--chain", str(path)], capsys)
        assert code == 2
        assert "invalid chain" in err

    def test_schema_violation(self, tmp_path, capsys):
        doc = copy.deepcopy(ACTUATOR_DOC)
        doc["dimensions"][0]["coefficient"] = 0
        path = write_chain(tmp_path, doc)
        code, _, err = run_cli(["verify", "--chain", str(path)], capsys)
        assert code == 2
        assert "invalid chain" in err

    @pytest.mark.parametrize("old", ['"nominal": 25.3', '"min": 10.0', '"max": 11.16'], ids=["nominal", "min", "max"])
    def test_integer_beyond_a_double_is_an_invalid_chain(self, tmp_path, capsys, old):
        # not exit 1, which is verify's non-conforming verdict
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(ACTUATOR_DOC).replace(old, old.split(":")[0] + ": 1" + "0" * 400), encoding="utf-8")
        code, out, err = run_cli(["verify", "--chain", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("tolchain: invalid chain: ") and "must be finite, got an integer of 1329 bits" in err

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, json.dumps(ACTUATOR_DOC).replace("25.3", "1" * 5000)], ids=["nesting", "digits"]
    )
    def test_decoder_failure_is_an_invalid_chain(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["verify", "--chain", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("tolchain: invalid chain: invalid JSON: ")

    @pytest.mark.parametrize(
        "raw, position",
        [(b'{"name": "\xff"}', 10), (json.dumps(ACTUATOR_DOC).encode("utf-16"), 0)],
        ids=["latin-1", "utf-16"],
    )
    def test_chain_file_that_is_not_utf8_is_an_invalid_chain(self, tmp_path, capsys, raw, position):
        path = tmp_path / "chain.json"
        path.write_bytes(raw)
        code, out, err = run_cli(["verify", "--chain", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "tolchain: invalid chain: invalid JSON: "
            f"'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--samples", "0"], "--samples: sample count must be >= 1, got 0"),
            (["synthesize", "--samples", "0"], "--samples: sample count must be >= 1, got 0"),
            (["simulate", "--seed", "-1"], "--seed: seed must be an unsigned 64-bit integer, got -1"),
            (["synthesize", "--seed", str(2**64)],
             f"--seed: seed must be an unsigned 64-bit integer, got {2**64}"),
            (["simulate", "--workers", "0"], "--workers: workers must be >= 1, got 0"),
            (["synthesize", "--workers", "-2"], "--workers: workers must be >= 1, got -2"),
            (["synthesize", "--target-scrap", "1.5"], "--target-scrap: target_scrap must lie in (0, 1), got 1.5"),
            (["synthesize", "--target-scrap", "nan"], "--target-scrap: target_scrap must lie in (0, 1), got nan"),
            (["simulate", "--coverage", "inf"], "--coverage: coverage_sigmas must be finite and > 0, got inf"),
            (["simulate", "--bins", "0"], "--bins: bin count must be >= 1, got 0"),
        ],
        ids=["samples", "synthesize-samples", "seed", "synthesize-seed", "workers", "synthesize-workers",
             "target-scrap", "target-scrap-nan", "coverage", "bins"],
    )
    def test_bad_sampling_flag_is_named_before_the_chain_is_read(self, tmp_path, capsys, argv, message):
        if argv[0] == "synthesize" and "--target-scrap" not in argv:
            argv = [*argv, "--target-scrap", "0.01"]
        code, out, err = run_cli([*argv, "--chain", str(tmp_path / "absent.json")], capsys)
        assert (code, out, err) == (2, "", f"tolchain: {message}\n")

    @pytest.mark.parametrize(
        "command, flag, text, value",
        [
            ("simulate", "--samples", "0", 0),
            ("simulate", "--seed", "-1", -1),
            ("synthesize", "--seed", str(2**64), 2**64),
            ("simulate", "--workers", "0", 0),
            ("simulate", "--coverage", "0", 0.0),
            ("simulate", "--coverage", "nan", math.nan),
            ("simulate", "--bins", "0", 0),
            ("synthesize", "--target-scrap", "1.5", 1.5),
        ],
        ids=["samples", "seed", "seed-2**64", "workers", "coverage", "coverage-nan", "bins", "target-scrap"],
    )
    def test_sampling_flag_error_is_the_library_error(self, tmp_path, capsys, command, flag, text, value):
        # The CLI states the library's rule and message for the parsed value, prefixed by the flag.
        with pytest.raises(ValueError) as exc:
            LIBRARY_ENTRY_POINTS[flag](value)
        argv = [command, flag, text, "--chain", str(tmp_path / "absent.json")]
        if command == "synthesize" and flag != "--target-scrap":
            argv += ["--target-scrap", "0.01"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"tolchain: {flag}: {exc.value}\n")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--samples", np.int64(0), "sample count must be >= 1, got 0"),
            ("--seed", np.int64(-1), "seed must be an unsigned 64-bit integer, got np.int64(-1)"),
            ("--workers", np.int64(0), "workers must be >= 1, got 0"),
            ("--coverage", np.float64(0.0), "coverage_sigmas must be finite and > 0, got np.float64(0.0)"),
            ("--bins", np.int64(0), "bin count must be >= 1, got 0"),
            ("--target-scrap", np.float64(1.5), "target_scrap must lie in (0, 1), got np.float64(1.5)"),
        ],
        ids=["samples", "seed", "workers", "coverage", "bins", "target-scrap"],
    )
    def test_library_error_quotes_a_numpy_value_as_its_rule_does(self, flag, value, message):
        # Counts are quoted with str, the seed and the fractions with repr.
        with pytest.raises(ValueError) as exc:
            LIBRARY_ENTRY_POINTS[flag](value)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "error, message",
        [(MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"),
          "tolchain: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
          "and data type float64\n"),
         (MemoryError(), "tolchain: out of memory\n")],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_an_input_error(self, chain_file, tmp_path, capsys, monkeypatch, error, message):
        # Exit 2, not a traceback and exit 1, which is verify's non-conforming verdict. The error is
        # raised, not provoked: a host that overcommits memory would grant a huge array and fail later.
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(montecarlo, "sample_chain", exhausted)
        before = set(tmp_path.iterdir())
        argv = ["simulate", "--chain", str(chain_file), "--samples", "1000000000000"]
        code, out, err = run_cli([*argv, "--output", str(tmp_path / "r.json")], capsys)
        assert (code, out, err) == (2, "", message)
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "deviations, argv, message",
        [((1e200, -1e200), ["simulate", "--samples", "1000"],
          "tolchain: the samples of dimension 'a' hold a NaN or an inf, or their spread overflows: mean "),
         ((1e308, 1e308), ["simulate"], "tolchain: dimension 'a': distribution parameters must be finite\n"),
         ((1e308, 1e308), ["synthesize", "--target-scrap", "0.01"],
          "tolchain: dimension 'a': distribution parameters must be finite\n")],
        ids=["spread-simulate", "midpoint-simulate", "midpoint-synthesize"],
    )
    def test_overflowing_distribution_names_the_dimension(self, tmp_path, capsys, deviations, argv, message):
        # a's limits are finite, so analyze accepts the chain; its sampled spread, or its zone midpoint, is not.
        # A fresh interpreter shows stderr as a user sees it, numpy warnings included.
        upper, lower = deviations
        doc = {"name": "big", "condition": {"name": "J", "min": -1e300, "max": 1.5e308}, "dimensions": [
            {"name": "a", "nominal": 0.0, "upper_dev": upper, "lower_dev": lower, "coefficient": 1.0},
            {"name": "b", "nominal": 1.0, "upper_dev": 0.1, "lower_dev": -0.1, "coefficient": -1.0}]}
        path = write_chain(tmp_path, doc)
        assert run_cli(["analyze", "--chain", str(path)], capsys)[0] == 0
        src = str(Path(tolchain.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "tolchain.cli", *argv, "--chain", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
        assert "coverage" not in proc.stderr and "Warning" not in proc.stderr

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "tolchain 0.1.0"
