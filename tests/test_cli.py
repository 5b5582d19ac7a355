"""Command-line interface: flags, report envelopes, exports, exit codes."""

import copy
import csv
import hashlib
import io
import json

import pytest

from conftest import ACTUATOR_DOC
from tolchain import parse_chain
from tolchain.cli import main


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

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "tolchain 0.1.0"
