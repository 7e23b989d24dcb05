"""End-to-end checks of the command line interface."""

import csv
import io
import json
import sys

import pytest
from click.testing import CliRunner

from logsample.cli import cli, main
from logsample.log_model import write_csv

from helpers import log_from_variants, skewed_log


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def skewed_csv(tmp_path):
    path = tmp_path / "skewed.csv"
    write_csv(skewed_log(), path)
    return str(path)


@pytest.fixture
def small_csv(tmp_path):
    log = log_from_variants([(("a", "b", "c"), 20), (("a", "c"), 10), (("b",), 5)])
    path = tmp_path / "small.csv"
    write_csv(log, path)
    return str(path)


def test_variants_table(runner, skewed_csv):
    result = runner.invoke(cli, ["variants", skewed_csv])
    assert result.exit_code == 0
    table = list(csv.reader(io.StringIO(result.output)))
    assert table[0][:2] == ["variant", "frequency"]
    assert ["a,b,c", "900"] == table[1][:2]
    assert len(table) == 4


def test_sample_writes_log_and_report(runner, skewed_csv, tmp_path):
    out = tmp_path / "sampled.csv"
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        cli,
        [
            "sample", skewed_csv,
            "--method", "div", "--k", "10",
            "--sort", "random", "--seed", "1",
            "-o", str(out), "--report", str(report_path),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["sampled_cases"] == 100
    assert report["reduction_rate"] == 10.0
    assert report["variant_preserving"] is True
    rows = out.read_text().strip().splitlines()
    assert len(rows) > 1


def test_sample_unique_newest_first(runner, skewed_csv, tmp_path):
    out = tmp_path / "sampled.csv"
    result = runner.invoke(
        cli,
        ["sample", skewed_csv, "--method", "unique", "--sort", "time-desc", "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    # newest case of the most frequent variant is c000899
    assert "c000899" in out.read_text()


def test_sample_rejects_bad_config(runner, skewed_csv, tmp_path):
    result = runner.invoke(
        cli,
        ["sample", skewed_csv, "--method", "div", "--k", "1",
         "--sort", "random", "-o", str(tmp_path / "x.csv")],
    )
    assert result.exit_code != 0


def test_features_export(runner, small_csv, tmp_path):
    out = tmp_path / "features.csv"
    result = runner.invoke(
        cli, ["features", small_csv, "--window", "3", "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    with out.open() as fh:
        header = next(csv.reader(fh))
    # alphabet {a,b,c}: 3 blocks of 4 slots plus the label column
    assert len(header) == 3 * 4 + 1


def test_train_predict_evaluate(runner, small_csv, tmp_path):
    model_path = tmp_path / "model.json"
    result = runner.invoke(cli, ["train", small_csv, "-o", str(model_path)])
    assert result.exit_code == 0, result.output

    result = runner.invoke(cli, ["predict", str(model_path), "--prefix", "a"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["predicted"] == "b"

    result = runner.invoke(cli, ["evaluate", str(model_path), small_csv])
    assert result.exit_code == 0, result.output
    table = list(csv.reader(io.StringIO(result.output)))
    assert table[0][0] == "n"
    assert table[0] == ["n", "overall_accuracy", "balanced_accuracy"]
    assert float(dict(zip(table[0], table[1]))["overall_accuracy"]) > 0.5


def test_bench_writes_reports(runner, small_csv, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(
        cli,
        [
            "bench", small_csv,
            "--folds", "2", "--repeats", "1",
            "--grid", "d2,unique", "--seed", "3",
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert out.exists()
    assert (tmp_path / "report.csv.timings.csv").exists()
    assert "strategy" in result.output  # aggregate CSV on stdout

    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["strategy"] for r in rows} == {"baseline", "d2", "unique"}
    assert len(rows) == 2 * 3


def test_bench_markdown(runner, small_csv, tmp_path):
    result = runner.invoke(
        cli,
        [
            "bench", small_csv,
            "--folds", "2", "--repeats", "1", "--grid", "d2",
            "-o", str(tmp_path / "report.csv"), "--markdown",
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("| log |")


def test_bench_config_file(runner, small_csv, tmp_path):
    config = {"folds": 2, "repeats": 1, "grid": ["unique"], "seed": 9}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "report.csv"
    result = runner.invoke(
        cli, ["bench", small_csv, "--config", str(config_path), "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["strategy"] for r in rows} == {"baseline", "unique"}


@pytest.mark.parametrize(
    "args, config, named",
    [
        (["--grid", "random:abc"], None, "'random:abc'"),
        ([], {"fold": 2, "grid": ["unique"]}, "fold"),
        ([], {"folds": "3"}, "'folds'"),
        ([], {"window": 2.5}, "'window'"),
        ([], {"window": True}, "'window'"),
        ([], [2, "unique"], "JSON object"),
        ([], {"seed": "x"}, "'seed'"),
        ([], {"repeats": False}, "'repeats'"),
        ([], {"end_marker": "no"}, "'end_marker'"),
        ([], {"grid": "d2"}, "'grid'"),
        ([], {"grid": ["d2", 3]}, "'grid'"),
        ([], {"sorting": 1}, "'sorting'"),
        ([], '{"folds": 2', "not valid JSON"),
        ([], {"validation_fraction": 0.1}, "unknown experiment config keys: validation_fraction"),
        ([], {"smoothing": 0.01}, "unknown experiment config keys: smoothing"),
    ],
    ids=[
        "grid-token", "config-key", "folds-str", "window-float", "window-bool", "json-list",
        "seed-str", "repeats-bool", "end-marker-str", "grid-str",
        "grid-non-str-token", "sorting-int", "json-malformed", "validation-fraction", "smoothing",
    ],
)
def test_bench_bad_settings_exit_with_error(small_csv, tmp_path, monkeypatch, capsys,
                                            args, config, named):
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(config if isinstance(config, str) else json.dumps(config))
        args = [*args, "--config", str(config_path)]
    argv = ["logsample", "bench", small_csv, *args, "-o", str(tmp_path / "report.csv")]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_missing_file_fails(runner):
    result = runner.invoke(cli, ["variants", "no-such-file.csv"])
    assert result.exit_code != 0
