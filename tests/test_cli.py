"""End-to-end checks of the command line interface."""

import csv
import gzip
import io
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from logsample.cli import cli, main
from logsample.log_model import write_csv

from helpers import log_from_variants, skewed_log

DATA = Path(__file__).parent / "data"


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


def test_variants_print_instant_modal_values_as_write_csv_writes_them(runner):
    result = runner.invoke(cli, ["variants", str(DATA / "xes_core.xes"), "--attr", "due,opened"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "variant,frequency,modal_due,modal_opened",
        '"a,a",1,,2021-03-03T00:00:00.000+00:00',
        '"a,b,c",1,2021-03-05T17:00:00.000+00:00,2021-03-01T07:00:00.000+00:00',
        '"b,a,d",1,2021-03-02T18:30:00.000+00:00,',
    ]


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


def test_features_default_window_is_the_95th_percentile_length(runner, tmp_path):
    # 19 traces of length 2 and one of length 5: the nearest-rank 95th percentile is 2
    path, out = tmp_path / "log.csv", tmp_path / "features.csv"
    write_csv(log_from_variants([(("a", "b"), 19), (("a", "b", "c", "d", "e"), 1)]), path)
    result = runner.invoke(cli, ["features", str(path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "(window 2)" in result.output
    with out.open() as fh:
        header = next(csv.reader(fh))
    # alphabet {a,...,e}: 2 blocks of 6 slots plus the label column
    assert len(header) == 2 * 6 + 1


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


def run_main(monkeypatch, capsys, *args):
    """Run the installed entry point in-process; its standard output."""
    monkeypatch.setattr(sys, "argv", ["logsample", *map(str, args)])
    main()
    return capsys.readouterr().out


def test_evaluate_pins_a_root_only_walk_and_an_unseen_activity(tmp_path, monkeypatch, capsys):
    core = DATA / "write_core.csv"
    # max_order 0: every key is empty, so the walk never leaves the root
    run_main(monkeypatch, capsys, "train", core, "--max-order", "0", "-o", tmp_path / "m0.json")
    out = run_main(monkeypatch, capsys, "evaluate", tmp_path / "m0.json", core)
    assert out.splitlines() == ["n,overall_accuracy,balanced_accuracy", "8,0.375,0.25"]

    # the XES-derived log has activity d, which the model never saw
    run_main(monkeypatch, capsys, "train", core, "-o", tmp_path / "m.json")
    xes_sample = tmp_path / "x.csv"
    run_main(monkeypatch, capsys, "sample", DATA / "xes_core.xes", "--method", "unique",
             "-o", xes_sample)
    out = run_main(monkeypatch, capsys, "evaluate", tmp_path / "m.json", xes_sample)
    assert out.splitlines()[1] == "8,0.625,0.6333333333333333"


def test_a_max_order_past_sys_maxsize_predicts_and_evaluates_as_a_long_one(
    tmp_path, monkeypatch, capsys
):
    """load_model takes any max_order >= 0; one past sys.maxsize walks back like any long one."""
    core = DATA / "write_core.csv"
    run_main(monkeypatch, capsys, "train", core, "-o", tmp_path / "m.json")
    model = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
    outputs = []
    for max_order in (1000, 10**20):
        path = tmp_path / f"m{max_order}.json"
        path.write_text(json.dumps({**model, "max_order": max_order}), encoding="utf-8")
        predictions = [
            run_main(monkeypatch, capsys, "predict", path, "--prefix", prefix)
            for prefix in ("a", "a,b", "zz")
        ]
        outputs.append([*predictions, run_main(monkeypatch, capsys, "evaluate", path, core)])
    assert outputs[0] == outputs[1]


def test_bench_at_a_max_order_past_sys_maxsize_reports_as_a_long_one(
    tmp_path, monkeypatch, capsys
):
    reports = []
    for max_order in (1000, 10**20):
        config = tmp_path / f"c{max_order}.json"
        settings = {"folds": 2, "repeats": 1, "grid": ["d2"], "max_order": max_order}
        config.write_text(json.dumps(settings))
        out = tmp_path / f"b{max_order}.csv"
        core = DATA / "write_core.csv"
        run_main(monkeypatch, capsys, "bench", core, "--config", config, "-o", out)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "text",
    [
        '{"max_order": 2, "smoothing": 0.0',
        '[2, "labels"]',
        '{"max_order": "2", "smoothing": 0.0, "labels": [],'
        ' "tables": [{"suffix": [], "counts": {}}]}',
        '{"max_order": 1, "smoothing": 0.0, "labels": [],'
        ' "tables": [{"suffix": [], "counts": {"x": 1}}]}',
        '{"max_order": -2, "smoothing": 0.0, "labels": [],'
        ' "tables": [{"suffix": [], "counts": {}}]}',
        '{"max_order": 1, "smoothing": -5, "labels": [],'
        ' "tables": [{"suffix": [], "counts": {}}]}',
        '{"max_order": 1, "smoothing": NaN, "labels": [],'
        ' "tables": [{"suffix": [], "counts": {}}]}',
        '{"max_order": 1, "smoothing": Infinity, "labels": [],'
        ' "tables": [{"suffix": [], "counts": {}}]}',
        '{"max_order": 1, "smoothing": 0.0, "labels": ["a"],'
        ' "tables": [{"suffix": [], "counts": {}}]}',
        '{"max_order": 1, "smoothing": 0.0, "labels": ["a", "b"],'
        ' "tables": [{"suffix": [], "counts": {"a": 1}}, {"suffix": ["a"], "counts": {}}]}',
        '{"max_order": 1, "smoothing": 0.0, "labels": ["a", "b"],'
        ' "tables": [{"suffix": [], "counts": {"a": -1, "b": 0}}]}',
        '{"max_order": 1, "smoothing": 0.0, "labels": ["b", "b"],'
        ' "tables": [{"suffix": [], "counts": {"b": 1}}]}',
        '{"max_order": 1, "smoothing": 0.0, "labels": ["a", "b"],'
        ' "tables": [{"suffix": [], "counts": {"a": 1}}, {"suffix": ["a"], "counts": {"a": 5}},'
        ' {"suffix": ["a"], "counts": {"b": 1}}]}',
    ],
    ids=[
        "truncated-json", "json-list", "max-order-str", "unknown-label",
        "max-order-negative", "smoothing-negative", "smoothing-nan", "smoothing-infinite",
        "empty-root-counts", "empty-suffix-counts", "negative-count", "repeated-label",
        "repeated-suffix",
    ],
)
def test_predict_on_a_bad_model_file_exits_with_error(tmp_path, monkeypatch, capsys, text):
    model_path = tmp_path / "bad_model.json"
    model_path.write_text(text)
    monkeypatch.setattr(sys, "argv", ["logsample", "predict", str(model_path), "--prefix", "a"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model file ") and "bad_model.json" in err


def test_predict_breaks_ties_alphabetically_whatever_the_file_label_order(tmp_path, runner):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        '{"max_order": 0, "smoothing": 0.0, "labels": ["b", "a"],'
        ' "tables": [{"suffix": [], "counts": {"a": 1, "b": 1}}]}'
    )
    result = runner.invoke(cli, ["predict", str(model_path), "--prefix", "x"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["predicted"] == "a"


def test_sample_refuses_an_attribute_named_like_a_column(tmp_path, monkeypatch, capsys):
    xes = tmp_path / "log.xes"
    xes.write_text(
        '<log><trace><string key="concept:name" value="t1"/><event>'
        '<string key="concept:name" value="a"/><string key="activity" value="x"/>'
        '<date key="time:timestamp" value="2021-01-01T10:00:00Z"/></event></trace></log>'
    )
    out = tmp_path / "o.csv"
    argv = ["logsample", "sample", str(xes), "--method", "unique", "-o", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.startswith("error: attribute 'activity' has the name of")
    assert not out.exists()


def test_sample_refuses_case_ids_that_would_merge_when_read_back(tmp_path, monkeypatch, capsys):
    # parse_csv strips " c1" and "a ", so the written file would read back as one case a,a
    xes = tmp_path / "log.xes"
    xes.write_text("<log>" + "".join(
        f'<trace><string key="concept:name" value="{case_id}"/><event>'
        f'<string key="concept:name" value="{activity}"/>'
        '<date key="time:timestamp" value="2021-01-01T10:00:00Z"/></event></trace>'
        for case_id, activity in [(" c1", "a "), ("c1", "a")]
    ) + "</log>")
    out = tmp_path / "s.csv"
    argv = ["logsample", "sample", str(xes), "--method", "unique", "--sort", "random",
            "-o", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.startswith(
        "error: case ' c1' has a case id written as ' c1', which parse_csv would not read back"
    )
    assert not out.exists()


def test_repeated_column_option_exits_before_the_log_is_read(tmp_path, monkeypatch, capsys):
    not_a_log = tmp_path / "log.csv"
    not_a_log.write_bytes(b"\xff")  # reading it would fail with a different error
    argv = ["logsample", "variants", str(not_a_log), "--case-col", "k", "--activity-col", "k"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "column 'k'" in err


@pytest.mark.parametrize(
    "args, code",
    [
        (["sample", "--method", "unique"], 1),  # --sort rep is the default
        (["bench", "--folds", "2", "--repeats", "1", "--grid", "d2", "--sort", "rep"], 1),
        (["bench", "--folds", "2", "--repeats", "1", "--grid", "d2", "--sort", "random"], 0),
    ],
)
def test_representative_sorting_needs_an_attribute_column(small_csv, tmp_path, monkeypatch,
                                                          capsys, args, code):
    assert Path(small_csv).read_text().startswith("case_id,activity,timestamp\n")
    argv = ["logsample", args[0], small_csv, *args[1:], "-o", str(tmp_path / "out.csv")]
    monkeypatch.setattr(sys, "argv", argv)
    if code:
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == code
        expected = "error: representative sorting needs an index built with attributes\n"
        assert capsys.readouterr().err == expected
    else:
        main()
        assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("smoothing", ["nan", "inf"])
def test_train_with_non_finite_smoothing_exits_with_error(small_csv, tmp_path, monkeypatch,
                                                          capsys, smoothing):
    model_path = tmp_path / "model.json"
    argv = ["logsample", "train", small_csv, "--smoothing", smoothing, "-o", str(model_path)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.startswith("error: smoothing must be finite")
    assert not model_path.exists()


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


@pytest.mark.parametrize("name", ["core.xes.gz", "core.XES.gz", "core.Xes", "core.CSV"])
def test_bench_names_the_log_without_its_suffixes_in_any_case(runner, small_csv, tmp_path, name):
    """The log column drops .gz, .xes and .csv however load_log's suffix is spelt."""
    xes = (DATA / "xes_core.xes").read_bytes()
    data = {".gz": gzip.compress(xes), ".xes": xes, ".csv": Path(small_csv).read_bytes()}
    log_path = tmp_path / name
    log_path.write_bytes(data[Path(name).suffix.lower()])
    result = runner.invoke(
        cli,
        [
            "bench", str(log_path),
            "--folds", "2", "--repeats", "1", "--grid", "d2",
            "-o", str(tmp_path / "report.csv"), "--markdown",
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[2].startswith("| core |")


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
        ([], b'{"folds": \xff}', "not valid JSON"),
        ([], {"validation_fraction": 0.1}, "unknown experiment config keys: validation_fraction"),
        ([], {"smoothing": 0.01}, "unknown experiment config keys: smoothing"),
        (["--grid", "d\u00b2"], None, "'d\u00b2'"),
        (["--grid", "log\u00b2"], None, "'log\u00b2'"),
        (["--grid", "d\u0663"], None, "'d\u0663'"),
        ([], {"grid": ["d\u00b2"]}, "'d\u00b2'"),
        ([], {"grid": ["log\u0663"]}, "'log\u0663'"),
    ],
    ids=[
        "grid-token", "config-key", "folds-str", "window-float", "window-bool", "json-list",
        "seed-str", "repeats-bool", "end-marker-str", "grid-str",
        "grid-non-str-token", "sorting-int", "json-malformed", "json-not-utf8",
        "validation-fraction", "smoothing", "grid-superscript-digit",
        "grid-log-superscript-digit", "grid-arabic-indic-digit", "config-superscript-digit",
        "config-arabic-indic-digit",
    ],
)
def test_bench_bad_settings_exit_with_error(small_csv, tmp_path, monkeypatch, capsys,
                                            args, config, named):
    def load_log(*args, **kwargs):
        raise AssertionError("bench read the log before it checked its settings")

    monkeypatch.setattr("logsample.cli.load_log", load_log)
    if config is not None:
        config_path = tmp_path / "config.json"
        if isinstance(config, bytes):
            config_path.write_bytes(config)
        else:
            config_path.write_text(config if isinstance(config, str) else json.dumps(config))
        args = [*args, "--config", str(config_path)]
    argv = ["logsample", "bench", small_csv, *args, "-o", str(tmp_path / "report.csv")]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_bench_fold_with_zero_accuracy_baseline_records_failed_cells(
    tmp_path, monkeypatch, capsys
):
    # each fold trains on one case and tests on the other, which shares no activity
    path = tmp_path / "two.csv"
    path.write_text(
        "case_id,activity,timestamp\n"
        "c1,a,2021-01-01T10:00:00\nc1,b,2021-01-01T11:00:00\n"
        "c2,x,2021-01-02T10:00:00\nc2,y,2021-01-02T11:00:00\n"
    )
    out = tmp_path / "report.csv"
    argv = ["logsample", "bench", str(path), "--folds", "2", "--repeats", "1",
            "--grid", "d2", "-o", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    main()
    assert "error" not in capsys.readouterr().err
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["strategy"], r["fold"], r["ok"]) for r in rows] == [
        ("baseline", "0", "True"), ("d2", "0", "False"),
        ("baseline", "1", "True"), ("d2", "1", "False"),
    ]
    for row in rows:
        if row["strategy"] == "baseline":
            assert float(row["accuracy_full"]) == 0.0
        else:
            assert row["error"] == "baseline accuracy must be positive, got 0.0"


@pytest.mark.parametrize(
    "args",
    [
        ["features"],
        ["sample", "--method", "unique", "--sort", "random"],
        ["train"],
        ["bench", "--folds", "2", "--repeats", "1", "--grid", "d2"],
    ],
    ids=["features", "sample", "train", "bench"],
)
def test_unwritable_output_path_exits_with_error(small_csv, tmp_path, monkeypatch, capsys,
                                                 args):
    out = tmp_path / "missing" / "out.csv"
    monkeypatch.setattr(sys, "argv", ["logsample", args[0], small_csv, *args[1:], "-o", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_missing_file_fails(runner):
    result = runner.invoke(cli, ["variants", "no-such-file.csv"])
    assert result.exit_code != 0
