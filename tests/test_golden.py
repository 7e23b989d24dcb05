"""Golden outputs, byte for byte: a fixed-seed ``logsample bench`` run, an export, a log.

The headers of the timing sidecar, of the aggregate table and of its markdown
form are pinned as literal tuples, because they are derived from the report
dataclasses rather than written out.

The core CSV is the behavioural contract of the benchmark, so any change
to what the pipeline computes (splits, samples, models, predictions,
accuracies) shows up here. ``tests/data/bench_core.csv`` was regenerated
once, on purpose, by this same run when the contract was revised: models
now train on every feature row of the training fold (a random 10% had been
held out for a validation split that the predictor never read), and cells
report overall accuracy, the exact count ratio, instead of support-weighted
recall, which equalled it up to rounding. That changed 120 accuracy cells;
every other cell kept its bytes.

Random and representative ranking share one expected file: sampling keeps
the same number of cases of each variant whatever the ranking, and the
predictor sees only activity sequences.

``tests/data/sample_rep_core.csv`` pins which cases representative ranking
keeps: a ``logsample sample --sort rep`` run that scores a case-scoped and an
event-scoped attribute, written when each ranking call still re-read every
case's attribute observations.

``tests/data/write_core.csv`` is ``write_csv`` output from before
timestamps were formatted without ``isoformat``.

``tests/data/xes_core.csv`` is ``write_csv`` of ``tests/data/xes_core.xes``,
written while ``parse_xes`` still handed ``build_log`` one flat event list
tagged with case ids.

``tests/data/model_core.json`` is ``logsample train`` of the bench golden log
at the default max order, written while each training row still reversed a
slice of its case's sequence. The order of each table's counts follows the
order in which the trainer first counted each label, so it pins that too.
"""

import csv
import io
from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from logsample.cli import cli
from logsample.experiment import (
    AGGREGATE_COLUMNS,
    DEFAULT_GRID_TOKENS,
    TIMING_COLUMNS,
    ExperimentConfig,
    default_grid,
    render_report,
    run_experiment,
    write_timings_csv,
)
from logsample.features import export_features, extract_features
from logsample.log_model import (
    CASE_SCOPE,
    CATEGORICAL,
    EVENT_SCOPE,
    INSTANT,
    NUMERIC,
    AttributeSpec,
    Event,
    build_log,
    parse_csv,
    parse_xes,
    write_csv,
)

from helpers import log_from_variants, random_variant_freqs, resource_schema

DATA = Path(__file__).parent / "data"


def golden_log():
    """Skewed random variants with a categorical resource on every event."""
    freqs = random_variant_freqs(Random(2210), max_variants=14, max_freq=40, max_len=6)
    return log_from_variants(
        freqs,
        event_attrs=lambda case_n, j: {"resource": f"r{(case_n * 7 + j) % 3}"},
        schema=resource_schema(),
    )


def bench_core_csv(tmp_path: Path, sort_token: str) -> bytes:
    log_path = tmp_path / "golden.csv"
    write_csv(golden_log(), log_path)
    out = tmp_path / "report.csv"
    result = CliRunner().invoke(
        cli,
        [
            "bench", str(log_path),
            "--folds", "3", "--repeats", "2",
            "--sort", sort_token, "--seed", "11",
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.mark.parametrize("sort_token", ["random", "rep"])
def test_bench_core_csv_is_unchanged(tmp_path, sort_token):
    expected = (DATA / "bench_core.csv").read_bytes()
    assert bench_core_csv(tmp_path, sort_token) == expected


def test_saved_model_is_unchanged(tmp_path):
    log_path = tmp_path / "golden.csv"
    write_csv(golden_log(), log_path)
    out = tmp_path / "model.json"
    result = CliRunner().invoke(cli, ["train", str(log_path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (DATA / "model_core.json").read_bytes()


def sample_core_csv(tmp_path: Path, sort_token: str) -> bytes:
    """Keep half of each variant of a log whose attribute values vary within variants.

    ``region`` holds one value per case, so it reads back case-scoped;
    ``resource`` varies along a case and is missing from every fifth event.
    """
    log = log_from_variants(
        random_variant_freqs(Random(4408), max_variants=8, max_freq=12, max_len=5),
        event_attrs=lambda n, j: {} if (n + j) % 5 == 0 else {"resource": f"r{(n * n + j) % 3}"},
        case_attrs=lambda n: {"region": ("north", "south", "east")[n * 7 % 5 % 3]},
        schema={
            "resource": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
            "region": AttributeSpec(CATEGORICAL, CASE_SCOPE),
        },
    )
    log_path = tmp_path / "attributed.csv"
    write_csv(log, log_path)
    out = tmp_path / f"sample_{sort_token}.csv"
    result = CliRunner().invoke(
        cli,
        [
            "sample", str(log_path),
            "--method", "div", "--k", "2",
            "--sort", sort_token, "--attr", "region,resource",
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out.read_bytes()


def test_representative_sample_is_unchanged(tmp_path):
    kept = sample_core_csv(tmp_path, "rep")
    assert kept == (DATA / "sample_rep_core.csv").read_bytes()
    # the ranking decides the kept cases: arrival order keeps others
    assert kept != sample_core_csv(tmp_path, "time-asc")


def test_report_headers_are_unchanged(tmp_path):
    """The columns the timing sidecar, the aggregate table and the markdown name."""
    config = ExperimentConfig(folds=3, repeats=1, grid=default_grid(), seed=11)
    report = run_experiment(golden_log(), config)
    timing = (
        "strategy", "repeat", "fold",
        "sampling_seconds", "fe_seconds", "train_seconds", "fe_speedup", "train_speedup",
    )
    assert TIMING_COLUMNS == timing
    write_timings_csv(report, tmp_path / "timings.csv")
    with (tmp_path / "timings.csv").open(newline="", encoding="utf-8") as fh:
        assert tuple(next(csv.reader(fh))) == timing

    aggregate = (
        "strategy", "runs", "failures", "reduction_rate", "rel_accuracy",
        "fe_speedup", "train_speedup", "accuracy",
        "sampling_seconds", "fe_seconds", "train_seconds",
    )
    assert AGGREGATE_COLUMNS == aggregate
    table = list(csv.reader(io.StringIO(render_report(report, "csv"))))
    assert tuple(table[0]) == aggregate
    assert [row[0] for row in table[1:]] == ["baseline", *DEFAULT_GRID_TOKENS]

    header = render_report(report, "markdown").splitlines()[0]
    cells = [cell.strip() for cell in header.strip("|").split("|")]
    titles = ("reduction", "fe-speedup", "rel-acc", "train-speedup")
    assert cells == [
        "log",
        "baseline acc",
        *(f"{token} {title}" for token in DEFAULT_GRID_TOKENS for title in titles),
    ]


def test_feature_export_is_unchanged(tmp_path):
    log = log_from_variants(
        random_variant_freqs(Random(3107), max_variants=12, max_freq=5, max_len=7)
    )
    assert max(len(log.trace(cid)) for cid in log.cases) > 4
    out = tmp_path / "features.csv"
    export_features(extract_features(log), sorted(log.activity_alphabet), 4, out)
    assert out.read_bytes() == (DATA / "features_core.csv").read_bytes()


def write_core_log():
    """Naive, UTC and offset timestamps; numeric, instant, text and case attributes.

    Microseconds that are not whole milliseconds, a timezone equal to UTC
    but not ``timezone.utc``, text that needs quoting, an event attribute
    shadowing a case attribute, and attributes absent from some events.
    """
    east = timezone(timedelta(hours=5, minutes=30))
    west = timezone(timedelta(hours=-8))
    named_utc = timezone(timedelta(0), "GMT")
    cases = {
        "c1": [
            Event("a", datetime(2021, 3, 1, 9, 0, 0, 123456, tzinfo=east),
                  {"cost": 12, "note": "x,y", "due": datetime(2021, 3, 2, tzinfo=west)}),
            Event("b", datetime(2021, 3, 1, 4, 0, 0, 999, tzinfo=timezone.utc),
                  {"cost": 0.1, "note": 'say "hi"', "priority": 7}),
            Event("c", datetime(2021, 3, 1, 23, 59, 59, 999999, tzinfo=west),
                  {"cost": -1e-07, "note": "two\nlines"}),
        ],
        "c2": [
            Event("a", datetime(2021, 3, 1, 10, 0),
                  {"due": datetime(2021, 3, 3, 12, 30, 15, 500)}),
            Event("c", datetime(2021, 3, 1, 10, 0), {"cost": 1e16}),
            Event("b", datetime(2021, 3, 1, 9, 59, 59, 1000), {"note": ""}),
        ],
        "c3": [
            Event("b", datetime(1, 1, 1, 0, 0, 0, 7000, tzinfo=named_utc), {}),
            Event("a", datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=east),
                  {"cost": True}),
        ],
    }
    case_attributes = {
        "c1": {"region": "north", "priority": 2},
        "c2": {"region": "so,uth", "opened": datetime(2020, 2, 29, 12, tzinfo=east)},
    }
    schema = {
        "cost": AttributeSpec(NUMERIC, EVENT_SCOPE),
        "note": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
        "due": AttributeSpec(INSTANT, EVENT_SCOPE),
        "priority": AttributeSpec(NUMERIC, EVENT_SCOPE),
        "region": AttributeSpec(CATEGORICAL, CASE_SCOPE),
        "opened": AttributeSpec(INSTANT, CASE_SCOPE),
    }
    return build_log(cases, case_attributes, schema)


def test_write_csv_is_unchanged(tmp_path):
    out = tmp_path / "log.csv"
    write_csv(write_core_log(), out)
    assert out.read_bytes() == (DATA / "write_core.csv").read_bytes()


def test_parse_xes_is_unchanged(tmp_path):
    """Every XES value tag on traces and events, a NaN float, a trace without
    ``concept:name``, events out of time order and timestamp ties."""
    log = parse_xes(DATA / "xes_core.xes")
    assert list(log.cases) == ["t1", "case_1", "t3"]
    # a NaN next to finite floats makes the attribute categorical
    assert log.attribute_schema == {
        "region": AttributeSpec(CATEGORICAL, CASE_SCOPE),
        "priority": AttributeSpec(NUMERIC, CASE_SCOPE),
        "budget": AttributeSpec(CATEGORICAL, CASE_SCOPE),
        "opened": AttributeSpec(INSTANT, CASE_SCOPE),
        "urgent": AttributeSpec(CATEGORICAL, CASE_SCOPE),
        "org:resource": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
        "items": AttributeSpec(NUMERIC, EVENT_SCOPE),
        "cost": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
        "checked": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
        "due": AttributeSpec(INSTANT, EVENT_SCOPE),
    }
    out = tmp_path / "log.csv"
    write_csv(log, out)
    assert out.read_bytes() == (DATA / "xes_core.csv").read_bytes()


@pytest.mark.parametrize("name", ["write_core.csv", "xes_core.csv", "sample_rep_core.csv"])
def test_golden_csv_is_written_back_as_it_is(tmp_path, name):
    """A golden CSV read by parse_csv and written again gives its own bytes back.

    ``xes_core.csv`` carries floats, boolean texts and instants through the round trip.
    """
    out = tmp_path / name
    write_csv(parse_csv(DATA / name), out)
    assert out.read_bytes() == (DATA / name).read_bytes()
