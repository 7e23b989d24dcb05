"""Golden outputs, byte for byte: a fixed-seed ``logsample bench`` run, an export, a log.

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

``tests/data/write_core.csv`` is ``write_csv`` output from before
timestamps were formatted without ``isoformat``.
"""

from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from logsample.cli import cli
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
    events = [
        Event("c1", "a", datetime(2021, 3, 1, 9, 0, 0, 123456, tzinfo=east),
              {"cost": 12, "note": "x,y", "due": datetime(2021, 3, 2, tzinfo=west)}),
        Event("c1", "b", datetime(2021, 3, 1, 4, 0, 0, 999, tzinfo=timezone.utc),
              {"cost": 0.1, "note": 'say "hi"', "priority": 7}),
        Event("c1", "c", datetime(2021, 3, 1, 23, 59, 59, 999999, tzinfo=west),
              {"cost": -1e-07, "note": "two\nlines"}),
        Event("c2", "a", datetime(2021, 3, 1, 10, 0),
              {"due": datetime(2021, 3, 3, 12, 30, 15, 500)}),
        Event("c2", "c", datetime(2021, 3, 1, 10, 0), {"cost": 1e16}),
        Event("c2", "b", datetime(2021, 3, 1, 9, 59, 59, 1000), {"note": ""}),
        Event("c3", "b", datetime(1, 1, 1, 0, 0, 0, 7000, tzinfo=named_utc), {}),
        Event("c3", "a", datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=east),
              {"cost": True}),
    ]
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
    return build_log(events, case_attributes, schema)


def test_write_csv_is_unchanged(tmp_path):
    out = tmp_path / "log.csv"
    write_csv(write_core_log(), out)
    assert out.read_bytes() == (DATA / "write_core.csv").read_bytes()
