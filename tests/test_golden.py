"""Golden outputs, byte for byte: a fixed-seed ``logsample bench`` run and an export.

The core CSV is the behavioural contract of the benchmark.
``tests/data/bench_core.csv`` was written by this same run before the
evaluation path was reworked, so any change to what the pipeline computes
(splits, samples, models, predictions, accuracies) shows up here.

Random and representative ranking share one expected file: sampling keeps
the same number of cases of each variant whatever the ranking, and the
predictor sees only activity sequences.
"""

from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from logsample.cli import cli
from logsample.features import export_features, extract_features
from logsample.log_model import write_csv

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
