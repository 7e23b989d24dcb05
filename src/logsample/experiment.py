"""Cross-validated benchmark of sampling strategies.

For every repeat and fold the harness trains a baseline model on the full
training fold, then re-runs feature extraction and training on each sampled
version of that fold, always evaluating on the untouched test fold. Sampling
never touches test data. The per-cell results roll up into per-strategy
means.

Wall-clock measurements are inherently non-reproducible, so report rows are
written to two files: a deterministic core CSV (identical bytes for
identical seeds) and a timing sidecar.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from random import Random
from typing import Sequence

from .errors import (
    ConfigurationError,
    EmptySampleError,
    EvaluationError,
    SplitError,
    TrainingError,
    UndefinedRatioError,
)
from .features import default_window, encode, extract_features
from .log_model import EventLog, _gc_paused, subset_log
from .metrics import TestRows, evaluate, relative_accuracy, speedup
from .predictor import train
from .sampling import RANDOM_ORDER, REPRESENTATIVE, SamplingConfig, parse_method_token, sample
from .variants import build_variant_index

BASELINE = "baseline"

DEFAULT_GRID_TOKENS = ("d2", "d3", "d10", "log2", "log3", "log10", "unique")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labelled parts."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def default_grid(sorting: str = RANDOM_ORDER) -> tuple[SamplingConfig, ...]:
    return tuple(parse_method_token(tok, sorting=sorting) for tok in DEFAULT_GRID_TOKENS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark settings: folds, repeats, sampling grid, and model knobs.

    Construction checks each field's type and least value, so a config built
    in Python is checked as a ``bench --config`` file is.
    """

    folds: int = 5
    repeats: int = 5
    grid: tuple[SamplingConfig, ...] = field(default_factory=default_grid)
    seed: int = 0
    end_marker: bool = True
    window: int | None = None
    max_order: int = 5

    def __post_init__(self):
        for key, (valid, expected, least) in _SETTINGS.items():
            value = getattr(self, key)
            if not valid(value):
                raise ConfigurationError(
                    f"experiment config {key!r} must be {expected}, got {value!r}"
                )
            if None not in (value, least) and value < least:
                raise ConfigurationError(f"{key} must be >= {least}, got {value}")
        if not (self.grid and all(isinstance(entry, SamplingConfig) for entry in self.grid)):
            raise ConfigurationError(
                f"the sampling grid must hold one or more SamplingConfigs, got {self.grid!r}"
            )
        labels = [entry.label for entry in self.grid]
        if len(labels) != len(set(labels)):
            raise ConfigurationError(f"duplicate strategies in grid: {labels}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The type check, its wording and the least value (None: any) of each scalar setting.
_SETTINGS = {
    "folds": (_is_int, "an integer", 2),
    "repeats": (_is_int, "an integer", 1),
    "seed": (_is_int, "an integer", None),
    "end_marker": (lambda v: isinstance(v, bool), "true or false", None),
    "window": (lambda v: v is None or _is_int(v), "an integer or null", 1),
    "max_order": (_is_int, "an integer", 0),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict (grid given as method tokens).

    Raises ConfigurationError when ``data`` is not a dict, or naming the keys
    that are not config fields, or a key whose value has the wrong type or
    range; ExperimentConfig checks every key but ``grid`` and ``sorting``.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"an experiment config must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(data.keys() - {f.name for f in fields(ExperimentConfig)} - {"sorting"})
    if unknown:
        raise ConfigurationError(f"unknown experiment config keys: {', '.join(unknown)}")
    kwargs = dict(data)
    sorting = kwargs.pop("sorting", RANDOM_ORDER)
    tokens = kwargs.pop("grid", None)
    if not isinstance(sorting, str):
        raise ConfigurationError(f"experiment config 'sorting' must be a string, got {sorting!r}")
    if tokens is None:
        kwargs["grid"] = default_grid(sorting)
    elif isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens):
        kwargs["grid"] = tuple(parse_method_token(tok, sorting=sorting) for tok in tokens)
    else:
        raise ConfigurationError(
            f"experiment config 'grid' must be a list of strings, got {tokens!r}"
        )
    return ExperimentConfig(**kwargs)


def config_from_json(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"experiment config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


# Marks the wall-clock fields of a row: they go to the timing sidecar, not the core CSV.
_TIMING = {"timing": True}


@dataclass(frozen=True)
class ExperimentRow:
    """One (strategy, repeat, fold) cell."""

    strategy: str
    repeat: int
    fold: int
    ok: bool
    error: str = ""
    original_cases: int = 0
    sampled_cases: int = 0
    original_variants: int = 0
    sampled_variants: int = 0
    reduction_rate: float = 0.0
    accuracy_full: float = 0.0
    accuracy_sampled: float = 0.0
    rel_accuracy: float = 0.0
    sampling_seconds: float = field(default=0.0, metadata=_TIMING)
    fe_seconds: float = field(default=0.0, metadata=_TIMING)
    train_seconds: float = field(default=0.0, metadata=_TIMING)
    fe_speedup: float = field(default=0.0, metadata=_TIMING)
    train_speedup: float = field(default=0.0, metadata=_TIMING)


@dataclass(frozen=True)
class StrategyAggregate:
    """Arithmetic means over the successful rows of one strategy.

    Every field after ``failures`` is the mean of the row field of the same
    name, or of the one its ``mean_of`` metadata names.
    """

    strategy: str
    runs: int
    failures: int
    reduction_rate: float = 0.0
    rel_accuracy: float = 0.0
    fe_speedup: float = 0.0
    train_speedup: float = 0.0
    accuracy: float = field(default=0.0, metadata={"mean_of": "accuracy_sampled"})
    sampling_seconds: float = 0.0
    fe_seconds: float = 0.0
    train_seconds: float = 0.0


@dataclass
class ExperimentReport:
    log_name: str
    rows: list[ExperimentRow]
    aggregates: dict[str, StrategyAggregate]  # baseline first, then the grid's order


def kfold_split(
    log: EventLog, folds: int, seed: int = 0
) -> list[tuple[EventLog, EventLog]]:
    """Case-level k-fold partition: (train, test) per fold, sizes within 1."""
    case_ids = sorted(log.cases)
    if not 2 <= folds <= len(case_ids):
        raise SplitError(f"cannot split {len(case_ids)} cases into {folds} folds")
    Random(f"{seed}|kfold").shuffle(case_ids)

    base, extra = divmod(len(case_ids), folds)
    groups: list[list[str]] = []
    start = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        groups.append(case_ids[start : start + size])
        start += size

    splits = []
    for i in range(folds):
        test_ids = groups[i]
        train_ids = [cid for j, g in enumerate(groups) if j != i for cid in g]
        splits.append((subset_log(log, train_ids), subset_log(log, test_ids)))
    return splits


@_gc_paused()
def run_experiment(log: EventLog, config: ExperimentConfig) -> ExperimentReport:
    """Run the full repeats x folds x strategies benchmark on one log.

    In every fold the baseline, the strategy that keeps the whole training
    fold, runs first; each grid entry then runs on its sample of that fold.
    A grid entry whose sample comes out empty or cannot be trained on, or
    whose fold's baseline scored 0 so that no relative accuracy exists, is
    recorded as a failed row and the run continues; a baseline that cannot
    be trained aborts the run.

    The cyclic garbage collector is paused for the whole run. Its full
    collections walk the whole heap, so they would land in whichever timed
    cell crosses the threshold and make FE and training cost track the heap,
    not the rows.
    """
    rows: list[ExperimentRow] = []
    # only representative ranking reads the per-variant attribute summaries
    summary_attributes = None if any(e.sorting == REPRESENTATIVE for e in config.grid) else []

    for repeat in range(config.repeats):
        splits = kfold_split(log, config.folds, derive_seed(config.seed, "folds", repeat))
        for fold, (train_log, test_log) in enumerate(splits):
            test_rows = TestRows(extract_features(test_log, config.end_marker))
            if not test_rows:
                raise EvaluationError(
                    f"repeat {repeat} fold {fold}: test fold yields no feature rows"
                )
            alphabet = sorted(train_log.activity_alphabet)
            window = config.window or default_window(
                [len(case.trace) for case in train_log.cases.values()]
            )
            index = build_variant_index(train_log, summary_attributes)
            n, v = train_log.num_cases, len(index.variants)
            fold_fields = dict(repeat=repeat, fold=fold, original_cases=n, original_variants=v)

            def fit(fit_log: EventLog) -> tuple[float, float, float]:
                """FE seconds, training seconds and test-fold accuracy of one cell."""
                start = time.perf_counter()
                feature_rows = extract_features(fit_log, config.end_marker)
                for _ in encode(feature_rows, alphabet, window).blocks():
                    pass  # a trainer would read each one-hot mini-batch here
                fe_done = time.perf_counter()
                model = train(feature_rows, config.max_order)
                train_seconds = time.perf_counter() - fe_done
                return fe_done - start, train_seconds, evaluate(model, test_rows).overall_accuracy

            # outside the try: no cell of the fold can be scored without the baseline
            base_fe, base_train, base_accuracy = fit(train_log)
            rows.append(ExperimentRow(
                BASELINE, ok=True, sampled_cases=n, sampled_variants=v, reduction_rate=1.0,
                accuracy_full=base_accuracy, accuracy_sampled=base_accuracy, rel_accuracy=1.0,
                fe_seconds=base_fe, train_seconds=base_train, fe_speedup=1.0, train_speedup=1.0,
                **fold_fields,
            ))
            for entry in config.grid:
                seed = derive_seed(config.seed, "sample", repeat, fold, entry.label)
                cfg = replace(entry, seed=seed)
                try:
                    start = time.perf_counter()
                    fit_log, report = sample(train_log, index, cfg)
                    sampling_seconds = time.perf_counter() - start
                    fe_seconds, train_seconds, accuracy = fit(fit_log)
                    row = ExperimentRow(
                        entry.label, ok=True, sampled_cases=report.sampled_cases,
                        sampled_variants=report.sampled_variants,
                        reduction_rate=report.reduction_rate,
                        accuracy_full=base_accuracy, accuracy_sampled=accuracy,
                        rel_accuracy=relative_accuracy(accuracy, base_accuracy),
                        sampling_seconds=sampling_seconds,
                        fe_seconds=fe_seconds, train_seconds=train_seconds,
                        fe_speedup=speedup(base_fe, fe_seconds),
                        train_speedup=speedup(base_train, train_seconds),
                        **fold_fields,
                    )
                except (EmptySampleError, TrainingError, UndefinedRatioError) as exc:
                    # an annihilated training set, or a baseline that scored 0,
                    # fails this cell, not the run
                    row = ExperimentRow(entry.label, ok=False, error=str(exc), **fold_fields)
                rows.append(row)

    strategies = [BASELINE, *(entry.label for entry in config.grid)]
    aggregates = {name: _aggregate(name, rows) for name in strategies}
    return ExperimentReport(log_name="", rows=rows, aggregates=aggregates)


def _aggregate(strategy: str, rows: Sequence[ExperimentRow]) -> StrategyAggregate:
    mine = [r for r in rows if r.strategy == strategy]
    ok = [r for r in mine if r.ok]
    failures = len(mine) - len(ok)
    if not ok:
        return StrategyAggregate(strategy=strategy, runs=0, failures=failures)
    means = {}
    for f in fields(StrategyAggregate)[3:]:
        attr = f.metadata.get("mean_of", f.name)
        means[f.name] = sum(getattr(r, attr) for r in ok) / len(ok)
    return StrategyAggregate(strategy=strategy, runs=len(ok), failures=failures, **means)


# ---------------------------------------------------------------------------
# Rendering and persistence
# ---------------------------------------------------------------------------

CORE_COLUMNS = tuple(f.name for f in fields(ExperimentRow) if not f.metadata.get("timing"))

TIMING_COLUMNS = (
    "strategy",
    "repeat",
    "fold",
    *(f.name for f in fields(ExperimentRow) if f.metadata.get("timing")),
)

AGGREGATE_COLUMNS = tuple(f.name for f in fields(StrategyAggregate))

# (title, aggregate field, format) of each per-strategy markdown column
_MARKDOWN_COLUMNS = (
    ("reduction", "reduction_rate", ".2f"),
    ("fe-speedup", "fe_speedup", ".2f"),
    ("rel-acc", "rel_accuracy", ".4f"),
    ("train-speedup", "train_speedup", ".2f"),
)


def _write_table(fh, columns: Sequence[str], records) -> None:
    """A header of ``columns``, then each record's attributes of those names."""
    writer = csv.writer(fh)
    writer.writerow(columns)
    for record in records:
        writer.writerow([getattr(record, col) for col in columns])


def write_rows_csv(report: ExperimentReport, path: str | Path) -> None:
    """Deterministic per-row CSV: identical seeds give identical bytes."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        _write_table(fh, CORE_COLUMNS, report.rows)


def write_timings_csv(report: ExperimentReport, path: str | Path) -> None:
    """Wall-clock sidecar; joins to the core CSV on (strategy, repeat, fold)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        _write_table(fh, TIMING_COLUMNS, [row for row in report.rows if row.ok])


def render_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Aggregate table as CSV (one strategy per row) or markdown (wide)."""
    if fmt == "csv":
        buf = io.StringIO()
        _write_table(buf, AGGREGATE_COLUMNS, report.aggregates.values())
        return buf.getvalue()
    if fmt == "markdown":
        baseline, *strategies = report.aggregates.values()
        header = ["log", "baseline acc"]
        values = [report.log_name or "log", f"{baseline.accuracy:.4f}"]
        for agg in strategies:
            for title, attr, spec in _MARKDOWN_COLUMNS:
                header.append(f"{agg.strategy} {title}")
                values.append(format(getattr(agg, attr), spec) if agg.runs else "-")
        rule = ["---"] * len(header)
        return "".join(f"| {' | '.join(cells)} |\n" for cells in (header, rule, values))
    raise ConfigurationError(f"unknown report format {fmt!r}")
