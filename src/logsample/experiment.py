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
)
from .features import FeatureRow, default_window, encode, extract_features
from .log_model import EventLog, subset_log
from .metrics import Stopwatch, evaluate, relative_accuracy, speedup
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
    """Benchmark settings: folds, repeats, sampling grid, and model knobs."""

    folds: int = 5
    repeats: int = 5
    grid: tuple[SamplingConfig, ...] = field(default_factory=default_grid)
    seed: int = 0
    validation_fraction: float = 0.1
    end_marker: bool = True
    window: int | None = None
    max_order: int = 5
    smoothing: float = 0.01

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigurationError(f"folds must be >= 2, got {self.folds}")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        if not self.grid:
            raise ConfigurationError("the sampling grid must not be empty")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigurationError(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )
        if self.window is not None and self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        labels = [entry.label for entry in self.grid]
        if len(labels) != len(set(labels)):
            raise ConfigurationError(f"duplicate strategies in grid: {labels}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict (grid given as method tokens).

    Raises ConfigurationError naming any key that is not a config field.
    """
    kwargs = dict(data)
    sorting = kwargs.pop("sorting", RANDOM_ORDER)
    tokens = kwargs.pop("grid", None)
    unknown = sorted(kwargs.keys() - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ConfigurationError(f"unknown experiment config keys: {', '.join(unknown)}")
    if tokens is not None:
        kwargs["grid"] = tuple(parse_method_token(tok, sorting=sorting) for tok in tokens)
    else:
        kwargs["grid"] = default_grid(sorting)
    return ExperimentConfig(**kwargs)


def config_from_json(path: str | Path) -> ExperimentConfig:
    return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


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
    sampling_seconds: float = 0.0
    fe_seconds: float = 0.0
    train_seconds: float = 0.0
    fe_speedup: float = 0.0
    train_speedup: float = 0.0


@dataclass(frozen=True)
class StrategyAggregate:
    """Arithmetic means over the successful rows of one strategy."""

    strategy: str
    runs: int
    failures: int
    reduction_rate: float = 0.0
    rel_accuracy: float = 0.0
    fe_speedup: float = 0.0
    train_speedup: float = 0.0
    accuracy: float = 0.0
    sampling_seconds: float = 0.0
    fe_seconds: float = 0.0
    train_seconds: float = 0.0


@dataclass
class ExperimentReport:
    log_name: str
    config: ExperimentConfig
    rows: list[ExperimentRow]
    aggregates: dict[str, StrategyAggregate]


def kfold_split(
    log: EventLog, folds: int, seed: int = 0
) -> list[tuple[EventLog, EventLog]]:
    """Case-level k-fold partition: (train, test) per fold, sizes within 1."""
    case_ids = sorted(log.cases)
    if len(case_ids) < folds:
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


def _fit_rows(
    rows: list[FeatureRow], validation_fraction: float, rnd: Random
) -> list[FeatureRow]:
    """Hold out a validation share of rows; return the rows used for fitting.

    The built-in predictor has no early stopping, but the holdout keeps the
    training timings comparable to external trainers that do.
    """
    n_val = int(validation_fraction * len(rows))
    if n_val == 0:
        return rows
    indices = list(range(len(rows)))
    rnd.shuffle(indices)
    kept = sorted(indices[n_val:])
    return [rows[i] for i in kept]


def run_experiment(log: EventLog, config: ExperimentConfig) -> ExperimentReport:
    """Run the full repeats x folds x strategies benchmark on one log.

    In every fold the baseline, the strategy that keeps the whole training
    fold, runs first; each grid entry then runs on its sample of that fold.
    A grid entry whose sample comes out empty or cannot be trained on is
    recorded as a failed row and the run continues; a baseline that cannot
    be trained aborts the run.
    """
    rows: list[ExperimentRow] = []
    # only representative ranking reads the per-variant attribute summaries
    summary_attributes = None if any(e.sorting == REPRESENTATIVE for e in config.grid) else []

    for repeat in range(config.repeats):
        splits = kfold_split(log, config.folds, derive_seed(config.seed, "folds", repeat))
        for fold, (train_log, test_log) in enumerate(splits):
            test_rows = extract_features(test_log, config.end_marker)
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

            for entry in (None, *config.grid):  # None: the baseline
                label = BASELINE if entry is None else entry.label
                try:
                    if entry is None:
                        fit_log, sampling_seconds = train_log, 0.0
                        kept = dict(sampled_cases=n, sampled_variants=v, reduction_rate=1.0)
                    else:
                        cfg = replace(
                            entry, seed=derive_seed(config.seed, "sample", repeat, fold, label)
                        )
                        with Stopwatch() as sample_watch:
                            fit_log, report = sample(train_log, index, cfg)
                        sampling_seconds = sample_watch.seconds
                        kept = dict(
                            sampled_cases=report.sampled_cases,
                            sampled_variants=report.sampled_variants,
                            reduction_rate=report.reduction_rate,
                        )
                    with Stopwatch() as fe_watch:
                        feature_rows = extract_features(fit_log, config.end_marker)
                        encode(feature_rows, alphabet, window)
                    fit = _fit_rows(
                        feature_rows,
                        config.validation_fraction,
                        Random(derive_seed(config.seed, "val", repeat, fold)),
                    )
                    with Stopwatch() as train_watch:
                        model = train(fit, config.max_order, config.smoothing)
                except (EmptySampleError, TrainingError) as exc:
                    if entry is None:
                        raise  # no cell of the fold can be scored without the baseline
                    # an annihilated training set fails this cell, not the run
                    rows.append(ExperimentRow(label, ok=False, error=str(exc), **fold_fields))
                    continue
                accuracy = evaluate(model, test_rows).weighted_accuracy
                fe_seconds, train_seconds = fe_watch.seconds, train_watch.seconds
                if entry is None:
                    base_accuracy, base_fe, base_train = accuracy, fe_seconds, train_seconds
                    ratios = dict(rel_accuracy=1.0, fe_speedup=1.0, train_speedup=1.0)
                else:
                    ratios = dict(
                        rel_accuracy=relative_accuracy(accuracy, base_accuracy),
                        fe_speedup=speedup(base_fe, fe_seconds),
                        train_speedup=speedup(base_train, train_seconds),
                    )
                rows.append(
                    ExperimentRow(
                        label,
                        ok=True,
                        accuracy_full=base_accuracy,
                        accuracy_sampled=accuracy,
                        sampling_seconds=sampling_seconds,
                        fe_seconds=fe_seconds,
                        train_seconds=train_seconds,
                        **fold_fields,
                        **kept,
                        **ratios,
                    )
                )

    strategies = [BASELINE, *(entry.label for entry in config.grid)]
    aggregates = {name: _aggregate(name, rows) for name in strategies}
    return ExperimentReport(log_name="", config=config, rows=rows, aggregates=aggregates)


def _aggregate(strategy: str, rows: Sequence[ExperimentRow]) -> StrategyAggregate:
    mine = [r for r in rows if r.strategy == strategy]
    ok = [r for r in mine if r.ok]
    failures = len(mine) - len(ok)
    if not ok:
        return StrategyAggregate(strategy=strategy, runs=0, failures=failures)

    def mean(attr: str) -> float:
        return sum(getattr(r, attr) for r in ok) / len(ok)

    return StrategyAggregate(
        strategy=strategy,
        runs=len(ok),
        failures=failures,
        reduction_rate=mean("reduction_rate"),
        rel_accuracy=mean("rel_accuracy"),
        fe_speedup=mean("fe_speedup"),
        train_speedup=mean("train_speedup"),
        accuracy=mean("accuracy_sampled"),
        sampling_seconds=mean("sampling_seconds"),
        fe_seconds=mean("fe_seconds"),
        train_seconds=mean("train_seconds"),
    )


# ---------------------------------------------------------------------------
# Rendering and persistence
# ---------------------------------------------------------------------------

CORE_COLUMNS = (
    "strategy",
    "repeat",
    "fold",
    "ok",
    "error",
    "original_cases",
    "sampled_cases",
    "original_variants",
    "sampled_variants",
    "reduction_rate",
    "accuracy_full",
    "accuracy_sampled",
    "rel_accuracy",
)

TIMING_COLUMNS = (
    "strategy",
    "repeat",
    "fold",
    "sampling_seconds",
    "fe_seconds",
    "train_seconds",
    "fe_speedup",
    "train_speedup",
)


def write_rows_csv(report: ExperimentReport, path: str | Path) -> None:
    """Deterministic per-row CSV: identical seeds give identical bytes."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CORE_COLUMNS)
        for row in report.rows:
            writer.writerow([getattr(row, col) for col in CORE_COLUMNS])


def write_timings_csv(report: ExperimentReport, path: str | Path) -> None:
    """Wall-clock sidecar; joins to the core CSV on (strategy, repeat, fold)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMING_COLUMNS)
        for row in report.rows:
            if row.ok:
                writer.writerow([getattr(row, col) for col in TIMING_COLUMNS])


AGGREGATE_COLUMNS = (
    "strategy",
    "runs",
    "failures",
    "reduction_rate",
    "rel_accuracy",
    "fe_speedup",
    "train_speedup",
    "accuracy",
    "sampling_seconds",
    "fe_seconds",
    "train_seconds",
)


def render_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Aggregate table as CSV (one strategy per row) or markdown (wide)."""
    order = [BASELINE, *(entry.label for entry in report.config.grid)]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(AGGREGATE_COLUMNS)
        for name in order:
            agg = report.aggregates[name]
            writer.writerow([getattr(agg, col) for col in AGGREGATE_COLUMNS])
        return buf.getvalue()
    if fmt == "markdown":
        name = report.log_name or "log"
        header = ["log", "baseline acc"]
        values = [name, f"{report.aggregates[BASELINE].accuracy:.4f}"]
        for strategy in order[1:]:
            agg = report.aggregates[strategy]
            header += [
                f"{strategy} reduction",
                f"{strategy} fe-speedup",
                f"{strategy} rel-acc",
                f"{strategy} train-speedup",
            ]
            if agg.runs:
                values += [
                    f"{agg.reduction_rate:.2f}",
                    f"{agg.fe_speedup:.2f}",
                    f"{agg.rel_accuracy:.4f}",
                    f"{agg.train_speedup:.2f}",
                ]
            else:
                values += ["-", "-", "-", "-"]
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
            "| " + " | ".join(values) + " |",
        ]
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown report format {fmt!r}")


def parse_aggregates_csv(text: str) -> list[dict]:
    """Read back what render_report('csv') produced, restoring numbers."""
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for record in reader:
        parsed: dict = {"strategy": record["strategy"]}
        for key, value in record.items():
            if key == "strategy":
                continue
            parsed[key] = int(value) if key in ("runs", "failures") else float(value)
        out.append(parsed)
    return out
