"""Cross-validation harness: splits, the benchmark loop, and rendering."""

import csv
import dataclasses
import gc
import io
import re
from collections import Counter
from random import Random

import pytest

from logsample import experiment, features
from logsample.errors import ConfigurationError, EvaluationError, SplitError, TrainingError
from logsample.experiment import (
    BASELINE,
    ExperimentConfig,
    config_from_dict,
    default_grid,
    derive_seed,
    kfold_split,
    render_report,
    run_experiment,
    write_rows_csv,
)
from logsample.features import extract_features
from logsample.metrics import evaluate
from logsample.predictor import train
from logsample.sampling import RANDOM_ORDER, SamplingConfig, parse_method_token

from helpers import log_from_variants, random_variant_freqs, skewed_log


def small_log():
    return log_from_variants(
        [(("a", "b", "c"), 30), (("a", "c"), 12), (("b", "c", "a"), 8)]
    )


def grid(*tokens):
    return tuple(parse_method_token(t, sorting=RANDOM_ORDER) for t in tokens)


class TestKfoldSplit:
    def test_partition_sizes_within_one(self):
        splits = kfold_split(small_log(), folds=5, seed=1)
        sizes = [test.num_cases for _, test in splits]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 50

    def test_ten_cases_five_folds(self):
        log = log_from_variants([(("a", "b"), 10)])
        splits = kfold_split(log, folds=5, seed=0)
        assert [test.num_cases for _, test in splits] == [2] * 5

    def test_test_folds_partition_the_cases(self):
        log = small_log()
        splits = kfold_split(log, folds=4, seed=3)
        seen = []
        for train, test in splits:
            seen.extend(test.cases)
            assert set(train.cases).isdisjoint(test.cases)
            assert set(train.cases) | set(test.cases) == set(log.cases)
        assert sorted(seen) == sorted(log.cases)

    def test_deterministic_per_seed(self):
        log = small_log()
        first = kfold_split(log, folds=3, seed=9)
        second = kfold_split(log, folds=3, seed=9)
        assert [list(t.cases) for _, t in first] == [list(t.cases) for _, t in second]
        third = kfold_split(log, folds=3, seed=10)
        assert [list(t.cases) for _, t in first] != [list(t.cases) for _, t in third]

    @pytest.mark.parametrize("folds", [5, 1, 0, -1])
    def test_too_few_cases(self, folds):
        log = log_from_variants([(("a",), 3)])
        with pytest.raises(SplitError, match=f"cannot split 3 cases into {folds} folds"):
            kfold_split(log, folds=folds)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.folds == 5
        assert config.repeats == 5
        assert [e.label for e in config.grid] == [
            "d2", "d3", "d10", "log2", "log3", "log10", "unique",
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(folds=1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(repeats=0)
        with pytest.raises(ConfigurationError, match=r"one or more SamplingConfigs, got \(\)"):
            ExperimentConfig(grid=())
        with pytest.raises(ConfigurationError, match=r"SamplingConfigs, got \('d2',\)"):
            ExperimentConfig(grid=("d2",))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(max_order=-1)
        with pytest.raises(ConfigurationError, match="window must be >= 1, got 0"):
            ExperimentConfig(window=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(grid=grid("d2", "d2"))

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("folds", 2.5, "an integer"),
            ("repeats", False, "an integer"),
            ("seed", "1", "an integer"),
            ("end_marker", "no", "true or false"),
            ("window", True, "an integer or null"),
            ("max_order", 1.5, "an integer"),
        ],
    )
    def test_types_are_checked_when_built_in_python(self, key, value, expected):
        message = f"experiment config {key!r} must be {expected}, got {value!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**{key: value})
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            config_from_dict({key: value})

    def test_config_from_dict(self):
        config = config_from_dict(
            {"folds": 3, "repeats": 2, "grid": ["d2", "unique"], "seed": 5}
        )
        assert config.folds == 3
        assert [e.label for e in config.grid] == ["d2", "unique"]
        assert config.seed == 5
        with pytest.raises(ConfigurationError, match="fold, windw"):
            config_from_dict({"fold": 3, "windw": 4, "seed": 5})

    @pytest.mark.parametrize(
        "token", ["d\u00b2", "log\u00b2", "d\u0663", "log\u0663", "random:\u0660.\u0665"]
    )
    def test_config_from_dict_rejects_non_ascii_digits(self, token):
        with pytest.raises(ConfigurationError, match=repr(token)):
            config_from_dict({"grid": [token]})

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestRunExperiment:
    def test_test_fold_without_rows_is_an_error(self):
        # without the end marker a one-event case yields no feature row
        log = log_from_variants([(("a",), 4)])
        config = ExperimentConfig(folds=2, repeats=1, grid=grid("unique"), end_marker=False)
        with pytest.raises(EvaluationError, match="repeat 0 fold 0: test fold yields no"):
            run_experiment(log, config)

    def test_row_counting(self):
        config = ExperimentConfig(
            folds=3, repeats=2, grid=grid("d2", "unique"), seed=1
        )
        report = run_experiment(small_log(), config)
        strategies = [r.strategy for r in report.rows]
        assert strategies.count(BASELINE) == 6
        assert strategies.count("d2") == 6
        assert strategies.count("unique") == 6
        assert len(report.rows) == 3 * 2 * (2 + 1)

    def test_identity_configuration(self):
        identity = grid("random:1.0")
        config = ExperimentConfig(folds=3, repeats=1, grid=identity, seed=7)
        report = run_experiment(small_log(), config)
        rows = [r for r in report.rows if r.strategy == identity[0].label]
        assert len(rows) == 3
        for row in rows:
            assert row.reduction_rate == 1.0
            assert row.rel_accuracy == 1.0
            assert row.accuracy_sampled == row.accuracy_full

    def test_skewed_division_reduction(self):
        config = ExperimentConfig(folds=2, repeats=1, grid=grid("d10"), seed=0)
        report = run_experiment(skewed_log(), config)
        for row in report.rows:
            if row.strategy == "d10":
                assert row.reduction_rate == pytest.approx(10.0, rel=0.05)

    def test_empty_sample_is_recorded_not_fatal(self):
        log = log_from_variants([((a,), 5) for a in "abcdefgh"])
        config = ExperimentConfig(folds=2, repeats=1, grid=grid("log10", "d2"), seed=2)
        report = run_experiment(log, config)
        failed = [r for r in report.rows if not r.ok]
        assert failed and all(r.strategy == "log10" for r in failed)
        assert "log10" in failed[0].error
        succeeded = [r for r in report.rows if r.ok and r.strategy == "d2"]
        assert len(succeeded) == 2
        assert report.aggregates["log10"].failures == 2

    def test_sample_with_no_feature_rows_is_recorded_not_fatal(self):
        # with the end marker off, a random draw that keeps only
        # single-activity cases yields zero training rows (seed 1 does)
        log = log_from_variants([(("a",), 50), (("a", "b"), 2)])
        config = ExperimentConfig(
            folds=2, repeats=1, grid=grid("random:0.03"), seed=1, end_marker=False
        )
        report = run_experiment(log, config)
        failed = [r for r in report.rows if not r.ok]
        assert failed, "expected the empty-feature sample to be recorded"
        assert all("empty feature set" in r.error for r in failed)

    def test_baseline_that_cannot_train_is_fatal(self):
        # with the end marker off, seed 5 puts only the single-activity cases
        # in one training fold, so the baseline itself has no rows to train on
        log = log_from_variants([(("a",), 2), (("a", "b"), 2)])
        config = ExperimentConfig(folds=2, repeats=1, grid=grid("d2"), seed=5, end_marker=False)
        with pytest.raises(TrainingError, match="empty feature set"):
            run_experiment(log, config)

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("run", ["clean", "empty-sample", "baseline-fails", "split-error"])
    def test_collector_is_paused_for_the_whole_run(self, monkeypatch, enabled, run):
        seen = []
        for name in ("extract_features", "encode", "train", "evaluate"):
            def spy(*args, _fn=getattr(experiment, name), _name=name, **kwargs):
                seen.append((_name, gc.isenabled()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(experiment, name, spy)
        runs = {
            "clean": (small_log(), dict(grid=grid("d2", "unique"))),
            # every variant has f < 10, so each log10 sample is empty
            "empty-sample": (
                log_from_variants([((a,), 5) for a in "abcdefgh"]), dict(grid=grid("log10", "d2"))
            ),
            # as in test_baseline_that_cannot_train_is_fatal: raises after FE ran
            "baseline-fails": (
                log_from_variants([(("a",), 2), (("a", "b"), 2)]),
                dict(grid=grid("d2"), seed=5, end_marker=False),
            ),
            "split-error": (log_from_variants([(("a", "b"), 3)]), dict(folds=4)),
        }
        log, settings = runs[run]
        config = ExperimentConfig(**{"folds": 2, "repeats": 1, "seed": 2, **settings})
        was_enabled = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        try:
            if run == "clean":
                assert all(row.ok for row in run_experiment(log, config).rows)
            elif run == "empty-sample":
                failed = [row for row in run_experiment(log, config).rows if not row.ok]
                assert failed and all(row.strategy == "log10" for row in failed)
            else:
                with pytest.raises(SplitError if run == "split-error" else TrainingError):
                    run_experiment(log, config)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()
        scored = {"extract_features", "encode", "train", "evaluate"}
        called = {"split-error": set(), "baseline-fails": scored - {"evaluate"}}.get(run, scored)
        assert {name for name, _ in seen} == called
        assert not any(state for _, state in seen)

    def test_timing_fields_and_calls_per_cell(self, monkeypatch):
        calls = Counter()
        for name in ("extract_features", "train", "evaluate"):
            def spy(*args, _fn=getattr(experiment, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(experiment, name, spy)
        # every variant but a-b has f = 2, so each log10 sample is empty and never
        # reaches FE; with the end marker off, a random:0.03 draw of one
        # single-activity case yields no feature rows and fails in train
        log = log_from_variants([((c,), 2) for c in "cdefghijklmnop"] + [(("a", "b"), 4)])
        config = ExperimentConfig(
            folds=2, repeats=2, grid=grid("random:0.03", "log10", "d2"), seed=0, end_marker=False
        )
        report = run_experiment(log, config)
        by_cell = {(r.repeat, r.fold, r.strategy): r for r in report.rows}
        ok = [r for r in report.rows if r.ok]
        failed_in_train = sum("empty feature set" in r.error for r in report.rows)
        empty_samples = sum("keeps zero" in r.error for r in report.rows)
        assert failed_in_train and empty_samples == 4
        assert len(ok) + failed_in_train + empty_samples == len(report.rows)
        assert {BASELINE, "d2"} <= {r.strategy for r in ok}
        for row in ok:
            base = by_cell[row.repeat, row.fold, BASELINE]
            if row.strategy == BASELINE:
                assert row.sampling_seconds == 0.0
                assert row.fe_speedup == row.train_speedup == 1.0
            else:
                assert row.fe_speedup == base.fe_seconds / row.fe_seconds
                assert row.train_speedup == base.train_seconds / row.train_seconds
        fitted = len(ok) + failed_in_train  # the cells that reach FE and train
        folds = config.folds * config.repeats
        assert calls == {"extract_features": fitted + folds, "train": fitted, "evaluate": len(ok)}

    def test_counts_each_test_fold_once(self, monkeypatch):
        counted = []

        class SpyCounter(Counter):
            def __init__(self, *args, **kwargs):
                counted.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(features, "Counter", SpyCounter)
        config = ExperimentConfig(folds=3, repeats=2, grid=grid("d2", "log2", "unique"), seed=1)
        report = run_experiment(skewed_log(), config)
        assert len(report.rows) == 3 * 2 * 4
        assert len(counted) == 3 * 2

    def test_baseline_accuracy_shared_within_fold(self):
        config = ExperimentConfig(folds=3, repeats=1, grid=grid("d2", "unique"), seed=4)
        report = run_experiment(small_log(), config)
        by_fold = {}
        for row in report.rows:
            by_fold.setdefault((row.repeat, row.fold), set()).add(row.accuracy_full)
        assert all(len(values) == 1 for values in by_fold.values())

    def test_baseline_accuracy_is_full_fold_overall_accuracy(self):
        # the baseline trains on every feature row of the training fold
        log = log_from_variants(
            random_variant_freqs(Random(2210), max_variants=14, max_freq=40, max_len=6)
        )
        config = ExperimentConfig(folds=3, repeats=2, grid=grid("d2"), seed=12)
        report = run_experiment(log, config)
        for repeat in range(config.repeats):
            splits = kfold_split(log, config.folds, derive_seed(config.seed, "folds", repeat))
            for fold, (train_log, test_log) in enumerate(splits):
                model = train(extract_features(train_log), config.max_order)
                expected = evaluate(model, extract_features(test_log)).overall_accuracy
                cells = [r for r in report.rows if (r.repeat, r.fold) == (repeat, fold)]
                assert [r.accuracy_full for r in cells] == [expected, expected]

    def test_aggregates_are_means_of_rows(self):
        config = ExperimentConfig(folds=3, repeats=2, grid=grid("d2", "unique"), seed=5)
        report = run_experiment(small_log(), config)
        means = {
            "reduction_rate": "reduction_rate",
            "rel_accuracy": "rel_accuracy",
            "fe_speedup": "fe_speedup",
            "train_speedup": "train_speedup",
            "accuracy": "accuracy_sampled",
            "sampling_seconds": "sampling_seconds",
            "fe_seconds": "fe_seconds",
            "train_seconds": "train_seconds",
        }
        for strategy in ("d2", "unique"):
            rows = [r for r in report.rows if r.strategy == strategy and r.ok]
            agg = report.aggregates[strategy]
            assert agg.runs == len(rows)
            assert agg.failures == 0
            assert [f.name for f in dataclasses.fields(agg)] == [
                "strategy", "runs", "failures", *means
            ]
            for name, row_field in means.items():
                expected = sum(getattr(r, row_field) for r in rows) / len(rows)
                assert getattr(agg, name) == pytest.approx(expected), (strategy, name)
        # unique keeps one case per variant, so its sampled accuracy differs from the
        # full-fold accuracy and `accuracy` is seen to follow the sampled one
        unique = [r for r in report.rows if r.strategy == "unique"]
        full = sum(r.accuracy_full for r in unique) / len(unique)
        assert report.aggregates["unique"].accuracy != pytest.approx(full)

    def test_reduction_matches_closed_form_per_fold(self):
        from collections import Counter
        from logsample.sampling import sample_count

        log = small_log()
        config = ExperimentConfig(folds=4, repeats=1, grid=grid("d3", "log2"), seed=6)
        report = run_experiment(log, config)
        splits = kfold_split(log, config.folds, derive_seed(config.seed, "folds", 0))
        for row in report.rows:
            if row.strategy == BASELINE or not row.ok:
                continue
            train_log, _ = splits[row.fold]
            freqs = Counter(train_log.trace(cid) for cid in train_log.cases)
            cfg = parse_method_token(row.strategy)
            expected = sum(sample_count(cfg, f) for f in freqs.values())
            assert row.sampled_cases == expected
            assert row.reduction_rate == train_log.num_cases / expected

    def test_default_grid_row_count(self):
        config = ExperimentConfig(folds=5, repeats=5, seed=8)
        report = run_experiment(small_log(), config)
        strategies = [r.strategy for r in report.rows]
        assert strategies.count(BASELINE) == 25
        assert len(report.rows) - 25 == 5 * 5 * 7
        cells = {(r.strategy, r.repeat, r.fold) for r in report.rows}
        assert len(cells) == len(report.rows)

    def test_deterministic_core_fields(self):
        config = ExperimentConfig(folds=3, repeats=2, grid=grid("d3", "unique"), seed=11)
        first = run_experiment(small_log(), config)
        second = run_experiment(small_log(), config)
        timing_fields = {
            "sampling_seconds", "fe_seconds", "train_seconds", "fe_speedup", "train_speedup",
        }
        for a, b in zip(first.rows, second.rows):
            for field in dataclasses.fields(a):
                if field.name not in timing_fields:
                    assert getattr(a, field.name) == getattr(b, field.name)


class TestRendering:
    @pytest.fixture
    def report(self):
        config = ExperimentConfig(folds=2, repeats=1, grid=grid("d2", "unique"), seed=3)
        report = run_experiment(small_log(), config)
        report.log_name = "small"
        return report

    def test_csv_round_trip(self, report):
        text = render_report(report, "csv")
        by_strategy = {r["strategy"]: r for r in csv.DictReader(io.StringIO(text))}
        assert float(by_strategy["d2"]["reduction_rate"]) == report.aggregates["d2"].reduction_rate
        assert (
            float(by_strategy["unique"]["rel_accuracy"])
            == report.aggregates["unique"].rel_accuracy
        )

    def test_markdown_has_column_pairs_per_strategy(self, report):
        text = render_report(report, "markdown")
        header = text.splitlines()[0]
        for strategy in ("d2", "unique"):
            assert f"{strategy} rel-acc" in header
            assert f"{strategy} train-speedup" in header
        assert "| small |" in text

    def test_rows_csv_is_deterministic(self, report, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(report, a)
        write_rows_csv(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self, report):
        with pytest.raises(ConfigurationError):
            render_report(report, "yaml")


class TestDefaultGrid:
    def test_tokens(self):
        labels = [c.label for c in default_grid()]
        assert labels == ["d2", "d3", "d10", "log2", "log3", "log10", "unique"]
