"""Accuracy tallies and ratio metrics."""

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample import features
from logsample.errors import EvaluationError, UndefinedRatioError
from logsample.features import END_MARKER, FeatureRow, extract_features
from logsample.metrics import ClassTally, evaluate, relative_accuracy, speedup
from logsample.predictor import PrefixTreeModel, load_model, train

from helpers import feature_rows, log_from_variants, pick_rows


def loaded_model(max_order, tables):
    """The model load_model reads from a file holding these ``{suffix: counts}`` tables."""
    labels = sorted({label for counts in tables.values() for label in counts})
    data = {
        "max_order": max_order,
        "smoothing": 0.0,
        "labels": labels,
        "tables": [{"suffix": list(suffix), "counts": counts} for suffix, counts in tables.items()],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return load_model(path)


def fixed(label):
    """Predicts ``label`` whatever the prefix; its horizon is the whole prefix."""
    return loaded_model(sys.maxsize, {(): {label: 1}})


def last_activity():
    """Predicts the prefix's last activity ("a" for the empty prefix); reads the whole prefix."""
    return loaded_model(sys.maxsize, {(): {"a": 1}, **{(x,): {x: 1} for x in "abcd"}})


def rows(target_sequence):
    return feature_rows((("a",), t, f"c{i}") for i, t in enumerate(target_sequence))


def per_row_reference(model, test_rows):
    """One prediction per row, tallied the way evaluate summarises them."""
    counts = {}
    for row in test_rows:
        tally = counts.setdefault(row.target, [0, 0])
        tally[0] += 1
        if model.predict(row.prefix) == row.target:
            tally[1] += 1
    per_class = {label: ClassTally(s, c) for label, (s, c) in sorted(counts.items())}
    n = len(test_rows)
    overall = sum(t.correct for t in per_class.values()) / n
    balanced = sum(t.recall for t in per_class.values()) / len(per_class)
    return per_class, n, overall, balanced


def argmax_spy():
    """Patch PrefixTreeModel.argmax with a spy that records each call and still answers."""
    argmax = PrefixTreeModel.argmax
    return patch.object(PrefixTreeModel, "argmax", autospec=True, side_effect=argmax)


def assert_matches_per_row(model, test_rows):
    """evaluate agrees with a per-row tally and takes each node's argmax at most once."""
    with argmax_spy() as spy:
        result = evaluate(model, test_rows)
    nodes = [call.args[1] for call in spy.call_args_list]
    assert len(nodes) == len(set(nodes))
    per_class, n, overall, balanced = per_row_reference(model, test_rows)
    assert result.per_class == per_class
    assert result.n == n
    assert result.overall_accuracy == overall
    assert result.balanced_accuracy == balanced


def without_some_tables(model, drop):
    """The model reloaded without the tables of the non-empty suffixes ``drop`` picks.

    Such a file stores longer suffixes without their shorter ones, so some of
    the loaded trie's nodes have no counts.
    """
    tables = {
        tuple(entry["suffix"]): entry["counts"]
        for i, entry in enumerate(model.to_dict()["tables"])
        if not (entry["suffix"] and drop(i))
    }
    return loaded_model(model.max_order, tables)


prefixes = st.lists(st.sampled_from("abc"), max_size=4).map(tuple)
labelled = st.tuples(prefixes, st.sampled_from("abcd"))
# traces over a small alphabet, so keys repeat and counts tie
traces = st.lists(st.sampled_from("abc"), min_size=1, max_size=8).map(tuple)
variants = st.lists(
    st.tuples(traces, st.integers(min_value=1, max_value=3)), min_size=1, max_size=8
)


class TestEvaluate:
    def test_all_correct(self):
        result = evaluate(fixed("b"), rows(["b"] * 10))
        assert result.overall_accuracy == 1.0
        assert result.balanced_accuracy == 1.0
        assert result.n == 10

    def test_skewed_classes(self):
        result = evaluate(fixed("b"), rows(["b"] * 9 + ["c"]))
        assert result.overall_accuracy == pytest.approx(0.9)
        assert result.balanced_accuracy == pytest.approx(0.5)
        assert result.per_class["b"].support == 9
        assert result.per_class["c"].correct == 0

    def test_all_wrong(self):
        result = evaluate(fixed("x"), rows(["b", "c"]))
        assert result.overall_accuracy == 0.0
        assert result.balanced_accuracy == 0.0

    def test_empty_test_set(self):
        with pytest.raises(EvaluationError):
            evaluate(fixed("b"), feature_rows([]))

    def test_supports_sum_to_n(self):
        result = evaluate(fixed("b"), rows(["b", "c", "c", "d"]))
        assert sum(t.support for t in result.per_class.values()) == result.n

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(labelled, min_size=1, max_size=20),
        st.lists(
            st.tuples(labelled, st.integers(min_value=1, max_value=5)), min_size=1, max_size=15
        ),
        st.permutations([0, 1, 2, 3, None]),
    )
    def test_repeated_prefixes_match_per_row_tally(self, train_pairs, test_spec, orders):
        """One fold's rows, scored by models of every horizon in any order."""
        train_rows = feature_rows((p, t, f"t{i}") for i, (p, t) in enumerate(train_pairs))
        test_rows = feature_rows(
            (prefix, target, f"c{i}")
            for i, ((prefix, target), times) in enumerate(test_spec)
            for _ in range(times)
        )
        for order in orders:
            model = last_activity() if order is None else train(train_rows, order)
            assert_matches_per_row(model, test_rows)

    @settings(max_examples=80, deadline=None)
    @given(variants, variants, st.integers(min_value=0, max_value=6), st.randoms())
    def test_walk_matches_per_row_predict_on_random_logs(self, train_spec, test_spec, order, rnd):
        """Trained and reloaded models, keys shorter than the horizon, and an unseen activity.

        The test log may hold activity d, which the training log never has.
        """
        test_spec = [
            (tuple(a.replace("c", "d") for a in trace) if i % 2 else trace, n)
            for i, (trace, n) in enumerate(test_spec)
        ]
        model = train(extract_features(log_from_variants(train_spec)), order)
        test_rows = extract_features(log_from_variants(test_spec))
        assert_matches_per_row(model, test_rows)
        assert_matches_per_row(without_some_tables(model, lambda i: rnd.random() < 0.5), test_rows)

    def test_tied_counts_go_to_the_earliest_label(self):
        model = loaded_model(1, {(): {"c": 2, "b": 2}, ("a",): {END_MARKER: 1, "d": 1}})
        result = evaluate(model, feature_rows([(("a",), "d", "x"), (("b",), "b", "x")]))
        assert result.per_class == {"b": ClassTally(1, 1), "d": ClassTally(1, 1)}

    def test_predicts_each_distinct_prefix_once(self):
        test_rows = feature_rows(
            (prefix, target, f"c{i}")
            for i, (prefix, target) in enumerate(
                [(("a",), "b"), (("a",), "c"), (("a", "b"), "c"), (("a",), "b")]
            )
        )
        model = loaded_model(sys.maxsize, {(): {"c": 1}, ("a",): {"b": 1}, ("a", "b"): {"b": 1}})
        with argmax_spy() as spy:
            result = evaluate(model, test_rows)
        nodes = [call.args[1] for call in spy.call_args_list]
        assert sorted(nodes) == sorted({model._match(("a",)), model._match(("a", "b"))})
        assert 0 not in nodes
        assert result.per_class["b"] == ClassTally(2, 2)
        assert result.per_class["c"] == ClassTally(2, 0)

    def test_predicts_each_distinct_key_of_its_horizon_once(self):
        # horizon 1: the keys are (b,), (b,), (b,) and (c,)
        test_rows = feature_rows(
            (prefix, "b", f"c{i}")
            for i, prefix in enumerate([("a", "b"), ("x", "b"), ("b",), ("a", "c")])
        )
        model = loaded_model(1, {(): {"c": 1}, ("b",): {"b": 1}})
        with argmax_spy() as spy:
            result = evaluate(model, test_rows)
        assert sorted(call.args[1] for call in spy.call_args_list) == [0, 1]
        assert result.per_class["b"] == ClassTally(4, 3)

    def test_argmax_is_taken_once_per_credited_node(self):
        test_rows = feature_rows(
            (prefix, target, f"c{i}")
            for i, (prefix, target) in enumerate(
                [(("a",), "b"), (("a",), "c"), (("a", "b"), "c"), (("a",), "b"), ((), "b")]
            )
        )
        model = loaded_model(sys.maxsize, {(): {"b": 1}, ("x", "a"): {"c": 1}})
        with argmax_spy() as spy:
            result = evaluate(model, test_rows)
            evaluate(model, test_rows)
        # node 1, the suffix (a,), has no counts: every key backs off to the root
        assert [call.args[1] for call in spy.call_args_list] == [0, 0]
        assert result.per_class["b"] == ClassTally(3, 3)
        assert result.per_class["c"] == ClassTally(2, 0)


class TestFoldRows:
    """A test fold's rows, grouped by key once per horizon for every model scored on them."""

    @staticmethod
    def four_rows():
        return feature_rows(
            [
                (("a", "b"), "c", "c0"),
                (("x", "b"), "c", "c1"),
                (("x", "b"), "d", "c2"),
                ((), "a", "c3"),
            ]
        )

    def test_groups_rows_by_key_at_each_horizon(self):
        test_rows = self.four_rows()
        assert test_rows.keys(0) == {(): {"a": 1, "c": 2, "d": 1}}
        assert test_rows.keys(1) == {("b",): {"c": 2, "d": 1}, (): {"a": 1}}
        assert test_rows.keys(sys.maxsize) == {
            ("a", "b"): {"c": 1},
            ("x", "b"): {"c": 1, "d": 1},
            (): {"a": 1},
        }

    def test_each_horizon_is_grouped_once(self, monkeypatch):
        counted = []

        class SpyCounter(Counter):
            def __init__(self, *args, **kwargs):
                counted.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(features, "Counter", SpyCounter)
        test_rows = self.four_rows()
        assert test_rows.keys(1) is test_rows.keys(1)  # built once, then reused
        test_rows.keys(0)
        first_two = pick_rows(test_rows, [0, 1])
        for model in (train(test_rows, 1), train(test_rows, 0), train(first_two, 1)):
            evaluate(model, test_rows)
        assert len(counted) == 2

    @pytest.mark.parametrize("first", [0, 1, 2, sys.maxsize])
    def test_support_does_not_depend_on_the_horizon_grouped_first(self, first):
        test_rows = self.four_rows()
        test_rows.keys(first)
        assert test_rows.support == {"a": 1, "c": 2, "d": 1}
        result = evaluate(train(test_rows, 1), test_rows)
        assert {label: t.support for label, t in result.per_class.items()} == test_rows.support

    def test_is_a_sequence_of_feature_rows(self):
        test_rows = feature_rows([(("a", "b"), "c", "c0"), (("a",), "b", "c0")])
        assert len(test_rows) == 2
        assert list(test_rows) == [
            FeatureRow(("a", "b", "c"), 2, "c0"),
            FeatureRow(("a", "b"), 1, "c0"),
        ]
        assert all(isinstance(row, FeatureRow) for row in test_rows)
        assert [(row.prefix, row.target) for row in test_rows] == [(("a", "b"), "c"), (("a",), "b")]


class TestRatios:
    def test_relative_accuracy_identity(self):
        assert relative_accuracy(0.791, 0.791) == 1.0

    def test_relative_accuracy_improvement(self):
        assert relative_accuracy(0.814 * 1.004, 0.814) == pytest.approx(1.004)

    def test_relative_accuracy_half(self):
        assert relative_accuracy(0.5, 1.0) == 0.5

    def test_relative_accuracy_zero_baseline(self):
        with pytest.raises(UndefinedRatioError):
            relative_accuracy(0.5, 0.0)

    def test_speedup(self):
        assert speedup(100.0, 10.0) == 10.0
        assert speedup(5.0, 5.0) == 1.0

    def test_speedup_zero_denominator(self):
        with pytest.raises(UndefinedRatioError):
            speedup(10.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, numerator, denominator, scale):
        base = speedup(numerator, denominator)
        scaled = speedup(numerator * scale, denominator * scale)
        assert scaled == pytest.approx(base, rel=1e-9)

