"""Accuracy tallies and ratio metrics."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample import metrics
from logsample.errors import EvaluationError, UndefinedRatioError
from logsample.features import FeatureRow
from logsample.metrics import ClassTally, evaluate, relative_accuracy, speedup
from logsample.predictor import train

from helpers import feature_row


class FixedPredictor:
    """Predicts a constant label, whatever the prefix."""

    max_order = sys.maxsize

    def __init__(self, label):
        self.label = label

    def predict(self, prefix):
        return self.label


class CountingPredictor:
    """Wraps a predictor and records every prefix it is asked about."""

    max_order = sys.maxsize

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def predict(self, prefix):
        self.calls.append(prefix)
        return self.inner.predict(prefix)


class LastActivityPredictor:
    """Predicts the prefix's last activity; reads the whole prefix (max_order sys.maxsize)."""

    max_order = sys.maxsize

    def predict(self, prefix):
        return prefix[-1] if prefix else "a"


def rows(target_sequence):
    return [feature_row(("a",), t, f"c{i}") for i, t in enumerate(target_sequence)]


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


prefixes = st.lists(st.sampled_from("abc"), max_size=4).map(tuple)
labelled = st.tuples(prefixes, st.sampled_from("abcd"))


class TestEvaluate:
    def test_all_correct(self):
        result = evaluate(FixedPredictor("b"), rows(["b"] * 10))
        assert result.overall_accuracy == 1.0
        assert result.balanced_accuracy == 1.0
        assert result.n == 10

    def test_skewed_classes(self):
        result = evaluate(FixedPredictor("b"), rows(["b"] * 9 + ["c"]))
        assert result.overall_accuracy == pytest.approx(0.9)
        assert result.balanced_accuracy == pytest.approx(0.5)
        assert result.per_class["b"].support == 9
        assert result.per_class["c"].correct == 0

    def test_all_wrong(self):
        result = evaluate(FixedPredictor("x"), rows(["b", "c"]))
        assert result.overall_accuracy == 0.0
        assert result.balanced_accuracy == 0.0

    def test_empty_test_set(self):
        with pytest.raises(EvaluationError):
            evaluate(FixedPredictor("b"), [])

    def test_supports_sum_to_n(self):
        result = evaluate(FixedPredictor("b"), rows(["b", "c", "c", "d"]))
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
        train_rows = [feature_row(p, t, f"t{i}") for i, (p, t) in enumerate(train_pairs)]
        test_rows = metrics.TestRows(
            feature_row(prefix, target, f"c{i}")
            for i, ((prefix, target), times) in enumerate(test_spec)
            for _ in range(times)
        )
        for order in orders:
            model = LastActivityPredictor() if order is None else train(train_rows, order)
            result = evaluate(model, test_rows)
            per_class, n, overall, balanced = per_row_reference(model, test_rows)
            assert result.per_class == per_class
            assert result.n == n
            assert result.overall_accuracy == overall
            assert result.balanced_accuracy == balanced

    def test_predicts_each_distinct_prefix_once(self):
        test_rows = [
            feature_row(prefix, target, f"c{i}")
            for i, (prefix, target) in enumerate(
                [(("a",), "b"), (("a",), "c"), (("a", "b"), "c"), (("a",), "b")]
            )
        ]
        model = CountingPredictor(FixedPredictor("b"))
        result = evaluate(model, test_rows)
        assert sorted(model.calls) == [("a",), ("a", "b")]
        assert result.per_class["b"] == ClassTally(2, 2)
        assert result.per_class["c"] == ClassTally(2, 0)

    def test_predicts_each_distinct_key_of_its_horizon_once(self):
        test_rows = [
            feature_row(prefix, "b", f"c{i}")
            for i, prefix in enumerate([("a", "b"), ("x", "b"), ("b",), ("a", "c")])
        ]
        model = CountingPredictor(FixedPredictor("b"))
        model.max_order = 1
        result = evaluate(model, test_rows)
        assert sorted(model.calls) == [("b",), ("c",)]
        assert result.per_class["b"] == ClassTally(4, 4)


# metrics.TestRows is read through the module so pytest does not collect it as a test class
class TestFoldRows:
    def test_two_horizons_in_turn(self):
        test_rows = metrics.TestRows(
            [
                feature_row(("a", "b"), "c", "c0"),
                feature_row(("x", "b"), "c", "c1"),
                feature_row(("x", "b"), "d", "c2"),
                feature_row((), "a", "c3"),
            ]
        )
        assert test_rows.pairs(1) == {(("b",), "c"): 2, (("b",), "d"): 1, ((), "a"): 1}
        assert test_rows.pairs(sys.maxsize) == {
            (("a", "b"), "c"): 1,
            (("x", "b"), "c"): 1,
            (("x", "b"), "d"): 1,
            ((), "a"): 1,
        }
        assert test_rows.pairs(0) == {((), "c"): 2, ((), "d"): 1, ((), "a"): 1}
        assert test_rows.pairs(1) is test_rows.pairs(1)  # counted once, then reused

    def test_is_a_sequence_of_feature_rows(self):
        rows = [feature_row(("a", "b"), "c", "c0"), feature_row(("a",), "b", "c0")]
        test_rows = metrics.TestRows(rows)
        assert len(test_rows) == 2
        assert list(test_rows) == rows
        assert all(isinstance(row, FeatureRow) for row in test_rows)
        assert [(row.prefix, row.target) for row in test_rows] == [(("a", "b"), "c"), (("a",), "b")]

    def test_evaluate_accepts_any_iterable_of_rows(self):
        test_rows = rows(["b", "b", "c"])
        expected = evaluate(FixedPredictor("b"), metrics.TestRows(test_rows))
        assert evaluate(FixedPredictor("b"), iter(test_rows)) == expected


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

