"""Accuracy tallies and ratio metrics."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample.errors import EvaluationError, UndefinedRatioError
from logsample.metrics import ClassTally, Stopwatch, evaluate, relative_accuracy, speedup
from logsample.predictor import train

from helpers import feature_row


class FixedPredictor:
    """Predicts a constant label, whatever the prefix."""

    def __init__(self, label):
        self.label = label

    def predict(self, prefix):
        return self.label


class CountingPredictor:
    """Wraps a predictor and records every prefix it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def predict(self, prefix):
        self.calls.append(prefix)
        return self.inner.predict(prefix)


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
    )
    def test_repeated_prefixes_match_per_row_tally(self, train_pairs, test_spec):
        train_rows = [feature_row(p, t, f"t{i}") for i, (p, t) in enumerate(train_pairs)]
        model = train(train_rows, max_order=2)
        test_rows = [
            feature_row(prefix, target, f"c{i}")
            for i, ((prefix, target), times) in enumerate(test_spec)
            for _ in range(times)
        ]
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


class TestStopwatch:
    def test_measures_only_the_wrapped_block(self):
        with Stopwatch() as outer:
            time.sleep(0.02)
        with Stopwatch() as inner:
            pass
        assert outer.seconds >= 0.015
        assert inner.seconds < outer.seconds
