"""Suffix-frequency predictor: counting, backoff, ties, and persistence."""

from collections import Counter, defaultdict
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample.errors import TrainingError
from logsample.features import END_MARKER, extract_features
from logsample.predictor import load_model, save_model, train

from helpers import feature_row, log_from_variants, random_variant_freqs


def rows_from_pairs(pairs):
    return [feature_row(tuple(prefix), target, f"c{i}") for i, (prefix, target) in enumerate(pairs)]


class TestTrain:
    def test_counts_per_suffix(self):
        rows = rows_from_pairs([("a", "b")] * 3 + [("a", "c")])
        model = train(rows, max_order=1, smoothing=0.0)
        assert model.tables[("a",)] == {"b": 3, "c": 1}
        assert model.fallback == {"b": 3, "c": 1}

    def test_single_row(self):
        model = train(rows_from_pairs([("ab", "c")]), max_order=2, smoothing=0.0)
        predicted = model.predict(("a", "b"))
        assert predicted == "c"

    def test_order_zero_is_majority_class(self):
        rows = rows_from_pairs([("a", "b")] * 3 + [("b", "c")] * 5)
        model = train(rows, max_order=0, smoothing=0.0)
        assert set(model.tables) == {()}
        assert model.predict(("a",)) == "c"

    def test_empty_training_set(self):
        with pytest.raises(TrainingError):
            train([])

    def test_suffixes_of_all_training_rows_are_stored(self):
        rows = rows_from_pairs([("abc", "d"), ("bc", "d"), ("c", "a")])
        model = train(rows, max_order=3)
        for row in rows:
            for order in range(0, min(3, len(row.prefix)) + 1):
                assert row.prefix[len(row.prefix) - order :] in model.tables


class TestPredict:
    def test_backoff_to_shorter_suffix(self):
        rows = rows_from_pairs([("a", "b")] * 3 + [("a", "c")])
        model = train(rows, max_order=2, smoothing=0.0)
        predicted = model.predict(("x", "a"))  # (x, a) unseen at order 2
        assert predicted == "b"

    def test_tie_breaks_alphabetically(self):
        rows = rows_from_pairs([("a", "b"), ("a", "c")])
        model = train(rows, max_order=1, smoothing=0.0)
        assert model.predict(("a",)) == "b"

    def test_fallback_distribution(self):
        rows = rows_from_pairs([("a", "b")] * 9 + [("a", "c")])
        model = train(rows, max_order=1, smoothing=0.0)
        predicted = model.predict(("zzz",))
        dist = model.distribution(("zzz",))
        assert predicted == "b"
        assert dist["b"] == pytest.approx(0.9)

    def test_end_marker_sorts_last_on_ties(self):
        rows = rows_from_pairs([("a", END_MARKER), ("a", "z")])
        model = train(rows, max_order=1, smoothing=0.0)
        assert model.predict(("a",)) == "z"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_distribution_normalised(self, seed):
        rnd = Random(seed)
        log = log_from_variants(random_variant_freqs(rnd, max_variants=5, max_freq=6))
        rows = extract_features(log)
        model = train(rows, max_order=3, smoothing=0.01)
        some_prefixes = [r.prefix for r in rows[:10]] + [("unseen",)]
        for prefix in some_prefixes:
            dist = model.distribution(prefix)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def assert_predict_is_distribution_argmax(rows, max_order, smoothing, queries):
        model = train(rows, max_order=max_order, smoothing=smoothing)
        for prefix in [*queries, *(r.prefix for r in rows)]:
            dist = model.distribution(prefix)
            assert model.predict(prefix) == max(model.labels, key=dist.__getitem__)

    @settings(max_examples=80, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.lists(st.sampled_from("abc"), max_size=5),
                st.sampled_from(["a", "b", "c", END_MARKER]),
            ),
            min_size=1,
            max_size=25,
        ),
        tie=st.booleans(),
        max_order=st.integers(min_value=0, max_value=4),
        smoothing=st.sampled_from([0.0, 0.01]),
        query=st.lists(st.sampled_from("abcz"), max_size=6),
    )
    def test_predict_is_distribution_argmax(self, pairs, tie, max_order, smoothing, query):
        if tie:
            # every prefix is followed once by each target: all counts tie
            targets = sorted({t for _, t in pairs})
            pairs = [(prefix, t) for prefix, _ in pairs for t in targets]
        self.assert_predict_is_distribution_argmax(
            rows_from_pairs(pairs), max_order, smoothing, [tuple(query), ("z",), ()]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_order=st.integers(min_value=0, max_value=4),
        smoothing=st.sampled_from([0.0, 0.01]),
    )
    def test_predict_is_distribution_argmax_on_random_logs(self, seed, max_order, smoothing):
        rnd = Random(seed)
        log = log_from_variants(random_variant_freqs(rnd, max_variants=6, max_freq=4, max_len=5))
        self.assert_predict_is_distribution_argmax(
            extract_features(log), max_order, smoothing, [("unseen",), ("a", "unseen")]
        )

    def test_determinism(self):
        rows = rows_from_pairs([("ab", "c"), ("b", "c"), ("a", "b")] * 4)
        a = train(rows, max_order=4)
        b = train(rows, max_order=4)
        assert a == b
        assert a.predict(("a", "b")) == b.predict(("a", "b"))


class TestFirstOrderMarkovOracle:
    """For max_order=1 the model must match a hand-built Markov chain."""

    def build_chain(self, rows):
        chain = defaultdict(Counter)
        for row in rows:
            chain[row.prefix[-1]][row.target] += 1
        return chain

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_markov_chain(self, seed):
        rnd = Random(seed)
        log = log_from_variants(
            random_variant_freqs(rnd, max_variants=5, max_freq=5, max_len=4)
        )
        rows = extract_features(log)
        model = train(rows, max_order=1, smoothing=0.0)
        chain = self.build_chain(rows)
        labels = sorted({r.target for r in rows if r.target != END_MARKER})
        if any(r.target == END_MARKER for r in rows):
            labels.append(END_MARKER)
        for state, counts in chain.items():
            expected = max(labels, key=lambda l: (counts[l], -labels.index(l)))
            assert model.predict((state,)) == expected


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rows = rows_from_pairs([("ab", "c"), ("a", "b"), ("b", END_MARKER)])
        model = train(rows, max_order=2, smoothing=0.05)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        assert back.predict(("a", "b")) == model.predict(("a", "b"))

    def test_predict_leaves_serialised_form_unchanged(self, tmp_path):
        rows = rows_from_pairs([("ab", "c"), ("a", "b"), ("b", END_MARKER), ("cb", "a")])
        model = train(rows, max_order=2, smoothing=0.05)
        before = model.to_dict()
        for prefix in [("a", "b"), ("c", "b"), ("z",), ("a", "b")]:
            model.predict(prefix)
        assert model.to_dict() == before
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).to_dict() == before
