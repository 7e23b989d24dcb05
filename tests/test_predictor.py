"""Suffix-frequency predictor: counting, backoff, ties, and persistence."""

import json
import math
import re
from array import array
from collections import Counter, defaultdict
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logsample.errors import ConfigurationError, EncodingError, TrainingError
from logsample.features import END_MARKER, FeatureRows, extract_features
from logsample.predictor import PrefixTreeModel, load_model, save_model, train

from helpers import feature_rows, log_from_variants, pick_rows, random_variant_freqs


def rows_from_pairs(pairs):
    return feature_rows((prefix, target, f"c{i}") for i, (prefix, target) in enumerate(pairs))


class TestTrain:
    def test_counts_per_suffix(self):
        rows = rows_from_pairs([("a", "b")] * 3 + [("a", "c")])
        model = train(rows, max_order=1, smoothing=0.0)
        assert model.tables[("a",)] == {"b": 3, "c": 1}
        assert model.counts[0] == {"b": 3, "c": 1}

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
            train(feature_rows([]))

    def test_negative_max_order_is_refused(self):
        with pytest.raises(TrainingError, match="max_order must be >= 0, got -1"):
            train(rows_from_pairs([("a", "b")]), max_order=-1)

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -1.0])
    def test_smoothing_must_be_finite_and_non_negative(self, smoothing):
        with pytest.raises(TrainingError, match="smoothing must be finite and >= 0"):
            train(rows_from_pairs([("a", "b")]), smoothing=smoothing)

    @pytest.mark.parametrize("cut", [-1, 3])
    @pytest.mark.parametrize("after_good_row", [False, True])
    def test_a_cut_outside_its_sequence_is_refused(self, cut, after_good_row):
        # at -1 the sequence abc would otherwise count (a, b) -> c; at 3 there is no target;
        # the rows refuse the cut when they are built, before train can read it
        cuts = [1, cut] if after_good_row else [cut]
        message = f"row of case 'k' cuts at {cut}, outside its 3-item sequence"
        with pytest.raises(EncodingError, match=re.escape(message)):
            FeatureRows([("a", "b", "c")], ["k"], array("q", [0] * len(cuts)), array("q", cuts))

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

    def test_backoff_passes_over_a_missing_shorter_suffix(self, tmp_path):
        # tables for () and (b, a) but none for (a,): the walk to (b, a) passes
        # a suffix with no table, and a prefix that stops there backs off to ()
        path = tmp_path / "gapped.json"
        path.write_text(json.dumps({
            "max_order": 2, "smoothing": 0.0, "labels": ["x", "y"],
            "tables": [{"suffix": [], "counts": {"x": 5, "y": 1}},
                       {"suffix": ["b", "a"], "counts": {"y": 2}}],
        }), encoding="utf-8")
        model = load_model(path)
        for prefix, expected in [(("b", "a"), "y"), (("c", "b", "a"), "y"), (("a",), "x"),
                                 (("c", "a"), "x"), (("a", "b"), "x")]:
            assert model.predict(prefix) == expected
        assert model.distribution(("b", "a")) == {"x": 0.0, "y": 1.0}
        assert model.distribution(("a",)) == pytest.approx({"x": 5 / 6, "y": 1 / 6})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_distribution_normalised(self, seed):
        rnd = Random(seed)
        log = log_from_variants(random_variant_freqs(rnd, max_variants=5, max_freq=6))
        rows = extract_features(log)
        model = train(rows, max_order=3, smoothing=0.01)
        some_prefixes = [r.prefix for r in pick_rows(rows, range(min(10, len(rows))))]
        some_prefixes.append(("unseen",))
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
        assert a.to_dict() == b.to_dict()
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


def slicing_train(rows, max_order):
    """The counting loop of the trainer before the suffix trie, which sliced
    every suffix of every row; returns its tables and the set of targets."""
    tables = {(): {}}
    targets = set()
    for sequence, cut, _ in rows:
        target = sequence[cut]
        targets.add(target)
        for order in range(0, min(max_order, cut) + 1):
            suffix = sequence[cut - order : cut]
            table = tables.setdefault(suffix, {})
            table[target] = table.get(target, 0) + 1
    return tables, targets


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_order=st.integers(min_value=0, max_value=6),
    with_marker=st.booleans(),
    order=st.sampled_from(["extracted", "shuffled", "copied"]),
)
@example(seed=7, max_order=3, with_marker=True, order="extracted")
@example(seed=7, max_order=3, with_marker=True, order="shuffled")
@example(seed=7, max_order=3, with_marker=False, order="copied")
def test_trie_matches_slicing_reference(tmp_path_factory, seed, max_order, with_marker, order):
    """Rows as extract_features gives them, in runs that share one sequence entry;
    shuffled, so runs break; and in order but each with a sequence entry of its own."""
    rnd = Random(seed)
    log = log_from_variants(random_variant_freqs(rnd, max_variants=8, max_freq=4, max_len=8))
    columns = extract_features(log, with_marker)
    if order == "shuffled":
        positions = list(range(len(columns)))
        rnd.shuffle(positions)
        columns = pick_rows(columns, positions)
    elif order == "copied":
        columns = feature_rows((row.prefix, row.target, row.case_id) for row in columns)
    rows = list(columns)
    if not rows:  # without the marker, one-event cases give no rows
        return
    model = train(columns, max_order=max_order)
    tables, targets = slicing_train(rows, max_order)
    # key order too: to_dict writes each counts dict in insertion order
    as_items = lambda t: {suffix: list(counts.items()) for suffix, counts in t.items()}
    assert as_items(model.tables) == as_items(tables)
    assert set(model.labels) == targets

    for row in rows[:20]:
        model.predict(row.prefix)
    model.predict(("unseen", *rows[0].prefix))
    path = tmp_path_factory.mktemp("trie") / "model.json"
    save_model(model, path)
    assert load_model(path).to_dict() == model.to_dict()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rows = rows_from_pairs([("ab", "c"), ("a", "b"), ("b", END_MARKER)])
        model = train(rows, max_order=2, smoothing=0.05)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.to_dict() == model.to_dict()
        assert back.predict(("a", "b")) == model.predict(("a", "b"))

    def test_loaded_labels_follow_the_tie_order_not_the_file_order(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "max_order": 0, "smoothing": 0.0, "labels": [END_MARKER, "b", "a"],
            "tables": [{"suffix": [], "counts": {"a": 1, "b": 1, END_MARKER: 1}}],
        }))
        model = load_model(path)
        assert model.labels == ("a", "b", END_MARKER)
        assert model.predict(()) == "a"

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

    @pytest.mark.parametrize(
        "field, value",
        [("max_order", -2), ("smoothing", -5), ("smoothing", float("nan")),
         ("smoothing", float("inf")),
         # tables and labels train never writes; predict met them as max() of an
         # empty table or a -0.0 probability
         ("tables", [{"suffix": [], "counts": {}}]),
         ("tables", [{"suffix": [], "counts": {"a": 1}}, {"suffix": ["a"], "counts": {}}]),
         ("tables", [{"suffix": [], "counts": {"a": -1, "b": 0}}]),
         ("tables", [{"suffix": [], "counts": {"a": 2, "b": 0}}]),
         ("labels", ["a", "b", "b"]),
         # a repeated suffix: the later table would silently replace the earlier
         ("tables", [{"suffix": [], "counts": {"a": 1}}, {"suffix": ["a"], "counts": {"a": 5}},
                     {"suffix": ["a"], "counts": {"b": 1}}]),
         # a suffix longer than max_order 1, which predict and evaluate never reach
         ("tables", [{"suffix": [], "counts": {"a": 1}},
                     {"suffix": ["a", "a"], "counts": {"b": 1}}])],
    )
    def test_load_rejects_parameters_predict_cannot_use(self, tmp_path, field, value):
        model = train(rows_from_pairs([("a", "b"), ("b", "a")]), max_order=1)
        data = {**model.to_dict(), field: value}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="model.json"):
            load_model(path)


# The model-file loader before tables went straight into the trie, kept as the
# oracle of the property below: its checks walked the tables four times, then
# ``PrefixTreeModel.from_dict`` walked them again to build the trie.


def parent_from_dict(data: dict) -> PrefixTreeModel:
    counts: list[dict[str, int]] = [{}]
    children: list[dict[str, int]] = [{}]
    for entry in data["tables"]:
        node = 0
        for activity in reversed(entry["suffix"]):
            child = children[node].get(activity)
            if child is None:
                child = children[node][activity] = len(counts)
                counts.append({})
                children.append({})
            node = child
        counts[node] = dict(entry["counts"])
    # loaded labels take the tie order, activities sorted and the end marker last
    labels = sorted(data["labels"], key=lambda label: (label == END_MARKER, label))
    return PrefixTreeModel(
        max_order=data["max_order"],
        smoothing=data["smoothing"],
        labels=tuple(labels),
        counts=counts,
        children=children,
    )


def parent_is_table(entry, labels: set[str]) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("suffix"), list)
        and all(isinstance(activity, str) for activity in entry["suffix"])
        and isinstance(entry.get("counts"), dict)
        and len(entry["counts"]) > 0
        and entry["counts"].keys() <= labels
        and all(type(count) is int and count > 0 for count in entry["counts"].values())
    )


def parent_load_model(path) -> PrefixTreeModel:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"model file {path} must hold a JSON object, got {type(data).__name__}"
        )
    labels = data.get("labels")
    labels_ok = (
        isinstance(labels, list)
        and all(isinstance(label, str) for label in labels)
        and len(set(labels)) == len(labels)
    )
    known = set(labels) if labels_ok else set()
    tables = data.get("tables")
    if not (
        type(data.get("max_order")) is int
        and data["max_order"] >= 0
        and type(data.get("smoothing")) in (int, float)
        and data["smoothing"] >= 0
        and math.isfinite(data["smoothing"])
        and labels_ok
        and isinstance(tables, list)
        and all(parent_is_table(entry, known) for entry in tables)
        and all(len(entry["suffix"]) <= data["max_order"] for entry in tables)
        and any(entry["suffix"] == [] for entry in tables)
        and len({tuple(entry["suffix"]) for entry in tables}) == len(tables)
    ):
        raise ConfigurationError(
            f"model file {path} is not a model: it needs an integer max_order >= 0, a"
            " finite number smoothing >= 0, a list of distinct labels and a tables list that"
            " holds the empty suffix and no suffix twice or longer than max_order, each table"
            " counting some of those labels with positive integers"
        )
    return parent_from_dict(data)


# Values a mutation may put in place of a count, a label list, max_order or smoothing.
BAD_COUNTS = [0, -1, 1.5, True, "1", None]
ODD_SCALARS = [-1, 0, 3, 1.5, True, False, "2", None, float("nan"), float("inf"), 0.0]


def mutate(data: dict, draw) -> bool:
    """Apply one drawn change to a model file's data, in place.

    Returns whether the data keeps the shape the next change needs: after a
    field or a table entry is replaced or dropped, no change may follow.
    """
    tables, labels = data["tables"], data["labels"]
    kind = draw(st.sampled_from([
        "drop-table", "repeat-table", "count", "drop-count", "unknown-label", "suffix-item",
        "drop-label", "repeat-label", "empty-counts", "entry", "label-type", "labels",
        "tables", "max_order", "smoothing", "drop-field",
    ]))
    pick = lambda seq: draw(st.integers(min_value=0, max_value=len(seq) - 1))
    table = tables[pick(tables)] if tables else None
    label = labels[pick(labels)] if labels else None
    if kind == "drop-table" and tables:
        tables.remove(table)
    elif kind == "repeat-table" and tables:
        copy = json.loads(json.dumps(table))
        if label is not None and draw(st.booleans()):
            copy["counts"] = {label: 1}
        tables.insert(pick(tables), copy)
    elif kind in ("count", "drop-count") and table and table["counts"]:
        key = draw(st.sampled_from(sorted(table["counts"])))
        if kind == "count":
            table["counts"][key] = draw(st.sampled_from(BAD_COUNTS))
        else:
            del table["counts"][key]
    elif kind == "unknown-label" and table:
        table["counts"]["zz"] = 1
    elif kind == "suffix-item" and table:
        table["suffix"].append(draw(st.sampled_from([3, None, "a", "zz"])))
    elif kind == "drop-label" and labels:
        labels.remove(label)
    elif kind == "repeat-label" and labels:
        labels.append(label)
    elif kind in ("max_order", "smoothing"):
        data[kind] = draw(st.sampled_from(ODD_SCALARS))
    elif kind == "empty-counts" and table:
        table["counts"] = {}
        return False
    elif kind == "entry" and tables:
        junk = [[], "t", None, {"suffix": []}, {"counts": {}}]
        tables[pick(tables)] = draw(st.sampled_from(junk))
        return False
    elif kind == "label-type" and labels:
        labels[pick(labels)] = draw(st.sampled_from([1, None, ["a"]]))
        return False
    elif kind in ("labels", "tables"):
        data[kind] = draw(st.sampled_from([None, "ab", {}, []]))
        return False
    elif kind == "drop-field":
        del data[draw(st.sampled_from(sorted(data)))]
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_order=st.integers(min_value=0, max_value=3),
    changes=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_loader_agrees_with_the_two_pass_loader(tmp_path_factory, seed, max_order, changes,
                                                data):
    rnd = Random(seed)
    log = log_from_variants(random_variant_freqs(rnd, max_variants=4, max_freq=3, max_len=5))
    model_data = train(extract_features(log), max_order=max_order).to_dict()
    for _ in range(changes):
        if not mutate(model_data, data.draw):
            break
    path = tmp_path_factory.mktemp("oracle") / "model.json"
    path.write_text(json.dumps(model_data), encoding="utf-8")

    outcomes = []
    for load in (parent_load_model, load_model):
        try:
            outcomes.append(("model", load(path).to_dict()))
        except ConfigurationError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]
