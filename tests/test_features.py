"""Feature extraction, one-hot encoding, and the CSV export."""

import csv
import json
import re
from array import array
from collections import Counter
from itertools import repeat
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logsample
from logsample import experiment, features, metrics
from logsample.errors import EncodingError, TrainingError
from logsample.experiment import ExperimentConfig, run_experiment
from logsample.features import (
    BLOCK_BYTES,
    END_MARKER,
    FeatureRow,
    FeatureRows,
    as_feature_rows,
    default_window,
    encode,
    export_features,
    extract_features,
    label_space,
)
from logsample.metrics import evaluate
from logsample.predictor import train
from logsample.sampling import DIVISION, RANDOM_ORDER, SamplingConfig, sample
from logsample.variants import build_variant_index

from helpers import feature_row, log_from_variants, random_variant_freqs


def pairs(encoded):
    """Each row's (one-hot vector, label index), read from blocks() and labels."""
    vectors = (vector for block in encoded.blocks() for vector in block)
    return list(zip(vectors, encoded.labels.tolist()))


class TestExtractFeatures:
    def test_four_step_case_without_end_marker(self):
        log = log_from_variants([(("a", "b", "c", "d"), 1)])
        rows = extract_features(log, include_end_marker=False)
        assert [(r.prefix, r.target) for r in rows] == [
            (("a",), "b"),
            (("a", "b"), "c"),
            (("a", "b", "c"), "d"),
        ]

    def test_single_activity_case(self):
        log = log_from_variants([(("a",), 1)])
        assert list(extract_features(log, include_end_marker=False)) == []
        rows = extract_features(log, include_end_marker=True)
        assert [(r.prefix, r.target) for r in rows] == [(("a",), END_MARKER)]

    def test_row_counts(self):
        log = log_from_variants([(("a", "b", "c"), 4)])
        assert len(extract_features(log, include_end_marker=False)) == 4 * 2
        assert len(extract_features(log, include_end_marker=True)) == 4 * 3

    def test_rows_carry_case_provenance(self, tiny_log):
        rows = extract_features(tiny_log, include_end_marker=True)
        assert {r.case_id for r in rows} == set(tiny_log.cases)
        for row in rows:
            trace = tiny_log.trace(row.case_id)
            assert row.prefix == trace[: len(row.prefix)]

    def test_reserved_marker_collision_rejected(self):
        log = log_from_variants([((END_MARKER,), 1)])
        with pytest.raises(EncodingError):
            extract_features(log)


def copying_extract_features(log, include_end_marker=True):
    """The extractor that copied every prefix, kept as the oracle.

    Returns (prefix, target, case id) tuples.
    """
    rows = []
    for cid, case in log.cases.items():
        trace = case.trace
        if END_MARKER in trace:
            raise EncodingError(
                f"case {cid!r} uses the reserved end-of-case label {END_MARKER!r}"
            )
        for i in range(1, len(trace)):
            rows.append((trace[:i], trace[i], cid))
        if include_end_marker:
            rows.append((trace, END_MARKER, cid))
    return rows


traces = st.lists(st.sampled_from("abcd"), min_size=1, max_size=8).map(tuple)
variant_specs = st.lists(
    st.tuples(traces, st.integers(1, 3)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(variant_specs, st.booleans())
def test_extract_features_matches_copying_extractor(variants, with_marker):
    log = log_from_variants(variants)
    rows = extract_features(log, with_marker)
    assert [(r.prefix, r.target, r.case_id) for r in rows] == copying_extract_features(
        log, with_marker
    )


def per_row_extract_features(log, include_end_marker=True):
    """The extractor that built one FeatureRow tuple per row, kept as the oracle."""
    rows = []
    for cid, case in log.cases.items():
        sequence = case.trace
        if END_MARKER in sequence:
            raise EncodingError(
                f"case {cid!r} uses the reserved end-of-case label {END_MARKER!r}"
            )
        if include_end_marker:
            sequence = (*sequence, END_MARKER)
        fields = zip(repeat(sequence), range(1, len(sequence)), repeat(cid))
        rows.extend(map(tuple.__new__, repeat(FeatureRow), fields))
    return rows


def one_entry_per_row(rows):
    """The rows as FeatureRows that share no sequence entry between rows."""
    rows = list(rows)
    return FeatureRows(
        [row.sequence for row in rows],
        [row.case_id for row in rows],
        array("q", range(len(rows))),
        array("q", [row.cut for row in rows]),
    )


def kernel_outcomes(rows, alphabet):
    """What encode, train and evaluate make of some rows: results, or each error's text.

    A model is compared by its saved JSON text, which keeps each counts
    dict's insertion order. evaluate does not check cuts, so a cut past its
    sequence's end fails there with IndexError.
    """
    outcomes = []
    for kernel in (
        lambda: encode(rows, alphabet, window=3),
        lambda: train(rows, max_order=2),
        lambda: evaluate(train(list(rows)[:1], max_order=2), rows),
    ):
        try:
            result = kernel()
        except (EncodingError, TrainingError, IndexError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            continue
        if isinstance(result, features.EncodedRows):
            outcomes.append((result.codes.tolist(), result.labels.tolist(), result.slots))
        elif isinstance(result, metrics.EvaluationResult):
            outcomes.append(result)
        else:
            outcomes.append(json.dumps(result.to_dict()))
    return outcomes


@settings(max_examples=100, deadline=None)
@given(variant_specs, st.booleans())
def test_feature_rows_equal_the_per_row_list(variants, with_marker):
    log = log_from_variants(variants)
    rows = extract_features(log, with_marker)
    expected = per_row_extract_features(log, with_marker)
    assert isinstance(rows, FeatureRows)
    assert len(rows) == len(expected)
    assert list(rows) == expected
    # row order is kept exactly: a saved model writes each counts dict in the order rows met it
    if expected:
        alphabet = sorted(log.activity_alphabet)
        outcome = kernel_outcomes(rows, alphabet)
        assert outcome == kernel_outcomes(expected, alphabet)
        assert outcome == kernel_outcomes(one_entry_per_row(expected), alphabet)


@st.composite
def hand_built_rows(draw):
    """Rows that interleave cases, share one sequence object between cases, and may hold a bad cut."""
    sequences = draw(
        st.lists(
            st.builds(
                lambda acts, end: (*acts, END_MARKER) if end else tuple(acts),
                st.lists(st.sampled_from("abc"), min_size=1, max_size=5),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(sequences) - 1), st.sampled_from(["k0", "k1", "k2"])),
            min_size=1,
            max_size=12,
        )
    )
    rows = []
    for number, case_id in picks:
        sequence = sequences[number]
        rows.append(FeatureRow(sequence, draw(st.integers(0, len(sequence) - 1)), case_id))
    bad = draw(st.one_of(st.none(), st.integers(0, len(rows) - 1)))
    if bad is not None:
        length = len(rows[bad].sequence)
        rows[bad] = rows[bad]._replace(cut=draw(st.sampled_from([-1, length, length + 2])))
    return rows


SHARED = ("a", "b", END_MARKER)


@settings(max_examples=150, deadline=None)
@given(hand_built_rows())
@example([FeatureRow(SHARED, 1, "k0"), FeatureRow(("c", "a"), 1, "k1"), FeatureRow(SHARED, 2, "k0")])
@example([FeatureRow(SHARED, 1, "k0"), FeatureRow(SHARED, 2, "k1"), FeatureRow(SHARED, 0, "k0")])
@example([FeatureRow(SHARED, 1, "k0"), FeatureRow(("c", "a"), 3, "k1"), FeatureRow(SHARED, -1, "k0")])
def test_hand_built_rows_give_the_same_results_as_columns(rows):
    columns = as_feature_rows(rows)
    assert list(columns) == rows
    assert list(one_entry_per_row(rows)) == rows
    alphabet = ["a", "b", "c"]
    outcome = kernel_outcomes(rows, alphabet)
    assert outcome == kernel_outcomes(columns, alphabet)
    assert outcome == kernel_outcomes(one_entry_per_row(rows), alphabet)
    bad = [row for row in rows if not 0 <= row.cut < len(row.sequence)]
    if bad:
        first = bad[0]
        message = (
            f"row of case {first.case_id!r} cuts at {first.cut}, outside its"
            f" {len(first.sequence)}-item sequence"
        )
        with pytest.raises(EncodingError, match=re.escape(message)):
            encode(columns, alphabet, window=2)
        with pytest.raises(TrainingError, match=re.escape(message)):
            train(columns)
    else:
        assert [(v.tolist(), l) for v, l in pairs(encode(columns, alphabet, 3))] == [
            (v.tolist(), l) for v, l in reference_encode(rows, alphabet, 3)
        ]


def test_the_benchmark_harness_view_of_the_package(tmp_path, monkeypatch):
    """What the benchmark harness reads of the package, which it reads without change."""
    log = log_from_variants([(("a", "b", "c"), 3), (("a", "c"), 2), (("b",), 1)])
    # the number of rows of a log, with and without the end row
    rows = logsample.extract_features(log)
    assert len(rows) == log.num_events
    assert len(logsample.extract_features(log, False)) == log.num_events - log.num_cases
    # the rows and a test fold iterate as FeatureRows with a prefix and a target
    for view in (rows, logsample.TestRows(rows)):
        assert all(isinstance(row, FeatureRow) for row in view)
        assert {(row.prefix[-5:], row.target) for row in view} == {
            (("a",), "b"), (("a", "b"), "c"), (("a", "b", "c"), END_MARKER),
            (("a",), "c"), (("a", "c"), END_MARKER), (("b",), END_MARKER),
        }
    # the rows a cell trains on are counted by len() of train's first argument
    trained = []
    real_train = experiment.train
    monkeypatch.setattr(
        experiment,
        "train",
        lambda *a, **k: trained.append((len(a[0]), len(list(a[0])))) or real_train(*a, **k),
    )
    run_experiment(log, ExperimentConfig(folds=2, repeats=1, grid=experiment.default_grid()[:1]))
    assert trained and all(counted == walked > 0 for counted, walked in trained)
    # export_features takes (rows, alphabet, window, path) positionally
    alphabet = sorted(log.activity_alphabet)
    window = logsample.default_window([len(log.trace(cid)) for cid in log.cases])
    logsample.export_features(rows, alphabet, window, tmp_path / "features.csv")
    with (tmp_path / "features.csv").open(newline="") as fh:
        assert sum(1 for _ in csv.reader(fh)) == len(rows) + 1
    # EventLog.trace gives a case's activities
    assert all(log.trace(cid) is case.trace for cid, case in log.cases.items())


class TestFeatureRowViews:
    def test_rows_of_a_case_share_one_sequence(self):
        log = log_from_variants([(("a", "b", "c"), 2), (("d", "e"), 1)])
        for with_marker in (True, False):
            rows = extract_features(log, with_marker)
            by_case = {}
            for row in rows:
                by_case.setdefault(row.case_id, {})[id(row.sequence)] = row.sequence
            assert all(len(sequences) == 1 for sequences in by_case.values())
            # linear size: the rows hold each event once, plus one end marker per case
            stored = sum(len(s) for sequences in by_case.values() for s in sequences.values())
            assert stored == log.num_events + (log.num_cases if with_marker else 0)
        # without the marker, the rows view the case's own trace
        assert all(row.sequence is log.trace(row.case_id) for row in rows)


class TestEncode:
    def test_short_prefix_left_padded(self):
        rows = [feature_row(("a",), "b", "c1")]
        [(vector, label)] = pairs(encode(rows, ["a", "b"], window=2))
        # blocks of size 3: [PAD][a]
        assert vector.tolist() == [1, 0, 0, 0, 1, 0]
        assert label == 1

    def test_long_prefix_keeps_last_window(self):
        rows = [feature_row(("a", "b", "a"), "b", "c1")]
        [(vector, _)] = pairs(encode(rows, ["a", "b"], window=2))
        # last two activities are b, a
        assert vector.tolist() == [0, 0, 1, 0, 1, 0]

    def test_end_marker_label_is_last(self):
        rows = [feature_row(("a",), END_MARKER, "c1")]
        [(_, label)] = pairs(encode(rows, ["a", "b"], window=1))
        assert label == 2

    def test_every_block_has_exactly_one_hot_slot(self):
        rows = [feature_row(("a", "b"), "a", "c1"), feature_row(("b",), "b", "c2")]
        for vector, _ in pairs(encode(rows, ["a", "b"], window=3)):
            blocks = vector.reshape(3, 3)
            assert (blocks.sum(axis=1) == 1).all()

    def test_unknown_activity_is_named_in_error(self):
        with pytest.raises(EncodingError, match="zz"):
            encode([feature_row(("zz",), "a", "c1")], ["a"], window=1)
        with pytest.raises(EncodingError, match="zz"):
            encode([feature_row(("a",), "zz", "c1")], ["a"], window=1)

    def test_end_marker_inside_a_prefix_is_an_encoding_error(self):
        with pytest.raises(EncodingError, match=END_MARKER):
            encode([FeatureRow(("a", END_MARKER, "a"), 2, "c1")], ["a"], window=2)

    @pytest.mark.parametrize("cut", [-1, 2, 3])
    def test_cut_outside_the_sequence_is_an_encoding_error(self, cut):
        # without the check, the gather would read a neighbouring sequence's codes
        rows = [FeatureRow(("a", "b"), cut, "c1"), feature_row(("b", "a"), "b", "c2")]
        with pytest.raises(EncodingError, match="c1"):
            encode(rows, ["a", "b"], window=2)

    def test_window_must_be_positive(self):
        with pytest.raises(EncodingError):
            encode([], ["a"], window=0)

    def test_encoding_injective_on_truncated_pairs(self):
        alphabet = ["a", "b"]
        rows = [
            feature_row(p, t, "x")
            for p in [("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
            for t in ["a", "b", END_MARKER]
        ]
        seen = set()
        for vector, label in pairs(encode(rows, alphabet, window=2)):
            key = (tuple(vector.tolist()), label)
            assert key not in seen
            seen.add(key)


    def test_empty_rows_give_no_blocks(self):
        encoded = encode([], ["a", "b"], window=3)
        assert len(encoded) == 0
        assert list(encoded.blocks()) == []
        assert pairs(encoded) == []


def reference_encode(rows, alphabet, window):
    """The per-row encoder ``encode`` replaced, kept as the oracle."""
    act_index = {act: i for i, act in enumerate(alphabet)}
    block = len(alphabet) + 1
    labels = {act: i for i, act in enumerate(label_space(alphabet))}

    encoded = []
    for row in rows:
        vector = np.zeros(window * block, dtype=np.uint8)
        tail = row.prefix[-window:]
        pad = window - len(tail)
        for j in range(pad):
            vector[j * block] = 1
        for j, act in enumerate(tail):
            try:
                slot = act_index[act] + 1
            except KeyError:
                raise EncodingError(f"activity {act!r} is not in the alphabet") from None
            vector[(pad + j) * block + slot] = 1
        try:
            label = labels[row.target]
        except KeyError:
            raise EncodingError(f"target {row.target!r} is not in the alphabet") from None
        encoded.append((vector, label))
    return encoded


@st.composite
def encode_cases(draw):
    alphabet = list("abcdef"[: draw(st.integers(1, 6))])
    window = draw(st.integers(1, 8))
    activity = st.sampled_from(alphabet)
    row = st.builds(
        lambda prefix, target: feature_row(tuple(prefix), target, "x"),
        st.lists(activity, min_size=1, max_size=12),
        st.sampled_from(label_space(alphabet)),
    )
    rows = draw(st.lists(row, max_size=40))
    block_bytes = draw(st.one_of(st.integers(1, 300), st.just(BLOCK_BYTES)))
    return alphabet, window, rows, block_bytes


@settings(max_examples=200, deadline=None)
@given(encode_cases())
def test_encode_matches_per_row_reference(case):
    alphabet, window, rows, block_bytes = case
    width = window * (len(alphabet) + 1)
    with mock.patch.object(features, "BLOCK_BYTES", block_bytes):
        encoded = encode(rows, alphabet, window)
        blocks = list(encoded.blocks())
    expected = reference_encode(rows, alphabet, window)

    assert len(encoded) == len(rows)
    assert encoded.labels.tolist() == [label for _, label in expected]
    matrix = np.concatenate([*blocks, np.zeros((0, width), np.uint8)])
    assert matrix.dtype == np.uint8
    assert matrix.tolist() == [vector.tolist() for vector, _ in expected]
    step = max(1, block_bytes // width)
    assert [len(block) for block in blocks] == [
        min(step, len(rows) - i) for i in range(0, len(rows), step)
    ]
    assert [(v.tolist(), l) for v, l in pairs(encoded)] == [(v.tolist(), l) for v, l in expected]


@settings(max_examples=100, deadline=None)
@given(variant_specs, st.booleans(), st.integers(1, 6), st.randoms(use_true_random=False))
def test_encode_matches_reference_on_shuffled_shared_rows(variants, with_marker, window, rnd):
    # cases of one variant hold equal but distinct sequences; shuffling splits
    # the rows of one sequence with rows of others
    log = log_from_variants(variants)
    alphabet = sorted(log.activity_alphabet)
    rows = list(extract_features(log, with_marker))
    rnd.shuffle(rows)
    encoded = encode(rows, alphabet, window)
    expected = reference_encode(rows, alphabet, window)
    assert len(encoded) == len(rows)
    assert [(v.tolist(), l) for v, l in pairs(encoded)] == [(v.tolist(), l) for v, l in expected]


class TestExportFeatures:
    def test_shape(self, tmp_path):
        rows = [
            feature_row(("a",), "b", "x"),
            feature_row(("a", "b"), "a", "x"),
            feature_row(("b",), END_MARKER, "x"),
        ]
        out = tmp_path / "features.csv"
        export_features(rows, ["a", "b"], window=2, path=out)
        with out.open() as fh:
            table = list(csv.reader(fh))
        assert len(table) == 4
        assert all(len(line) == 2 * 3 + 1 for line in table)
        assert table[0][-1] == "label"

    def test_empty_rows_give_header_only(self, tmp_path):
        out = tmp_path / "features.csv"
        export_features([], ["a"], window=1, path=out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_label_distribution_survives(self, tmp_path, tiny_log):
        rows = extract_features(tiny_log, include_end_marker=True)
        out = tmp_path / "features.csv"
        export_features(rows, sorted(tiny_log.activity_alphabet), window=2, path=out)
        with out.open() as fh:
            reader = csv.DictReader(fh)
            labels = Counter(rec["label"] for rec in reader)
        assert labels == Counter(r.target for r in rows)


def reference_export(rows, alphabet, window, path):
    """The per-row ``csv.writer`` export ``export_features`` replaced, kept as the oracle."""
    header = []
    for j in range(window):
        header.append(f"p{j}_PAD")
        header.extend(f"p{j}_{act}" for act in alphabet)
    header.append("label")
    labels = label_space(alphabet)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for vector, label in reference_encode(rows, alphabet, window):
            writer.writerow([*vector.tolist(), labels[label]])


QUOTING_ALPHABET = ["a,b", '"q"', "two\nlines", "plain", " spaced "]


@settings(max_examples=100, deadline=None)
@given(
    window=st.integers(1, 5),
    rows=st.lists(
        st.builds(
            lambda prefix, target: feature_row(tuple(prefix), target, "x"),
            st.lists(st.sampled_from(QUOTING_ALPHABET), min_size=1, max_size=8),
            st.sampled_from(label_space(QUOTING_ALPHABET)),
        ),
        max_size=30,
    ),
    block_bytes=st.one_of(st.integers(1, 200), st.just(BLOCK_BYTES)),
)
def test_export_matches_csv_writer(tmp_path_factory, window, rows, block_bytes):
    folder = tmp_path_factory.mktemp("export")
    with mock.patch.object(features, "BLOCK_BYTES", block_bytes):
        export_features(rows, QUOTING_ALPHABET, window, folder / "fast.csv")
    reference_export(rows, QUOTING_ALPHABET, window, folder / "reference.csv")
    assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()


class TestDefaultWindow:
    def test_percentile_of_lengths(self):
        lengths = list(range(1, 101))
        assert default_window(lengths) == 95

    def test_small_inputs(self):
        assert default_window([3]) == 3
        assert default_window([]) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_row_count_formula(seed, with_marker):
    rnd = Random(seed)
    log = log_from_variants(random_variant_freqs(rnd, max_variants=6, max_freq=8))
    rows = extract_features(log, include_end_marker=with_marker)
    lengths = [len(log.trace(cid)) for cid in log.cases]
    expected = sum(lengths) if with_marker else sum(n - 1 for n in lengths)
    assert len(rows) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sampling_shrinks_features_to_a_sub_multiset(seed):
    rnd = Random(seed)
    log = log_from_variants(random_variant_freqs(rnd, max_variants=6, max_freq=12))
    index = build_variant_index(log)
    sampled, _ = sample(
        log, index, SamplingConfig(DIVISION, k=3, sorting=RANDOM_ORDER, seed=seed)
    )
    full = Counter(extract_features(log, include_end_marker=True))
    part = Counter(extract_features(sampled, include_end_marker=True))
    assert all(part[row] <= full[row] for row in part)
