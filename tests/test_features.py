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
from logsample import experiment, features
from logsample.errors import EncodingError
from logsample.experiment import ExperimentConfig, run_experiment
from logsample.features import (
    BLOCK_BYTES,
    END_MARKER,
    FeatureRow,
    FeatureRows,
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

from helpers import feature_rows, log_from_variants, pick_rows, random_variant_freqs


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
    """The same rows, each with a sequence entry of its own."""
    return feature_rows((row.prefix, row.target, row.case_id) for row in rows)


def kernel_outcomes(rows, alphabet):
    """What encode, train and evaluate make of some rows.

    A model is compared by its saved JSON text, which keeps each counts
    dict's insertion order.
    """
    encoded = encode(rows, alphabet, window=3)
    return [
        (encoded.codes.tolist(), encoded.labels.tolist(), encoded.slots),
        json.dumps(train(rows, max_order=2).to_dict()),
        evaluate(train(pick_rows(rows, [0]), max_order=2), rows),
    ]


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
        assert outcome == kernel_outcomes(one_entry_per_row(rows), alphabet)


@st.composite
def hand_built_columns(draw):
    """Valid row columns: rows interleave cases, and cases may share one sequence object.

    Returns the four columns as FeatureRows takes them.
    """
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
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(sequences), st.sampled_from(["k0", "k1", "k2"])),
            min_size=1,
            max_size=4,
        )
    )
    numbers = draw(st.lists(st.integers(0, len(entries) - 1), min_size=1, max_size=12))
    cuts = [draw(st.integers(0, len(entries[n][0]) - 1)) for n in numbers]
    return [s for s, _ in entries], [c for _, c in entries], array("q", numbers), array("q", cuts)


SHARED = ("a", "b", END_MARKER)


@settings(max_examples=150, deadline=None)
@given(hand_built_columns())
@example(([SHARED, ("c", "a")], ["k0", "k1"], array("q", [0, 1, 0]), array("q", [1, 1, 2])))
@example(([SHARED, SHARED], ["k0", "k1"], array("q", [0, 1, 0]), array("q", [1, 2, 0])))
def test_hand_built_rows_give_the_same_results_as_columns(columns):
    rows = FeatureRows(*columns)
    assert list(rows) == [
        FeatureRow(columns[0][n], cut, columns[1][n]) for n, cut in zip(columns[2], columns[3])
    ]
    alphabet = ["a", "b", "c"]
    assert kernel_outcomes(rows, alphabet) == kernel_outcomes(one_entry_per_row(rows), alphabet)
    assert [(v.tolist(), l) for v, l in pairs(encode(rows, alphabet, 3))] == [
        (v.tolist(), l) for v, l in reference_encode(list(rows), alphabet, 3)
    ]


def cut_message(sequences, case_ids, number, cut):
    return (
        f"row of case {case_ids[number]!r} cuts at {cut}, outside its"
        f" {len(sequences[number])}-item sequence"
    )


@st.composite
def one_bad_column(draw):
    """Hand-built columns with one bad column, bad in one or more rows; and the error text.

    The text names the first bad row, or for case ids, which belong to no row, the counts.
    """
    sequences, case_ids, numbers, cuts = draw(hand_built_columns())
    rows = draw(st.sets(st.integers(0, len(cuts) - 1), min_size=1))
    first = min(rows)
    bad = draw(st.sampled_from(["negative cut", "cut past the end", "number", "rows", "case ids"]))
    if bad == "negative cut":
        for i in rows:
            cuts[i] = -1 - cuts[i]
        message = cut_message(sequences, case_ids, numbers[first], cuts[first])
    elif bad == "cut past the end":
        for i in rows:
            cuts[i] = len(sequences[numbers[i]]) + i % 2
        message = cut_message(sequences, case_ids, numbers[first], cuts[first])
    elif bad == "number":
        for i in rows:
            numbers[i] = -1 if i % 2 else len(sequences) + i
        message = (
            f"row {first} is of sequence {numbers[first]}, outside the {len(sequences)} sequences"
        )
    elif bad == "rows":  # the last row loses its cut, or its number
        (numbers if first % 2 else cuts).pop()
        message = f"row {min(len(numbers), len(cuts))} lacks a number or a cut"
    else:
        case_ids = case_ids[:-1] if first % 2 else [*case_ids, "extra"]
        message = f"{len(case_ids)} case ids for {len(sequences)} sequences"
    return (sequences, case_ids, numbers, cuts), message


@settings(max_examples=200, deadline=None)
@given(one_bad_column())
# one case of the sequence SHARED, whose two rows cut at 1 and at its end; at -1 and at its
# end; and at 1 twice, the second row of a sequence 1 that does not exist
@example(
    (
        ([SHARED], ["k0"], array("q", [0, 0]), array("q", [1, 3])),
        cut_message([SHARED], ["k0"], 0, 3),
    )
)
@example(
    (
        ([SHARED], ["k0"], array("q", [0, 0]), array("q", [-1, 3])),
        cut_message([SHARED], ["k0"], 0, -1),
    )
)
@example(
    (
        ([SHARED], ["k0"], array("q", [0, 1]), array("q", [1, 1])),
        "row 1 is of sequence 1, outside the 1 sequences",
    )
)
def test_a_bad_row_column_is_refused_when_the_rows_are_built(case):
    columns, message = case
    with pytest.raises(EncodingError, match=re.escape(message)):
        FeatureRows(*columns)


def test_the_benchmark_harness_view_of_the_package(tmp_path, monkeypatch):
    """What the benchmark harness reads of the package, which it reads without change."""
    log = log_from_variants([(("a", "b", "c"), 3), (("a", "c"), 2), (("b",), 1)])
    # the number of rows of a log, with and without the end row
    rows = logsample.extract_features(log)
    assert len(rows) == log.num_events
    assert len(logsample.extract_features(log, False)) == log.num_events - log.num_cases
    # the rows, which evaluate also takes as a test fold, iterate as FeatureRows with a
    # prefix and a target
    assert all(isinstance(row, FeatureRow) for row in rows)
    assert {(row.prefix[-5:], row.target) for row in rows} == {
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
        rows = feature_rows([(("a",), "b", "c1")])
        [(vector, label)] = pairs(encode(rows, ["a", "b"], window=2))
        # blocks of size 3: [PAD][a]
        assert vector.tolist() == [1, 0, 0, 0, 1, 0]
        assert label == 1

    def test_long_prefix_keeps_last_window(self):
        rows = feature_rows([(("a", "b", "a"), "b", "c1")])
        [(vector, _)] = pairs(encode(rows, ["a", "b"], window=2))
        # last two activities are b, a
        assert vector.tolist() == [0, 0, 1, 0, 1, 0]

    def test_end_marker_label_is_last(self):
        rows = feature_rows([(("a",), END_MARKER, "c1")])
        [(_, label)] = pairs(encode(rows, ["a", "b"], window=1))
        assert label == 2

    def test_every_block_has_exactly_one_hot_slot(self):
        rows = feature_rows([(("a", "b"), "a", "c1"), (("b",), "b", "c2")])
        for vector, _ in pairs(encode(rows, ["a", "b"], window=3)):
            blocks = vector.reshape(3, 3)
            assert (blocks.sum(axis=1) == 1).all()

    def test_unknown_activity_is_named_in_error(self):
        with pytest.raises(EncodingError, match="zz"):
            encode(feature_rows([(("zz",), "a", "c1")]), ["a"], window=1)
        with pytest.raises(EncodingError, match="zz"):
            encode(feature_rows([(("a",), "zz", "c1")]), ["a"], window=1)

    def test_end_marker_inside_a_prefix_is_an_encoding_error(self):
        with pytest.raises(EncodingError, match=END_MARKER):
            encode(feature_rows([(("a", END_MARKER), "a", "c1")]), ["a"], window=2)

    @pytest.mark.parametrize("cut", [-1, 2, 3])
    def test_cut_outside_the_sequence_is_an_encoding_error(self, cut):
        # refused when the rows are built; unchecked, encode's gather would read a
        # neighbouring sequence's codes
        with pytest.raises(EncodingError, match="c1"):
            FeatureRows(
                [("a", "b"), ("b", "a", "b")],
                ["c1", "c2"],
                array("q", [0, 1]),
                array("q", [cut, 2]),
            )

    def test_window_must_be_positive(self):
        with pytest.raises(EncodingError):
            encode(feature_rows([]), ["a"], window=0)

    def test_encoding_injective_on_truncated_pairs(self):
        alphabet = ["a", "b"]
        rows = feature_rows(
            (p, t, "x")
            for p in [("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
            for t in ["a", "b", END_MARKER]
        )
        seen = set()
        for vector, label in pairs(encode(rows, alphabet, window=2)):
            key = (tuple(vector.tolist()), label)
            assert key not in seen
            seen.add(key)


    def test_empty_rows_give_no_blocks(self):
        encoded = encode(feature_rows([]), ["a", "b"], window=3)
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
    spec = st.tuples(
        st.lists(activity, min_size=1, max_size=12),
        st.sampled_from(label_space(alphabet)),
        st.just("x"),
    )
    rows = feature_rows(draw(st.lists(spec, max_size=40)))
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
    rows = extract_features(log, with_marker)
    positions = list(range(len(rows)))
    rnd.shuffle(positions)
    rows = pick_rows(rows, positions)
    encoded = encode(rows, alphabet, window)
    expected = reference_encode(rows, alphabet, window)
    assert len(encoded) == len(rows)
    assert [(v.tolist(), l) for v, l in pairs(encoded)] == [(v.tolist(), l) for v, l in expected]


class TestExportFeatures:
    def test_shape(self, tmp_path):
        rows = feature_rows(
            [
                (("a",), "b", "x"),
                (("a", "b"), "a", "x"),
                (("b",), END_MARKER, "x"),
            ]
        )
        out = tmp_path / "features.csv"
        export_features(rows, ["a", "b"], window=2, path=out)
        with out.open() as fh:
            table = list(csv.reader(fh))
        assert len(table) == 4
        assert all(len(line) == 2 * 3 + 1 for line in table)
        assert table[0][-1] == "label"

    def test_empty_rows_give_header_only(self, tmp_path):
        out = tmp_path / "features.csv"
        export_features(feature_rows([]), ["a"], window=1, path=out)
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
        st.tuples(
            st.lists(st.sampled_from(QUOTING_ALPHABET), min_size=1, max_size=8),
            st.sampled_from(label_space(QUOTING_ALPHABET)),
            st.just("x"),
        ),
        max_size=30,
    ).map(feature_rows),
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
