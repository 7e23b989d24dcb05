"""Feature extraction, one-hot encoding, and the CSV export."""

import csv
from collections import Counter
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample import features
from logsample.errors import EncodingError
from logsample.features import (
    BLOCK_BYTES,
    END_MARKER,
    FeatureRow,
    default_window,
    encode,
    export_features,
    extract_features,
    label_space,
)
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
        assert extract_features(log, include_end_marker=False) == []
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
    rows = extract_features(log, with_marker)
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
