"""Prefix-to-next-activity feature rows and fixed-window one-hot encoding.

Each case of length n yields n-1 rows (prefix of length i, activity i+1) and
optionally one extra row targeting the end-of-case marker. Encoding flattens
a prefix into W one-hot blocks over (padding + alphabet), newest activity in
the rightmost block. :func:`encode` maps each row to W integer codes
(0 = padding) and expands them with numpy into :class:`EncodedRows`: uint8
matrices of at most ``BLOCK_BYTES`` each, plus one label index per row.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EncodingError
from .log_model import EventLog

END_MARKER = "<END>"

# default_window covers this percentage of traces in full.
WINDOW_PERCENTILE = 95

# Upper bound on the bytes of one encoded block. A single matrix for a whole
# training fold is the largest allocation of a run, and the allocator maps
# fresh pages for it instead of reusing freed heap (+8% peak RSS on a 300-case
# log); blocks this small are served from the heap.
BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class FeatureRow:
    """One training example: activity prefix and the activity that followed."""

    prefix: tuple[str, ...]
    target: str
    case_id: str


@dataclass(frozen=True, eq=False)
class EncodedRows:
    """One-hot rows, in order, split into uint8 blocks of at most BLOCK_BYTES.

    Each block is a ``rows x W*(len(alphabet)+1)`` matrix; ``labels`` holds
    one label index per row. Iterating yields ``(vector, label_index)`` pairs.
    """

    blocks: tuple[np.ndarray, ...]
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[tuple[np.ndarray, int]]:
        return zip(chain.from_iterable(self.blocks), self.labels.tolist())


def extract_features(log: EventLog, include_end_marker: bool = True) -> list[FeatureRow]:
    """All (prefix, next activity) rows of a log, case by case.

    With the end marker enabled, every full trace additionally predicts
    END_MARKER, so a case of length n contributes n rows instead of n-1.
    """
    rows: list[FeatureRow] = []
    for cid, case in log.cases.items():
        trace = case.trace
        if END_MARKER in trace:
            raise EncodingError(
                f"case {cid!r} uses the reserved end-of-case label {END_MARKER!r}"
            )
        for i in range(1, len(trace)):
            rows.append(FeatureRow(trace[:i], trace[i], cid))
        if include_end_marker:
            rows.append(FeatureRow(trace, END_MARKER, cid))
    return rows


def label_space(alphabet: Sequence[str]) -> list[str]:
    """Target labels: the alphabet followed by the end-of-case marker."""
    return [*alphabet, END_MARKER]


def encode(
    rows: Iterable[FeatureRow], alphabet: Sequence[str], window: int
) -> EncodedRows:
    """One-hot encode rows against an alphabet with a fixed window length.

    Prefixes longer than the window keep their last ``window`` activities;
    shorter ones are left-padded (slot 0 of each block is the padding slot).
    """
    if window < 1:
        raise EncodingError(f"window must be >= 1, got {window}")
    code = {act: i for i, act in enumerate(alphabet, 1)}.__getitem__
    label_of = {act: i for i, act in enumerate(label_space(alphabet))}.__getitem__
    pads = [array("I", bytes(4 * n)) for n in range(window + 1)]

    codes = array("I")
    labels = array("I")
    for row in rows:
        tail = row.prefix[-window:]
        codes += pads[window - len(tail)]
        try:
            codes.extend(map(code, tail))
        except KeyError as exc:
            raise EncodingError(f"activity {exc.args[0]!r} is not in the alphabet") from None
        try:
            labels.append(label_of(row.target))
        except KeyError:
            raise EncodingError(f"target {row.target!r} is not in the alphabet") from None

    width = window * (len(alphabet) + 1)
    matrix = np.frombuffer(codes, dtype=np.uintc).reshape(-1, window)
    one_hot = np.eye(len(alphabet) + 1, dtype=np.uint8)
    step = max(1, BLOCK_BYTES // width)
    blocks = tuple(
        one_hot[matrix[i : i + step]].reshape(-1, width)
        for i in range(0, len(matrix), step)
    )
    return EncodedRows(blocks, np.frombuffer(labels, dtype=np.uintc))


def decode(
    vector: np.ndarray, label_index: int, alphabet: Sequence[str], window: int
) -> FeatureRow:
    """Invert :func:`encode` for one row (up to window truncation; case id is lost)."""
    block = len(alphabet) + 1
    prefix = []
    for j in range(window):
        slots = np.flatnonzero(vector[j * block : (j + 1) * block])
        if len(slots) != 1:
            raise EncodingError(f"block {j} does not have exactly one hot slot")
        if slots[0] != 0:
            prefix.append(alphabet[slots[0] - 1])
    return FeatureRow(tuple(prefix), label_space(alphabet)[label_index], "")


def export_features(
    rows: Iterable[FeatureRow],
    alphabet: Sequence[str],
    window: int,
    path: str | Path,
) -> None:
    """Write encoded rows as CSV: one 0/1 column per slot plus a label column.

    The bytes are those of ``csv.writer``. Each one-hot block is turned into
    ``0,1,...,`` text by numpy; each label is quoted by ``csv.writer`` once.
    """
    encoded = encode(rows, alphabet, window)
    header = []
    for j in range(window):
        header.append(f"p{j}_PAD")
        header.extend(f"p{j}_{act}" for act in alphabet)
    header.append("label")
    endings = [_last_field(label) for label in label_space(alphabet)]

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        row_labels = encoded.labels.tolist()
        start = 0
        for block in encoded.blocks:
            n, width = block.shape
            step = 2 * width
            # "d,d,...,d," per row: each 0/1 digit followed by its comma
            text = np.full((n, step), ord(","), np.uint8)
            np.add(block, ord("0"), out=text[:, ::2])
            lines = text.tobytes().decode("ascii")
            fh.write("".join([
                lines[i * step : (i + 1) * step] + endings[label]
                for i, label in enumerate(row_labels[start : start + n])
            ]))
            start += n


def _last_field(value: str) -> str:
    """``value`` as the last field of a ``csv.writer`` row, with the terminator."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", value])
    return buffer.getvalue()[1:]


def default_window(trace_lengths: Sequence[int]) -> int:
    """Window heuristic: the 95th percentile (nearest rank) of trace lengths."""
    if not trace_lengths:
        return 1
    ordered = sorted(trace_lengths)
    rank = math.ceil(WINDOW_PERCENTILE / 100 * len(ordered))
    rank = min(max(rank, 1), len(ordered))
    return max(1, ordered[rank - 1])
