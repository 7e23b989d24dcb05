"""Prefix-to-next-activity feature rows and fixed-window one-hot encoding.

Each case of length n yields n-1 rows (prefix of length i, activity i+1) and
optionally one extra row targeting the end-of-case marker. A row is a view
of its case: the case's sequence and a cut, so no prefix is ever copied.
Encoding flattens a prefix into W one-hot blocks over (padding + alphabet),
newest activity in the rightmost block. :func:`encode` gathers each row's W
integer codes (0 = padding) and its label with numpy into
:class:`EncodedRows`, which expands them on demand into uint8 one-hot
matrices of at most ``BLOCK_BYTES`` each.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EncodingError
from .log_model import EventLog, csv_field

END_MARKER = "<END>"

# default_window covers this percentage of traces in full.
WINDOW_PERCENTILE = 95

# Upper bound on the bytes of one encoded block. A single matrix for a whole
# training fold is the largest allocation of a run, and the allocator maps
# fresh pages for it instead of reusing freed heap (+8% peak RSS on a 300-case
# log); blocks this small are served from the heap.
BLOCK_BYTES = 64 * 1024


class FeatureRow(NamedTuple):
    """One training example: ``sequence[:cut]`` and the activity that followed it.

    ``sequence`` is the case's trace, with END_MARKER appended when the end
    row is kept; every row of a case shares that one tuple.
    """

    sequence: tuple[str, ...]
    cut: int
    case_id: str

    @property
    def prefix(self) -> tuple[str, ...]:
        return self.sequence[: self.cut]

    @property
    def target(self) -> str:
        return self.sequence[self.cut]


@dataclass(frozen=True, eq=False)
class EncodedRows:
    """Encoded rows, in order: a ``rows x W`` code matrix and one label index per row.

    Code 0 is padding and code i the i-th activity of the alphabet, so a code
    is the hot slot of its one-hot block. :meth:`blocks` expands the codes
    into uint8 ``rows x W*slots`` matrices of at most BLOCK_BYTES each.
    """

    codes: np.ndarray
    labels: np.ndarray
    slots: int  # one-hot slots per position: padding + alphabet

    def __len__(self) -> int:
        return len(self.labels)

    def blocks(self) -> Iterator[np.ndarray]:
        rows, window = self.codes.shape
        width = window * self.slots
        step = max(1, BLOCK_BYTES // width)
        hot = np.arange(step * window) * self.slots  # each position's first slot in a block
        for i in range(0, rows, step):
            codes = self.codes[i : i + step]
            flat = hot[: codes.size] + codes.ravel()  # before the block, or peak RSS rose
            block = np.zeros((len(codes), width), np.uint8)
            block.ravel()[flat] = 1
            yield block


def extract_features(log: EventLog, include_end_marker: bool = True) -> list[FeatureRow]:
    """All (prefix, next activity) rows of a log, case by case.

    With the end marker enabled, every full trace additionally predicts
    END_MARKER, so a case of length n contributes n rows instead of n-1.
    """
    rows: list[FeatureRow] = []
    for cid, case in log.cases.items():
        sequence = case.trace
        if END_MARKER in sequence:
            raise EncodingError(
                f"case {cid!r} uses the reserved end-of-case label {END_MARKER!r}"
            )
        if include_end_marker:
            sequence = (*sequence, END_MARKER)
        # tuple.__new__ builds each row without the Python frame of FeatureRow's __new__
        fields = zip(repeat(sequence), range(1, len(sequence)), repeat(cid))
        rows.extend(map(tuple.__new__, repeat(FeatureRow), fields))
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
    Every activity of a row's sequence must be in the alphabet, and
    END_MARKER may only be a target.

    Each run of rows sharing one sequence object maps that sequence to codes
    once, behind W padding codes; a row is then the offset of its target,
    and numpy gathers the W codes before it and the target's code.
    """
    if window < 1:
        raise EncodingError(f"window must be >= 1, got {window}")
    end_code = len(alphabet) + 1
    code = {act: i for i, act in enumerate(label_space(alphabet), 1)}.__getitem__
    pad = array("I", bytes(4 * window))

    codes = array("I")
    ends = array("q")
    last = None
    for sequence, cut, case_id in rows:
        if sequence is not last:
            codes += pad
            base = len(codes)
            try:
                codes.extend(map(code, sequence))
            except KeyError as exc:
                raise EncodingError(
                    f"activity {exc.args[0]!r} of case {case_id!r} is not in the alphabet"
                ) from None
            last, length = sequence, len(sequence)
        if not 0 <= cut < length:
            raise EncodingError(
                f"row of case {case_id!r} cuts at {cut}, outside its {length}-item sequence"
            )
        ends.append(base + cut)

    if not ends:
        return EncodedRows(np.zeros((0, window), np.uintc), np.zeros(0, np.uintc), end_code)
    # The sliding window view of the codes: windows[s] is codes[s : s + W + 1],
    # a row's W prefix codes and then its target's. It is built as a strided
    # ndarray because numpy's sliding_window_view checks its arguments for
    # about 19 us a call (numpy 2.4, 2-vCPU VM), more than the rest of the
    # feature time of a one-case log.
    step = codes.itemsize
    shape = (len(codes) - window, window + 1)
    windows = np.ndarray(shape, np.uintc, codes, strides=(step, step))
    gathered = windows[np.frombuffer(ends, dtype=np.int64) - window]
    matrix = gathered[:, :window]
    if matrix.max() == end_code:
        raise EncodingError(f"the end-of-case marker {END_MARKER!r} is inside a prefix")
    return EncodedRows(matrix, gathered[:, window] - 1, end_code)


def export_features(
    rows: Iterable[FeatureRow],
    alphabet: Sequence[str],
    window: int,
    path: str | Path,
) -> None:
    """Write encoded rows as CSV: one 0/1 column per slot plus a label column.

    The bytes are those of ``csv.writer``. Each one-hot block is turned into
    ``0,1,...,`` text by numpy and written as it is expanded; each label is
    quoted by :func:`~logsample.log_model.csv_field` once.
    """
    encoded = encode(rows, alphabet, window)
    header = []
    for j in range(window):
        header.append(f"p{j}_PAD")
        header.extend(f"p{j}_{act}" for act in alphabet)
    header.append("label")
    endings = [csv_field(label) + "\r\n" for label in label_space(alphabet)]

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_field, header)) + "\r\n")
        row_labels = encoded.labels.tolist()
        start = 0
        for block in encoded.blocks():
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


def default_window(trace_lengths: Sequence[int]) -> int:
    """Window heuristic: the 95th percentile (nearest rank) of trace lengths."""
    if not trace_lengths:
        return 1
    ordered = sorted(trace_lengths)
    rank = math.ceil(WINDOW_PERCENTILE / 100 * len(ordered))
    rank = min(max(rank, 1), len(ordered))
    return max(1, ordered[rank - 1])
