"""Prefix-to-next-activity feature rows and fixed-window one-hot encoding.

Each case of length n yields n-1 rows (prefix of length i, activity i+1) and
optionally one extra row targeting the end-of-case marker. A row is a view
of its case: the case's sequence and a cut, so no prefix is ever copied.
:class:`FeatureRows` holds the rows as columns: each case's sequence once,
and two integer arrays with each row's case number and cut, so no Python
object is built per row. It is the one form rows take to their readers,
and building it is the one place their columns are checked. Encoding
flattens a prefix into W one-hot blocks over (padding + alphabet), newest
activity in the rightmost block.
:func:`encode` gathers each row's W integer codes (0 = padding) and its
label with numpy into :class:`EncodedRows`, which expands them on demand
into uint8 one-hot matrices of at most ``BLOCK_BYTES`` each.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import getitem
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

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


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """Feature rows as columns, in order; iterating gives each as a :class:`FeatureRow`.

    Row i is ``sequences[n]`` cut at ``cuts[i]``, of case ``case_ids[n]``,
    where n is ``numbers[i]``. Both columns are ``array('q')``. Building
    the rows checks the columns: a bad one raises EncodingError naming the
    first bad row, so the readers of the rows trust every number and cut.
    The rows group themselves by key (:meth:`keys`) once per horizon, so
    every model scored on them shares each grouping. Row sets have no value
    equality; compare ``list(rows)``.
    """

    sequences: list[tuple[str, ...]]
    case_ids: list[str]
    numbers: array
    cuts: array

    def __post_init__(self) -> None:
        sequences, numbers, cuts = self.sequences, self.numbers, self.cuts
        if (getattr(numbers, "typecode", None), getattr(cuts, "typecode", None)) != ("q", "q"):
            raise EncodingError("row numbers and cuts must each be an array('q')")
        if len(numbers) != len(cuts):
            raise EncodingError(f"row {min(len(numbers), len(cuts))} lacks a number or a cut")
        if len(self.case_ids) != len(sequences):
            raise EncodingError(f"{len(self.case_ids)} case ids for {len(sequences)} sequences")
        if not cuts:
            return
        # read as unsigned, a negative number or cut is larger than any count
        at = np.frombuffer(numbers, np.uint64)
        lengths = np.fromiter(map(len, sequences), np.uint64, len(sequences))
        if at.max() < len(sequences) and (np.frombuffer(cuts, np.uint64) < lengths[at]).all():
            return
        for i, (number, cut) in enumerate(zip(numbers, cuts)):  # name the first bad row
            if not 0 <= number < len(sequences):
                raise EncodingError(
                    f"row {i} is of sequence {number}, outside the {len(sequences)} sequences"
                )
            if not 0 <= cut < len(sequences[number]):
                raise EncodingError(
                    f"row of case {self.case_ids[number]!r} cuts at {cut}, outside its"
                    f" {len(sequences[number])}-item sequence"
                )

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self) -> Iterator[FeatureRow]:
        sequences = map(self.sequences.__getitem__, self.numbers)
        case_ids = map(self.case_ids.__getitem__, self.numbers)
        # tuple.__new__ builds each row without the Python frame of FeatureRow's __new__
        return map(tuple.__new__, repeat(FeatureRow), zip(sequences, self.cuts, case_ids))

    @cached_property
    def _groups(self) -> dict[int, dict[tuple[str, ...], dict[str, int]]]:
        return {}

    def keys(self, horizon: int) -> dict[tuple[str, ...], dict[str, int]]:
        """The rows at ``horizon`` as ``{key: {target: rows}}``, grouped once per horizon.

        The key of a row is its prefix cut to the last ``horizon`` activities;
        a horizon at least as long as the prefix keeps all of it.
        """
        groups = self._groups.get(horizon)
        if groups is None:
            groups = self._groups[horizon] = {}
            sequences = list(map(self.sequences.__getitem__, self.numbers))
            # sys.maxsize keeps a longer horizon in int64; it keeps every prefix whole too
            back = np.frombuffer(self.cuts, np.int64) - min(horizon, sys.maxsize)
            starts = np.maximum(back, 0).tolist()
            keys = map(getitem, sequences, map(slice, starts, self.cuts))
            pairs = zip(keys, map(getitem, sequences, self.cuts))
            for (key, target), rows in Counter(pairs).items():
                groups.setdefault(key, {})[target] = rows
        return groups

    @cached_property
    def support(self) -> dict[str, int]:
        """Rows per target, summed over the first grouping :meth:`keys` built, or horizon 0's."""
        support: dict[str, int] = {}
        grouped = next(iter(self._groups.values())) if self._groups else self.keys(0)
        for tally in grouped.values():
            for target, rows in tally.items():
                support[target] = support.get(target, 0) + rows
        return support


def extract_features(log: EventLog, include_end_marker: bool = True) -> FeatureRows:
    """All (prefix, next activity) rows of a log, case by case.

    With the end marker enabled, every full trace additionally predicts
    END_MARKER, so a case of length n contributes n rows instead of n-1.
    A case that yields no row is left out of the columns.
    """
    sequences: list[tuple[str, ...]] = []
    case_ids: list[str] = []
    numbers, cuts = array("q"), array("q")
    for cid, case in log.cases.items():
        sequence = case.trace
        if END_MARKER in sequence:
            raise EncodingError(
                f"case {cid!r} uses the reserved end-of-case label {END_MARKER!r}"
            )
        if include_end_marker:
            sequence = (*sequence, END_MARKER)
        if len(sequence) > 1:
            numbers.extend(repeat(len(sequences), len(sequence) - 1))
            cuts.extend(range(1, len(sequence)))
            sequences.append(sequence)
            case_ids.append(cid)
    return FeatureRows(sequences, case_ids, numbers, cuts)


def label_space(alphabet: Sequence[str]) -> list[str]:
    """Target labels: the alphabet followed by the end-of-case marker."""
    return [*alphabet, END_MARKER]


def encode(
    rows: FeatureRows, alphabet: Sequence[str], window: int
) -> EncodedRows:
    """One-hot encode rows against an alphabet with a fixed window length.

    Prefixes longer than the window keep their last ``window`` activities;
    shorter ones are left-padded (slot 0 of each block is the padding slot).
    Every activity of a row's sequence must be in the alphabet, and
    END_MARKER may only be a target.

    Each sequence of the rows (see :class:`FeatureRows`) is mapped to codes
    once, behind W padding codes; a row is then the offset of its target,
    its sequence's start plus its cut, and numpy gathers the W codes before
    it and the target's code.
    """
    if window < 1:
        raise EncodingError(f"window must be >= 1, got {window}")
    end_code = len(alphabet) + 1
    if not rows:
        return EncodedRows(np.zeros((0, window), np.uintc), np.zeros(0, np.uintc), end_code)
    code = {act: i for i, act in enumerate(label_space(alphabet), 1)}.__getitem__
    pad = array("I", bytes(4 * window))

    codes = array("I")
    bases = array("q")
    for sequence, case_id in zip(rows.sequences, rows.case_ids):
        codes += pad
        bases.append(len(codes))
        try:
            codes.extend(map(code, sequence))
        except KeyError as exc:
            raise EncodingError(
                f"activity {exc.args[0]!r} of case {case_id!r} is not in the alphabet"
            ) from None

    numbers = np.frombuffer(rows.numbers, np.int64)
    cuts = np.frombuffer(rows.cuts, np.int64)
    ends = np.frombuffer(bases, np.int64)[numbers] + cuts
    # The sliding window view of the codes: windows[s] is codes[s : s + W + 1],
    # a row's W prefix codes and then its target's. It is built as a strided
    # ndarray because numpy's sliding_window_view checks its arguments for
    # about 19 us a call (numpy 2.4, 2-vCPU VM), more than the rest of the
    # feature time of a one-case log.
    step = codes.itemsize
    shape = (len(codes) - window, window + 1)
    windows = np.ndarray(shape, np.uintc, codes, strides=(step, step))
    gathered = windows[ends - window]
    matrix = gathered[:, :window]
    if matrix.max() == end_code:
        raise EncodingError(f"the end-of-case marker {END_MARKER!r} is inside a prefix")
    return EncodedRows(matrix, gathered[:, window] - 1, end_code)


def export_features(
    rows: FeatureRows,
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
