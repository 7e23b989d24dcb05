"""Deterministic next-activity predictor based on suffix frequency tables.

For every prefix suffix up to a maximum order the model keeps a frequency
table over next activities. The tables live in a suffix trie: node 0 is the
empty suffix (the global table), and each child adds the activity one step
further back, so ``counts[n]`` holds the table of the suffix spelled by the
path to node ``n``. Prediction walks back from the end of the prefix, at
most ``max_order`` activities, and uses the deepest stored suffix it
reaches; the empty suffix is always stored, so prediction is total. That
back-off rule lives in one place, :meth:`PrefixTreeModel._matches`, which
walks many keys in one go for :func:`logsample.metrics.evaluate`. The
predicted label is the argmax of that table's raw counts
(:meth:`PrefixTreeModel.argmax`, which also serves
:func:`logsample.metrics.evaluate`); the smoothing in
:meth:`PrefixTreeModel.distribution` is uniform, so it would pick the same
label. Seed-free and deterministic, which keeps accuracy comparisons between
full and sampled training sets exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ConfigurationError, TrainingError
from .features import END_MARKER, FeatureRows

Suffix = tuple[str, ...]


def _label_order(labels: Iterable[str]) -> tuple[str, ...]:
    # activities alphabetically, end-of-case marker last
    plain = sorted(l for l in labels if l != END_MARKER)
    if END_MARKER in labels:
        return (*plain, END_MARKER)
    return tuple(plain)


@dataclass(frozen=True, eq=False)
class PrefixTreeModel:
    """A suffix trie of frequency tables; the empty suffix is the fallback.

    ``counts`` and ``children`` are indexed by node id. ``children[n]`` maps
    the activity one step further back to the child's id. A node whose
    suffix is only a step on the way to a longer one has empty counts. The
    lists hold only ``{str: int}`` dicts, which the cyclic garbage collector
    never tracks. Models have no value equality; compare :meth:`to_dict`.
    """

    max_order: int
    smoothing: float
    labels: tuple[str, ...]
    counts: list[dict[str, int]]
    children: list[dict[str, int]]

    @property
    def tables(self) -> dict[Suffix, dict[str, int]]:
        """Each stored suffix with its counts, flattened from the trie."""
        found = {}
        stack = [((), 0)]
        while stack:
            suffix, node = stack.pop()
            if self.counts[node]:
                found[suffix] = self.counts[node]
            stack.extend(((a, *suffix), child) for a, child in self.children[node].items())
        return found

    @cached_property
    def _rank(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def _matches(self, keys: Iterable[Sequence[str]]) -> Iterator[int]:
        """The node of the longest stored suffix of each key, in order.

        This is the back-off rule of every prediction. Each key is a prefix
        already cut to its last max_order activities; its walk goes back
        from its end, passing over nodes without counts, and the root, the
        always-present empty suffix, ends every miss.
        """
        counts, children = self.counts, self.children
        for key in keys:
            node = found = 0
            for activity in reversed(key):
                node = children[node].get(activity)
                if node is None:
                    break
                if counts[node]:
                    found = node
            yield found

    def _node(self, prefix: Sequence[str]) -> int:
        """The node a prefix backs off to: :meth:`_matches` of its last max_order activities."""
        return next(self._matches((prefix[max(len(prefix) - self.max_order, 0) :],)))

    def distribution(self, prefix: Sequence[str]) -> dict[str, float]:
        """Smoothed next-activity distribution for a prefix."""
        table = self.counts[self._node(prefix)]
        total = sum(table.values()) + self.smoothing * len(self.labels)
        return {
            label: (table.get(label, 0) + self.smoothing) / total
            for label in self.labels
        }

    def argmax(self, node: int) -> str:
        """The label with the largest count at a node that has counts.

        Ties go to the earliest label in alphabet order (end marker last).
        """
        table = self.counts[node]
        if len(table) == 1:
            return next(iter(table))
        top = max(table.values())
        tied = [label for label, count in table.items() if count == top]
        return tied[0] if len(tied) == 1 else min(tied, key=self._rank.__getitem__)

    def predict(self, prefix: Sequence[str]) -> str:
        """Most likely next activity: the argmax of :meth:`distribution`."""
        return self.argmax(self._node(prefix))

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "smoothing": self.smoothing,
            "labels": list(self.labels),
            "tables": [
                {"suffix": list(suffix), "counts": counts}
                for suffix, counts in sorted(self.tables.items())
            ],
        }


def train(
    rows: FeatureRows, max_order: int = 5, smoothing: float = 0.01
) -> PrefixTreeModel:
    """Count suffix -> next-activity transitions for all orders 0..max_order.

    Each row walks back from its cut at most max_order activities, one trie
    step per activity, counting its target at each node.
    """
    if max_order < 0:
        raise TrainingError(f"max_order must be >= 0, got {max_order}")
    if not (smoothing >= 0 and math.isfinite(smoothing)):
        raise TrainingError(f"smoothing must be finite and >= 0, got {smoothing}")

    sequences = rows.sequences
    root: dict[str, int] = {}
    counts = [root]
    children: list[dict[str, int]] = [{}]
    last = None
    for number, cut in zip(rows.numbers, rows.cuts):
        if number != last:  # the rows of a case share one sequence: reverse it once
            sequence = sequences[number]
            last, length, backwards = number, len(sequence), sequence[::-1]
        target = sequence[cut]
        root[target] = root.get(target, 0) + 1
        node = 0
        start = length - cut  # backwards[start] is sequence[cut - 1]
        for activity in backwards[start : start + max_order]:
            kids = children[node]
            node = kids.get(activity, 0)  # 0, the root, is nobody's child
            if node:
                table = counts[node]
                table[target] = table.get(target, 0) + 1
            else:
                node = kids[activity] = len(counts)
                counts.append({target: 1})
                children.append({})
    if not root:
        raise TrainingError("cannot train on an empty feature set")

    return PrefixTreeModel(
        max_order=max_order,
        smoothing=smoothing,
        labels=_label_order(root),
        counts=counts,
        children=children,
    )


def save_model(model: PrefixTreeModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2), encoding="utf-8")


def load_model(path: str | Path) -> PrefixTreeModel:
    """Read a model written by :func:`save_model`.

    Raises ConfigurationError naming the file when it is not UTF-8 JSON, or
    not an object whose fields have the shape save_model writes: distinct
    labels, and tables of distinct suffixes no longer than max_order that
    each count some of them, every count positive. Each table is checked as
    it goes into the trie: a node that already has counts is a repeated
    suffix, and a root left without counts means the empty suffix is missing.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"model file {path} must hold a JSON object, got {type(data).__name__}"
        )
    not_a_model = ConfigurationError(
        f"model file {path} is not a model: it needs an integer max_order >= 0, a"
        " finite number smoothing >= 0, a list of distinct labels and a tables list that"
        " holds the empty suffix and no suffix twice or longer than max_order, each table"
        " counting some of those labels with positive integers"
    )
    labels, tables = data.get("labels"), data.get("tables")
    if not (
        type(data.get("max_order")) is int
        and data["max_order"] >= 0
        and type(data.get("smoothing")) in (int, float)
        and data["smoothing"] >= 0
        and math.isfinite(data["smoothing"])
        and isinstance(labels, list)
        and all(isinstance(label, str) for label in labels)
        and len(set(labels)) == len(labels)
        and isinstance(tables, list)
    ):
        raise not_a_model
    known = set(labels)
    counts: list[dict[str, int]] = [{}]
    children: list[dict[str, int]] = [{}]
    for entry in tables:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("suffix"), list)
            and all(isinstance(activity, str) for activity in entry["suffix"])
            and len(entry["suffix"]) <= data["max_order"]
            and isinstance(entry.get("counts"), dict)
            and len(entry["counts"]) > 0
            and entry["counts"].keys() <= known
            and all(type(count) is int and count > 0 for count in entry["counts"].values())
        ):
            raise not_a_model
        node = 0
        for activity in reversed(entry["suffix"]):
            child = children[node].get(activity)
            if child is None:
                child = children[node][activity] = len(counts)
                counts.append({})
                children.append({})
            node = child
        if counts[node]:
            raise not_a_model
        counts[node] = dict(entry["counts"])
    if not counts[0]:
        raise not_a_model
    labels = _label_order(labels)  # predict breaks ties by this order, not the file's
    return PrefixTreeModel(data["max_order"], data["smoothing"], labels, counts, children)
