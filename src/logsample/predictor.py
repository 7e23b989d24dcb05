"""Deterministic next-activity predictor based on suffix frequency tables.

For every prefix suffix up to a maximum order the model keeps a frequency
table over next activities. Prediction walks from the longest matching
suffix down to the empty suffix (the global table), so it is total. The
predicted label is the argmax of that table's raw counts; the smoothing in
:meth:`PrefixTreeModel.distribution` is uniform, so it would pick the same
label. Seed-free and deterministic, which keeps accuracy comparisons between
full and sampled training sets exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigurationError, TrainingError
from .features import END_MARKER, FeatureRow

Suffix = tuple[str, ...]


def _label_order(labels: Iterable[str]) -> tuple[str, ...]:
    # activities alphabetically, end-of-case marker last
    plain = sorted(l for l in labels if l != END_MARKER)
    if END_MARKER in labels:
        return (*plain, END_MARKER)
    return tuple(plain)


@dataclass(frozen=True)
class PrefixTreeModel:
    """Suffix-keyed frequency tables; the empty suffix is the fallback."""

    max_order: int
    smoothing: float
    labels: tuple[str, ...]
    tables: dict[Suffix, dict[str, int]]

    @property
    def fallback(self) -> dict[str, int]:
        return self.tables[()]

    @cached_property
    def _rank(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def _argmax(self) -> dict[Suffix, str]:
        # predicted label per matched suffix, filled by predict; never serialised
        return {}

    def _match(self, prefix: Sequence[str]) -> tuple[Suffix, dict[str, int]]:
        """The longest stored suffix of the prefix and its counts.

        Tries at most max_order activities, down to the always-present empty
        suffix.
        """
        prefix = tuple(prefix)
        for order in range(min(self.max_order, len(prefix)), 0, -1):
            suffix = prefix[len(prefix) - order :]
            found = self.tables.get(suffix)
            if found is not None:
                return suffix, found
        return (), self.fallback

    def distribution(self, prefix: Sequence[str]) -> dict[str, float]:
        """Smoothed next-activity distribution for a prefix."""
        _, table = self._match(prefix)
        total = sum(table.values()) + self.smoothing * len(self.labels)
        return {
            label: (table.get(label, 0) + self.smoothing) / total
            for label in self.labels
        }

    def predict(self, prefix: Sequence[str]) -> str:
        """Most likely next activity: the argmax of :meth:`distribution`.

        Ties go to the earliest label in alphabet order (end marker last).
        The label is computed once per matched suffix and then memoised.
        """
        suffix, table = self._match(prefix)
        memo = self._argmax
        label = memo.get(suffix)
        if label is None:
            rank = self._rank
            label = memo[suffix] = max(table, key=lambda l: (table[l], -rank[l]))
        return label

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

    @classmethod
    def from_dict(cls, data: dict) -> "PrefixTreeModel":
        return cls(
            max_order=data["max_order"],
            smoothing=data["smoothing"],
            labels=tuple(data["labels"]),
            tables={
                tuple(entry["suffix"]): dict(entry["counts"])
                for entry in data["tables"]
            },
        )


def train(
    rows: Iterable[FeatureRow], max_order: int = 5, smoothing: float = 0.01
) -> PrefixTreeModel:
    """Count suffix -> next-activity transitions for all orders 0..max_order."""
    if max_order < 0:
        raise TrainingError(f"max_order must be >= 0, got {max_order}")
    if smoothing < 0:
        raise TrainingError(f"smoothing must be >= 0, got {smoothing}")

    tables: dict[Suffix, dict[str, int]] = {(): {}}
    targets: set[str] = set()
    n = 0
    for sequence, cut, _ in rows:
        n += 1
        target = sequence[cut]
        targets.add(target)
        for order in range(0, min(max_order, cut) + 1):
            suffix = sequence[cut - order : cut]
            table = tables.setdefault(suffix, {})
            table[target] = table.get(target, 0) + 1
    if n == 0:
        raise TrainingError("cannot train on an empty feature set")

    return PrefixTreeModel(
        max_order=max_order,
        smoothing=smoothing,
        labels=_label_order(targets),
        tables=tables,
    )


def save_model(model: PrefixTreeModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2), encoding="utf-8")


def _is_table(entry, labels: set[str]) -> bool:
    """Whether a model file's table entry has the shape save_model writes."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("suffix"), list)
        and all(isinstance(activity, str) for activity in entry["suffix"])
        and isinstance(entry.get("counts"), dict)
        and entry["counts"].keys() <= labels
        and all(type(count) is int for count in entry["counts"].values())
    )


def load_model(path: str | Path) -> PrefixTreeModel:
    """Read a model written by :func:`save_model`.

    Raises ConfigurationError naming the file when it is not UTF-8 JSON, or
    not an object whose fields have the shape save_model writes.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"model file {path} must hold a JSON object, got {type(data).__name__}"
        )
    labels = data.get("labels")
    labels_ok = isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    known = set(labels) if labels_ok else set()
    tables = data.get("tables")
    if not (
        type(data.get("max_order")) is int
        and type(data.get("smoothing")) in (int, float)
        and labels_ok
        and isinstance(tables, list)
        and all(_is_table(entry, known) for entry in tables)
        and any(entry["suffix"] == [] for entry in tables)
    ):
        raise ConfigurationError(
            f"model file {path} is not a model: it needs an integer max_order, a number"
            " smoothing, a list of labels and a tables list that holds the empty suffix"
            " and counts only those labels"
        )
    return PrefixTreeModel.from_dict(data)
