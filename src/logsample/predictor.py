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

from .errors import TrainingError
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

    def _table(self, prefix: Sequence[str]) -> dict[str, int]:
        """Counts of the longest stored suffix of the prefix.

        Tries at most max_order activities, down to the always-present empty
        suffix.
        """
        prefix = tuple(prefix)
        for order in range(min(self.max_order, len(prefix)), 0, -1):
            found = self.tables.get(prefix[len(prefix) - order :])
            if found is not None:
                return found
        return self.fallback

    def distribution(self, prefix: Sequence[str]) -> dict[str, float]:
        """Smoothed next-activity distribution for a prefix."""
        table = self._table(prefix)
        total = sum(table.values()) + self.smoothing * len(self.labels)
        return {
            label: (table.get(label, 0) + self.smoothing) / total
            for label in self.labels
        }

    def predict(self, prefix: Sequence[str]) -> str:
        """Most likely next activity: the argmax of :meth:`distribution`.

        Ties go to the earliest label in alphabet order (end marker last).
        """
        table = self._table(prefix)
        rank = self._rank
        return max(table, key=lambda label: (table[label], -rank[label]))

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
    for row in rows:
        n += 1
        targets.add(row.target)
        prefix = row.prefix
        for order in range(0, min(max_order, len(prefix)) + 1):
            suffix = prefix[len(prefix) - order :]
            table = tables.setdefault(suffix, {})
            table[row.target] = table.get(row.target, 0) + 1
    if n == 0:
        raise TrainingError("cannot train on an empty feature set")

    return PrefixTreeModel(
        max_order=max_order,
        smoothing=smoothing,
        labels=_label_order(targets),
        tables=tables,
    )


def predict(model: PrefixTreeModel, prefix: Sequence[str]) -> str:
    """Module-level alias for :meth:`PrefixTreeModel.predict`."""
    return model.predict(prefix)


def save_model(model: PrefixTreeModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2), encoding="utf-8")


def load_model(path: str | Path) -> PrefixTreeModel:
    return PrefixTreeModel.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
