"""Accuracy bookkeeping and the ratio metrics used by the benchmark.

Accuracy is reported two ways: overall accuracy, the exact share of
correct predictions and the benchmark's headline number, and balanced
accuracy (unweighted mean recall per class).
A :class:`~logsample.predictor.PrefixTreeModel` is scored without asking
it row by row: the test fold's rows are grouped by key, and :func:`evaluate`
matches each distinct key once through the model's own back-off rule, so
every model node that test keys back off to is asked for its prediction once.
The ratio metrics compare a sampled-training run against the full-training
baseline: relative accuracy, feature-extraction speedup, and training
speedup.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import EvaluationError, UndefinedRatioError
from .features import FeatureRow
from .predictor import PrefixTreeModel


class TestRows(tuple[FeatureRow, ...]):
    """One test fold's feature rows, grouped by key once per horizon.

    The key of a row is its prefix cut to the last ``horizon`` activities;
    a horizon at least as long as the prefix keeps all of it. Every model
    scored on the fold shares the grouping of its horizon, so each horizon
    is grouped once, and the fold's support per class is summed once.
    """

    @cached_property
    def _groups(self) -> dict[int, dict[tuple[str, ...], dict[str, int]]]:
        return {}

    def keys(self, horizon: int) -> dict[tuple[str, ...], dict[str, int]]:
        """The fold's rows at ``horizon`` as ``{key: {target: rows}}``."""
        groups = self._groups.get(horizon)
        if groups is None:
            groups = self._groups[horizon] = {}
            pairs = (
                (sequence[max(cut - horizon, 0) : cut], sequence[cut]) for sequence, cut, _ in self
            )
            for (key, target), rows in Counter(pairs).items():
                groups.setdefault(key, {})[target] = rows
        return groups

    @cached_property
    def _support(self) -> dict[str, int]:
        """Rows per class, summed over the first grouping built; read it after :meth:`keys`."""
        support: dict[str, int] = {}
        for tally in next(iter(self._groups.values())).values():
            for target, rows in tally.items():
                support[target] = support.get(target, 0) + rows
        return support


@dataclass(frozen=True)
class ClassTally:
    support: int
    correct: int

    @property
    def recall(self) -> float:
        return self.correct / self.support if self.support else 0.0


@dataclass(frozen=True)
class EvaluationResult:
    """Per-class tallies plus the two accuracy summaries."""

    per_class: dict[str, ClassTally]
    overall_accuracy: float
    balanced_accuracy: float
    n: int


def evaluate(model: PrefixTreeModel, test_rows: Iterable[FeatureRow]) -> EvaluationResult:
    """Score a model on test rows.

    Targets never seen in training simply form their own class with zero
    correct predictions. The fold's rows are grouped by their key at the
    model's ``max_order``; each distinct key is matched once by
    :meth:`~logsample.predictor.PrefixTreeModel._match`, the node ``predict``
    would back off to, and that node's argmax is taken once however many keys
    match it. Pass a :class:`TestRows` to reuse its grouping across models.
    """
    fold = test_rows if isinstance(test_rows, TestRows) else TestRows(test_rows)
    if not fold:
        raise EvaluationError("cannot evaluate on an empty test set")
    labels: dict[int, str] = {}  # the argmax of each matched model node
    correct: dict[str, int] = {}
    for key, tally in fold.keys(model.max_order).items():
        node = model._match(key)
        label = labels.get(node)
        if label is None:
            label = labels[node] = model.argmax(node)
        hits = tally.get(label)
        if hits:
            correct[label] = correct.get(label, 0) + hits

    support = fold._support
    per_class = {
        label: ClassTally(rows, correct.get(label, 0)) for label, rows in sorted(support.items())
    }
    n = sum(support.values())
    overall = sum(t.correct for t in per_class.values()) / n
    balanced = sum(t.recall for t in per_class.values()) / len(per_class)
    return EvaluationResult(per_class, overall, balanced, n)


def relative_accuracy(sampled: float, full: float) -> float:
    """Accuracy with sampled training data over accuracy with all of it."""
    if full <= 0:
        raise UndefinedRatioError(f"baseline accuracy must be positive, got {full}")
    return sampled / full


def speedup(full_seconds: float, sampled_seconds: float) -> float:
    """How many times faster the sampled run was."""
    if sampled_seconds <= 0:
        raise UndefinedRatioError(
            f"sampled duration must be positive, got {sampled_seconds}"
        )
    return full_seconds / sampled_seconds
