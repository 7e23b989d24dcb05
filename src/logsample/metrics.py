"""Accuracy bookkeeping and the ratio metrics used by the benchmark.

Accuracy is reported two ways: overall accuracy, the exact share of
correct predictions and the benchmark's headline number, and balanced
accuracy (unweighted mean recall per class).
The ratio metrics compare a sampled-training run against the full-training
baseline: relative accuracy, feature-extraction speedup, and training
speedup.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Protocol

from .errors import EvaluationError, UndefinedRatioError
from .features import FeatureRow


class SequencePredictor(Protocol):
    # how many trailing activities predict reads at most
    max_order: int

    def predict(self, prefix) -> str: ...


class TestRows(tuple[FeatureRow, ...]):
    """One test fold's feature rows, with their (key, target) counts per horizon.

    The key of a row is its prefix cut to the last ``horizon`` activities;
    a horizon at least as long as the prefix keeps all of it. Every model
    scored on the fold shares the counts of its horizon, so each horizon is
    counted once.
    """

    @cached_property
    def _pairs(self) -> dict[int, Counter]:
        return {}

    def pairs(self, horizon: int) -> Counter:
        counts = self._pairs.get(horizon)
        if counts is None:
            keys = (
                (sequence[max(cut - horizon, 0) : cut], sequence[cut])
                for sequence, cut, _ in self
            )
            counts = self._pairs[horizon] = Counter(keys)
        return counts


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


def evaluate(model: SequencePredictor, test_rows: Iterable[FeatureRow]) -> EvaluationResult:
    """Score a predictor on test rows.

    Targets never seen in training simply form their own class with zero
    correct predictions. Rows are grouped by their prefix cut to the model's
    ``max_order``; each group's key is predicted once and counts for every
    row in it. Pass a :class:`TestRows` to reuse its counts across models.
    """
    fold = test_rows if isinstance(test_rows, TestRows) else TestRows(test_rows)
    if not fold:
        raise EvaluationError("cannot evaluate on an empty test set")
    pairs = fold.pairs(model.max_order)
    predicted = {key: model.predict(key) for key in dict.fromkeys(k for k, _ in pairs)}

    counts: dict[str, list[int]] = {}
    for (key, target), rows in pairs.items():
        tally = counts.setdefault(target, [0, 0])
        tally[0] += rows
        if predicted[key] == target:
            tally[1] += rows
    n = pairs.total()

    per_class = {label: ClassTally(s, c) for label, (s, c) in sorted(counts.items())}
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
