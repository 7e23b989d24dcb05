"""Accuracy bookkeeping and the ratio metrics used by the benchmark.

Accuracy is reported two ways: overall accuracy, the exact share of
correct predictions and the benchmark's headline number, and balanced
accuracy (unweighted mean recall per class).
The ratio metrics compare a sampled-training run against the full-training
baseline: relative accuracy, feature-extraction speedup, and training
speedup.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from .errors import EvaluationError, UndefinedRatioError
from .features import FeatureRow


class SequencePredictor(Protocol):
    def predict(self, prefix) -> str: ...


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
    correct predictions. Each distinct prefix is predicted once and counts
    for every row that shares it.
    """
    pairs = Counter((sequence[:cut], sequence[cut]) for sequence, cut, _ in test_rows)
    if not pairs:
        raise EvaluationError("cannot evaluate on an empty test set")
    predicted = {prefix: model.predict(prefix) for prefix in dict.fromkeys(p for p, _ in pairs)}

    counts: dict[str, list[int]] = {}
    for (prefix, target), rows in pairs.items():
        tally = counts.setdefault(target, [0, 0])
        tally[0] += rows
        if predicted[prefix] == target:
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


@dataclass
class Stopwatch:
    """Monotonic timer wrapping exactly one operation.

    >>> with Stopwatch() as watch:
    ...     work()
    >>> watch.seconds
    """

    seconds: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
