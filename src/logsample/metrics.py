"""Accuracy bookkeeping and the ratio metrics used by the benchmark.

Accuracy is reported two ways: overall accuracy, the exact share of
correct predictions and the benchmark's headline number, and balanced
accuracy (unweighted mean recall per class).
A :class:`~logsample.predictor.PrefixTreeModel` is scored without asking
it row by row: the test rows group themselves by key
(:meth:`~logsample.features.FeatureRows.keys`), and :func:`evaluate` matches
all the distinct keys in one walk through the model's own back-off rule
(:meth:`~logsample.predictor.PrefixTreeModel._matches`), so every model
node that test keys back off to is asked for its prediction once.
The ratio metrics compare a sampled-training run against the full-training
baseline: relative accuracy, feature-extraction speedup, and training
speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EvaluationError, UndefinedRatioError
from .features import FeatureRows
from .predictor import PrefixTreeModel


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


def evaluate(model: PrefixTreeModel, test_rows: FeatureRows) -> EvaluationResult:
    """Score a model on test rows.

    Targets never seen in training simply form their own class with zero
    correct predictions. The rows are grouped by their key at the model's
    ``max_order`` (:meth:`~logsample.features.FeatureRows.keys`, kept on the
    rows, so models scored on the same rows share it). Those keys are at most
    ``max_order`` long, so they go straight to one
    :meth:`~logsample.predictor.PrefixTreeModel._matches` walk, which yields
    for each the node ``predict`` would back off to; a node's argmax is taken
    once however many keys match it.
    """
    if not test_rows:
        raise EvaluationError("cannot evaluate on an empty test set")
    labels: dict[int, str] = {}  # the argmax of each matched model node
    correct: dict[str, int] = {}
    grouped = test_rows.keys(model.max_order)
    for tally, node in zip(grouped.values(), model._matches(grouped)):
        label = labels.get(node)
        if label is None:
            label = labels[node] = model.argmax(node)
        hits = tally.get(label)
        if hits:
            correct[label] = correct.get(label, 0) + hits

    support = test_rows.support
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
