"""Accuracy bookkeeping and the ratio metrics used by the benchmark.

Accuracy is reported two ways: overall accuracy, the exact share of
correct predictions and the benchmark's headline number, and balanced
accuracy (unweighted mean recall per class).
A :class:`~logsample.predictor.PrefixTreeModel` is scored without asking
it row by row: the test fold's keys form a trie shaped like the model's
suffix trie, and :func:`evaluate` walks the two together, so every model
node that test keys back off to is asked for its prediction once.
The ratio metrics compare a sampled-training run against the full-training
baseline: relative accuracy, feature-extraction speedup, and training
speedup.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import EvaluationError, UndefinedRatioError
from .features import FeatureRow
from .predictor import PrefixTreeModel


class KeyTrie(NamedTuple):
    """The keys of one fold at one horizon, read newest activity first.

    Node 0 is the empty key; ``children[n]`` maps the activity one step
    further back to the child's id. ``ends[n]`` holds the ``{target: rows}``
    of the keys that end at node ``n``, and ``below[n]`` those of every key
    that ends at ``n`` or under it, so ``below[0]`` is the fold's support
    per class.
    """

    children: list[dict[str, int]]
    ends: list[dict[str, int]]
    below: list[dict[str, int]]


class TestRows(tuple[FeatureRow, ...]):
    """One test fold's feature rows and one key trie per horizon.

    The key of a row is its prefix cut to the last ``horizon`` activities;
    a horizon at least as long as the prefix keeps all of it. Every model
    scored on the fold shares the key trie of its horizon, so each horizon
    is built once; the (key, target) counts it is built from are not kept.
    """

    @cached_property
    def _tries(self) -> dict[int, KeyTrie]:
        return {}

    def trie(self, horizon: int) -> KeyTrie:
        """The fold's keys at ``horizon`` as a :class:`KeyTrie`."""
        trie = self._tries.get(horizon)
        if trie is None:
            trie = self._tries[horizon] = KeyTrie([{}], [{}], [{}])
            children, ends, below = trie
            support = below[0]
            pairs = (
                (sequence[max(cut - horizon, 0) : cut], sequence[cut]) for sequence, cut, _ in self
            )
            for (key, target), rows in Counter(pairs).items():
                support[target] = support.get(target, 0) + rows
                node = 0
                for activity in reversed(key):
                    kids = children[node]
                    node = kids.get(activity, 0)  # 0, the root, is nobody's child
                    if node:
                        tally = below[node]
                        tally[target] = tally.get(target, 0) + rows
                    else:
                        node = kids[activity] = len(children)
                        children.append({})
                        ends.append({})
                        below.append({target: rows})
                tally = ends[node]
                tally[target] = tally.get(target, 0) + rows
        return trie


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
    correct predictions. The fold's key trie at the model's ``max_order``
    is walked together with the model's suffix trie, carrying the deepest
    model node with counts, which is the node ``predict`` would match. Keys
    that end at a trie node are credited to the carried node, and so is the
    whole subtree under a key the model has no node for. Each credited model
    node's argmax is taken once. Pass a :class:`TestRows` to reuse its trie
    across models.
    """
    fold = test_rows if isinstance(test_rows, TestRows) else TestRows(test_rows)
    if not fold:
        raise EvaluationError("cannot evaluate on an empty test set")
    key_children, ends, below = fold.trie(model.max_order)
    counts, children = model.counts, model.children

    labels: dict[int, str] = {}  # the argmax of each credited model node
    correct: dict[str, int] = {}
    # (key node, the model node of the same suffix or None, deepest model node with counts so far)
    stack: list[tuple[int, int | None, int]] = [(0, 0, 0)]
    while stack:
        key_node, node, found = stack.pop()
        if node is None:  # the model stores no suffix this long: the whole subtree backs off
            tally = below[key_node]
        else:
            if counts[node]:
                found = node
            kids = children[node]
            for activity, key_child in key_children[key_node].items():
                stack.append((key_child, kids.get(activity), found))
            tally = ends[key_node]
            if not tally:
                continue
        label = labels.get(found)
        if label is None:
            label = labels[found] = model.argmax(found)
        hits = tally.get(label)
        if hits:
            correct[label] = correct.get(label, 0) + hits

    support = below[0]
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
