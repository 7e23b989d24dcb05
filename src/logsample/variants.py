"""Variant partitioning and per-variant modal attribute values.

A variant is a distinct activity sequence; every case belongs to exactly one
variant. The index groups cases by variant and keeps, for each requested
attribute, the set of its most frequent values within each group (all ties,
numeric attributes included). It scores every case by how many of its own
observations hit those sets; representative trace ranking sorts by that score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .log_model import CASE_SCOPE, CATEGORICAL, EVENT_SCOPE, EventLog

ActivitySeq = tuple[str, ...]


@dataclass(frozen=True)
class Variant:
    """A distinct activity sequence and the cases that follow it, in case-id order."""

    activities: ActivitySeq
    member_case_ids: tuple[str, ...]

    @property
    def frequency(self) -> int:
        return len(self.member_case_ids)


@dataclass(frozen=True)
class VariantIndex:
    """Variant partition of a log, per-variant modal attribute values and case scores.

    ``scores`` maps a case id to the number of its observations, over every
    named attribute, that hit its variant's modal set; it is empty when the
    index has no attributes.
    """

    variants: tuple[Variant, ...]
    attributes: tuple[str, ...]
    modal_values: dict[ActivitySeq, dict[str, frozenset]]
    source_log: EventLog = field(repr=False)
    scores: dict[str, int] = field(repr=False)


def _modal(values: list) -> frozenset:
    """The most frequent values, all ties kept; empty when there are none."""
    counts = Counter(values)
    top = max(counts.values(), default=0)
    return frozenset(v for v, c in counts.items() if c == top)


def default_attributes(log: EventLog) -> list[str]:
    """All categorical event attributes, the fallback when none are named."""
    return sorted(
        name
        for name, spec in log.attribute_schema.items()
        if spec.scope == EVENT_SCOPE and spec.kind == CATEGORICAL
    )


def build_variant_index(log: EventLog, attributes: list[str] | None = None) -> VariantIndex:
    """Group cases by variant, find the attributes' modal values and score each case.

    ``attributes`` defaults to every categorical event attribute; pass an
    empty list to skip the attribute pass entirely. Event-scoped
    attributes pool one observation per event, case-scoped ones pool one per
    case; a missing value is no observation. An attribute named twice counts
    twice in the scores.
    """
    if attributes is None:
        attributes = default_attributes(log)
    for name in attributes:
        if name not in log.attribute_schema:
            raise ConfigurationError(f"unknown attribute {name!r}")

    members: dict[ActivitySeq, list[str]] = {}
    for cid, case in log.cases.items():
        members.setdefault(case.trace, []).append(cid)

    ordered = sorted(members.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    variants = tuple(Variant(seq, tuple(sorted(ids))) for seq, ids in ordered)

    modal_values: dict[ActivitySeq, dict[str, frozenset]] = {}
    scores = dict.fromkeys(log.cases, 0) if attributes else {}
    for variant in variants:
        cases = [log.cases[cid] for cid in variant.member_case_ids]
        per_attr: dict[str, frozenset] = {}
        for name in attributes:
            # each member's observations, read once: pooled for the modal set, then scored
            if log.attribute_schema[name].scope == CASE_SCOPE:
                observed = [[case.attributes.get(name)] for case in cases]
            else:
                observed = [case.event_attributes.get(name, ()) for case in cases]
            modal = per_attr[name] = _modal(
                [value for values in observed for value in values if value is not None]
            )
            for cid, values in zip(variant.member_case_ids, observed):
                scores[cid] += sum(map(modal.__contains__, values))
        modal_values[variant.activities] = per_attr

    return VariantIndex(
        variants=variants,
        attributes=tuple(attributes),
        modal_values=modal_values,
        source_log=log,
        scores=scores,
    )
