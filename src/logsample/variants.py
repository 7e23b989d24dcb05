"""Variant partitioning and per-variant modal attribute values.

A variant is a distinct activity sequence; every case belongs to exactly one
variant. The index groups cases by variant and keeps, for each requested
attribute, the set of its most frequent values within each group (all ties,
numeric attributes included), which is what representative trace ranking
scores against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .log_model import CASE_SCOPE, CATEGORICAL, EVENT_SCOPE, EventLog

ActivitySeq = tuple[str, ...]


@dataclass(frozen=True)
class Variant:
    """A distinct activity sequence and the cases that follow it."""

    activities: ActivitySeq
    member_case_ids: tuple[str, ...]

    @property
    def frequency(self) -> int:
        return len(self.member_case_ids)


@dataclass(frozen=True)
class VariantIndex:
    """Variant partition of a log plus per-variant modal attribute values."""

    variants: tuple[Variant, ...]
    attributes: tuple[str, ...]
    modal_values: dict[ActivitySeq, dict[str, frozenset]]
    source_log: EventLog = field(repr=False)


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
    """Group cases by variant and find the given attributes' modal values per variant.

    ``attributes`` defaults to every categorical event attribute; pass an
    empty list to skip the attribute pass entirely. Event-scoped
    attributes pool one observation per event, case-scoped ones pool one per
    case.
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
    variants = tuple(Variant(seq, tuple(ids)) for seq, ids in ordered)

    modal_values: dict[ActivitySeq, dict[str, frozenset]] = {}
    for variant in variants:
        per_attr: dict[str, frozenset] = {}
        for name in attributes:
            spec = log.attribute_schema[name]
            values = []
            if spec.scope == CASE_SCOPE:
                for cid in variant.member_case_ids:
                    value = log.cases[cid].attributes.get(name)
                    if value is not None:
                        values.append(value)
            else:
                for cid in variant.member_case_ids:
                    for ev in log.cases[cid].events:
                        value = ev.attributes.get(name)
                        if value is not None:
                            values.append(value)
            per_attr[name] = _modal(values)
        modal_values[variant.activities] = per_attr

    return VariantIndex(
        variants=variants,
        attributes=tuple(attributes),
        modal_values=modal_values,
        source_log=log,
    )
