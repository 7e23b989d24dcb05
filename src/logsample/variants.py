"""Variant partitioning and per-variant attribute distributions.

A variant is a distinct activity sequence; every case belongs to exactly one
variant. The index groups cases by variant and summarises the requested
attributes within each group, which is what representative trace ranking
scores against.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .log_model import CASE_SCOPE, CATEGORICAL, EVENT_SCOPE, EventLog, NUMERIC

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
class DistributionSummary:
    """Value statistics of one attribute within one variant.

    Categorical summaries keep raw value counts; numeric summaries keep mean
    and median. Both keep the set of most frequent values (all ties), which
    is what representative scoring matches observations against.
    """

    kind: str
    modal_values: frozenset
    value_frequencies: dict | None = None
    mean: float | None = None
    median: float | None = None
    observations: int = 0


@dataclass(frozen=True)
class VariantIndex:
    """Variant partition of a log plus per-variant attribute summaries."""

    variants: tuple[Variant, ...]
    total_cases: int
    attributes: tuple[str, ...]
    distributions: dict[ActivitySeq, dict[str, DistributionSummary]]
    source_log: EventLog = field(repr=False)


def _summarise(kind: str, values: list) -> DistributionSummary:
    counts = Counter(values)
    if counts:
        top = max(counts.values())
        modal = frozenset(v for v, c in counts.items() if c == top)
    else:
        modal = frozenset()
    if kind == NUMERIC and values:
        return DistributionSummary(
            kind=kind,
            modal_values=modal,
            mean=statistics.fmean(values),
            median=float(statistics.median(values)),
            observations=len(values),
        )
    return DistributionSummary(
        kind=kind,
        modal_values=modal,
        value_frequencies=dict(counts),
        observations=len(values),
    )


def default_attributes(log: EventLog) -> list[str]:
    """All categorical event attributes, the fallback when none are named."""
    return sorted(
        name
        for name, spec in log.attribute_schema.items()
        if spec.scope == EVENT_SCOPE and spec.kind == CATEGORICAL
    )


def build_variant_index(log: EventLog, attributes: list[str] | None = None) -> VariantIndex:
    """Group cases by variant and summarise the given attributes per variant.

    ``attributes`` defaults to every categorical event attribute; pass an
    empty list to skip distribution computation entirely. Event-scoped
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

    distributions: dict[ActivitySeq, dict[str, DistributionSummary]] = {}
    for variant in variants:
        per_attr: dict[str, DistributionSummary] = {}
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
            per_attr[name] = _summarise(spec.kind, values)
        distributions[variant.activities] = per_attr

    return VariantIndex(
        variants=variants,
        total_cases=log.num_cases,
        attributes=tuple(attributes),
        distributions=distributions,
        source_log=log,
    )
