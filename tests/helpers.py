"""Shared builders for synthetic event logs used across the test suite."""

from __future__ import annotations

from array import array
from collections import Counter
from datetime import datetime, timedelta, timezone
from random import Random

from logsample.features import FeatureRows
from logsample.log_model import (
    CATEGORICAL,
    EVENT_SCOPE,
    AttributeSpec,
    Case,
    Event,
    EventLog,
    build_log,
)

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def feature_rows(specs) -> FeatureRows:
    """One row per ``(prefix, target, case_id)`` spec, in order.

    Each spec gets its own sequence ``(*prefix, target)``, cut before the
    target, so no two rows share a sequence entry.
    """
    specs = [(tuple(prefix), target, case_id) for prefix, target, case_id in specs]
    return FeatureRows(
        [(*prefix, target) for prefix, target, _ in specs],
        [case_id for _, _, case_id in specs],
        array("q", range(len(specs))),
        array("q", [len(prefix) for prefix, _, _ in specs]),
    )


def pick_rows(rows: FeatureRows, positions) -> FeatureRows:
    """The rows at ``positions``, in that order, over the same sequences."""
    positions = list(positions)
    return FeatureRows(
        rows.sequences,
        rows.case_ids,
        array("q", [rows.numbers[i] for i in positions]),
        array("q", [rows.cuts[i] for i in positions]),
    )


def count_groupings(monkeypatch) -> list[int]:
    """Spy on ``FeatureRows.keys``: the list gains each horizon a call groups anew.

    A grouping adds one entry to the rows' ``_groups``, so the spy counts the
    entries each call adds, whatever the grouping calls inside.
    """
    grouped = []
    keys = FeatureRows.keys

    def spy(rows: FeatureRows, horizon: int):
        before = set(rows._groups)
        result = keys(rows, horizon)
        grouped.extend(rows._groups.keys() - before)
        return result

    monkeypatch.setattr(FeatureRows, "keys", spy)
    return grouped


def log_from_variants(
    variant_freqs,
    event_attrs=None,
    case_attrs=None,
    schema=None,
    start=T0,
) -> EventLog:
    """Build a log from (activity sequence, frequency) pairs.

    Case ids are c000000, c000001, ... in spec order; case n starts n hours
    after ``start`` and its events are a minute apart, so arrival order
    equals case-id order.
    """
    cases = {}
    case_attributes = {}
    case_n = 0
    hour = timedelta(hours=1)
    minute_offsets = [timedelta(minutes=j) for j in range(64)]
    case_start = start
    for activities, freq in variant_freqs:
        for _ in range(freq):
            cid = f"c{case_n:06d}"
            events = cases[cid] = []
            for j, act in enumerate(activities):
                if j == 0:
                    ts = case_start
                else:
                    off = minute_offsets[j] if j < 64 else timedelta(minutes=j)
                    ts = case_start + off
                attrs = event_attrs(case_n, j) if event_attrs else {}
                events.append(Event(act, ts, attrs))
            if case_attrs:
                case_attributes[cid] = case_attrs(case_n)
            case_n += 1
            case_start = case_start + hour
    return build_log(cases, case_attributes, schema)


def event_rows(case: Case) -> list[tuple[str, datetime, dict]]:
    """Each event of a case, read off its columns: activity, UTC-aware timestamp, attributes held.

    For oracles that compare logs event by event; an event holds the names
    whose value for it is not None.
    """
    stamps = [EPOCH + timedelta(milliseconds=ms) for ms in case.timestamps]
    held = [{} for _ in case.trace]
    for name, column in case.event_attributes.items():
        for attributes, value in zip(held, column):
            if value is not None:
                attributes[name] = value
    return list(zip(case.trace, stamps, held))


def trace_counts(log: EventLog) -> Counter:
    """Multiset of the log's case activity sequences (attributes discarded)."""
    return Counter(case.trace for case in log.cases.values())


def resource_schema():
    return {"resource": AttributeSpec(CATEGORICAL, EVENT_SCOPE)}


def random_variant_freqs(rnd: Random, max_variants=50, max_freq=100, max_len=4):
    """Distinct random activity sequences with random frequencies."""
    n = rnd.randint(1, max_variants)
    alphabet = "abcdefghij"
    seqs = set()
    while len(seqs) < n:
        length = rnd.randint(1, max_len)
        seqs.add(tuple(rnd.choice(alphabet) for _ in range(length)))
    return [(seq, rnd.randint(1, max_freq)) for seq in sorted(seqs)]


def attributed_log(rnd: Random, **freqs) -> EventLog:
    """A log of random_variant_freqs whose events hold a random categorical resource.

    Every sorting ranks it, representative sorting included.
    """
    return log_from_variants(
        random_variant_freqs(rnd, **freqs),
        event_attrs=lambda n, j: {"resource": rnd.choice("xyz")},
        schema=resource_schema(),
    )


def skewed_log() -> EventLog:
    """Three variants with frequencies 900 / 90 / 10 (1000 cases)."""
    return log_from_variants(
        [
            (("a", "b", "c"), 900),
            (("a", "c"), 90),
            (("b", "c"), 10),
        ]
    )


def trend_log(rare_variants=20, dominant_freq=1700, rare_freq=15) -> EventLog:
    """One dominant variant plus many rare ones that disagree mid-trace.

    The rare variants share the activity q at position 3, so a model trained
    with the variant frequencies flattened (one trace each) flips its
    prediction after (a, b) from c to q and loses accuracy on the dominant
    behaviour.
    """
    freqs = [(("a", "b", "c", "d", "e"), dominant_freq)]
    for i in range(rare_variants):
        freqs.append((("a", "b", "q", "d", f"x{i:02d}"), rare_freq))
    return log_from_variants(freqs)
