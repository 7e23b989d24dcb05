"""Shared builders for synthetic event logs used across the test suite."""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timedelta, timezone
from random import Random

from logsample.features import FeatureRow
from logsample.log_model import (
    CATEGORICAL,
    EVENT_SCOPE,
    AttributeSpec,
    Event,
    EventLog,
    build_log,
)

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


def feature_row(prefix, target: str, case_id: str = "x") -> FeatureRow:
    """The row that predicts ``target`` after ``prefix``, as a view of ``(*prefix, target)``."""
    prefix = tuple(prefix)
    return FeatureRow((*prefix, target), len(prefix), case_id)


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
    events = []
    case_attributes = {}
    case_n = 0
    hour = timedelta(hours=1)
    minute_offsets = [timedelta(minutes=j) for j in range(64)]
    case_start = start
    for activities, freq in variant_freqs:
        for _ in range(freq):
            cid = f"c{case_n:06d}"
            for j, act in enumerate(activities):
                if j == 0:
                    ts = case_start
                else:
                    off = minute_offsets[j] if j < 64 else timedelta(minutes=j)
                    ts = case_start + off
                attrs = event_attrs(case_n, j) if event_attrs else {}
                events.append(Event(cid, act, ts, attrs))
            if case_attrs:
                case_attributes[cid] = case_attrs(case_n)
            case_n += 1
            case_start = case_start + hour
    return build_log(events, case_attributes, schema)


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
