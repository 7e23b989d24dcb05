"""In-memory event log model plus CSV and XES parsers.

An event log is a set of cases, each owning a timestamp-ordered list of
events. Cases and events both carry free-form attribute maps; the log keeps
a per-attribute schema (kind and scope) so downstream statistics know
whether to count values or average them.
"""

from __future__ import annotations

import csv
import gzip
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import EmptyLogError, RowError, SchemaError, XesParseError

CATEGORICAL = "categorical"
NUMERIC = "numeric"
INSTANT = "instant"

EVENT_SCOPE = "event"
CASE_SCOPE = "case"


def parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into a UTC datetime at millisecond precision.

    Naive inputs are assumed to be UTC. Raises ValueError on anything that is
    not ISO-8601.
    """
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    else:
        dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=dt.microsecond // 1000 * 1000)


def format_instant(dt: datetime) -> str:
    """Render a datetime the way :func:`parse_instant` reads it back."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat(timespec="milliseconds")


@dataclass(frozen=True)
class AttributeSpec:
    """Declared kind and scope of one attribute."""

    kind: str  # categorical | numeric | instant
    scope: str  # event | case


# The model classes below are treated as immutable after construction;
# slots instead of frozen keeps bulk construction cheap on large logs.


@dataclass(slots=True)
class Event:
    """One recorded process step, owned by exactly one case."""

    event_id: str
    case_id: str
    activity: str
    timestamp: datetime
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class Case:
    """One process instance; event_ids are in trace (timestamp) order."""

    case_id: str
    event_ids: tuple[str, ...]
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass
class EventLog:
    """Event log: cases, events, alphabet, and attribute schema."""

    cases: Mapping[str, Case]
    events: Mapping[str, Event]
    activity_alphabet: frozenset[str]
    attribute_schema: Mapping[str, AttributeSpec] = field(default_factory=dict)

    @property
    def num_cases(self) -> int:
        return len(self.cases)

    @property
    def num_events(self) -> int:
        return len(self.events)

    def case_ids(self) -> list[str]:
        return list(self.cases)

    def trace(self, case_id: str) -> tuple[str, ...]:
        """Activity sequence of one case, in trace order."""
        case = self.cases[case_id]
        return tuple(self.events[eid].activity for eid in case.event_ids)

    def case_events(self, case_id: str) -> list[Event]:
        return [self.events[eid] for eid in self.cases[case_id].event_ids]

    def case_start(self, case_id: str) -> datetime:
        """Arrival time of a case = timestamp of its first event."""
        return self.events[self.cases[case_id].event_ids[0]].timestamp


@dataclass(slots=True)
class EventRecord:
    """Raw parsed event before assembly into a log."""

    case_id: str
    activity: str
    timestamp: datetime
    attributes: dict[str, object] = field(default_factory=dict)


def build_log(
    records: Sequence[EventRecord],
    case_attributes: Mapping[str, Mapping[str, object]] | None = None,
    schema: Mapping[str, AttributeSpec] | None = None,
) -> EventLog:
    """Assemble an EventLog from parsed event records.

    Events are grouped by case id in order of first appearance; within a case
    they are sorted by timestamp, ties keeping input order. Event ids are
    assigned sequentially in input order.
    """
    if not records:
        raise EmptyLogError("no events to assemble into a log")
    case_attributes = case_attributes or {}

    by_case: dict[str, list[tuple[datetime, int, str]]] = {}
    events: dict[str, Event] = {}
    alphabet: set[str] = set()
    for idx, rec in enumerate(records):
        if not rec.activity:
            raise ValueError(f"event {idx} of case {rec.case_id!r} has an empty activity")
        eid = f"e{idx}"
        events[eid] = Event(eid, rec.case_id, rec.activity, rec.timestamp, dict(rec.attributes))
        by_case.setdefault(rec.case_id, []).append((rec.timestamp, idx, eid))
        alphabet.add(rec.activity)

    cases: dict[str, Case] = {}
    for case_id, entries in by_case.items():
        entries.sort(key=lambda item: (item[0], item[1]))
        cases[case_id] = Case(
            case_id,
            tuple(eid for _, _, eid in entries),
            dict(case_attributes.get(case_id, {})),
        )

    return EventLog(cases, events, frozenset(alphabet), dict(schema or {}))


def subset_log(log: EventLog, case_ids: Iterable[str]) -> EventLog:
    """Sub-log holding exactly the given cases, untouched, in original order.

    Case and event objects are shared with the source log (both are
    immutable), so kept attribute values are identical by construction.
    """
    keep = set(case_ids)
    cases = {cid: case for cid, case in log.cases.items() if cid in keep}
    events: dict[str, Event] = {}
    alphabet: set[str] = set()
    for case in cases.values():
        for eid in case.event_ids:
            ev = log.events[eid]
            events[eid] = ev
            alphabet.add(ev.activity)
    return EventLog(cases, events, frozenset(alphabet), dict(log.attribute_schema))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnMapping:
    """Column roles for CSV parsing.

    Columns other than the three mandatory ones become attributes. Their kind
    may be declared in ``attribute_kinds``; undeclared columns are inferred
    (all-numeric values -> numeric, all-timestamp values -> instant,
    everything else -> categorical).
    """

    case_col: str = "case_id"
    activity_col: str = "activity"
    time_col: str = "timestamp"
    attribute_kinds: Mapping[str, str] = field(default_factory=dict)


def _infer_kind(values: list[str]) -> str:
    if not values:
        return CATEGORICAL
    try:
        for v in values:
            int(v)
        return NUMERIC
    except ValueError:
        pass
    try:
        for v in values:
            float(v)
        return NUMERIC
    except ValueError:
        pass
    try:
        for v in values:
            parse_instant(v)
        return INSTANT
    except ValueError:
        pass
    return CATEGORICAL


def _convert(value: str, kind: str):
    if kind == NUMERIC:
        try:
            return int(value)
        except ValueError:
            return float(value)
    if kind == INSTANT:
        return parse_instant(value)
    return value


def parse_csv(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """Parse a CSV event log (UTF-8 with or without a BOM, header row, RFC-4180 quoting).

    Raises SchemaError when a mandatory column is missing or a column name
    repeats, RowError with the line number for unusable rows (including rows
    with more fields than the header), and EmptyLogError when there are no
    data rows.
    """
    mapping = mapping or ColumnMapping()
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyLogError(f"{path}: file is empty") from None

        seen: set[str] = set()
        for name in header:
            if name in seen:
                raise SchemaError(f"{path}: duplicate column {name!r}")
            seen.add(name)

        for col in (mapping.case_col, mapping.activity_col, mapping.time_col):
            if col not in header:
                raise SchemaError(f"{path}: missing mandatory column {col!r}")
        case_idx = header.index(mapping.case_col)
        act_idx = header.index(mapping.activity_col)
        time_idx = header.index(mapping.time_col)
        attr_cols = [
            (i, name)
            for i, name in enumerate(header)
            if i not in (case_idx, act_idx, time_idx)
        ]

        raw_rows: list[tuple[str, str, datetime, dict[str, str]]] = []
        for row in reader:
            line = reader.line_num
            if not row or all(not cell for cell in row):
                continue
            if len(row) > len(header):
                raise RowError(f"{len(row)} fields, but the header has {len(header)}", line)
            if len(row) < len(header):
                row = row + [""] * (len(header) - len(row))
            case_id = row[case_idx].strip()
            activity = row[act_idx].strip()
            if not case_id:
                raise RowError("empty case id", line)
            if not activity:
                raise RowError("empty activity", line)
            try:
                ts = parse_instant(row[time_idx])
            except ValueError:
                raise RowError(
                    f"unparseable timestamp {row[time_idx]!r} in column {mapping.time_col!r}",
                    line,
                ) from None
            attrs = {name: row[i] for i, name in attr_cols if row[i] != ""}
            raw_rows.append((case_id, activity, ts, attrs))

    if not raw_rows:
        raise EmptyLogError(f"{path}: no data rows")

    # Kind per attribute column: declared wins, else inferred from all values.
    kinds: dict[str, str] = {}
    for _, name in attr_cols:
        declared = mapping.attribute_kinds.get(name)
        if declared is not None:
            if declared not in (CATEGORICAL, NUMERIC, INSTANT):
                raise SchemaError(f"unknown attribute kind {declared!r} for column {name!r}")
            kinds[name] = declared
        else:
            observed = [attrs[name] for _, _, _, attrs in raw_rows if name in attrs]
            kinds[name] = _infer_kind(observed)

    # A column is promoted to a case attribute when, in every case, it is
    # present on every row with one constant value.
    case_ids_in_order: list[str] = []
    rows_per_case: dict[str, list[dict[str, str]]] = {}
    for case_id, _, _, attrs in raw_rows:
        if case_id not in rows_per_case:
            case_ids_in_order.append(case_id)
            rows_per_case[case_id] = []
        rows_per_case[case_id].append(attrs)

    promoted: list[str] = []
    for _, name in attr_cols:
        constant = True
        seen_any = False
        for attr_rows in rows_per_case.values():
            values = {attrs.get(name) for attrs in attr_rows}
            if len(values) != 1 or None in values:
                constant = False
                break
            seen_any = True
        if constant and seen_any:
            promoted.append(name)

    records = []
    for case_id, activity, ts, attrs in raw_rows:
        event_attrs = {
            name: _convert(value, kinds[name])
            for name, value in attrs.items()
            if name not in promoted
        }
        records.append(EventRecord(case_id, activity, ts, event_attrs))

    case_attributes = {
        case_id: {
            name: _convert(attr_rows[0][name], kinds[name])
            for name in promoted
        }
        for case_id, attr_rows in rows_per_case.items()
    }

    schema = {
        name: AttributeSpec(kinds[name], CASE_SCOPE if name in promoted else EVENT_SCOPE)
        for _, name in attr_cols
        if any(name in attrs for _, _, _, attrs in raw_rows)
    }
    return build_log(records, case_attributes, schema)


def write_csv(log: EventLog, path: str | Path, mapping: ColumnMapping | None = None) -> None:
    """Write a log as CSV; parse_csv reads the result back structurally intact.

    Case attributes are replicated on every row of their case; absent event
    attributes become empty fields.
    """
    mapping = mapping or ColumnMapping()
    attr_names = sorted(
        {name for ev in log.events.values() for name in ev.attributes}
        | {name for case in log.cases.values() for name in case.attributes}
    )
    header = [mapping.case_col, mapping.activity_col, mapping.time_col, *attr_names]

    def render(value) -> str:
        if isinstance(value, datetime):
            return format_instant(value)
        return str(value)

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for case in log.cases.values():
            for eid in case.event_ids:
                ev = log.events[eid]
                row = [case.case_id, ev.activity, format_instant(ev.timestamp)]
                for name in attr_names:
                    if name in ev.attributes:
                        row.append(render(ev.attributes[name]))
                    elif name in case.attributes:
                        row.append(render(case.attributes[name]))
                    else:
                        row.append("")
                writer.writerow(row)


# ---------------------------------------------------------------------------
# XES
# ---------------------------------------------------------------------------

_XES_KINDS = {
    "string": CATEGORICAL,
    "id": CATEGORICAL,
    "boolean": CATEGORICAL,
    "int": NUMERIC,
    "float": NUMERIC,
    "date": INSTANT,
}


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _xes_value(elem: ET.Element, context: str):
    tag = _local_name(elem.tag)
    kind = _XES_KINDS.get(tag)
    if kind is None:
        return None, None  # unsupported (nested containers, extensions)
    key = elem.get("key")
    raw = elem.get("value")
    if key is None or raw is None:
        return None, None
    try:
        if tag == "int":
            return key, (kind, int(raw))
        if tag == "float":
            return key, (kind, float(raw))
        if tag == "date":
            return key, (kind, parse_instant(raw))
    except ValueError:
        raise XesParseError(f"{context}: bad {tag} value {raw!r} for key {key!r}") from None
    return key, (kind, raw)


def parse_xes(path: str | Path) -> EventLog:
    """Parse an XES file (plain or .gz): log -> trace -> event.

    ``concept:name`` supplies the case id on traces and the activity on
    events; ``time:timestamp`` supplies the event timestamp. Remaining
    string/int/float/date/boolean attributes are kept with their tag kinds.
    """
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            tree = ET.parse(fh)
    except ET.ParseError as exc:
        line, col = exc.position
        raise XesParseError(f"{path}: malformed XML at line {line}, column {col}") from None

    root = tree.getroot()
    records: list[EventRecord] = []
    case_attributes: dict[str, dict[str, object]] = {}
    schema: dict[str, AttributeSpec] = {}

    def note_schema(name: str, kind: str, scope: str) -> None:
        prev = schema.get(name)
        if prev is None:
            schema[name] = AttributeSpec(kind, scope)
        elif prev.kind != kind:
            # conflicting tags across elements: fall back to categorical
            schema[name] = AttributeSpec(CATEGORICAL, prev.scope)
        elif prev.scope != scope and scope == EVENT_SCOPE:
            schema[name] = AttributeSpec(prev.kind, EVENT_SCOPE)

    for t_idx, trace in enumerate(root.findall("{*}trace")):
        case_id = None
        trace_attrs: dict[str, object] = {}
        event_elems = []
        for child in trace:
            if _local_name(child.tag) == "event":
                event_elems.append(child)
                continue
            key, parsed = _xes_value(child, f"{path}: trace {t_idx}")
            if key is None:
                continue
            kind, value = parsed
            if key == "concept:name":
                case_id = str(value)
            else:
                trace_attrs[key] = value
                note_schema(key, kind, CASE_SCOPE)
        if case_id is None:
            case_id = f"case_{t_idx}"
        if not event_elems:
            raise XesParseError(f"{path}: trace {case_id!r} has no events")
        if case_id in case_attributes:
            raise XesParseError(f"{path}: duplicate case id {case_id!r}")
        case_attributes[case_id] = trace_attrs

        for e_idx, event in enumerate(event_elems):
            activity = None
            timestamp = None
            attrs: dict[str, object] = {}
            where = f"{path}: case {case_id!r} event {e_idx}"
            for child in event:
                key, parsed = _xes_value(child, where)
                if key is None:
                    continue
                kind, value = parsed
                if key == "concept:name":
                    activity = str(value)
                elif key == "time:timestamp":
                    if not isinstance(value, datetime):
                        value = parse_instant(str(value))
                    timestamp = value
                else:
                    attrs[key] = value
                    note_schema(key, kind, EVENT_SCOPE)
            if not activity:
                raise XesParseError(f"{where}: missing concept:name")
            if timestamp is None:
                raise XesParseError(f"{where}: missing time:timestamp")
            records.append(EventRecord(case_id, activity, timestamp, attrs))

    if not records:
        raise EmptyLogError(f"{path}: log has no traces")
    return build_log(records, case_attributes, schema)


def load_log(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """Dispatch on file suffix: .xes / .xes.gz -> XES, everything else -> CSV."""
    name = str(path)
    if name.endswith(".xes") or name.endswith(".xes.gz"):
        return parse_xes(path)
    return parse_csv(path, mapping)
