"""In-memory event log model plus CSV and XES parsers.

An event log is a set of cases, each owning a timestamp-ordered list of
events. Cases and events both carry free-form attribute maps; the log keeps
a per-attribute schema (kind and scope) so downstream statistics know
whether to count values or average them.
"""

from __future__ import annotations

import csv
import gc
import gzip
import math
import re
import xml.etree.ElementTree as ET
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import EmptyLogError, RowError, SchemaError, XesParseError

CATEGORICAL = "categorical"
NUMERIC = "numeric"
INSTANT = "instant"

EVENT_SCOPE = "event"
CASE_SCOPE = "case"


# Python 3.10 reads only 3- or 6-digit fractions of a second; 3.11 reads any
# number of digits and cuts them to microseconds.
_FRACTION = re.compile(r"(\d\d:\d\d:\d\d)[.,](\d+)")


def _six_digit_fraction(match: re.Match) -> str:
    return f"{match[1]}.{match[2][:6]:0<6}"


def parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into a UTC datetime at millisecond precision.

    Naive inputs are assumed to be UTC. Fractions of a second may have any
    number of digits; those beyond the millisecond are cut. Raises
    ValueError on anything that is not ISO-8601, or whose UTC time falls
    outside the years 1-9999.
    """
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        dt = datetime.fromisoformat(_FRACTION.sub(_six_digit_fraction, s, count=1))
    tz = dt.tzinfo
    if tz is None:
        dt = dt.replace(tzinfo=timezone.utc)
    elif tz is not timezone.utc:
        try:
            dt = dt.astimezone(timezone.utc)
        except OverflowError:
            raise ValueError(f"{text!r} is out of range in UTC") from None
    if dt.microsecond % 1000:
        dt = dt.replace(microsecond=dt.microsecond // 1000 * 1000)
    return dt


def format_instant(dt: datetime) -> str:
    """Render a datetime the way :func:`parse_instant` reads it back.

    Naive datetimes are taken as UTC. The result equals
    ``dt.astimezone(timezone.utc).isoformat(timespec="milliseconds")``.
    """
    tz = dt.tzinfo
    if tz is not None and tz is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03d+00:00" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second, dt.microsecond // 1000
    )


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

    case_id: str
    activity: str
    timestamp: datetime
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class Case:
    """One process instance: its events in timestamp order and their activities."""

    case_id: str
    events: list[Event]
    attributes: Mapping[str, object]
    trace: tuple[str, ...]


@dataclass
class EventLog:
    """Event log: cases (which own their events), alphabet, and attribute schema."""

    cases: Mapping[str, Case]
    activity_alphabet: frozenset[str]
    attribute_schema: Mapping[str, AttributeSpec] = field(default_factory=dict)

    @property
    def num_cases(self) -> int:
        return len(self.cases)

    @property
    def num_events(self) -> int:
        return sum(len(case.events) for case in self.cases.values())

    def trace(self, case_id: str) -> tuple[str, ...]:
        """Activity sequence of one case, in trace order."""
        return self.cases[case_id].trace


_activity = attrgetter("activity")
_timestamp = attrgetter("timestamp")


def _alphabet(cases: Iterable[Case]) -> frozenset[str]:
    return frozenset(chain.from_iterable(case.trace for case in cases))


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector for a bulk build.

    A log is millions of small acyclic objects: reference counting frees
    them, and the collector would only re-walk the growing heap every few
    hundred allocations.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def build_log(
    events: Sequence[Event],
    case_attributes: Mapping[str, Mapping[str, object]] | None = None,
    schema: Mapping[str, AttributeSpec] | None = None,
) -> EventLog:
    """Assemble an EventLog from parsed events, which the log then owns.

    Events are grouped by case id in order of first appearance; within a case
    they are sorted by timestamp, ties keeping input order. Raises RowError
    for an event with an empty activity.
    """
    if not events:
        raise EmptyLogError("no events to assemble into a log")
    case_attributes = case_attributes or {}

    by_case: dict[str, list[Event]] = {}
    with _gc_paused():
        for idx, event in enumerate(events):
            if not event.activity:
                raise RowError(f"event {idx} of case {event.case_id!r} has an empty activity")
            members = by_case.get(event.case_id)
            if members is None:
                by_case[event.case_id] = [event]
            else:
                members.append(event)

        cases: dict[str, Case] = {}
        for case_id, members in by_case.items():
            members.sort(key=_timestamp)  # stable: ties keep input order
            cases[case_id] = Case(
                case_id,
                members,
                dict(case_attributes.get(case_id, {})),
                tuple(map(_activity, members)),
            )

    return EventLog(cases, _alphabet(cases.values()), dict(schema or {}))


def subset_log(log: EventLog, case_ids: Iterable[str]) -> EventLog:
    """Sub-log holding exactly the given cases, untouched, in original order.

    Case objects (and so their events) are shared with the source log, so
    kept attribute values are identical by construction.
    """
    keep = set(case_ids)
    cases = {cid: case for cid, case in log.cases.items() if cid in keep}
    return EventLog(cases, _alphabet(cases.values()), dict(log.attribute_schema))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnMapping:
    """Column roles for CSV parsing.

    Columns other than the three mandatory ones become attributes. Their kind
    may be declared in ``attribute_kinds``; undeclared columns are inferred
    (all finite numbers -> numeric, all-timestamp values -> instant,
    everything else -> categorical).
    """

    case_col: str = "case_id"
    activity_col: str = "activity"
    time_col: str = "timestamp"
    attribute_kinds: Mapping[str, str] = field(default_factory=dict)


def _infer_kind(values: list[str]) -> str:
    if not values:
        return CATEGORICAL
    if all(map(_is_number_text, values)):
        return NUMERIC
    try:
        for v in values:
            parse_instant(v)
        return INSTANT
    except ValueError:
        pass
    return CATEGORICAL


def _number(value: str) -> int | float:
    try:
        return int(value)
    except ValueError:
        return float(value)


def _is_number_text(text: str) -> bool:
    """Whether ``text`` is a finite number as ``str`` writes it, so write_csv gives it back.

    "007", "+7" and "1e3" are numbers to int() and float() but not this text.
    """
    try:
        value = _number(text)
    except ValueError:
        return False
    # nan and inf stay text: a NaN never equals itself as a modal value
    return str(value) == text and (type(value) is int or math.isfinite(value))


_CONVERTERS = {NUMERIC: _number, INSTANT: parse_instant}


def _records(fh, path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) per CSV record; unreadable input raises RowError with its line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise RowError(str(exc), reader.line_num) from None
    except UnicodeDecodeError:
        # the decoder reads ahead in blocks, so the bad byte is found in the file itself
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise RowError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8", line) from None
        raise


def parse_csv(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """Parse a CSV event log (UTF-8 with or without a BOM, header row, RFC-4180 quoting).

    Raises SchemaError when a mandatory column is missing, a column name
    repeats or a column is declared with an unknown kind, RowError with the
    line number for unusable rows (including rows with more fields than the
    header, values a column declared numeric or instant cannot read, bytes
    that are not UTF-8 and fields over the csv module's size limit), and
    EmptyLogError when there are no data rows.
    """
    mapping = mapping or ColumnMapping()
    path = Path(path)
    events: list[Event] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        records = _records(fh, path)
        try:
            _, header = next(records)
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
        for _, name in attr_cols:
            declared = mapping.attribute_kinds.get(name)
            if declared is not None and declared not in (CATEGORICAL, NUMERIC, INSTANT):
                raise SchemaError(f"unknown attribute kind {declared!r} for column {name!r}")

        # Values of a column declared numeric or instant are checked as they
        # are read, where the line is known; inferred kinds read every value.
        checked = [
            (i, name, kind)
            for i, name in attr_cols
            if (kind := mapping.attribute_kinds.get(name)) in _CONVERTERS
        ]

        for line, row in records:
            if not any(row):
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
            for i, name, kind in checked:
                if row[i] != "":
                    try:
                        _CONVERTERS[kind](row[i])
                    except ValueError:
                        raise RowError(
                            f"column {name!r} holds unreadable {kind} value {row[i]!r}", line
                        ) from None
            attrs = {name: row[i] for i, name in attr_cols if row[i] != ""}
            events.append(Event(case_id, activity, ts, attrs))

    if not events:
        raise EmptyLogError(f"{path}: no data rows")
    log = build_log(events)

    # Each column is settled once, in header order: its kind is declared or
    # inferred from every value; it moves to the cases when every event holds
    # it with one text per case; numeric and instant values are converted,
    # categorical ones stay the text read.
    cases = log.cases.values()
    for _, name in attr_cols:
        values = [
            ev.attributes[name] for case in cases for ev in case.events if name in ev.attributes
        ]
        if not values:
            continue
        kind = mapping.attribute_kinds.get(name) or _infer_kind(values)
        convert = _CONVERTERS.get(kind)
        if len(values) == len(events) and all(
            len({ev.attributes[name] for ev in case.events}) == 1 for case in cases
        ):
            log.attribute_schema[name] = AttributeSpec(kind, CASE_SCOPE)
            for case in cases:
                value = case.events[0].attributes[name]
                case.attributes[name] = value if convert is None else convert(value)
                for ev in case.events:
                    del ev.attributes[name]
        else:
            log.attribute_schema[name] = AttributeSpec(kind, EVENT_SCOPE)
            if convert is not None:
                for case in cases:
                    for ev in case.events:
                        if name in ev.attributes:
                            ev.attributes[name] = convert(ev.attributes[name])
    return log


def write_csv(log: EventLog, path: str | Path, mapping: ColumnMapping | None = None) -> None:
    """Write a log as CSV; parse_csv reads the result back structurally intact.

    Case attributes are replicated on every row of their case; absent event
    attributes become empty fields.
    """
    mapping = mapping or ColumnMapping()
    attr_names = sorted(
        {name for case in log.cases.values() for ev in case.events for name in ev.attributes}
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
            case_id = case.case_id
            shared = {name: render(value) for name, value in case.attributes.items()}
            rows = []
            for ev in case.events:
                own = ev.attributes
                rows.append([
                    case_id,
                    ev.activity,
                    format_instant(ev.timestamp),
                    *[
                        render(own[name]) if name in own else shared.get(name, "")
                        for name in attr_names
                    ],
                ])
            writer.writerows(rows)


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
            value = float(raw)
            # nan and inf stay text, as in a CSV column (see _infer_kind)
            return key, (kind, value) if math.isfinite(value) else (CATEGORICAL, raw)
        if tag == "date":
            return key, (kind, parse_instant(raw))
    except ValueError:
        raise XesParseError(f"{context}: bad {tag} value {raw!r} for key {key!r}") from None
    return key, (kind, raw)


def _xes_traces(path: Path) -> Iterator[ET.Element]:
    """Each direct ``<trace>`` child of the root, cleared once the caller is done with it.

    Traces are read one at a time, so the whole tree is never held. Malformed
    XML and corrupt gzip data raise XesParseError naming the file, wherever
    in the file they are met.
    """
    opener = gzip.open if path.name.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            depth = 0
            for action, elem in ET.iterparse(fh, events=("start", "end")):
                if action == "start":
                    depth += 1
                    continue
                depth -= 1
                if depth == 1 and _local_name(elem.tag) == "trace":
                    yield elem
                    elem.clear()
    except ET.ParseError as exc:
        line, col = exc.position
        raise XesParseError(f"{path}: malformed XML at line {line}, column {col}") from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise XesParseError(f"{path}: corrupt gzip data: {exc}") from None


def parse_xes(path: str | Path) -> EventLog:
    """Parse an XES file (plain or .gz): log -> trace -> event.

    ``concept:name`` supplies the case id on traces and the activity on
    events; ``time:timestamp`` supplies the event timestamp. Remaining
    string/int/float/date/boolean attributes are kept with their tag kinds.
    """
    path = Path(path)
    events: list[Event] = []
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

    for t_idx, trace in enumerate(_xes_traces(path)):
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
                        try:
                            value = parse_instant(str(value))
                        except ValueError:
                            raise XesParseError(
                                f"{where}: unreadable time:timestamp {value!r}"
                            ) from None
                    timestamp = value
                else:
                    attrs[key] = value
                    note_schema(key, kind, EVENT_SCOPE)
            if not activity:
                raise XesParseError(f"{where}: missing concept:name")
            if timestamp is None:
                raise XesParseError(f"{where}: missing time:timestamp")
            events.append(Event(case_id, activity, timestamp, attrs))

    if not events:
        raise EmptyLogError(f"{path}: log has no traces")
    return build_log(events, case_attributes, schema)


def load_log(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """Dispatch on file suffix: .xes / .xes.gz -> XES, everything else -> CSV."""
    name = str(path)
    if name.endswith(".xes") or name.endswith(".xes.gz"):
        return parse_xes(path)
    return parse_csv(path, mapping)
