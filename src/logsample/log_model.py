"""In-memory event log model plus CSV and XES parsers.

An event log is a set of cases. A case holds its events as columns in
timestamp order: the activity sequence (its trace), the timestamps as UTC
epoch milliseconds, and one tuple of values per event attribute, next to
the case's own attribute map. The log keeps a per-attribute schema (kind
and scope) so downstream statistics know whether to count values or
average them.
"""

from __future__ import annotations

import csv
import gc
import gzip
import math
import re
import xml.etree.ElementTree as ET
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import chain, compress, count, islice, repeat, zip_longest
from operator import attrgetter, not_
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyLogError, RowError, SchemaError, XesParseError

CATEGORICAL = "categorical"
NUMERIC = "numeric"
INSTANT = "instant"

EVENT_SCOPE = "event"
CASE_SCOPE = "case"

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_MS = timedelta(milliseconds=1)
# epoch milliseconds of the first and the last millisecond a datetime can hold
_MIN_MS = (datetime.min - _NAIVE_EPOCH) // _MS
_MAX_MS = (datetime.max - _NAIVE_EPOCH) // _MS


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

    Naive datetimes, and aware ones whose tzinfo gives no UTC offset, are
    taken as UTC. For any other the result equals
    ``dt.astimezone(timezone.utc).isoformat(timespec="milliseconds")``.
    """
    if dt.utcoffset():
        dt = dt.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03d+00:00" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second, dt.microsecond // 1000
    )


def _epoch_ms(stamps: Iterable[datetime]) -> array:
    """UTC epoch milliseconds of datetimes, each cut to the millisecond as format_instant cuts it.

    Naive datetimes, and ones whose tzinfo gives no UTC offset, are UTC.
    Values may lie outside the years 1-9999.
    """
    deltas = [
        dt - _EPOCH if dt.utcoffset() is not None else dt.replace(tzinfo=None) - _NAIVE_EPOCH
        for dt in stamps
    ]
    # exact, and about twice as fast as delta // _MS
    return array(
        "q", [d.days * 86_400_000 + d.seconds * 1000 + d.microseconds // 1000 for d in deltas]
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
    """One process step, as :func:`build_log` takes it.

    A log keeps no Event objects; its cases hold their events as columns.
    """

    activity: str
    timestamp: datetime
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class Case:
    """One process instance, its events held as columns in timestamp order.

    ``trace`` holds the events' activities and ``timestamps`` their UTC times
    in epoch milliseconds, an ``array('q')``. ``attributes`` are the case's
    own. ``event_attributes`` maps each name that some event holds, in the
    log's column order, to a tuple of one value per event, None where the
    event lacks it.
    """

    case_id: str
    trace: tuple[str, ...]
    timestamps: array
    attributes: Mapping[str, object]
    event_attributes: Mapping[str, tuple]


@dataclass
class EventLog:
    """Event log: cases, which hold their events as columns, and the attribute schema."""

    cases: Mapping[str, Case]
    attribute_schema: Mapping[str, AttributeSpec] = field(default_factory=dict)

    @cached_property
    def activity_alphabet(self) -> frozenset[str]:
        """Every activity of the log, derived from the case traces on first read."""
        return frozenset(chain.from_iterable(case.trace for case in self.cases.values()))

    @property
    def num_cases(self) -> int:
        return len(self.cases)

    @property
    def num_events(self) -> int:
        return sum(len(case.trace) for case in self.cases.values())

    def trace(self, case_id: str) -> tuple[str, ...]:
        """Activity sequence of one case, in trace order."""
        return self.cases[case_id].trace


_activity = attrgetter("activity")
_timestamp = attrgetter("timestamp")
_attributes = attrgetter("attributes")


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector for a parse, a bulk build or a benchmark run.

    A log, its feature rows and its models are millions of small acyclic
    objects: reference counting frees them, and the collector would only
    re-walk the growing heap every few hundred allocations. The caller's
    collector state comes back afterwards, also when the scope raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _assembled(case_ids, keys, stamps, activities, columns, case_attributes):
    """Each case's Case, sliced out of whole-log columns of rows in read order.

    ``keys[i]`` is the number of row i's case, an int64 array, and
    ``stamps`` the rows' UTC epoch milliseconds; case numbers rise in the
    order of ``case_ids`` and ``case_attributes``. The rows go in case
    order, each case's in timestamp order, ties keeping read order: one
    stable lexsort, and only when some case holds rows out of that order.
    ``columns`` holds each event attribute's values: a list of one value per
    row, or a dict from read position to value for an attribute that few
    rows may hold; None, or a row the dict lacks, is an absent value. A
    case holds the names that some row of it has, in the order of ``columns``.
    """
    ms = np.frombuffer(stamps, np.int64)
    read = range(ms.size)  # each row's read position
    ordered = keys  # each row's case number, rows in case order
    # a list is put in case order once and sliced; a dict is looked up row by row
    lists = {name: column for name, column in columns.items() if isinstance(column, list)}
    if (np.diff(keys) < 0).any() or (np.diff(ms)[np.diff(keys) == 0] < 0).any():
        order = np.lexsort((ms, keys))
        ordered, ms, read = keys[order], ms[order], order.tolist()
        activities = map(activities.__getitem__, read)
        lists = {name: map(column.__getitem__, read) for name, column in lists.items()}
    stamps = array("q", ms.tobytes())
    activities = tuple(activities)
    lists = {name: tuple(column) for name, column in lists.items()}
    starts = [*np.flatnonzero(np.diff(ordered, prepend=-1)).tolist(), ms.size]
    numbers = ordered[starts[:-1]]  # each case's number, in case order
    owns = [{} for _ in numbers]  # per case, its event attributes in the order of columns
    for name, column in columns.items():
        if name in lists:  # sliced for every case
            column, held = lists[name], range(len(owns))
        else:  # looked up only in the cases of its rows
            held = set(np.searchsorted(numbers, keys[list(column)]).tolist())
        for n in held:
            rows = slice(starts[n], starts[n + 1])
            values = column[rows] if name in lists else tuple(map(column.get, read[rows]))
            if values.count(None) < len(values):
                owns[n][name] = values
    spans = map(slice, starts, starts[1:])  # each case's rows
    return {
        case_id: Case(case_id, activities[rows], stamps[rows], attributes, own)
        for case_id, rows, attributes, own in zip(case_ids, spans, case_attributes, owns)
    }


def _schema_of(case_attributes: Iterable[Mapping], event_columns: Mapping[str, Mapping]) -> dict:
    """Each attribute's AttributeSpec, read off its values, none of which is None.

    Numeric when every value's type is int or float, instant when every one is
    datetime, else categorical (a bool too); event-scoped when some event holds it
    (``event_columns``: name -> values by event).
    """
    types: dict[str, set[type]] = {}
    for attributes in case_attributes:
        for name, value in attributes.items():
            types.setdefault(name, set()).add(type(value))
    for name, column in event_columns.items():
        types.setdefault(name, set()).update(map(type, column.values()))
    schema = {}
    for name, held in types.items():
        kind = NUMERIC if held <= {int, float} else INSTANT if held == {datetime} else CATEGORICAL
        schema[name] = AttributeSpec(kind, EVENT_SCOPE if name in event_columns else CASE_SCOPE)
    return schema


@_gc_paused()
def build_log(
    cases: Mapping[str, list[Event]],
    case_attributes: Mapping[str, Mapping[str, object]] | None = None,
    schema: Mapping[str, AttributeSpec] | None = None,
) -> EventLog:
    """Assemble an EventLog from each case's events, which its Case then holds as columns.

    Cases keep the mapping's order; the caller's lists are left as they are.
    Timestamps are kept as UTC epoch milliseconds: a naive timestamp, or one
    whose tzinfo gives no offset, is taken as UTC, and digits past the
    millisecond are cut. Each case's events are put in timestamp order, ties
    (events within one millisecond) keeping input order. A case or event
    attribute whose value is None counts as absent. Raises RowError for a
    case with no events, a timestamp whose UTC time falls outside the years
    1-9999, or an event with an empty activity. With no ``schema``, the
    schema is read off the values the cases hold (see _schema_of); one
    passed is kept as given.
    """
    if not cases:
        raise EmptyLogError("no events to assemble into a log")
    case_attributes = case_attributes or {}

    # every event's fields at once, then each case's slice of them
    events = list(chain.from_iterable(cases.values()))
    stamps = _epoch_ms(map(_timestamp, events))
    activities = tuple(map(_activity, events))
    counts = list(map(len, cases.values()))
    attributes = list(map(_attributes, events))
    columns: dict[str, dict[int, object]] = {}  # per name, its values other than None by event
    for row in compress(count(), attributes):
        for name, value in attributes[row].items():
            if value is not None:
                columns.setdefault(name, {})[row] = value
    held = list(compress(cases, counts))  # the cases with events
    built = _assembled(
        held, np.repeat(np.arange(len(counts)), counts), stamps, activities, columns,
        [{name: value for name, value in case_attributes.get(case_id, {}).items()
          if value is not None} for case_id in held],
    )
    if 0 in counts or "" in activities or min(stamps) < _MIN_MS or max(stamps) > _MAX_MS:
        for case_id in cases:  # the first case that cannot be built names the error
            case = built.get(case_id)
            if case is None:
                raise RowError(f"case {case_id!r} has no events")
            if not _MIN_MS <= min(case.timestamps) <= max(case.timestamps) <= _MAX_MS:
                raise RowError(
                    f"case {case_id!r} has an event timestamp outside the years 1-9999 in UTC"
                )
            if "" in case.trace:
                raise RowError(
                    f"event {case.trace.index('')} of case {case_id!r} has an empty activity"
                )
    schema = _schema_of(map(_attributes, built.values()), columns) if schema is None else schema
    return EventLog(built, dict(schema))


def subset_log(log: EventLog, case_ids: Iterable[str]) -> EventLog:
    """Sub-log holding exactly the given cases, untouched, in original order.

    Case objects (and so their columns) are shared with the source log, so
    kept attribute values are identical by construction.
    """
    keep = set(case_ids)
    cases = {cid: case for cid, case in log.cases.items() if cid in keep}
    return EventLog(cases, dict(log.attribute_schema))


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

    Raises SchemaError naming the column when two of the three share a name:
    a CSV written with that header could not be read back.
    """

    case_col: str = "case_id"
    activity_col: str = "activity"
    time_col: str = "timestamp"
    attribute_kinds: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        columns = [self.case_col, self.activity_col, self.time_col]
        for column in columns:
            if columns.count(column) > 1:
                raise SchemaError(
                    f"column {column!r} is given for more than one of the case id, activity"
                    " and timestamp roles; each needs its own column"
                )


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

# parse_csv reads the file in blocks of this many records and checks and
# files each block column by column, and parse_xes converts its timestamp
# texts once this many are held. A block's rows and texts are held at
# once: with blocks of 4,000 rows, a process that parsed the sample-export
# benchmark log peaked at 47.0 MiB RSS against 44.7, and took no less time.
READ_BLOCK_ROWS = 1000

# write_csv's timestamp form and a line end: the least and the greatest byte
# each position may hold
_STAMP = np.frombuffer(b"0000-00-00T00:00:00.000+00:00\n", np.uint8)
_SPAN = np.frombuffer(b"9999-99-99T99:99:99.999+00:00\n", np.uint8) - _STAMP


def _instant_ms(text: str) -> int:
    """UTC epoch milliseconds of a timestamp text; _MIN_MS - 1 when parse_instant refuses it."""
    try:
        return (parse_instant(text) - _EPOCH) // _MS
    except ValueError:
        return _MIN_MS - 1


def _epoch_ms_of(texts: Sequence[str]) -> np.ndarray:
    """UTC epoch milliseconds of timestamp texts, and one below _MIN_MS for a text refused.

    A text is refused when parse_instant refuses it. When every text has
    write_csv's form ``YYYY-MM-DDTHH:MM:SS.mmm+00:00`` and names a day and
    time of the calendar, numpy reads all their digits at once, the inverse
    of the ``datetime_as_string`` that wrote them; a year 0000 reads as a
    time before the year 1, refused as parse_instant refuses it. Any other
    texts are read one by one. numpy's own cast of text to datetime64 is not
    used: numpy 2.4 crashed the interpreter when it refused a text in a
    cast of 1,000 byte strings.
    """
    codes = np.frombuffer(("\n".join(texts) + "\n").encode(), np.uint8)
    if codes.size == _STAMP.size * len(texts):
        digits = codes.reshape(len(texts), -1) - _STAMP
        if (digits <= _SPAN).all():  # so each text is one line of that form
            d = digits[:, :23].astype(np.int64)
            year = d[:, :4] @ (1000, 100, 10, 1)
            month, day, hour, minute, second = (d[:, 5:20:3] * 10 + d[:, 6:20:3]).T
            months = (year - 1970) * 12 + month - 1
            days = months.astype("M8[M]").astype("M8[D]") + (day - 1)
            # a day past its month's end, or before its start, falls in another month
            if ((months % 12 == month - 1) & (days.astype("M8[M]").view(np.int64) == months)
                    & (hour < 24) & (minute < 60) & (second < 60)).all():
                days = days.view(np.int64)
                milli = d[:, 20:] @ (100, 10, 1)
                return ((days * 24 + hour) * 60 + minute) * 60_000 + second * 1000 + milli
    return np.array(list(map(_instant_ms, texts)), np.int64)


def _readable(convert, text: str) -> bool:
    """Whether a cell is empty or holds a value that ``convert`` reads."""
    if text:
        try:
            convert(text)
        except ValueError:
            return False
    return True


def _record_blocks(fh, path: Path) -> Iterator[list[list[str]]]:
    """The CSV records in blocks of READ_BLOCK_ROWS, the header first in the first block.

    Unreadable input raises RowError with its line, once the records before
    it have been yielded.
    """
    reader = csv.reader(fh)
    while True:
        block = []
        try:
            block.extend(islice(reader, READ_BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:
            line = reader.line_num
            if block:
                yield block
            if isinstance(exc, csv.Error):
                raise RowError(str(exc), line) from None
            # the decoder reads ahead in blocks, so the bad byte is found in the file itself
            try:
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as found:
                data, at = found.object, found.start
                raise RowError(
                    f"byte 0x{data[at]:02x} is not UTF-8", data.count(b"\n", 0, at) + 1
                ) from None
            raise
        if not block:
            return
        yield block


@_gc_paused()
def parse_csv(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """Parse a CSV event log (UTF-8 with or without a BOM, header row, RFC-4180 quoting).

    Raises SchemaError when a mandatory column is missing, a column name
    repeats, or an ``attribute_kinds`` entry names an unknown kind or a
    column that is not an attribute column of the header, RowError with the
    line number for unusable rows (including rows with more fields than the
    header, values a column declared numeric or instant cannot read, bytes
    that are not UTF-8 and fields over the csv module's size limit), and
    EmptyLogError when there are no data rows. The error is that of the
    first unusable row.

    Records are read in blocks of READ_BLOCK_ROWS. Each block is turned into
    columns once, checked a column at a time, and appended to columns of the
    whole log; a block of timestamps all in write_csv's own form is
    converted by numpy at once. The cases are sliced out of those columns
    at the end. Activities pass through a table local to the parse, so the
    log holds one string object per distinct label; each column name is one
    object.
    """
    mapping = mapping or ColumnMapping()
    path = Path(path)
    numbers: dict[str, int] = {}  # case id -> the position of its first row
    keys = array("q")  # per row, the number of its case
    stamps: list[np.ndarray] = []  # per block
    activities: list[str] = []
    canon = {}.setdefault  # one str object per distinct activity
    with path.open(newline="", encoding="utf-8-sig") as fh:
        blocks = _record_blocks(fh, path)
        block = next(blocks, None)
        if block is None:
            raise EmptyLogError(f"{path}: file is empty")
        header = block.pop(0)

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
        attr_names = {name for _, name in attr_cols}
        for name, declared in mapping.attribute_kinds.items():
            if name not in attr_names:
                role = "a mandatory column" if name in header else "a column the header lacks"
                raise SchemaError(f"{path}: attribute_kinds entry {name!r} names {role}")
            if declared not in (CATEGORICAL, NUMERIC, INSTANT):
                raise SchemaError(f"unknown attribute kind {declared!r} for column {name!r}")

        # Values of a column declared numeric or instant are checked as they
        # are read, where the line is known; inferred kinds read every value.
        checked = [
            (i, name, kind)
            for i, name in attr_cols
            if (kind := mapping.attribute_kinds.get(name)) in _CONVERTERS
        ]
        width = len(header)
        cells: list[list[str]] = [[] for _ in attr_cols]  # per attribute column, its texts
        first = 1  # the number of the block's first record
        for block in chain([block], blocks):
            rows = list(filter(any, block))  # blank records are skipped
            columns = list(zip_longest(*rows, fillvalue=""))  # short rows end in empty cells
            columns += repeat(("",) * len(rows), width - len(columns))
            ids = list(map(str.strip, columns[case_idx]))
            names = list(map(str.strip, columns[act_idx]))
            ms = _epoch_ms_of(columns[time_idx])
            if len(columns) > width or "" in ids or "" in names \
                    or ms.min(initial=_MIN_MS) < _MIN_MS or checked:
                # per check, in the order a row is checked, whether each row passes it
                passes = [
                    map(width.__ge__, map(len, rows)), ids, names, (ms >= _MIN_MS).tolist(),
                    *(map(_readable, repeat(_CONVERTERS[c]), columns[i]) for i, _, c in checked),
                ]
                failing = [next(compress(count(), map(not_, p)), len(rows)) for p in passes]
                at = min(failing)
                if at < len(rows):
                    row = [column[at] for column in columns]
                    message = (
                        f"{len(rows[at])} fields, but the header has {width}",
                        "empty case id",
                        "empty activity",
                        f"unparseable timestamp {row[time_idx]!r} in column {mapping.time_col!r}",
                        *(f"column {name!r} holds unreadable {kind} value {row[i]!r}"
                          for i, name, kind in checked),
                    )[failing.index(at)]
                    # the line: the file read again up to the row's record (an
                    # earlier record equal to the row would have failed first)
                    with path.open(newline="", encoding="utf-8-sig") as again:
                        reader = csv.reader(again)
                        next(islice(reader, first + block.index(rows[at]), None))
                    raise RowError(message, reader.line_num)
            first += len(block)
            keys.extend(map(numbers.setdefault, ids, count(len(keys))))
            activities += map(canon, names, names)
            stamps.append(ms)
            for texts, (i, _) in zip(cells, attr_cols):
                texts += columns[i]

    if not numbers:
        raise EmptyLogError(f"{path}: no data rows")

    # Each column is settled once, in header order: its kind is declared or
    # inferred from every value; it moves to the cases when every row holds
    # it with its case's first text (a case's number is the position of its
    # first row); numeric and instant values are converted, categorical ones
    # stay the text read; an empty cell is an absent value.
    case_attributes: list[dict[str, object]] = [{} for _ in numbers]
    event_columns = {}
    schema: dict[str, AttributeSpec] = {}
    for (_, name), texts in zip(attr_cols, cells):
        values = list(filter(None, texts))
        if not values:
            continue
        kind = mapping.attribute_kinds.get(name) or _infer_kind(values)
        convert = _CONVERTERS.get(kind)
        if len(values) == len(texts) and list(map(texts.__getitem__, keys)) == texts:
            schema[name] = AttributeSpec(kind, CASE_SCOPE)
            for attributes, row in zip(case_attributes, numbers.values()):
                attributes[name] = texts[row] if convert is None else convert(texts[row])
            continue
        schema[name] = AttributeSpec(kind, EVENT_SCOPE)
        if convert is not None:
            texts = [convert(v) if v else None for v in texts]
        elif len(values) < len(texts):
            texts = [v or None for v in texts]
        event_columns[name] = texts
    built = _assembled(
        numbers, np.frombuffer(keys, np.int64), np.concatenate(stamps), activities,
        event_columns, case_attributes,
    )
    return EventLog(built, schema)


# write_csv gathers whole cases into blocks of at least this many rows and
# writes each block column by column. Bounded blocks keep the block's lists
# and text small: blocks of 16,000 rows (about 2,000 cases) took the peak RSS
# of the sample-export benchmark from 55.2 to 59.6 MiB, and no time off.
WRITE_BLOCK_ROWS = 2000


def _needs_quotes(text: str) -> bool:
    # on a block's joined column (14 KB) these four scans take about 1 us and
    # one regular-expression search 130 us
    return "," in text or '"' in text or "\r" in text or "\n" in text


def csv_field(value) -> str:
    """``value`` as one field of a ``csv.writer`` row with the default dialect.

    A value that is not ``str`` becomes ``""`` (None), its ``repr`` (float)
    or its ``str``. Under QUOTE_MINIMAL a text holding ``,``, ``"``, CR or LF
    is wrapped in quotes with each ``"`` doubled; any other text, NUL
    included, is written as it is.
    """
    if not isinstance(value, str):
        value = "" if value is None else repr(value) if isinstance(value, float) else str(value)
    if not _needs_quotes(value):
        return value
    return '"' + value.replace('"', '""') + '"'


def _quoted(texts: list[str]) -> list[str]:
    """A column of texts as fields: quoted one by one only when some text needs it."""
    if not _needs_quotes("".join(texts)):
        return texts
    return list(map(csv_field, texts))


def _render(value) -> str:
    """An attribute value as write_csv writes it."""
    if isinstance(value, datetime):
        return format_instant(value)
    return str(value)


def _out_of_range(log: EventLog) -> SchemaError:
    """The error naming the first case that holds an instant write_csv cannot write.

    That is a timestamp, or an instant value, whose UTC time is outside the
    years 1-9999.
    """
    for case in log.cases.values():
        named = [(None, case.timestamps)]
        named += [(name, [value]) for name, value in case.attributes.items()]
        named += case.event_attributes.items()
        for name, values in named:
            if name is not None:
                values = _epoch_ms(v for v in values if isinstance(v, datetime))
            if any(not _MIN_MS <= ms <= _MAX_MS for ms in values):
                held = "an event timestamp" if name is None else f"attribute {name!r} with an instant"
                return SchemaError(
                    f"case {case.case_id!r} has {held} outside the years 1-9999 in UTC,"
                    " which the CSV could not write"
                )


def _blocks(cases: Iterable[Case]) -> Iterator[list[Case]]:
    """Consecutive runs of whole cases, each of at least WRITE_BLOCK_ROWS events but the last.

    No block is without events: cases with none after the last block write no row.
    """
    block, rows = [], 0
    for case in cases:
        block.append(case)
        rows += len(case.trace)
        if rows >= WRITE_BLOCK_ROWS:
            yield block
            block, rows = [], 0
    if rows:
        yield block


def _block_text(block: list[Case], attr_names: list[str]) -> str:
    """The CSV rows of a block of cases, built one column at a time."""
    counts = [len(case.trace) for case in block]
    case_ids = list(chain.from_iterable(map(repeat, [case.case_id for case in block], counts)))
    activities = list(chain.from_iterable(case.trace for case in block))
    columns = []
    for texts in (case_ids, activities):
        try:
            columns.append(_quoted(texts))
        except TypeError:  # not all str: converted as csv.writer converts them
            columns.append(list(map(csv_field, texts)))
    ms = np.frombuffer(b"".join(case.timestamps for case in block), np.int64)
    stamps = np.datetime_as_string(ms.view("datetime64[ms]"), "ms").tolist()
    columns.append([text + "+00:00" for text in stamps])

    for name in attr_names:
        values = []
        for case, count in zip(block, counts):
            shared = case.attributes.get(name, "")
            own = case.event_attributes.get(name)
            if own is None:
                values += repeat(shared, count)
            elif None in own:
                values += [shared if value is None else value for value in own]
            else:
                values += own
        try:
            columns.append(_quoted(values))
        except TypeError:  # not all str
            columns.append(_quoted([v if type(v) is str else _render(v) for v in values]))
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def write_csv(log: EventLog, path: str | Path, mapping: ColumnMapping | None = None) -> None:
    """Write a log as CSV; parse_csv reads the result back structurally intact.

    Case attributes are replicated on every row of their case; absent event
    attributes become empty fields. The bytes are those of ``csv.writer``
    with the default dialect (QUOTE_MINIMAL, CRLF line ends; see
    :func:`csv_field`), except that a NUL character is written as it is on
    every Python version, where Python 3.10's ``csv.writer`` refuses it.
    Timestamps are written from their epoch milliseconds in the form of
    :func:`format_instant`, which writes instant values.

    Raises SchemaError, before the file is opened, when a timestamp's UTC
    time falls outside the years 1-9999, when an attribute has the name of
    one of the mapping's columns, or when every event of a case has an
    attribute of the name of one of the case's own with another value,
    which would leave the case's value on no row. Raises SchemaError naming
    the case, and the attribute when it is one, for an instant value whose
    UTC time falls outside the years 1-9999; the file is then removed.
    """
    mapping = mapping or ColumnMapping()
    cases = log.cases.values()
    stamps = np.frombuffer(b"".join(case.timestamps for case in cases), np.int64)
    if stamps.size and (stamps.min() < _MIN_MS or stamps.max() > _MAX_MS):
        raise _out_of_range(log)
    event_names = {name for case in cases for name in case.event_attributes}
    case_names = {name for case in cases for name in case.attributes}
    for case in cases:
        for name, value in case.attributes.items():
            if name not in event_names:
                continue
            # an event without the name leaves the case's value on its row
            own = case.event_attributes.get(name, [None] * len(case.trace))
            try:
                shadowed = all(v is not None and _render(v) != _render(value) for v in own)
            except OverflowError:
                raise _out_of_range(log) from None
            if shadowed:
                raise SchemaError(
                    f"case {case.case_id!r} has attribute {name!r} and each of its events"
                    " has another value of it, so the case's value would be on no row of"
                    " the CSV; rename one of them"
                )
    attr_names = sorted(event_names | case_names)
    header = [mapping.case_col, mapping.activity_col, mapping.time_col, *attr_names]
    for role, column in zip(("case id", "activity", "timestamp"), header):
        if column in attr_names:
            raise SchemaError(
                f"attribute {column!r} has the name of the {role} column {column!r},"
                " so the CSV could not be read back; rename the attribute or the column"
            )

    path = Path(path)
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(map(csv_field, header)) + "\r\n")
            for block in _blocks(cases):
                fh.write(_block_text(block, attr_names))
    except OverflowError:
        path.unlink()
        raise _out_of_range(log) from None


# ---------------------------------------------------------------------------
# XES
# ---------------------------------------------------------------------------

_XES_TAGS = frozenset({"string", "id", "boolean", "int", "float", "date"})


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _xes_value(elem: ET.Element):
    """``(key, value)`` of one attribute element, or ``(None, None)`` to skip it.

    The value has its tag's type; string, id and boolean values and non-finite
    floats stay text. Raises ValueError naming the tag, the value and the key
    when the value does not read as its tag's type; the caller adds where it stands.
    """
    tag, key, raw = _local_name(elem.tag), elem.get("key"), elem.get("value")
    if tag not in _XES_TAGS or key is None or raw is None:
        return None, None  # unsupported (nested containers, extensions) or keyless
    try:
        if tag == "int":
            return key, int(raw)
        if tag == "float":
            value = float(raw)
            # nan and inf stay text, as in a CSV column (see _infer_kind)
            return key, value if math.isfinite(value) else raw
        if tag == "date":
            return key, parse_instant(raw)
    except ValueError:
        raise ValueError(f"bad {tag} value {raw!r} for key {key!r}") from None
    return key, raw


def _xes_traces(path: Path) -> Iterator[ET.Element]:
    """Each direct ``<trace>`` child of the root, cleared once the caller is done with it.

    Traces are read one at a time, so the whole tree is never held. Malformed
    XML and corrupt gzip data raise XesParseError naming the file, wherever
    in the file they are met.
    """
    opener = gzip.open if path.name.lower().endswith(".gz") else open
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


def _trace_label(t_idx: int, case_id: str | int) -> str:
    """How an error names a trace: by its case id, or by its index when it has none."""
    return f"trace {t_idx}" if case_id == t_idx else f"case {case_id!r}"


def _read_stamps(path: Path, stamps: array, texts: list[str], traces: array, cases: dict) -> None:
    """Append the UTC epoch milliseconds of ``time:timestamp`` texts to ``stamps``, in one bulk call.

    ``texts`` are the texts of the events that follow those in ``stamps``,
    and are cleared; ``traces`` holds each event's trace index and ``cases``
    its trace's case id, in trace order. Raises the XesParseError that
    reading the events one by one raises for the first text parse_instant refuses.
    """
    ms = _epoch_ms_of(texts)
    refused = np.flatnonzero(ms < _MIN_MS)
    if refused.size:
        event = len(stamps) + int(refused[0])
        t_idx = traces[event]
        label = _trace_label(t_idx, list(cases)[t_idx])
        raise XesParseError(
            f"{path}: {label} event {event - traces.index(t_idx)}: "
            f"bad date value {texts[refused[0]]!r} for key 'time:timestamp'"
        ) from None
    stamps.frombytes(ms.tobytes())
    texts.clear()


@_gc_paused()
def parse_xes(path: str | Path) -> EventLog:
    """Parse an XES file (plain or .gz): log -> trace -> event, each a direct child.

    ``concept:name`` supplies the case id on traces and the activity on
    events; ``time:timestamp`` supplies the event timestamp. Remaining
    string/id/int/float/date/boolean attributes keep their tag's type, and the
    schema is read off those values (see _schema_of).
    A trace without a name is case ``case_<index>``, or, when a named trace
    holds that id, ``case_<index>_<n>`` with the least free n >= 1.

    Each event is appended to columns of the whole log, and the cases are
    sliced out of them at the end. An event's ``<string key="concept:name">``
    and ``<date key="time:timestamp">`` are read straight off the element.
    The timestamp texts are converted in bulk, at the end of a trace once
    READ_BLOCK_ROWS of them are held and after the last trace; an error met
    before then yields to a refused timestamp read before it, so the first
    fault in the file names the error. Activities and attribute keys pass
    through a table local to the parse, so the log holds one string object
    per distinct label and key; attribute values and case ids stay as read.
    """
    path = Path(path)
    canon = {}.setdefault  # one str object per distinct activity or key
    # per case, its trace attributes; an unnamed trace is keyed by its index
    # until every name is known
    cases: dict[str | int, dict] = {}
    traces = array("q")  # per event, the index of its trace
    activities: list[str] = []
    stamps = array("q")
    texts: list[str] = []  # the time:timestamp texts of the events after those in stamps
    columns: dict[str, dict[int, object]] = {}  # per key, its value by event

    try:
        for t_idx, trace in enumerate(_xes_traces(path)):
            case_id: str | int = t_idx
            trace_attrs: dict[str, object] = {}
            ns = trace.tag[:-5]  # "{uri}" of the trace's namespace, or ""
            event_tag, string_tag, date_tag = ns + "event", ns + "string", ns + "date"
            events = []
            for child in trace:
                if child.tag == event_tag or _local_name(child.tag) == "event":
                    events.append(child)
                    continue
                try:
                    key, value = _xes_value(child)
                except ValueError as exc:
                    raise XesParseError(f"{path}: trace {t_idx}: {exc}") from None
                if key == "concept:name":
                    case_id = str(value)
                elif key is not None:
                    trace_attrs[canon(key, key)] = value
            if not events:
                raise XesParseError(f"{path}: {_trace_label(t_idx, case_id)} has no events")
            if case_id in cases:
                raise XesParseError(f"{path}: duplicate case id {case_id!r}")
            cases[case_id] = trace_attrs
            traces.extend(repeat(t_idx, len(events)))
            for e_idx, event in enumerate(events):
                activity = stamp = None
                try:
                    for child in event:
                        key = child.get("key")
                        if key == "concept:name" and child.tag == string_tag:
                            activity = child.get("value", activity)
                            continue
                        if key == "time:timestamp" and child.tag == date_tag:
                            text = child.get("value")
                            if text is None:
                                continue
                        else:
                            key, value = _xes_value(child)
                            if key != "time:timestamp":
                                if key == "concept:name":
                                    activity = str(value)
                                elif key is not None:
                                    column = columns.setdefault(canon(key, key), {})
                                    column[len(activities)] = value
                                continue
                            # a stamp under another tag or namespace is read now
                            if not isinstance(value, datetime):
                                try:
                                    value = parse_instant(str(value))
                                except ValueError:
                                    raise ValueError(f"unreadable time:timestamp {value!r}") from None
                            text = format_instant(value)
                        if stamp is not None and _instant_ms(stamp) < _MIN_MS:
                            # the last stamp is the event's, yet an earlier one is still read
                            raise ValueError(f"bad date value {stamp!r} for key 'time:timestamp'")
                        stamp = text
                    if not activity:
                        raise ValueError("missing concept:name")
                    if stamp is None:
                        raise ValueError("missing time:timestamp")
                except ValueError as exc:
                    if stamp is not None:  # read before the fault, so refused it comes first
                        texts.append(stamp)
                    raise XesParseError(
                        f"{path}: {_trace_label(t_idx, case_id)} event {e_idx}: {exc}"
                    ) from None
                activities.append(canon(activity, activity))
                texts.append(stamp)
            if len(texts) >= READ_BLOCK_ROWS:
                _read_stamps(path, stamps, texts, traces, cases)
    except XesParseError:
        _read_stamps(path, stamps, texts, traces, cases)  # raises for a refused stamp read before
        raise

    if not cases:
        raise EmptyLogError(f"{path}: log has no traces")
    _read_stamps(path, stamps, texts, traces, cases)
    ids = {key: key for key in cases if isinstance(key, str)}
    for key in cases.keys() - ids.keys():
        ids[key], n = f"case_{key}", 0
        while ids[key] in cases:  # held by a named trace
            n += 1
            ids[key] = f"case_{key}_{n}"
    built = _assembled(
        map(ids.get, cases), np.frombuffer(traces, np.int64), stamps, activities,
        columns, cases.values(),
    )
    return EventLog(built, _schema_of(cases.values(), columns))


def load_log(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """Dispatch on file suffix, in any case: .xes / .xes.gz -> XES, everything else -> CSV."""
    if str(path).lower().endswith((".xes", ".xes.gz")):
        return parse_xes(path)
    return parse_csv(path, mapping)
