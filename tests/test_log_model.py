"""CSV / XES parsing, CSV writing, and the structural log invariants."""

import csv
import gc
import gzip
import io
import math
import re
import sys
import tempfile
import time
import tracemalloc
from array import array
from datetime import datetime, timedelta, timezone, tzinfo
from operator import itemgetter
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logsample.errors import EmptyLogError, RowError, SchemaError, XesParseError
from logsample import log_model
from logsample.sampling import DIVISION, SamplingConfig, sample
from logsample.variants import build_variant_index, default_attributes
from logsample.log_model import (
    CASE_SCOPE,
    CATEGORICAL,
    EVENT_SCOPE,
    INSTANT,
    NUMERIC,
    AttributeSpec,
    Case,
    ColumnMapping,
    Event,
    EventLog,
    _CONVERTERS,
    _EPOCH,
    _MIN_MS,
    _MS,
    Instant,
    build_log,
    csv_field,
    load_log,
    parse_csv,
    parse_xes,
    subset_log,
    write_csv,
)
from helpers import T0, event_rows, log_from_variants, random_variant_freqs, trace_counts

CSV_BASIC = """case_id,activity,timestamp
1,a,2021-01-01T10:00:00
1,b,2021-01-01T10:05:00
2,a,2021-01-01T11:00:00
2,c,2021-01-01T11:10:00
"""

XES_BASIC = """<?xml version="1.0" encoding="UTF-8"?>
<log xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="t1"/>
    <event>
      <string key="concept:name" value="a"/>
      <date key="time:timestamp" value="2021-01-01T10:00:00.000+00:00"/>
      <string key="org:resource" value="r1"/>
    </event>
    <event>
      <string key="concept:name" value="b"/>
      <date key="time:timestamp" value="2021-01-01T10:05:00.000+00:00"/>
      <int key="cost" value="5"/>
    </event>
  </trace>
</log>
"""


EVENT_A = (
    '<event><string key="concept:name" value="a"/>'
    '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event>'
)
BAD_STAMP_EVENT = EVENT_A.replace("2021-01-01T00:00:00Z", "never")
# the refused stamp under a <date> tag of a second namespace
FOREIGN_BAD_STAMP_EVENT = BAD_STAMP_EVENT.replace("<date ", '<y:date xmlns:y="urn:example:other" ')


def shadowed_xes(case_value, event_values):
    """XES_BASIC with case attribute x, and event attribute x where a value is given."""
    parts = XES_BASIC.replace(
        '<string key="concept:name" value="t1"/>',
        f'<string key="concept:name" value="t1"/><string key="x" value="{case_value}"/>',
    ).split("</event>")
    own = ['' if v is None else f'<string key="x" value="{v}"/>' for v in event_values]
    return "".join(part + x + "</event>" for part, x in zip(parts, own)) + parts[-1]


# A valid ISO-8601 stamp whose UTC time is past the end of year 9999.
OUT_OF_RANGE = "9999-12-31T23:59:59-01:00"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCsv:
    def test_groups_rows_into_cases(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert log.num_cases == 2
        assert log.num_events == 4
        assert log.activity_alphabet == {"a", "b", "c"}
        assert log.trace("1") == ("a", "b")
        assert log.trace("2") == ("a", "c")

    def test_rows_sorted_by_timestamp_within_case(self, tmp_path):
        shuffled = (
            "case_id,activity,timestamp\n"
            "1,c,2021-01-01T10:20:00\n"
            "1,a,2021-01-01T10:00:00\n"
            "1,b,2021-01-01T10:10:00\n"
        )
        log = parse_csv(write(tmp_path / "log.csv", shuffled))
        assert log.trace("1") == ("a", "b", "c")

    def test_timestamp_ties_keep_input_order(self, tmp_path):
        tied = (
            "case_id,activity,timestamp\n"
            "1,x,2021-01-01T10:00:00\n"
            "1,y,2021-01-01T10:00:00\n"
        )
        log = parse_csv(write(tmp_path / "log.csv", tied))
        assert log.trace("1") == ("x", "y")

    def test_missing_mandatory_column(self, tmp_path):
        path = write(tmp_path / "log.csv", "case_id,activity\n1,a\n")
        with pytest.raises(SchemaError, match="timestamp"):
            parse_csv(path)

    def test_bad_timestamp_reports_line(self, tmp_path):
        bad = "case_id,activity,timestamp\n1,a,2021-01-01T10:00:00\n1,b,not-a-time\n"
        with pytest.raises(RowError, match="line 3"):
            parse_csv(write(tmp_path / "log.csv", bad))

    def test_timestamp_out_of_range_in_utc_reports_line(self, tmp_path):
        bad = f"case_id,activity,timestamp\n1,a,2021-01-01T10:00:00\n1,b,{OUT_OF_RANGE}\n"
        with pytest.raises(RowError, match="line 3") as err:
            parse_csv(write(tmp_path / "log.csv", bad))
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyLogError):
            parse_csv(write(tmp_path / "log.csv", ""))

    def test_header_only_file(self, tmp_path):
        with pytest.raises(EmptyLogError):
            parse_csv(write(tmp_path / "log.csv", "case_id,activity,timestamp\n"))

    def test_empty_activity_reports_line(self, tmp_path):
        bad = "case_id,activity,timestamp\n1,,2021-01-01T10:00:00\n"
        with pytest.raises(RowError, match="line 2"):
            parse_csv(write(tmp_path / "log.csv", bad))

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"\xef\xbb\xbf" + CSV_BASIC.encode("utf-8"))
        log = parse_csv(path)
        assert log.num_cases == 2
        assert log.trace("1") == ("a", "b")

    def test_duplicate_header_column_names_it(self, tmp_path):
        text = "case_id,activity,timestamp,x,x\n1,a,2021-01-01T10:00:00,u,v\n"
        with pytest.raises(SchemaError, match="'x'"):
            parse_csv(write(tmp_path / "log.csv", text))

    def test_row_longer_than_header_reports_line(self, tmp_path):
        text = (
            "case_id,activity,timestamp\n"
            "1,a,2021-01-01T10:00:00\n"
            "1,b,2021-01-01T10:05:00,extra\n"
        )
        with pytest.raises(RowError, match="line 3"):
            parse_csv(write(tmp_path / "log.csv", text))

    def test_constant_columns_become_case_attributes(self, tmp_path):
        text = (
            "case_id,activity,timestamp,channel,resource\n"
            "1,a,2021-01-01T10:00:00,web,r1\n"
            "1,b,2021-01-01T10:05:00,web,r2\n"
            "2,a,2021-01-01T11:00:00,phone,r1\n"
        )
        log = parse_csv(write(tmp_path / "log.csv", text))
        assert log.attribute_schema["channel"].scope == CASE_SCOPE
        assert log.attribute_schema["resource"].scope == EVENT_SCOPE
        assert log.cases["1"].attributes["channel"] == "web"
        assert log.cases["1"].event_attributes == {"resource": ("r1", "r2")}

    def test_attribute_kind_inference(self, tmp_path):
        text = (
            "case_id,activity,timestamp,cost,grade,due\n"
            "1,a,2021-01-01T10:00:00,5,A,2021-02-01T00:00:00\n"
            "2,a,2021-01-01T11:00:00,7.5,B,2021-02-02T00:00:00\n"
        )
        log = parse_csv(write(tmp_path / "log.csv", text))
        assert log.attribute_schema["cost"].kind == NUMERIC
        assert log.attribute_schema["grade"].kind == CATEGORICAL
        assert log.attribute_schema["due"].kind == INSTANT

    def test_non_finite_floats_make_a_column_categorical(self, tmp_path):
        text = (
            "case_id,activity,timestamp,score,limit,ratio\n"
            "1,a,2021-01-01T10:00:00,nan,inf,1e+16\n"
            "2,a,2021-01-01T11:00:00,1.5,-Infinity,-2.5\n"
        )
        path = write(tmp_path / "log.csv", text)
        log = parse_csv(path)
        assert log.attribute_schema["score"].kind == CATEGORICAL
        assert log.attribute_schema["limit"].kind == CATEGORICAL
        assert log.attribute_schema["ratio"].kind == NUMERIC
        assert log.cases["1"].attributes["score"] == "nan"
        assert log.cases["1"].attributes["limit"] == "inf"
        assert log.cases["2"].attributes["score"] == "1.5"
        write_csv(log, tmp_path / "back.csv")
        back = parse_csv(tmp_path / "back.csv")
        assert back.cases["1"].attributes["score"] == "nan"
        assert back.attribute_schema["score"].kind == CATEGORICAL

    def test_out_of_range_instants_make_a_column_categorical(self, tmp_path):
        text = (
            "case_id,activity,timestamp,due\n"
            "1,a,2021-01-01T10:00:00,2021-02-01T00:00:00\n"
            f"1,b,2021-01-01T10:05:00,{OUT_OF_RANGE}\n"
        )
        log = parse_csv(write(tmp_path / "log.csv", text))
        assert log.attribute_schema["due"] == AttributeSpec(CATEGORICAL, EVENT_SCOPE)
        assert log.cases["1"].event_attributes["due"][1] == OUT_OF_RANGE

    def test_declared_instant_rejects_an_out_of_range_value(self, tmp_path):
        text = (
            "case_id,activity,timestamp,due\n"
            "1,a,2021-01-01T10:00:00,2021-02-01T00:00:00\n"
            f"1,b,2021-01-01T10:05:00,{OUT_OF_RANGE}\n"
        )
        mapping = ColumnMapping(attribute_kinds={"due": INSTANT})
        with pytest.raises(RowError, match=r"line 3: .*'due'") as err:
            parse_csv(write(tmp_path / "log.csv", text), mapping)
        assert err.value.line == 3

    def test_declared_kind_wins(self, tmp_path):
        text = "case_id,activity,timestamp,code\n1,a,2021-01-01T10:00:00,42\n"
        mapping = ColumnMapping(attribute_kinds={"code": CATEGORICAL})
        log = parse_csv(write(tmp_path / "log.csv", text), mapping)
        assert log.attribute_schema["code"].kind == CATEGORICAL

    @pytest.mark.parametrize(
        "kind, readable", [(NUMERIC, "5"), (INSTANT, "2021-02-01T00:00:00")]
    )
    def test_declared_kind_rejects_an_unreadable_event_value(self, tmp_path, kind, readable):
        text = (
            "case_id,activity,timestamp,cost\n"
            f"1,a,2021-01-01T10:00:00,{readable}\n"
            "1,b,2021-01-01T10:05:00,abc\n"
        )
        mapping = ColumnMapping(attribute_kinds={"cost": kind})
        with pytest.raises(RowError, match=r"line 3: .*'cost'.*'abc'") as err:
            parse_csv(write(tmp_path / "log.csv", text), mapping)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "kind, zero, value",
        [(NUMERIC, "0", 0), (NUMERIC, "0.0", 0.0), (INSTANT, "1970-01-01T00:00:00Z", Instant(0))],
    )
    def test_declared_kind_keeps_a_falsy_value(self, tmp_path, kind, zero, value):
        text = (
            "case_id,activity,timestamp,cost\n"
            f"1,a,2021-01-01T10:00:00,{zero}\n"
            "1,b,2021-01-01T10:05:00,\n"
            f"1,c,2021-01-01T10:10:00,{zero}\n"
        )
        mapping = ColumnMapping(attribute_kinds={"cost": kind})
        log = parse_csv(write(tmp_path / "log.csv", text), mapping)
        held = log.cases["1"].event_attributes["cost"]
        assert held == (value, None, value) and type(held[0]) is type(value)

    def test_declared_kind_rejects_an_unreadable_case_value(self, tmp_path):
        text = (
            "case_id,activity,timestamp,cost\n"
            "1,a,2021-01-01T10:00:00,5\n"
            "2,a,2021-01-01T11:00:00,abc\n"
            "2,b,2021-01-01T11:05:00,abc\n"
        )
        mapping = ColumnMapping(attribute_kinds={"cost": NUMERIC})
        with pytest.raises(RowError, match=r"line 3: .*'cost'.*'abc'"):
            parse_csv(write(tmp_path / "log.csv", text), mapping)

    def test_unknown_declared_kind_names_the_column_before_rows_are_read(self, tmp_path):
        text = "case_id,activity,timestamp,cost\n1,a,not-a-time,5\n"
        mapping = ColumnMapping(attribute_kinds={"cost": "money"})
        with pytest.raises(SchemaError, match="'money' for column 'cost'"):
            parse_csv(write(tmp_path / "log.csv", text), mapping)

    @pytest.mark.parametrize(
        "column, role",
        [("activity", "a mandatory column"), ("nosuch", "a column the header lacks")],
    )
    def test_declared_kind_for_no_attribute_column_is_refused(self, tmp_path, column, role):
        text = "case_id,activity,timestamp,cost\n1,a,not-a-time,5\n"  # refused before row 2
        mapping = ColumnMapping(attribute_kinds={"cost": NUMERIC, column: NUMERIC})
        with pytest.raises(SchemaError, match=f"attribute_kinds entry '{column}' names {role}"):
            parse_csv(write(tmp_path / "log.csv", text), mapping)

    def test_byte_that_is_not_utf8_reports_its_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(CSV_BASIC.encode("utf-8").replace(b"2,a,", b"2,\xff,"))
        with pytest.raises(RowError, match=r"line 4: byte 0xff is not UTF-8") as err:
            parse_csv(path)
        assert err.value.line == 4

    def test_field_over_the_csv_size_limit_reports_its_line(self, tmp_path):
        text = CSV_BASIC.replace("1,b,", "1," + "b" * (csv.field_size_limit() + 1) + ",")
        with pytest.raises(RowError, match="line 3: field larger than field limit") as err:
            parse_csv(write(tmp_path / "log.csv", text))
        assert err.value.line == 3

    def test_custom_column_names(self, tmp_path):
        text = "Case,Task,When\n9,a,2021-01-01T10:00:00\n"
        mapping = ColumnMapping(case_col="Case", activity_col="Task", time_col="When")
        log = parse_csv(write(tmp_path / "log.csv", text), mapping)
        assert log.trace("9") == ("a",)

    def test_deterministic(self, tmp_path):
        path = write(tmp_path / "log.csv", CSV_BASIC)
        a = parse_csv(path)
        b = parse_csv(path)
        assert a == b


# Data rows of a log long enough to span more than two of parse_csv's read blocks.
LONG_ROWS = 9_000


def long_rows():
    """LONG_ROWS rows in write_csv's form: cases of five events, some out of time order."""
    return [
        [f"c{n // 5}", f"a{n % 3}", f"2021-01-{1 + n % 7:02d}T10:00:00.{n % 1000:03d}+00:00"]
        for n in range(LONG_ROWS)
    ]


def write_rows(path, rows, header=("case_id", "activity", "timestamp")):
    """The header and rows as csv.writer writes them (CRLF line ends); the path."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def test_long_log_spans_more_than_two_read_blocks():
    assert LONG_ROWS > 2 * log_model.READ_BLOCK_ROWS


class TestParseCsvErrorsAfterTheFirstBlock:
    """Data row n of a long log is on line n + 2 unless a field before it spans lines."""

    def test_a_clean_long_log_parses(self, tmp_path):
        log = parse_csv(write_rows(tmp_path / "log.csv", long_rows()))
        assert log.num_events == LONG_ROWS
        assert log.num_cases == LONG_ROWS // 5
        assert all(list(case.timestamps) == sorted(case.timestamps) for case in log.cases.values())

    def test_byte_that_is_not_utf8_past_the_decoders_read_ahead(self, tmp_path):
        path = write_rows(tmp_path / "log.csv", long_rows())
        data = path.read_bytes()
        at = data.index(b"\r\nc800,") + len(b"\r\nc800,")  # the activity of data row 4,000
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(RowError, match=r"^line 4002: byte 0xff is not UTF-8$") as err:
            parse_csv(path)
        assert err.value.line == 4002

    def test_field_over_the_csv_size_limit(self, tmp_path):
        rows = long_rows()
        rows[6_000][1] = "b" * (csv.field_size_limit() + 1)
        with pytest.raises(RowError, match=r"^line 6002: field larger than field limit") as err:
            parse_csv(write_rows(tmp_path / "log.csv", rows))
        assert err.value.line == 6002

    def test_unparseable_timestamp_after_a_clean_first_block(self, tmp_path):
        rows = long_rows()
        rows[8_500][2] = "2021-02-29T10:00:00.000+00:00"
        message = r"^line 8502: unparseable timestamp '2021-02-29T10:00:00.000\+00:00' in column"
        with pytest.raises(RowError, match=message) as err:
            parse_csv(write_rows(tmp_path / "log.csv", rows))
        assert err.value.line == 8502

    @pytest.mark.parametrize("line_break", ["\n", "\r\n"])
    def test_line_break_in_a_quoted_field_before_the_bad_row(self, tmp_path, line_break):
        rows = long_rows()
        rows[100][1] = f"two{line_break}lines"
        rows[5_000][1] = ""
        with pytest.raises(RowError, match=r"^line 5003: empty activity$") as err:
            parse_csv(write_rows(tmp_path / "log.csv", rows))
        assert err.value.line == 5003

    def test_first_bad_row_in_file_order_wins(self, tmp_path):
        rows = long_rows()
        rows[7_000][2] = "not-a-time"
        rows[4_500].append("surplus")
        rows[4_200][0] = " "
        with pytest.raises(RowError, match=r"^line 4202: empty case id$"):
            parse_csv(write_rows(tmp_path / "log.csv", rows))

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({(1_500, 3): "abc", (2_500, 0): ""},
             "column 'cost' holds unreadable numeric value 'abc'"),
            ({(2_500, 3): "abc", (1_500, 1): ""}, "empty activity"),
        ],
        ids=["declared-value-first", "empty-activity-first"],
    )
    def test_declared_value_faults_keep_file_order(self, tmp_path, faults, message):
        rows = [row + [str(n)] for n, row in enumerate(long_rows()[:3_000])]
        for (n, column), text in faults.items():
            rows[n][column] = text
        path = write_rows(tmp_path / "log.csv", rows, ("case_id", "activity", "timestamp", "cost"))
        with pytest.raises(RowError, match=f"^line 1502: {message}$"):
            parse_csv(path, ColumnMapping(attribute_kinds={"cost": NUMERIC}))


def test_write_csv_timestamps_are_read_without_parse_instant(tmp_path, monkeypatch):
    log = parse_csv(write_rows(tmp_path / "log.csv", long_rows()))
    write_csv(log, tmp_path / "back.csv")

    def refuse(text):
        raise AssertionError(f"_instant_ms read {text!r}")

    monkeypatch.setattr(log_model, "_instant_ms", refuse)
    assert parse_csv(tmp_path / "back.csv") == log


@pytest.mark.parametrize(
    "declared, calls",
    [({}, (7, 6)), ({"cost": NUMERIC, "due": INSTANT}, (6, 6))],
    ids=["inferred", "declared"],
)
def test_each_attribute_text_is_parsed_once(tmp_path, monkeypatch, declared, calls):
    """Calls of _number and _instant_ms: one per text of a numeric or instant column, and
    one for the first text of each column that a kind's inference refuses there."""
    rows = [
        [f"k{n // 2}", "a", f"2021-01-01T10:00:0{n}.000+00:00", str(n), f"2021-02-0{n + 1}",
         f"g{n}"]
        for n in range(5)
    ]
    path = write_rows(
        tmp_path / "log.csv", rows, ("case_id", "activity", "timestamp", "cost", "due", "grade")
    )
    counts = {}

    def spy(name, function):
        def counted(text):
            counts[name] = counts.get(name, 0) + 1
            return function(text)
        return counted

    monkeypatch.setattr(log_model, "_number", number := spy("number", log_model._number))
    monkeypatch.setitem(log_model._CONVERTERS, NUMERIC, number)
    monkeypatch.setattr(log_model, "_instant_ms", spy("instant", log_model._instant_ms))
    log = parse_csv(path, ColumnMapping(attribute_kinds=declared))
    assert (counts["number"], counts["instant"]) == calls
    assert {name: spec.kind for name, spec in log.attribute_schema.items()} == {
        "cost": NUMERIC, "due": INSTANT, "grade": CATEGORICAL,
    }


def isoformat_utc(dt: datetime) -> str:
    """write_csv's text of a datetime, kept as the oracle: the ``isoformat`` of its UTC time.

    A naive datetime is taken as UTC.
    """
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat(timespec="milliseconds")


def _infer_kind(values: list[str]) -> str:
    """The kind parse_csv inferred for a column's texts before it converted each text once."""
    if not values:
        return CATEGORICAL
    if all(map(writes_as_number, values)):
        return NUMERIC
    try:
        for v in values:
            parse_instant(v)
        return INSTANT
    except ValueError:
        pass
    return CATEGORICAL


def reference_parse_csv(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """``parse_csv`` before it built each event once, kept as the oracle.

    It is kept verbatim but for one step: a column's texts are compared, to
    decide its scope, as write_csv writes their values back, so that two
    spellings of one instant are one value.

    Raises SchemaError when a mandatory column is missing or a column name
    repeats, RowError with the line number for unusable rows (including rows
    with more fields than the header, and values a column declared numeric
    or instant cannot read), and EmptyLogError when there are no data rows.
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

        # Values of a column declared numeric or instant are checked as they
        # are read, where the line is known; inferred kinds read every value.
        checked = [
            (i, name, kind)
            for i, name in attr_cols
            if (kind := mapping.attribute_kinds.get(name)) in CONVERTERS
        ]

        raw_rows: list[tuple[str, str, datetime, dict[str, str]]] = []
        for row in reader:
            line = reader.line_num
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
                        CONVERTERS[kind](row[i])
                    except ValueError:
                        raise RowError(
                            f"column {name!r} holds unreadable {kind} value {row[i]!r}", line
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
    # present on every row with one constant value, as write_csv writes it.
    rows_per_case: dict[str, list[dict[str, str]]] = {}
    for case_id, _, _, attrs in raw_rows:
        rows_per_case.setdefault(case_id, []).append(attrs)

    def written(name, text):
        if text is None or kinds[name] == CATEGORICAL:
            return text
        value = CONVERTERS[kinds[name]](text)
        return isoformat_utc(value) if kinds[name] == INSTANT else str(value)

    promoted: list[str] = []
    for _, name in attr_cols:
        constant = True
        seen_any = False
        for attr_rows in rows_per_case.values():
            values = {written(name, attrs.get(name)) for attrs in attr_rows}
            if len(values) != 1 or None in values:
                constant = False
                break
            seen_any = True
        if constant and seen_any:
            promoted.append(name)

    # Numeric and instant values are converted in place, column by column;
    # categorical values stay the text read. A case attribute is converted
    # on the first row of each case, the row its value is taken from.
    first_rows = [attr_rows[0] for attr_rows in rows_per_case.values()]
    for name, kind in kinds.items():
        if kind == CATEGORICAL:
            continue
        convert = CONVERTERS[kind]
        for attrs in first_rows if name in promoted else map(itemgetter(3), raw_rows):
            if name in attrs:
                attrs[name] = convert(attrs[name])

    cases: dict[str, list[Event]] = {}
    for case_id, activity, ts, attrs in raw_rows:
        own = {name: value for name, value in attrs.items() if name not in promoted}
        cases.setdefault(case_id, []).append(Event(activity, ts, own))
    case_attributes = {
        case_id: {name: attr_rows[0][name] for name in promoted}
        for case_id, attr_rows in rows_per_case.items()
    }

    schema = {
        name: AttributeSpec(kinds[name], CASE_SCOPE if name in promoted else EVENT_SCOPE)
        for _, name in attr_cols
        if any(name in attrs for _, _, _, attrs in raw_rows)
    }
    return build_log(cases, case_attributes, schema)


# Cell texts by the kind they read as. "007" and "1e3" read as text, since
# written back as numbers they would be "7" and "1000.0"; the three
# spellings of one instant differ as text but not as a datetime. An int of
# 400 digits is beyond any float, and the epoch is a falsy Instant.
CELL_TEXTS = {
    "int": ["0", "1", "-7", "007", "42", "9" * 400],
    "float": ["1.0", "2.5", "-0.5", "1e3"],
    "non-finite": ["nan", "inf", "-Infinity"],
    "instant": [
        "2021-02-01T00:00:00", "2021-02-01T00:00:00Z", "2021-02-01T01:00:00+01:00",
        "1970-01-01T00:00:00Z",  # Instant(0), a falsy value
    ],
    "text": ["web", "phone", "a b", "x,y", 'say "hi"', "two\nlines", "two\r\nlines"],
}

# Timestamps in write_csv's own form, which parse_csv reads in bulk when a
# whole block holds that form.
WRITTEN_STAMPS = [
    "2021-01-01T10:00:00.000+00:00",
    "2021-01-01T09:59:59.999+00:00",
    "2020-02-29T10:05:00.123+00:00",
]

# Row timestamps: ties, one instant in several spellings, write_csv's own form,
# and near misses of that form, which _instant_ms reads or refuses as it will.
STAMPS = [
    "2021-01-01T10:00:00",
    "2021-01-01T10:00:00Z",
    "2021-01-01T09:00:00-01:00",
    "2021-01-01T10:05:00.123456",
    "2021-01-01T09:59:59.999",
    "2021-01-01T11:00:00+02:00",
    *WRITTEN_STAMPS,
    "0000-01-01T10:00:00.000+00:00",
    "2021-02-29T10:00:00.000+00:00",
    "2021-01-01T24:00:00.000+00:00",
    "2021-01-01 10:00:00.000+00:00",
    "2021-01-01T1\u0660:00:00.000+00:00",
    "2021-01-01T10:00:00.000+00:00 ",
]

# How an attribute column is filled: one text per case; one text per case but
# one cell of the case left empty; any text or empty per row; "1" and "1.0"
# alternating within a case.
COLUMN_MODES = ["per-case", "per-case-with-gap", "per-row", "one-and-one-point-zero"]


@st.composite
def csv_logs(draw):
    """CSV text, and the kinds declared for it, with the shapes parse_csv must tell apart."""
    columns = [f"c{j}" for j in range(draw(st.integers(0, 4)))]
    modes = {col: draw(st.sampled_from(COLUMN_MODES)) for col in columns}
    texts = {
        col: sorted(
            text
            for kind in draw(st.sets(st.sampled_from(sorted(CELL_TEXTS)), min_size=1, max_size=2))
            for text in CELL_TEXTS[kind]
        )
        for col in columns
    }
    declared = {
        col: kind
        for col in columns
        if (kind := draw(st.sampled_from([None] * 6 + [CATEGORICAL, NUMERIC, INSTANT])))
    }
    header = draw(st.permutations(["case_id", "activity", "timestamp", *columns]))
    stamps = draw(st.sampled_from([STAMPS, WRITTEN_STAMPS]))

    rows = []
    for case in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 4))
        own = {col: draw(st.sampled_from(texts[col])) for col in columns}
        gap = draw(st.integers(0, length - 1))
        for position in range(length):
            cells = {
                "case_id": f"k{case}",
                "activity": draw(st.sampled_from("abc")),
                "timestamp": draw(st.sampled_from(stamps)),
            }
            for col, mode in modes.items():
                if mode == "per-case":
                    cells[col] = own[col]
                elif mode == "per-case-with-gap":
                    cells[col] = "" if position == gap else own[col]
                elif mode == "per-row":
                    cells[col] = draw(st.sampled_from(["", *texts[col]]))
                else:
                    cells[col] = "1" if position % 2 == 0 else "1.0"
            rows.append([cells[name] for name in header])
    rows = draw(st.permutations(rows))  # out of timestamp order, cases interleaved

    if draw(st.integers(0, 9)) == 0:  # now and then, an unusable row
        row = list(draw(st.sampled_from(rows)))
        fault = draw(st.sampled_from(["timestamp", "activity", "case_id", "extra"]))
        if fault == "extra":
            row.append("surplus")
        else:
            row[header.index(fault)] = "not-a-time" if fault == "timestamp" else ""
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [""] * len(header))  # blank record
    short = draw(st.booleans())
    for row in rows:
        while short and row and row[-1] == "":  # short rows: trailing empty cells dropped
            row.pop()
    return header, rows, declared


def parsed(parse, path, mapping):
    """Everything a parser returns, with value types and key order, or its error.

    Each event's attributes are compared by name: their order follows the
    log's columns, which the two parsers build in different orders.
    """
    try:
        log = parse(path, mapping)
    except Exception as exc:
        return type(exc), str(exc)

    def items(attributes):
        return [(name, type(value), repr(value)) for name, value in attributes.items()]

    return (
        [
            (
                case_id,
                case.case_id,
                case.trace,
                items(case.attributes),
                [
                    (activity, repr(stamp), sorted(items(held)))
                    for activity, stamp, held in event_rows(case)
                ],
            )
            for case_id, case in log.cases.items()
        ],
        list(log.attribute_schema.items()),
        sorted(log.activity_alphabet),
    )


@settings(max_examples=300, deadline=None)
@given(csv_logs())
def test_parse_csv_matches_reference(generated):
    header, rows, declared = generated
    mapping = ColumnMapping(attribute_kinds=declared)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert parsed(parse_csv, path, mapping) == parsed(reference_parse_csv, path, mapping)


def by_name(result):
    """``parsed`` output with attributes in name order, the column order write_csv writes."""
    cases, schema, alphabet = result
    return (
        [
            (key, case_id, trace, sorted(attributes), [(a, t, sorted(own)) for a, t, own in events])
            for key, case_id, trace, attributes, events in cases
        ],
        sorted(schema),
        alphabet,
    )


@settings(max_examples=300, deadline=None)
@given(csv_logs())
def test_write_then_parse_gives_back_the_parsed_log(generated):
    header, rows, declared = generated
    mapping = ColumnMapping(attribute_kinds=declared)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        try:
            log = parse_csv(path, mapping)
        except Exception:
            assume(False)  # the property is over the inputs parse_csv accepts
        back = Path(tmp) / "back.csv"
        write_csv(log, back)
        written = ColumnMapping(
            attribute_kinds={k: v for k, v in declared.items() if k in log.attribute_schema}
        )
        assert by_name(parsed(parse_csv, back, written)) == by_name(parsed(parse_csv, path, mapping))


def test_spellings_of_one_instant_keep_their_scope(tmp_path):
    text = (
        "case_id,activity,timestamp,due\n"
        "1,a,2021-01-01T10:00:00,2021-02-01T00:00:00\n"
        "1,b,2021-01-01T10:05:00,2021-02-01T00:00:00Z\n"
    )
    log = parse_csv(write(tmp_path / "in.csv", text))
    assert log.attribute_schema["due"].scope == CASE_SCOPE
    write_csv(log, tmp_path / "out.csv")
    assert parse_csv(tmp_path / "out.csv").attribute_schema == log.attribute_schema


class TestWriteCsv:
    def test_row_count(self, tmp_path, tiny_log):
        out = tmp_path / "out.csv"
        write_csv(tiny_log, out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + tiny_log.num_events

    def test_round_trip_preserves_structure(self, tmp_path):
        def attrs(case_n, event_idx):
            return {"resource": f"r{event_idx}"} if event_idx else {}

        from helpers import resource_schema

        log = log_from_variants(
            [(("a", "b"), 2), (("c",), 1)], event_attrs=attrs, schema=resource_schema()
        )
        out = tmp_path / "out.csv"
        write_csv(log, out)
        back = parse_csv(out)
        assert back.num_cases == log.num_cases
        assert back.num_events == log.num_events
        assert trace_counts(back) == trace_counts(log)

    def test_empty_attribute_restored_as_absent(self, tmp_path):
        text = (
            "case_id,activity,timestamp,note\n"
            "1,a,2021-01-01T10:00:00,hello\n"
            "1,b,2021-01-01T10:05:00,\n"
        )
        log = parse_csv(write(tmp_path / "in.csv", text))
        out = tmp_path / "out.csv"
        write_csv(log, out)
        back = parse_csv(out)
        assert back.cases["1"].event_attributes == {"note": ("hello", None)}

    def test_attribute_values_survive_round_trip(self, tmp_path):
        text = (
            "case_id,activity,timestamp,cost\n"
            "1,a,2021-01-01T10:00:00,5\n"
            "1,b,2021-01-01T10:05:00,9\n"
        )
        log = parse_csv(write(tmp_path / "in.csv", text))
        out = tmp_path / "out.csv"
        write_csv(log, out)
        back = parse_csv(out)
        assert back.cases["1"].event_attributes["cost"] == (5, 9)

    @pytest.mark.parametrize("key", ["case_id", "activity", "timestamp"])
    def test_attribute_named_like_a_column_is_refused(self, tmp_path, key):
        # the header would read case_id,activity,timestamp,<key>, which parse_csv rejects
        xes = XES_BASIC.replace('key="org:resource"', f'key="{key}"')
        log = parse_xes(write(tmp_path / "log.xes", xes))
        out = tmp_path / "out.csv"
        with pytest.raises(SchemaError, match=f"attribute '{key}' has the name of the .* column"):
            write_csv(log, out)
        assert not out.exists()
        renamed = ColumnMapping(case_col="case", activity_col="act", time_col="time")
        write_csv(log, out, renamed)
        assert parse_csv(out, renamed).num_events == log.num_events

    @pytest.mark.parametrize("event_values", [("2", "2"), ("2", "3")], ids=["same", "mixed"])
    def test_case_attribute_every_event_shadows_is_refused(self, tmp_path, event_values):
        # column x would hold the events' values on every row of t1, and the case's 1 on none
        log = parse_xes(write(tmp_path / "log.xes", shadowed_xes("1", event_values)))
        out = tmp_path / "out.csv"
        with pytest.raises(SchemaError, match="case 't1' has attribute 'x'"):
            write_csv(log, out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "event_values",
        [(None, "2"), ("1", "1"), ("1", "2")],
        ids=["one-event", "every-event-equal", "one-event-equal"],
    )
    def test_case_attribute_on_some_row_is_written(self, tmp_path, event_values):
        # a row whose event has no x, or the case's own value of it, carries the case's 1
        log = parse_xes(write(tmp_path / "log.xes", shadowed_xes("1", event_values)))
        out = tmp_path / "out.csv"
        write_csv(log, out)
        with out.open(newline="") as fh:
            column = [row["x"] for row in csv.DictReader(fh)]
        assert column == ["1" if v is None else v for v in event_values]

    @pytest.mark.parametrize(
        "columns",
        [
            {"case_col": "k", "activity_col": "k"},
            {"case_col": "k", "time_col": "k"},
            {"activity_col": "k", "time_col": "k"},
            {"case_col": "k", "activity_col": "k", "time_col": "k"},
        ],
    )
    def test_mapping_that_repeats_a_column_is_refused(self, columns):
        # write_csv would write the header k,k,…, which parse_csv rejects
        with pytest.raises(SchemaError, match="column 'k'"):
            ColumnMapping(**columns)

    def test_number_like_text_survives_round_trip(self, tmp_path):
        # int() and float() read all three, but written back they would be 7, 7 and 1000.0
        text = (
            "case_id,activity,timestamp,code\n"
            "1,a,2021-01-01T10:00:00,007\n"
            "1,b,2021-01-01T10:05:00,+7\n"
            "2,a,2021-01-01T10:00:00,1e3\n"
        )
        log = parse_csv(write(tmp_path / "in.csv", text))
        assert log.attribute_schema["code"] == AttributeSpec(CATEGORICAL, EVENT_SCOPE)
        out = tmp_path / "out.csv"
        write_csv(log, out)
        back = parse_csv(out)
        assert back.attribute_schema == log.attribute_schema
        codes = [code for case in back.cases.values() for code in case.event_attributes["code"]]
        assert codes == ["007", "+7", "1e3"]


# Categorical texts: number-like ones that are not written the way str() writes
# a number, and two that are ("7", "2.5").
CATEGORY_TEXTS = ["007", "+7", "1e3", "-0", "1_000", " 7", "7", "2.5", "web", "x,y", 'say "hi"']
ATTRIBUTE_VALUES = {
    CATEGORICAL: st.sampled_from(CATEGORY_TEXTS),
    NUMERIC: st.one_of(
        st.integers(-(10**6), 10**6), st.floats(allow_nan=False, allow_infinity=False)
    ),
    INSTANT: st.integers(0, 10**12).map(lambda ms: T0 + timedelta(milliseconds=ms)),
}


def writes_as_number(text: str) -> bool:
    """Whether ``text`` is exactly how ``str`` writes some finite int or float."""
    for number in (int, float):
        try:
            value = number(text)
        except ValueError:
            continue
        # an int over about 308 digits overflows math.isfinite
        return (number is int or math.isfinite(value)) and str(value) == text
    return False


@st.composite
def attributed_logs(draw):
    """A log with attributes of every kind and scope that a CSV can carry.

    Two things are beyond any CSV reader: a categorical column whose every
    text is a number as ``str`` writes it, and an event column that, in
    every case, sits on every event with one value (it reads as a case
    attribute). Such logs are not drawn.
    """
    schema = {
        f"c{j}": AttributeSpec(
            draw(st.sampled_from([CATEGORICAL, NUMERIC, INSTANT])),
            draw(st.sampled_from([CASE_SCOPE, EVENT_SCOPE])),
        )
        for j in range(draw(st.integers(0, 3)))
    }
    cases, case_attributes = {}, {}
    for n in range(draw(st.integers(1, 4))):
        cid = f"k{n}"
        events = cases[cid] = []
        case_attributes[cid] = {
            name: draw(ATTRIBUTE_VALUES[spec.kind])
            for name, spec in schema.items()
            if spec.scope == CASE_SCOPE
        }
        for _ in range(draw(st.integers(1, 4))):
            attributes = {
                name: draw(ATTRIBUTE_VALUES[spec.kind])
                for name, spec in schema.items()
                if spec.scope == EVENT_SCOPE and draw(st.booleans())
            }
            stamp = T0 + timedelta(minutes=draw(st.integers(0, 3)))
            events.append(Event(draw(st.sampled_from("abc")), stamp, attributes))
    log = build_log(cases, case_attributes, schema)

    for name, spec in schema.items():
        if spec.scope == CASE_SCOPE:
            values = [case.attributes[name] for case in log.cases.values()]
        else:
            per_case = [
                case.event_attributes.get(name, (None,) * len(case.trace))
                for case in log.cases.values()
            ]
            assume(not all(None not in vs and len(set(vs)) == 1 for vs in per_case))
            values = [v for vs in per_case for v in vs if v is not None]
            assume(values)
        if spec.kind == CATEGORICAL:
            assume(not all(map(writes_as_number, values)))
    return log


def log_contents(log):
    """Cases, events, attribute values with their types, and the schema."""

    def typed(attributes):
        return {name: (type(value), repr(value)) for name, value in attributes.items()}

    return (
        [
            (
                cid,
                case.trace,
                typed(case.attributes),
                [(activity, stamp, typed(held)) for activity, stamp, held in event_rows(case)],
            )
            for cid, case in log.cases.items()
        ],
        log.attribute_schema,
    )


@settings(max_examples=200, deadline=None)
@given(attributed_logs())
def test_write_then_parse_keeps_values_and_schema(log):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_csv(log, path)
        assert log_contents(parse_csv(path)) == log_contents(log)


def reference_write_csv(
    log: EventLog, path: str | Path, mapping: ColumnMapping | None = None
) -> None:
    """The per-row ``csv.writer`` ``write_csv`` the block writer replaced, kept as the oracle.

    Like write_csv, it first refuses a log with a case id or an activity
    that parse_csv would not read back as written. An attribute value is
    written as its ``str``, which for an Instant is the isoformat_utc text.
    """
    mapping = mapping or ColumnMapping()
    render = str

    for case in log.cases.values():
        if not case.trace:  # writes no row
            continue
        # each label as csv.writer converts it; parse_csv strips it and refuses it empty
        labels = [("a case id", case.case_id)] + [("an activity", a) for a in case.trace]
        for role, label in labels:
            text = "" if label is None else repr(label) if isinstance(label, float) else str(label)
            if not text or text.strip() != text:
                raise SchemaError(
                    f"case {case.case_id!r} has {role} written as {text!r}, which parse_csv"
                    " would not read back: it strips case ids and activities of whitespace"
                    " and refuses empty ones"
                )
    events = {case_id: event_rows(case) for case_id, case in log.cases.items()}
    event_names = {name for rows in events.values() for _, _, held in rows for name in held}
    case_names = {name for case in log.cases.values() for name in case.attributes}
    for case_id, case in log.cases.items():
        for name, value in case.attributes.items():
            if name in event_names and events[case_id] and all(
                name in held and render(held[name]) != render(value)
                for _, _, held in events[case_id]
            ):
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

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for key, case in log.cases.items():
            case_id = case.case_id
            shared = {name: render(value) for name, value in case.attributes.items()}
            rows = []
            for activity, stamp, own in events[key]:
                rows.append([
                    case_id,
                    activity,
                    isoformat_utc(stamp),
                    *[
                        render(own[name]) if name in own else shared.get(name, "")
                        for name in attr_names
                    ],
                ])
            writer.writerows(rows)


TEXT_PIECES = ["a", "b c", ",", '"', "\r", "\n", "é", "日本"]
if sys.version_info >= (3, 11):  # Python 3.10's csv.writer, the oracle, refuses NUL
    TEXT_PIECES.append("\x00")
WRITE_TEXTS = st.lists(st.sampled_from(TEXT_PIECES), max_size=4).map("".join)
WRITE_NAMES = ["n", "a,b", 'say "x"', "é", "l\nf"]
WRITE_ZONES = [
    None,
    timezone.utc,
    timezone(timedelta(0), "GMT"),  # equal to UTC but another object
    timezone(timedelta(hours=5, minutes=30)),
    timezone(-timedelta(hours=14)),
    timezone(timedelta(seconds=1, microseconds=500)),
]
# The ends of the datetime range; in some zones their UTC time is outside the
# years 1-9999, which the oracle meets as an OverflowError.
EDGE_INSTANTS = [datetime.min, datetime(1, 1, 1, 3), datetime(9999, 12, 31, 22), datetime.max]
WRITE_INSTANTS = st.one_of(
    st.datetimes(timezones=st.sampled_from(WRITE_ZONES)),
    st.builds(
        datetime.replace, st.sampled_from(EDGE_INSTANTS), tzinfo=st.sampled_from(WRITE_ZONES)
    ),
)
WRITE_PLAIN_VALUES = st.one_of(
    WRITE_TEXTS, st.integers(-(10**6), 10**6), st.floats(), st.booleans()
)
WRITE_VALUES = st.one_of(WRITE_PLAIN_VALUES, WRITE_INSTANTS)
# not str, so csv.writer converts them: None to "", a float by repr, the rest by str
WRITE_LABELS = st.one_of(WRITE_TEXTS, st.integers(-9, 9), st.floats(allow_nan=False), st.none())
# labels parse_csv reads back as written: none is empty or has whitespace at an end
READABLE_LABELS = st.one_of(
    WRITE_TEXTS.map("<{}>".format), st.integers(-9, 9), st.floats(allow_nan=False)
)


def as_built(value):
    """An attribute value as build_log holds it: a datetime becomes an Instant.

    A datetime whose UTC time falls outside the years 1-9999, where
    isoformat_utc overflows, is refused there: that is asserted, and None,
    an absent value, is given in its place.
    """
    if not isinstance(value, datetime):
        return value
    ms = log_model._epoch_ms([value])[0]
    try:
        text = isoformat_utc(value)
    except OverflowError:
        with pytest.raises(ValueError, match="outside the years 1-9999 in UTC"):
            Instant(ms)
        return None
    assert str(Instant(ms)) == text
    return Instant(ms)


def case_of(case_id, events, attributes):
    """A Case holding ``events`` as given: not sorted, not checked, timestamps of any year.

    Its attribute values are converted as build_log converts them (see as_built).
    A name whose every value as_built gives as None is left out, since
    event_attributes maps only names that some event holds.
    """
    names = dict.fromkeys(name for ev in events for name in ev.attributes)
    columns = {name: tuple(as_built(ev.attributes.get(name)) for ev in events) for name in names}
    return Case(
        case_id,
        tuple(ev.activity for ev in events),
        log_model._epoch_ms(ev.timestamp for ev in events),
        {name: built for name, value in attributes.items()
         if (built := as_built(value)) is not None},
        {name: column for name, column in columns.items()
         if any(value is not None for value in column)},
    )


@st.composite
def writable_logs(draw):
    """A log of everything write_csv turns into text, built without build_log's checks.

    Events of one case may mix naive and aware timestamps, and case
    attributes share names with event attributes. A Case built directly may
    have no events and timestamps outside the years 1-9999 in UTC. Half the
    logs draw their case ids and activities from WRITE_LABELS, which may be
    written empty or with whitespace at an end, so that write_csv refuses
    them; the others from READABLE_LABELS. Drawn datetime attribute values
    become Instants, as build_log converts them (see case_of).
    """
    names = st.sampled_from(WRITE_NAMES)
    labels = draw(st.sampled_from([READABLE_LABELS, WRITE_LABELS]))
    cases = {}
    for case_id in draw(st.lists(labels, min_size=1, max_size=5, unique=True)):
        events = [
            Event(
                draw(labels),
                draw(WRITE_INSTANTS),
                draw(st.dictionaries(names, WRITE_VALUES, max_size=2)),
            )
            for _ in range(draw(st.integers(0, 4)))
        ]
        attributes = draw(st.dictionaries(names, WRITE_VALUES, max_size=2))
        cases[case_id] = case_of(case_id, events, attributes)
    return EventLog(cases)


def written(write, log, path):
    """The bytes a writer leaves, or the type and message of what it raised."""
    try:
        write(log, path)
    except Exception as exc:
        return type(exc), str(exc)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(writable_logs(), st.sampled_from([1, 2, 3, log_model.WRITE_BLOCK_ROWS]))
def test_write_csv_matches_reference(log, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        expected = written(reference_write_csv, log, Path(tmp) / "reference.csv")
        path = Path(tmp) / "log.csv"
        with mock.patch.object(log_model, "WRITE_BLOCK_ROWS", block_rows):
            actual = written(write_csv, log, path)
        if isinstance(expected, tuple) and expected[0] is OverflowError:
            # a timestamp outside the years 1-9999 in UTC: refused, and no file left
            assert actual[0] is SchemaError
            assert "outside the years 1-9999 in UTC" in actual[1]
            assert not path.exists()
        else:
            assert actual == expected


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), WRITE_LABELS))
def test_csv_field_matches_csv_writer(value):
    assume(sys.version_info >= (3, 11) or "\x00" not in str(value))
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", value])
    assert "," + csv_field(value) + "\r\n" == buffer.getvalue()


# 0001-01-01T03:00+05:00 is 22:00 on the last day of year 0 in UTC
EARLY = datetime(1, 1, 1, 3, tzinfo=timezone(timedelta(hours=5)))


@pytest.mark.parametrize("where", ["timestamp", "naive-block"])
def test_instant_outside_the_years_is_refused(tmp_path, where):
    # A Case built by hand may hold such a timestamp; build_log refuses it (see TestBuildLog)
    stamps = {"k0": [T0, T0], "k1": [T0, EARLY]}
    if where == "naive-block":  # a naive stamp in the log with the one out of range
        stamps["k0"][0] = datetime(2021, 1, 1)
    log = EventLog({
        cid: case_of(cid, [Event(a, ts) for a, ts in zip("ab", stamps[cid])], {})
        for cid in stamps
    })
    out = tmp_path / "out.csv"
    with pytest.raises(
        SchemaError, match="case 'k1' has an event timestamp outside the years 1-9999 in UTC"
    ):
        write_csv(log, out)
    assert not out.exists()


def test_empty_case_id_is_refused_before_the_file_is_opened(tmp_path):
    # parse_csv would refuse the file with "empty case id"
    log = build_log({"k": [Event("a", T0)], "": [Event("b", T0)]})
    out = tmp_path / "out.csv"
    with pytest.raises(SchemaError, match="^case '' has a case id written as '', which parse_csv"):
        write_csv(log, out)
    assert not out.exists()


@pytest.mark.parametrize("case_id, activity, role, text", [
    (" k", "a", "a case id", " k"),
    ("k\t", "a", "a case id", "k\t"),
    ("k", "a ", "an activity", "a "),
    ("k", "\na", "an activity", "\na"),
    ("k", "\u3000a", "an activity", "\u3000a"),  # an ideographic space, which str.strip strips
])
def test_label_with_whitespace_at_an_end_is_refused(tmp_path, case_id, activity, role, text):
    log = build_log({"c0": [Event("a", T0)], case_id: [Event("a", T0), Event(activity, T0)]})
    out = tmp_path / "out.csv"
    with pytest.raises(SchemaError) as raised:
        write_csv(log, out)
    assert str(raised.value).startswith(f"case {case_id!r} has {role} written as {text!r},")
    assert not out.exists()


def test_labels_are_checked_as_written_and_only_for_cases_with_rows(tmp_path):
    # None is written as an empty field; a case without events writes no row
    no_id = EventLog({None: Case(None, ("a",), array("q", [0]), {}, {})})
    with pytest.raises(SchemaError, match="^case None has a case id written as ''"):
        write_csv(no_id, tmp_path / "none.csv")
    quiet = {"": Case("", (), array("q"), {}, {}), "k": Case("k", ("a",), array("q", [0]), {}, {})}
    write_csv(EventLog(quiet), tmp_path / "quiet.csv")
    assert parse_csv(tmp_path / "quiet.csv").num_cases == 1


def test_case_without_events_is_not_checked_for_a_shadowed_attribute(tmp_path):
    # k holds p as a case attribute, which a's event holds; k writes no row, so it loses no value
    log = EventLog({
        "a": Case("a", ("x",), array("q", [0]), {}, {"p": (1,)}),
        "k": Case("k", (), array("q"), {"p": 2}, {}),
    })
    out = tmp_path / "out.csv"
    write_csv(log, out)
    assert out.read_bytes() == (
        b"case_id,activity,timestamp,p\r\na,x,1970-01-01T00:00:00.000+00:00,1\r\n"
    )
    assert written(reference_write_csv, log, tmp_path / "reference.csv") == out.read_bytes()


def test_nul_is_written_as_it_is(tmp_path):
    # csv.writer refuses NUL on Python 3.10 and writes it unquoted on 3.11 and later
    log = build_log({"k": [Event("a\x00b", T0, {"note": "x\x00"})]})
    out = tmp_path / "out.csv"
    write_csv(log, out)
    assert out.read_bytes() == (
        b"case_id,activity,timestamp,note\r\n"
        b"k,a\x00b,2021-01-01T00:00:00.000+00:00,x\x00\r\n"
    )
    if sys.version_info >= (3, 11):
        assert parse_csv(out).cases["k"].attributes == {"note": "x\x00"}
    else:  # Python 3.10's csv reader stops at the NUL
        with pytest.raises(RowError, match="NUL"):
            parse_csv(out)


class TestParseXes:
    def test_basic_structure(self, tmp_path):
        log = parse_xes(write(tmp_path / "log.xes", XES_BASIC))
        assert log.num_cases == 1
        assert log.trace("t1") == ("a", "b")
        assert log.cases["t1"].event_attributes == {"org:resource": ("r1", None), "cost": (None, 5)}
        assert log.attribute_schema["cost"].kind == NUMERIC

    def test_gzip_accepted(self, tmp_path):
        path = tmp_path / "log.xes.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(XES_BASIC)
        log = parse_xes(path)
        assert log.num_cases == 1

    @pytest.mark.parametrize("damage", ["not-gzip", "truncated", "byte-flipped"])
    def test_corrupt_gzip_is_a_parse_error(self, tmp_path, damage):
        data = gzip.compress(XES_BASIC.encode("utf-8"), mtime=0)
        if damage == "not-gzip":
            data = XES_BASIC.encode("utf-8")
        elif damage == "truncated":
            data = data[: len(data) // 2]
        else:
            data = data[:11] + bytes([data[11] ^ 0xFF]) + data[12:]
        path = tmp_path / "log.xes.gz"
        path.write_bytes(data)
        with pytest.raises(XesParseError, match="log.xes.gz"):
            parse_xes(path)

    def test_load_log_dispatches_on_suffix(self, tmp_path):
        xes = write(tmp_path / "log.xes", XES_BASIC)
        csv_path = write(tmp_path / "log.csv", CSV_BASIC)
        assert load_log(xes).num_cases == 1
        assert load_log(csv_path).num_cases == 2

    @pytest.mark.parametrize("name", ["log.XES", "log.Xes", "log.XES.GZ", "log.xes.Gz"])
    def test_load_log_reads_the_suffix_in_any_case(self, tmp_path, name):
        data = XES_BASIC.encode("utf-8")
        path = tmp_path / name
        path.write_bytes(gzip.compress(data) if name.lower().endswith(".gz") else data)
        assert load_log(path).trace("t1") == ("a", "b")

    def test_malformed_xml_reports_location(self, tmp_path):
        with pytest.raises(XesParseError, match="line"):
            parse_xes(write(tmp_path / "bad.xes", "<log><trace></log>"))

    def test_malformed_xml_after_a_complete_trace_reports_location(self, tmp_path):
        complete = XES_BASIC[XES_BASIC.index("  <trace>") : XES_BASIC.index("</log>")]
        text = f"<log>\n{complete}  <trace><event></trace>\n</log>\n"
        with pytest.raises(XesParseError, match=r"line 15, column 18$"):
            parse_xes(write(tmp_path / "bad.xes", text))

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_last_trace_after_a_value_longer_than_two_reads_is_kept(self, tmp_path, gz):
        # expat 2.6+ may defer a token that spans reads until the document is
        # closed, so the last trace's end arrives only then
        note = "n" * 40_000
        last = EVENT_A.replace("</event>", f'<string key="note" value="{note}"/></event>')
        text = (
            f"<log><trace>{EVENT_A}</trace>"
            f'<trace><string key="concept:name" value="last"/>{last}</trace></log>'
        )
        data = text.encode("utf-8")
        path = tmp_path / ("log.xes.gz" if gz else "log.xes")
        path.write_bytes(gzip.compress(data) if gz else data)
        log = parse_xes(path)
        assert list(log.cases) == ["case_0", "last"]
        assert log.cases["last"].event_attributes == {"note": (note,)}

    @pytest.mark.parametrize(
        "stamp",
        [
            f'<date key="time:timestamp" value="{OUT_OF_RANGE}"/>',
            '<string key="time:timestamp" value="garbage"/>',
            '<int key="time:timestamp" value="5"/>',
            '<float key="time:timestamp" value="2.5"/>',
            f'<y:date xmlns:y="urn:example:other" key="time:timestamp" value="{OUT_OF_RANGE}"/>',
            "",
        ],
        ids=["date-out-of-range", "string-garbage", "int", "float", "foreign-date", "missing"],
    )
    def test_unreadable_timestamp_names_case_and_event(self, tmp_path, stamp):
        text = (
            "<log><trace>"
            '<string key="concept:name" value="t"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event>'
            f'<event><string key="concept:name" value="b"/>{stamp}</event>'
            "</trace></log>"
        )
        with pytest.raises(XesParseError, match=r"case 't' event 1: .*time:timestamp"):
            parse_xes(write(tmp_path / "bad.xes", text))

    @pytest.mark.parametrize(
        "trace, message",
        [
            ('<int key="k" value="x"/>' + EVENT_A, "trace 0: bad int value 'x' for key 'k'"),
            (
                '<string key="concept:name" value="t"/>'
                + EVENT_A.replace("</event>", '<float key="f" value="1,5"/></event>'),
                "case 't' event 0: bad float value '1,5' for key 'f'",
            ),
            (
                EVENT_A + EVENT_A.replace('<string key="concept:name" value="a"/>', ""),
                "trace 0 event 1: missing concept:name",
            ),
            ("", "trace 0 has no events"),
        ],
        ids=["trace-value", "event-value", "event-activity", "no-events"],
    )
    def test_error_names_the_trace_and_event(self, tmp_path, trace, message):
        path = write(tmp_path / "bad.xes", f"<log><trace>{trace}</trace></log>")
        with pytest.raises(XesParseError) as caught:
            parse_xes(path)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "traces, message",
        [
            (
                ['<string key="concept:name" value="t"/>'
                 + BAD_STAMP_EVENT.replace("</event>", '<int key="n" value="x"/></event>')],
                "case 't' event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                ['<string key="concept:name" value="t"/>' + BAD_STAMP_EVENT
                 + EVENT_A.replace('<string key="concept:name" value="a"/>', "")],
                "case 't' event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                [BAD_STAMP_EVENT, EVENT_A.replace('<string key="concept:name" value="a"/>', "")],
                "trace 0 event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                ['<string key="concept:name" value="t"/>' + EVENT_A + BAD_STAMP_EVENT,
                 '<string key="concept:name" value="u"/>' + EVENT_A,
                 '<string key="concept:name" value="t"/>' + EVENT_A],
                "case 't' event 1: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                [EVENT_A, BAD_STAMP_EVENT, '<string key="concept:name" value="u"/>'],
                "trace 1 event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                [BAD_STAMP_EVENT, '<int key="k" value="x"/>' + EVENT_A],
                "trace 0 event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                ['<string key="concept:name" value="t"/>' + BAD_STAMP_EVENT.replace(
                    "</event>", '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event>'
                )],
                "case 't' event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                ['<string key="concept:name" value="t"/>' + EVENT_A.replace(
                    "</event>", '<string key="time:timestamp" value="never"/></event>'
                ) + BAD_STAMP_EVENT],
                "case 't' event 0: unreadable time:timestamp 'never'",
            ),
            (
                ['<int key="n" value="x"/>' + BAD_STAMP_EVENT],
                "trace 0: bad int value 'x' for key 'n'",
            ),
            (
                ['<string key="concept:name" value="t"/>'
                 + BAD_STAMP_EVENT.replace("<event>", '<event><int key="n" value="x"/>')],
                "case 't' event 0: bad int value 'x' for key 'n'",
            ),
            (
                ['<string key="concept:name" value="t"/>' + EVENT_A.replace(
                    "<date ", '<int key="time:timestamp" value="5"/><date '
                )],
                "case 't' event 0: unreadable time:timestamp 5",
            ),
            (
                ['<string key="concept:name" value="t"/>' + EVENT_A.replace(
                    "<date ", '<float key="time:timestamp" value="2.5"/><date '
                )],
                "case 't' event 0: unreadable time:timestamp 2.5",
            ),
            (
                ['<string key="concept:name" value="t"/>' + FOREIGN_BAD_STAMP_EVENT],
                "case 't' event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                ['<string key="concept:name" value="t"/>'
                 + FOREIGN_BAD_STAMP_EVENT.replace("</event>", '<int key="n" value="x"/></event>')],
                "case 't' event 0: bad date value 'never' for key 'time:timestamp'",
            ),
            (
                ['<string key="concept:name" value="t"/>' + FOREIGN_BAD_STAMP_EVENT.replace(
                    "</event>", '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event>'
                )],
                "case 't' event 0: bad date value 'never' for key 'time:timestamp'",
            ),
        ],
        ids=[
            "then-bad-int-in-the-event", "then-missing-activity-in-the-trace",
            "then-missing-activity-in-a-later-trace", "then-duplicate-case-id",
            "then-no-events", "then-bad-trace-value", "first-of-two-stamps",
            "stamp-held-as-string", "after-bad-trace-value", "after-bad-int-in-the-event",
            "stamp-held-as-int", "stamp-held-as-float", "foreign-stamp",
            "foreign-stamp-then-bad-int-in-the-event", "foreign-stamp-then-second-stamp",
        ],
    )
    def test_first_error_in_the_file_wins(self, tmp_path, traces, message):
        """Of several faults, the one met first in document order names the error."""
        body = "".join(f"<trace>{trace}</trace>" for trace in traces)
        path = write(tmp_path / "bad.xes", f"<log>{body}</log>")
        with pytest.raises(XesParseError) as caught:
            parse_xes(path)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_bad_stamp_before_malformed_xml_wins(self, tmp_path, gz):
        text = f"<log><trace>{BAD_STAMP_EVENT}</trace><trace><event></trace></log>"
        path = tmp_path / ("bad.xes.gz" if gz else "bad.xes")
        path.write_bytes(gzip.compress(text.encode()) if gz else text.encode())
        with pytest.raises(XesParseError) as caught:
            parse_xes(path)
        assert str(caught.value) == (
            f"{path}: trace 0 event 0: bad date value 'never' for key 'time:timestamp'"
        )

    @staticmethod
    def long_xes(stamps):
        """A log of len(stamps) traces t0, t1, ..., trace t's events stamped stamps[t]."""
        traces = "".join(
            f'<trace><string key="concept:name" value="t{t}"/>' + "".join(
                f'<event><string key="concept:name" value="a{e % 3}"/>'
                f'<date key="time:timestamp" value="{stamp}"/></event>'
                for e, stamp in enumerate(trace)
            ) + "</trace>"
            for t, trace in enumerate(stamps)
        )
        return f"<log>{traces}</log>"

    @staticmethod
    def long_stamps():
        """60 traces of 25 stamps: the first 40 in write_csv's form, the rest in three others."""
        forms = ["{}+00:00", "{}999Z", "{}-02:30"]
        return [
            [
                (forms[t % 3] if t >= 40 else forms[0]).format(
                    (datetime(2021, 1, 1, t % 24, e) + timedelta(milliseconds=7 * t + e))
                    .isoformat(timespec="milliseconds")
                )
                for e in range(25)
            ]
            for t in range(60)
        ]

    def test_stamps_are_converted_once_a_block_is_held(self, tmp_path, monkeypatch):
        stamps = self.long_stamps()
        read_stamps, held = log_model._read_stamps, []

        def counted(*args):
            held.append(len(args[2]))
            return read_stamps(*args)

        monkeypatch.setattr(log_model, "_read_stamps", counted)
        log = parse_xes(write(tmp_path / "long.xes", self.long_xes(stamps)))
        assert len(held) > 1 and sum(held) == 60 * 25  # converted during the parse and after it
        assert [list(case.timestamps) for case in log.cases.values()] == [
            list(map(oracle_ms, trace)) for trace in stamps
        ]

    @pytest.mark.parametrize("t, e", [(40, 0), (50, 7), (59, 24)])
    def test_refused_stamp_after_the_first_conversion(self, tmp_path, t, e):
        stamps = self.long_stamps()
        stamps[t][e] = "2021-02-29T10:00:00.000+00:00"
        path = write(tmp_path / "long.xes", self.long_xes(stamps))
        with pytest.raises(XesParseError) as caught:
            parse_xes(path)
        assert str(caught.value) == (
            f"{path}: case 't{t}' event {e}: "
            "bad date value '2021-02-29T10:00:00.000+00:00' for key 'time:timestamp'"
        )

    def test_trace_without_events_rejected_with_case_id(self, tmp_path):
        text = (
            '<log><trace><string key="concept:name" value="empty-one"/></trace></log>'
        )
        with pytest.raises(XesParseError, match="empty-one"):
            parse_xes(write(tmp_path / "bad.xes", text))

    def test_duplicate_named_case_id_rejected(self, tmp_path):
        trace = XES_BASIC[XES_BASIC.index("  <trace>") : XES_BASIC.index("</log>")]
        text = f"<log>{trace}{trace}</log>"
        with pytest.raises(XesParseError, match="duplicate case id 't1'"):
            parse_xes(write(tmp_path / "bad.xes", text))

    def test_log_without_traces_rejected(self, tmp_path):
        with pytest.raises(EmptyLogError, match="no traces"):
            parse_xes(write(tmp_path / "empty.xes", '<log><string key="k" value="v"/></log>'))

    @pytest.mark.parametrize(
        "names, ids",
        [
            # a named trace before the unnamed trace whose index gives the same id
            (["case_1", None], ["case_1", "case_1_1"]),
            # an unnamed trace before the named trace that holds its id
            ([None, "case_0"], ["case_0_1", "case_0"]),
            ([None, "case_0_1", "case_0"], ["case_0_2", "case_0_1", "case_0"]),
            ([None, "x", None], ["case_0", "x", "case_2"]),
        ],
        ids=["named-first", "unnamed-first", "next-free", "no-collision"],
    )
    def test_unnamed_traces_get_ids_no_named_trace_holds(self, tmp_path, names, ids):
        traces = "".join(
            "<trace>"
            + ("" if name is None else f'<string key="concept:name" value="{name}"/>')
            + f'<event><string key="concept:name" value="a{i}"/>'
            '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event></trace>'
            for i, name in enumerate(names)
        )
        log = parse_xes(write(tmp_path / "log.xes", f"<log>{traces}</log>"))
        assert list(log.cases) == ids  # file order
        assert [log.trace(cid) for cid in ids] == [(f"a{i}",) for i in range(len(names))]

    @pytest.mark.parametrize(
        "text",
        [
            '<log><trace><string key="concept:name" value="t"/><list key="l">'
            '<event><string key="concept:name" value="b"/>'
            '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event>'
            f"</list>{EVENT_A}</trace></log>",
            '<log><list key="l"><trace><string key="concept:name" value="u"/>'
            f'{EVENT_A}</trace></list>'
            f'<trace><string key="concept:name" value="t"/>{EVENT_A}</trace></log>',
            '<x:log xmlns:x="http://www.xes-standard.org/"><x:trace>'
            '<x:string key="concept:name" value="t"/><x:event>'
            '<x:string key="concept:name" value="a"/>'
            '<x:date key="time:timestamp" value="2021-01-01T00:00:00Z"/>'
            "</x:event></x:trace></x:log>",
        ],
        ids=["event-in-a-trace-list", "trace-in-a-log-list", "prefixed-tags"],
    )
    def test_only_direct_children_are_traces_and_events(self, tmp_path, text):
        log = parse_xes(write(tmp_path / "log.xes", text))
        assert {cid: case.trace for cid, case in log.cases.items()} == {"t": ("a",)}

    @pytest.mark.parametrize(
        "forms",
        [
            {"name": '<x:string key="concept:name" value="7"/>',
             "stamp": '<x:date key="time:timestamp" value="2021-01-01T09:00:00.123+00:00"/>'},
            {"name": '<y:string key="concept:name" value="7"/>',
             "stamp": '<y:date key="time:timestamp" value="2021-01-01T09:00:00.123+00:00"/>',
             "attr": '<y:int key="n" value="1"/>'},
            {"name": '<id key="concept:name" value="7"/>'},
            {"name": '<int key="concept:name" value="07"/>'},
            {"stamp": '<string key="time:timestamp" value="2021-01-01T09:00:00.123+00:00"/>'},
            {"stamp": '<y:date key="time:timestamp" value="2021-01-01T10:00:00.123456+01:00"/>'},
        ],
        ids=["prefixed", "foreign-namespace", "id-name", "int-name", "string-stamp",
             "foreign-date-with-microseconds-and-offset"],
    )
    def test_element_forms_read_as_the_plain_form(self, tmp_path, forms):
        plain = {
            "name": '<string key="concept:name" value="7"/>',
            "stamp": '<date key="time:timestamp" value="2021-01-01T09:00:00.123+00:00"/>',
            "attr": '<int key="n" value="1"/>',
        }

        def log_of(parts):
            text = (
                '<log xmlns="http://www.xes-standard.org/"'
                ' xmlns:x="http://www.xes-standard.org/" xmlns:y="urn:example:other">'
                f'<trace>{parts["name"]}<event>{parts["name"]}{parts["stamp"]}{parts["attr"]}'
                f'</event>{EVENT_A}</trace></log>'
            )
            return parse_xes(write(tmp_path / "log.xes", text))

        log = log_of(plain | forms)
        assert log == log_of(plain)
        assert log.trace("7") == ("a", "7")
        assert log.cases["7"].timestamps[1] == 1_609_491_600_123

    def test_tags_are_split_once_each_whatever_the_event_count(self, tmp_path, monkeypatch):
        spy = mock.Mock(wraps=log_model._local_name)
        monkeypatch.setattr(log_model, "_local_name", spy)
        event = EVENT_A.replace("</event>", '<string key="org:resource" value="r"/></event>')
        counts = []
        for n in (10, 100):
            text = f'<log><trace><string key="concept:name" value="t"/>{event * n}</trace></log>'
            spy.reset_mock()
            assert parse_xes(write(tmp_path / "log.xes", text)).num_events == n
            counts.append(spy.call_count)
        assert counts[0] == counts[1]

    def test_keyless_and_unsupported_elements_are_skipped(self, tmp_path):
        text = (
            "<log><trace>"
            '<string key="concept:name" value="t"/>'
            '<string value="no key"/><string key="no-value"/>'
            '<list key="nested"><string key="inner" value="x"/></list>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/>'
            '<container key="box"/><int value="7"/></event>'
            "</trace></log>"
        )
        log = parse_xes(write(tmp_path / "log.xes", text))
        assert log.cases["t"].attributes == {}
        assert log.cases["t"].event_attributes == {}
        assert log.attribute_schema == {}

    @pytest.mark.parametrize(
        "trace_tag, trace_value, owner",
        [("string", "owner", "owner"), ("int", "1", 1)],
        ids=["agreeing-tags", "conflicting-tags"],
    )
    def test_key_on_trace_and_event_has_event_scope(self, tmp_path, trace_tag, trace_value, owner):
        text = (
            "<log><trace>"
            '<string key="concept:name" value="t"/>'
            f'<{trace_tag} key="org:resource" value="{trace_value}"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/>'
            '<string key="org:resource" value="r1"/></event>'
            "</trace></log>"
        )
        log = parse_xes(write(tmp_path / "log.xes", text))
        assert log.attribute_schema["org:resource"] == AttributeSpec(CATEGORICAL, EVENT_SCOPE)
        assert log.cases["t"].attributes["org:resource"] == owner
        assert log.cases["t"].event_attributes == {"org:resource": ("r1",)}
        assert default_attributes(log) == ["org:resource"]
        index = build_variant_index(log, ["org:resource"])
        assert index.modal_values[("a",)] == {"org:resource": frozenset({"r1"})}

    def test_event_missing_activity_rejected(self, tmp_path):
        text = (
            "<log><trace>"
            '<string key="concept:name" value="t"/>'
            '<event><date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event>'
            "</trace></log>"
        )
        with pytest.raises(XesParseError, match="concept:name"):
            parse_xes(write(tmp_path / "bad.xes", text))

    def test_non_finite_float_is_kept_as_text(self, tmp_path):
        text = (
            "<log><trace>"
            '<string key="concept:name" value="t"/>'
            '<float key="weight" value="inf"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/>'
            '<float key="cost" value="NaN"/></event>'
            '<event><string key="concept:name" value="b"/>'
            '<date key="time:timestamp" value="2021-01-01T00:01:00Z"/>'
            '<float key="cost" value="2.5"/></event>'
            "</trace></log>"
        )
        log = parse_xes(write(tmp_path / "log.xes", text))
        assert log.cases["t"].event_attributes["cost"] == ("NaN", 2.5)
        assert log.attribute_schema["cost"].kind == CATEGORICAL
        assert log.cases["t"].attributes["weight"] == "inf"
        assert log.attribute_schema["weight"].kind == CATEGORICAL

    def test_zero_under_every_tag_keeps_its_type_and_repr(self, tmp_path):
        # 0, 0.0, -0.0 and False are one dict key; each value keeps its tag's type and repr
        zeros = [("int", "0"), ("float", "0.0"), ("float", "-0.0"), ("boolean", "false")]
        events = "".join(
            f'<event><string key="concept:name" value="a"/>'
            f'<date key="time:timestamp" value="2021-01-01T00:0{i}:00Z"/>'
            f'<{tag} key="z" value="{value}"/></event>'
            for i, (tag, value) in enumerate(zeros)
        )
        text = f'<log><trace><string key="concept:name" value="t"/>{events}</trace></log>'
        log = parse_xes(write(tmp_path / "log.xes", text))
        values = log.cases["t"].event_attributes["z"]
        assert [(type(v), repr(v)) for v in values] == [
            (int, "0"), (float, "0.0"), (float, "-0.0"), (str, "'false'"),
        ]

    def test_key_twice_on_one_event_keeps_its_last_value(self, tmp_path):
        events = "".join(
            f'<event><string key="concept:name" value="a"/>'
            f'<date key="time:timestamp" value="2021-01-01T00:0{i}:00Z"/>{own}</event>'
            for i, own in enumerate(
                ['', '<int key="n" value="1"/><int key="n" value="2"/>', '<int key="n" value="3"/>']
            )
        )
        text = f'<log><trace><string key="concept:name" value="t"/>{events}</trace></log>'
        case = parse_xes(write(tmp_path / "log.xes", text)).cases["t"]
        assert case.event_attributes == {"n": (None, 2, 3)}

    def test_trace_attributes_become_case_attributes(self, tmp_path):
        text = (
            "<log><trace>"
            '<string key="concept:name" value="t"/>'
            '<string key="customer" value="acme"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/></event>'
            "</trace></log>"
        )
        log = parse_xes(write(tmp_path / "log.xes", text))
        assert log.cases["t"].attributes["customer"] == "acme"
        assert log.attribute_schema["customer"].scope == CASE_SCOPE


GC_CSV = CSV_BASIC.replace("timestamp\n", "timestamp,due\n").replace(":00\n", ":00,2021-02-01\n")
GC_CSV_BAD = GC_CSV + "3,a,not-a-time,\n4,b,2021-01-01T12:00:00,\n"
GC_XES_BAD = XES_BASIC.replace(
    "</log>",
    '<trace><event><string key="concept:name" value="a"/>'
    '<date key="time:timestamp" value="2021-01-01T00:00:00Z"/>'
    '<int key="cost" value="five"/></event></trace>\n' + XES_BASIC[XES_BASIC.index("  <trace>"):],
)


class TestCollectorPause:
    """Every event and attribute map is allocated with the cyclic collector off."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize(
        "parse, text, error",
        [
            (parse_csv, GC_CSV, None),
            (parse_csv, GC_CSV_BAD, RowError),
            (parse_xes, XES_BASIC, None),
            (parse_xes, GC_XES_BAD, XesParseError),
        ],
        ids=["csv", "csv-row-error", "xes", "xes-parse-error"],
    )
    def test_parsers_pause_the_collector(self, tmp_path, monkeypatch, parse, text, error,
                                         enabled):
        seen = []

        def recording(fn):
            def call(*args):
                seen.append(gc.isenabled())
                return fn(*args)
            return call

        # parse_csv reads the due column with _instant_ms; parse_xes reads XES_BASIC's
        # write_csv-form stamps in bulk, and its other attributes with _xes_value
        monkeypatch.setattr(log_model, "_instant_ms", recording(log_model._instant_ms))
        monkeypatch.setattr(log_model, "_xes_value", recording(log_model._xes_value))
        path = write(tmp_path / ("log.csv" if parse is parse_csv else "log.xes"), text)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                parse(path)
            else:
                with pytest.raises(error):
                    parse(path)
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert len(seen) >= 2 and not any(seen)
        assert after is enabled


class TestInvariants:
    def test_trace_counts_size_equals_case_count(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert sum(trace_counts(log).values()) == log.num_cases

    def test_event_case_cross_references(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert all(c.case_id == cid for cid, c in log.cases.items())
        assert all(len(c.timestamps) == len(c.trace) for c in log.cases.values())
        assert log.num_events == CSV_BASIC.count("\n") - 1

    def test_alphabet_matches_events(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert log.activity_alphabet == {"a", "b", "c"}

    def test_subset_log_shares_events(self, tiny_log):
        kept = list(tiny_log.cases)[:1]
        sub = subset_log(tiny_log, kept)
        assert set(sub.cases) == set(kept)
        for cid, case in sub.cases.items():
            assert case is tiny_log.cases[cid]
        assert sub.activity_alphabet == {a for c in sub.cases.values() for a in c.trace}

    def test_build_log_rejects_empty_activity(self):
        cases = {"c1": [Event("a", T0)], "c2": [Event("b", T0), Event("", T0)]}
        with pytest.raises(RowError, match="event 1 of case 'c2'"):
            build_log(cases)

    def test_empty_activity_is_named_by_its_place_in_timestamp_order(self):
        cases = {"c": [Event("", T0 + timedelta(hours=1)), Event("a", T0)]}
        with pytest.raises(RowError, match="^event 1 of case 'c' has an empty activity$"):
            build_log(cases)

    def test_build_log_rejects_no_cases(self):
        with pytest.raises(EmptyLogError, match="no events"):
            build_log({})

    def test_build_log_rejects_case_without_events(self):
        with pytest.raises(RowError, match="case 'c2' has no events"):
            build_log({"c1": [Event("a", T0)], "c2": []})

    @pytest.mark.parametrize(
        "cases, message",
        [
            ({"c": []}, "case 'c' has no events"),
            ({"c1": [Event("", T0)], "c2": []}, "event 0 of case 'c1' has an empty activity"),
            ({"c1": [], "c2": [Event("", T0)]}, "case 'c1' has no events"),
        ],
        ids=["only-case-empty", "empty-activity-first", "no-events-first"],
    )
    def test_build_log_names_the_first_case_it_cannot_build(self, cases, message):
        with pytest.raises(RowError) as info:
            build_log(cases)
        assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from("abc"), st.integers(0, 2)), max_size=30
    ),
)
def test_model_invariants(seed, extra):
    """Cases own their time-sorted events; trace, counts and alphabet follow from them."""
    rnd = Random(seed)
    source = log_from_variants(random_variant_freqs(rnd, max_variants=5, max_freq=5))
    pairs = [
        (cid, activity, stamp)
        for cid, c in source.cases.items()
        for activity, stamp, _ in event_rows(c)
    ]
    # few distinct minutes, so cases of extra events hold timestamp ties
    pairs += [(f"x{c}", act, T0 + timedelta(minutes=m)) for c, act, m in extra]
    rnd.shuffle(pairs)
    cases = {}
    for position, (cid, act, ts) in enumerate(pairs):  # each event tagged with its position
        cases.setdefault(cid, []).append(Event(act, ts, {"n": position}))
    members = {cid: {e.attributes["n"] for e in events} for cid, events in cases.items()}

    log = build_log(cases)
    assert log.num_events == len(pairs)
    assert list(log.cases) == list(dict.fromkeys(cid for cid, _, _ in pairs))
    for cid, case in log.cases.items():
        assert len(case.timestamps) == len(case.trace)
        assert set(case.event_attributes["n"]) == members[cid]
        order = list(zip(case.timestamps, case.event_attributes["n"]))
        assert order == sorted(order)  # by time, ties in input order
    assert log.activity_alphabet == set().union(*(c.trace for c in log.cases.values()))

    kept = set(rnd.sample(sorted(log.cases), rnd.randint(0, log.num_cases)))
    sub = subset_log(log, kept)
    assert list(sub.cases) == [cid for cid in log.cases if cid in kept]
    assert all(sub.cases[cid] is log.cases[cid] for cid in kept)
    assert sub.activity_alphabet == set().union(*(c.trace for c in sub.cases.values()))


class TestBuildLog:
    def test_events_within_one_millisecond_keep_input_order(self):
        late = T0 + timedelta(microseconds=900)
        log = build_log({"k": [Event("b", late), Event("a", T0 + timedelta(microseconds=100))]})
        assert log.trace("k") == ("b", "a")
        assert list(log.cases["k"].timestamps) == [(T0 - _EPOCH) // _MS] * 2

    def test_timestamps_come_back_utc_aware(self):
        east = timezone(timedelta(hours=2))
        naive = datetime(2021, 1, 1, 10)
        log = build_log({"k": [Event("a", naive), Event("b", naive.replace(tzinfo=east))]})
        assert log.trace("k") == ("b", "a")
        assert list(log.cases["k"].timestamps) == [1609488000000, 1609495200000]  # 08:00, 10:00

    def test_timestamp_outside_the_years_is_refused(self):
        early = datetime(1, 1, 1, 3, tzinfo=timezone(timedelta(hours=5)))
        cases = {"k0": [Event("a", T0)], "k1": [Event("a", T0), Event("b", early)]}
        with pytest.raises(RowError, match="case 'k1' has an event timestamp outside the years"):
            build_log(cases)

    @pytest.mark.parametrize("where", ["event", "case", "shadowed"])
    def test_instant_value_outside_the_years_is_refused(self, where):
        event_due = {"k0": [{}, {}], "k1": [{}, {}]}
        case_due = {"k0": {}, "k1": {}}
        if where == "event":
            event_due["k1"][1] = {"due": EARLY}
        elif where == "case":
            case_due["k1"] = {"due": EARLY}
        else:  # a case value that every event's own value would shadow in a CSV
            case_due["k1"] = {"due": EARLY}
            event_due["k1"] = [{"due": T0}, {"due": T0}]
        cases = {
            cid: [Event(a, T0, due) for a, due in zip("ab", event_due[cid])] for cid in case_due
        }
        with pytest.raises(
            RowError, match="^case 'k1' has attribute 'due' with an instant outside the years"
            " 1-9999 in UTC$",
        ):
            build_log(cases, case_due)

    def test_datetime_values_become_instants(self):
        east = timezone(timedelta(hours=2))
        naive = datetime(2021, 1, 1, 10, 0, 0, 999)  # digits past the millisecond are cut
        seven = Instant(7)
        log = build_log(
            {"k": [Event("a", T0, {"due": naive}), Event("b", T0, {"due": seven})]},
            {"k": {"opened": naive.replace(tzinfo=east)}},
        )
        case = log.cases["k"]
        assert case.event_attributes["due"] == (1609495200000, 7)
        assert case.event_attributes["due"][1] is seven  # an Instant is kept as it is
        assert case.attributes["opened"] == 1609488000000
        held = [*case.event_attributes["due"], case.attributes["opened"]]
        assert {type(value) for value in held} == {Instant}
        assert str(case.attributes["opened"]) == "2021-01-01T08:00:00.000+00:00"
        assert log.attribute_schema == {
            "opened": AttributeSpec(INSTANT, CASE_SCOPE),
            "due": AttributeSpec(INSTANT, EVENT_SCOPE),
        }

    def test_attribute_of_none_is_absent(self):
        events = [Event("a", T0, {"x": None, "y": 1}), Event("b", T0, {"x": None})]
        case = build_log({"k": events}).cases["k"]
        assert case.event_attributes == {"y": (1, None)}

    def test_case_attribute_of_none_is_absent(self, tmp_path):
        log = build_log({"k": [Event("a", T0)], "j": [Event("b", T0)]}, {"k": {"x": None}})
        assert log.cases["k"].attributes == {}
        assert log.attribute_schema == {}
        write_csv(log, tmp_path / "out.csv")
        with (tmp_path / "out.csv").open(newline="") as fh:
            assert next(csv.reader(fh)) == ["case_id", "activity", "timestamp"]

    def test_event_attribute_names_follow_their_first_appearance(self):
        cases = {
            "k": [Event("a", T0 + timedelta(minutes=1), {"x": 1}), Event("b", T0, {"y": 2})],
            "j": [Event("a", T0, {"y": 3, "z": 4, "x": 5})],
        }
        log = build_log(cases)
        assert [list(case.event_attributes) for case in log.cases.values()] == [
            ["x", "y"], ["x", "y", "z"],
        ]

    def test_schema_is_read_off_the_values_when_none_is_given(self):
        cases = {
            f"c{n}": [Event("a", T0, {"resource": f"r{n % 2}"}), Event("b", T0, {"resource": "r0"})]
            for n in range(4)
        }
        log = build_log(cases)
        assert log.attribute_schema == {"resource": AttributeSpec(CATEGORICAL, EVENT_SCOPE)}
        index = build_variant_index(log, ["resource"])
        assert index.modal_values[("a", "b")] == {"resource": frozenset({"r0"})}
        sampled, _ = sample(log, build_variant_index(log), SamplingConfig(DIVISION, k=2))
        assert sorted(sampled.cases) == ["c0", "c2"]

    def test_kinds_and_scopes_follow_the_values(self):
        events = [
            Event("a", T0, {"cost": 2, "mixed": "p", "shared": "e", "none": None}),
            Event("b", T0, {"cost": 2.5, "mixed": 3, "flag": True}),
        ]
        case_attributes = {"k": {
            "count": 1, "due": T0, "shared": "c", "code": "x", "none": None, "gone": None,
        }}
        assert build_log({"k": events}, case_attributes).attribute_schema == {
            "count": AttributeSpec(NUMERIC, CASE_SCOPE),
            "due": AttributeSpec(INSTANT, CASE_SCOPE),
            "shared": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
            "code": AttributeSpec(CATEGORICAL, CASE_SCOPE),
            "cost": AttributeSpec(NUMERIC, EVENT_SCOPE),
            "mixed": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
            "flag": AttributeSpec(CATEGORICAL, EVENT_SCOPE),
        }

    def test_a_schema_passed_is_kept_as_given(self):
        events = [Event("a", T0, {"resource": "r1"})]
        assert build_log({"k": events}, schema={}).attribute_schema == {}
        given = {"resource": AttributeSpec(NUMERIC, CASE_SCOPE)}
        assert build_log({"k": events}, schema=given).attribute_schema == given

    def test_input_lists_are_left_as_they_are(self):
        events = [Event("b", T0 + timedelta(minutes=1)), Event("a", T0)]
        given = list(events)
        assert build_log({"k": events}).trace("k") == ("a", "b")
        assert events == given

    def test_memory_follows_the_values_held_not_names_times_events(self):
        # 2,000 names, each held by one event of 10,000: a column of every
        # name over every event would be 20 million slots, 160 MB
        cases = {
            f"c{n}": [Event("a", T0, {f"name{n}": n}), *(Event("b", T0) for _ in range(4))]
            for n in range(2000)
        }
        tracemalloc.start()
        try:
            log = build_log(cases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.cases["c7"].event_attributes == {"name7": (7, None, None, None, None)}
        assert peak < 20 * 2**20


class NoOffset(tzinfo):
    """A tzinfo that gives no UTC offset: the datetime is aware but has no UTC time."""

    def utcoffset(self, dt):
        return None

    def dst(self, dt):
        return None


@pytest.fixture
def local_time_east_of_utc(monkeypatch):
    """Local time is UTC+9 during the test, so a datetime taken as local time shows."""
    if not hasattr(time, "tzset"):
        pytest.skip("the local time zone can be set only where time.tzset exists")
    monkeypatch.setenv("TZ", "JST-9")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_timestamp_without_offset_is_written_as_utc(tmp_path, local_time_east_of_utc):
    written = []
    for zone in (NoOffset(), None):
        stamp = datetime(2021, 1, 1, 12, tzinfo=zone)
        write_csv(build_log({"k": [Event("a", stamp, {"due": stamp})]}), tmp_path / "out.csv")
        written.append((tmp_path / "out.csv").read_bytes())
    assert written[0] == written[1]
    assert b",2021-01-01T12:00:00.000+00:00,2021-01-01T12:00:00.000+00:00\r\n" in written[0]


def ms_of(*args):
    """UTC epoch milliseconds of the datetime(*args) taken as UTC."""
    return (datetime(*args) - log_model._NAIVE_EPOCH) // _MS


class TestInstantParsing:
    def test_z_suffix_and_offset_agree(self):
        assert log_model._instant_ms("2021-01-01T10:00:00Z") == log_model._instant_ms(
            "2021-01-01T10:00:00+00:00"
        ) == ms_of(2021, 1, 1, 10)

    def test_naive_assumed_utc(self):
        assert log_model._instant_ms("2021-01-01T10:00:00") == ms_of(2021, 1, 1, 10)

    def test_truncates_to_milliseconds(self):
        assert log_model._instant_ms("2021-01-01T10:00:00.123456Z") == ms_of(2021, 1, 1, 10) + 123
        assert log_model._instant_ms("1969-12-31T23:59:59.999999") == -1

    def test_rejects_garbage(self):
        assert log_model._instant_ms("yesterday-ish") == _MIN_MS - 1

    def test_any_number_of_fraction_digits(self):
        # Python 3.10 reads only 3 or 6 digits; the result must not depend on it
        assert log_model._instant_ms("2021-01-01T10:00:00.12") == ms_of(2021, 1, 1, 10, 0, 0, 120000)
        assert log_model._instant_ms("2021-01-01T10:00:00.123456789Z") == ms_of(
            2021, 1, 1, 10, 0, 0, 123000
        )
        assert log_model._instant_ms("2021-01-01T10:00:00.9999999+05:30") == ms_of(
            2021, 1, 1, 4, 30, 0, 999000
        )
        assert log_model._instant_ms("2021-01-01 10:00:00,5") == ms_of(2021, 1, 1, 10, 0, 0, 500000)
        assert log_model._instant_ms("2021-01-01T10:00:00.1234-01:00") == ms_of(
            2021, 1, 1, 11, 0, 0, 123000
        )

    def test_fraction_without_digits_is_rejected(self):
        assert log_model._instant_ms("2021-01-01T10:00:00.") == _MIN_MS - 1

    @pytest.mark.parametrize("text", [OUT_OF_RANGE, "0001-01-01T00:00:00+01:00"])
    def test_out_of_range_in_utc_is_a_value_error(self, text):
        assert log_model._instant_ms(text) == _MIN_MS - 1
        with pytest.raises(ValueError, match="outside the years 1-9999"):
            _CONVERTERS[INSTANT](text)


def parse_instant(text: str) -> datetime:
    """The reader of an instant text before it read straight to milliseconds, kept as the oracle.

    An ISO-8601 timestamp becomes a UTC datetime at millisecond precision.
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
        # Python 3.10 reads only 3- or 6-digit fractions of a second
        s = re.sub(r"(\d\d:\d\d:\d\d)[.,](\d+)", lambda m: f"{m[1]}.{m[2][:6]:0<6}", s, count=1)
        dt = datetime.fromisoformat(s)
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


# parse_csv's conversion of a numeric or an instant text, as the oracles use it:
# an instant text becomes the UTC datetime parse_instant reads
CONVERTERS = {NUMERIC: log_model._number, INSTANT: parse_instant}


def oracle_ms(text: str) -> int:
    """parse_instant's UTC epoch milliseconds of a text, _MIN_MS - 1 where it raises."""
    try:
        return (parse_instant(text) - _EPOCH) // _MS
    except ValueError:
        return _MIN_MS - 1


def old_parse_instant(text):
    """``parse_instant`` before its fast paths, kept verbatim as the oracle."""
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    else:
        dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=dt.microsecond // 1000 * 1000)


def outcome(function, *args):
    """What ``function(*args)`` returns, or the type of the error it raises."""
    try:
        return function(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(st.integers(log_model._MIN_MS, log_model._MAX_MS))
@example(log_model._MIN_MS)
@example(log_model._MAX_MS)
@example(-1)
@example(0)
@example((datetime(2000, 3, 1) - log_model._NAIVE_EPOCH) // _MS - 1)  # 2000-02-29T23:59:59.999
def test_instant_text_is_isoformat(ms):
    text = str(Instant(ms))
    assert text == isoformat_utc(_EPOCH + ms * _MS)
    assert text == log_model._stamp_texts(np.array([ms], np.int64))[0]
    assert log_model._instant_ms(text) == ms


@st.composite
def iso_stamps(draw):
    dt = draw(st.datetimes())
    text = "%04d-%02d-%02dT%02d:%02d:%02d" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
    )
    digits = draw(st.sampled_from([0, 3, 6]))
    if digits:
        text += "." + f"{dt.microsecond:06d}"[:digits]
    zone = draw(st.sampled_from(["naive", "Z", "z", "offset"]))
    if zone == "offset":
        minutes = draw(st.integers(-14 * 60, 14 * 60))
        sign = "-" if minutes < 0 else "+"
        text += "%s%02d:%02d" % (sign, abs(minutes) // 60, abs(minutes) % 60)
    elif zone != "naive":
        text += zone
    return text


@settings(max_examples=500, deadline=None)
@given(st.one_of(iso_stamps(), st.sampled_from(STAMPS), st.text()))
def test_parse_instant_matches_old_implementation(text):
    assert log_model._instant_ms(text) == oracle_ms(text)
    old = outcome(old_parse_instant, text)
    if old is not ValueError:  # Python 3.10 refuses some fractions that parse_instant reads
        # out-of-range stamps are rejected as unreadable input
        assert repr(outcome(parse_instant, text)) == repr(ValueError if old is OverflowError else old)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.datetimes(), min_size=1, max_size=30))
def test_bulk_timestamps_match_parse_instant(stamps):
    texts = list(map(isoformat_utc, stamps))  # write_csv's form, years 1-9999
    expected = [(parse_instant(text) - _EPOCH) // _MS for text in texts]
    with mock.patch.object(log_model, "_instant_ms", side_effect=AssertionError("one by one")):
        assert log_model._epoch_ms_of(texts).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(STAMPS), st.datetimes().map(isoformat_utc), iso_stamps()
)))
def test_bulk_timestamps_mark_what_parse_instant_refuses(texts):
    ms = log_model._epoch_ms_of(texts).tolist()
    for text, read in zip(texts, ms):
        expected = oracle_ms(text)
        if expected < _MIN_MS:
            assert read < _MIN_MS
        else:
            assert read == expected
    assert len(ms) == len(texts)


def stamp_texts_checked(ms):
    """_stamp_texts of epoch milliseconds, checked against isoformat_utc and _epoch_ms_of."""
    texts = log_model._stamp_texts(np.array(ms, np.int64))
    assert texts == [isoformat_utc(_EPOCH + m * _MS) for m in ms]
    with mock.patch.object(log_model, "_instant_ms", side_effect=AssertionError("one by one")):
        assert log_model._epoch_ms_of(texts).tolist() == list(ms)
    return texts


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(log_model._MIN_MS, log_model._MAX_MS), max_size=30))
def test_stamp_texts_match_isoformat_and_read_back(ms):
    stamp_texts_checked(ms)


def test_stamp_texts_at_pinned_instants():
    day = 86_400_000
    leap_day = (datetime(2000, 2, 29) - log_model._NAIVE_EPOCH) // _MS
    march_1900 = (datetime(1900, 3, 1) - log_model._NAIVE_EPOCH) // _MS
    pinned = {
        log_model._MIN_MS: "0001-01-01T00:00:00.000+00:00",
        log_model._MAX_MS: "9999-12-31T23:59:59.999+00:00",
        -1: "1969-12-31T23:59:59.999+00:00",
        0: "1970-01-01T00:00:00.000+00:00",
        1: "1970-01-01T00:00:00.001+00:00",
        leap_day: "2000-02-29T00:00:00.000+00:00",
        leap_day + day - 1: "2000-02-29T23:59:59.999+00:00",
        leap_day + day: "2000-03-01T00:00:00.000+00:00",
        march_1900 - 1: "1900-02-28T23:59:59.999+00:00",  # 1900 is no leap year
        march_1900: "1900-03-01T00:00:00.000+00:00",
    }
    assert stamp_texts_checked(list(pinned)) == list(pinned.values())


@pytest.mark.parametrize("size", [0, 1, log_model.WRITE_BLOCK_ROWS])
def test_stamp_texts_of_a_whole_block(size):
    ms = np.linspace(log_model._MIN_MS, log_model._MAX_MS, size).astype(np.int64).tolist()
    assert len(stamp_texts_checked(ms)) == size


def texts_of(log):
    """Every activity of the traces and attribute name of the cases, one entry per occurrence."""
    texts = []
    for case in log.cases.values():
        texts += case.trace
        texts += case.attributes
        texts += case.event_attributes
    return texts


@pytest.mark.parametrize(
    "parse, name", [(parse_csv, "write_core.csv"), (parse_xes, "xes_core.xes")], ids=["csv", "xes"]
)
def test_equal_texts_are_one_object(parse, name):
    log = parse(Path(__file__).parent / "data" / name)
    texts = texts_of(log)
    assert len(texts) > len(set(texts))  # the fixture repeats texts
    assert len({id(t) for t in texts}) == len(set(texts))


def test_equal_csv_activities_are_one_object(tmp_path):
    # csv.reader makes a new str for each field, sharing only one-character ones
    log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC.replace(",a,", ",check ticket,")))
    first, second = (case.trace[0] for case in log.cases.values())
    assert first == "check ticket"
    assert first is second
