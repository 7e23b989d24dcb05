"""CSV / XES parsing, CSV writing, and the structural log invariants."""

import csv
import gzip
import math
import tempfile
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logsample.errors import EmptyLogError, RowError, SchemaError, XesParseError
from logsample.log_model import (
    CASE_SCOPE,
    CATEGORICAL,
    EVENT_SCOPE,
    INSTANT,
    NUMERIC,
    AttributeSpec,
    ColumnMapping,
    Event,
    EventLog,
    _CONVERTERS,
    _infer_kind,
    build_log,
    format_instant,
    load_log,
    parse_csv,
    parse_instant,
    parse_xes,
    subset_log,
    write_csv,
)
from helpers import T0, log_from_variants, random_variant_freqs, trace_counts

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
        first_event = log.cases["1"].events[0]
        assert first_event.attributes["resource"] == "r1"

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
        assert log.cases["1"].events[1].attributes["due"] == OUT_OF_RANGE

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


def reference_parse_csv(path: str | Path, mapping: ColumnMapping | None = None) -> EventLog:
    """``parse_csv`` before it built each event once, kept verbatim as the oracle.

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
            if (kind := mapping.attribute_kinds.get(name)) in _CONVERTERS
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
                        _CONVERTERS[kind](row[i])
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
    # present on every row with one constant value.
    rows_per_case: dict[str, list[dict[str, str]]] = {}
    for case_id, _, _, attrs in raw_rows:
        rows_per_case.setdefault(case_id, []).append(attrs)

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

    # Numeric and instant values are converted in place, column by column;
    # categorical values stay the text read. A case attribute is converted
    # on the first row of each case, the row its value is taken from.
    first_rows = [attr_rows[0] for attr_rows in rows_per_case.values()]
    for name, kind in kinds.items():
        if kind == CATEGORICAL:
            continue
        convert = _CONVERTERS[kind]
        for attrs in first_rows if name in promoted else map(itemgetter(3), raw_rows):
            if name in attrs:
                attrs[name] = convert(attrs[name])

    events = [
        Event(
            case_id,
            activity,
            ts,
            {name: value for name, value in attrs.items() if name not in promoted},
        )
        for case_id, activity, ts, attrs in raw_rows
    ]
    case_attributes = {
        case_id: {name: attr_rows[0][name] for name in promoted}
        for case_id, attr_rows in rows_per_case.items()
    }

    schema = {
        name: AttributeSpec(kinds[name], CASE_SCOPE if name in promoted else EVENT_SCOPE)
        for _, name in attr_cols
        if any(name in attrs for _, _, _, attrs in raw_rows)
    }
    return build_log(events, case_attributes, schema)


# Cell texts by the kind they read as. "007" and "1e3" read as text, since
# written back as numbers they would be "7" and "1000.0"; the three
# spellings of one instant differ as text but not as a datetime.
CELL_TEXTS = {
    "int": ["0", "1", "-7", "007", "42"],
    "float": ["1.0", "2.5", "-0.5", "1e3"],
    "non-finite": ["nan", "inf", "-Infinity"],
    "instant": ["2021-02-01T00:00:00", "2021-02-01T00:00:00Z", "2021-02-01T01:00:00+01:00"],
    "text": ["web", "phone", "a b", "x,y", 'say "hi"'],
}

# Row timestamps: ties, one instant in two spellings, and (rarely) an unreadable one.
STAMPS = [
    "2021-01-01T10:00:00",
    "2021-01-01T10:00:00Z",
    "2021-01-01T09:00:00-01:00",
    "2021-01-01T10:05:00.123456",
    "2021-01-01T09:59:59.999",
    "2021-01-01T11:00:00+02:00",
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

    rows = []
    for case in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 4))
        own = {col: draw(st.sampled_from(texts[col])) for col in columns}
        gap = draw(st.integers(0, length - 1))
        for position in range(length):
            cells = {
                "case_id": f"k{case}",
                "activity": draw(st.sampled_from("abc")),
                "timestamp": draw(st.sampled_from(STAMPS)),
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
    """Everything a parser returns, with value types and key order, or its error."""
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
                    (ev.case_id, ev.activity, repr(ev.timestamp), items(ev.attributes))
                    for ev in case.events
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
        events = back.cases["1"].events
        assert events[0].attributes == {"note": "hello"}
        assert "note" not in events[1].attributes

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
        assert [e.attributes["cost"] for e in back.cases["1"].events] == [5, 9]


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
        codes = [ev.attributes["code"] for case in back.cases.values() for ev in case.events]
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
        return math.isfinite(value) and str(value) == text
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
    events, case_attributes = [], {}
    for n in range(draw(st.integers(1, 4))):
        cid = f"k{n}"
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
            events.append(Event(cid, draw(st.sampled_from("abc")), stamp, attributes))
    log = build_log(events, case_attributes, schema)

    for name, spec in schema.items():
        if spec.scope == CASE_SCOPE:
            values = [case.attributes[name] for case in log.cases.values()]
        else:
            per_case = [
                [ev.attributes.get(name) for ev in case.events] for case in log.cases.values()
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
                [(ev.activity, ev.timestamp, typed(ev.attributes)) for ev in case.events],
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


class TestParseXes:
    def test_basic_structure(self, tmp_path):
        log = parse_xes(write(tmp_path / "log.xes", XES_BASIC))
        assert log.num_cases == 1
        assert log.trace("t1") == ("a", "b")
        events = log.cases["t1"].events
        assert events[0].attributes["org:resource"] == "r1"
        assert events[1].attributes["cost"] == 5
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

    def test_malformed_xml_reports_location(self, tmp_path):
        with pytest.raises(XesParseError, match="line"):
            parse_xes(write(tmp_path / "bad.xes", "<log><trace></log>"))

    def test_malformed_xml_after_a_complete_trace_reports_location(self, tmp_path):
        complete = XES_BASIC[XES_BASIC.index("  <trace>") : XES_BASIC.index("</log>")]
        text = f"<log>\n{complete}  <trace><event></trace>\n</log>\n"
        with pytest.raises(XesParseError, match=r"line 15, column 18$"):
            parse_xes(write(tmp_path / "bad.xes", text))

    @pytest.mark.parametrize(
        "stamp",
        [
            f'<date key="time:timestamp" value="{OUT_OF_RANGE}"/>',
            '<string key="time:timestamp" value="garbage"/>',
            '<int key="time:timestamp" value="5"/>',
        ],
        ids=["date-out-of-range", "string-garbage", "int"],
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

    def test_trace_without_events_rejected_with_case_id(self, tmp_path):
        text = (
            '<log><trace><string key="concept:name" value="empty-one"/></trace></log>'
        )
        with pytest.raises(XesParseError, match="empty-one"):
            parse_xes(write(tmp_path / "bad.xes", text))

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
        first, second = log.cases["t"].events
        assert first.attributes["cost"] == "NaN"
        assert second.attributes["cost"] == 2.5
        assert log.attribute_schema["cost"].kind == CATEGORICAL
        assert log.cases["t"].attributes["weight"] == "inf"
        assert log.attribute_schema["weight"].kind == CATEGORICAL

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


class TestInvariants:
    def test_trace_counts_size_equals_case_count(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert sum(trace_counts(log).values()) == log.num_cases

    def test_event_case_cross_references(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert all(c.case_id == cid for cid, c in log.cases.items())
        assert all(e.case_id == cid for cid, c in log.cases.items() for e in c.events)
        assert log.num_events == CSV_BASIC.count("\n") - 1

    def test_alphabet_matches_events(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        events = [e for c in log.cases.values() for e in c.events]
        assert log.activity_alphabet == {e.activity for e in events}

    def test_subset_log_shares_events(self, tiny_log):
        kept = list(tiny_log.cases)[:1]
        sub = subset_log(tiny_log, kept)
        assert set(sub.cases) == set(kept)
        for cid, case in sub.cases.items():
            assert case is tiny_log.cases[cid]
        events = [e for c in sub.cases.values() for e in c.events]
        assert sub.activity_alphabet == {e.activity for e in events}

    def test_build_log_rejects_empty_activity(self):
        events = [Event("c1", "a", T0), Event("c2", "b", T0), Event("c2", "", T0)]
        with pytest.raises(RowError, match="event 2 of case 'c2'"):
            build_log(events)


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
    events = [e for c in source.cases.values() for e in c.events]
    # few distinct minutes, so cases of extra events hold timestamp ties
    events += [Event(f"x{c}", act, T0 + timedelta(minutes=m)) for c, act, m in extra]
    rnd.shuffle(events)
    position = {id(e): i for i, e in enumerate(events)}

    log = build_log(events)
    assert log.num_events == len(events)
    for cid, case in log.cases.items():
        assert case.trace == tuple(e.activity for e in case.events)
        assert all(e.case_id == cid for e in case.events)
        order = [(e.timestamp, position[id(e)]) for e in case.events]
        assert order == sorted(order)  # by time, ties in input order
    assert log.activity_alphabet == set().union(*(c.trace for c in log.cases.values()))

    kept = set(rnd.sample(sorted(log.cases), rnd.randint(0, log.num_cases)))
    sub = subset_log(log, kept)
    assert list(sub.cases) == [cid for cid in log.cases if cid in kept]
    assert all(sub.cases[cid] is log.cases[cid] for cid in kept)
    assert sub.activity_alphabet == set().union(*(c.trace for c in sub.cases.values()))


class TestInstantParsing:
    def test_z_suffix_and_offset_agree(self):
        assert parse_instant("2021-01-01T10:00:00Z") == parse_instant(
            "2021-01-01T10:00:00+00:00"
        )

    def test_naive_assumed_utc(self):
        dt = parse_instant("2021-01-01T10:00:00")
        assert dt.tzinfo == timezone.utc

    def test_truncates_to_milliseconds(self):
        dt = parse_instant("2021-01-01T10:00:00.123456Z")
        assert dt.microsecond == 123000

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_instant("yesterday-ish")

    def test_any_number_of_fraction_digits(self):
        # Python 3.10 reads only 3 or 6 digits; the result must not depend on it
        assert parse_instant("2021-01-01T10:00:00.12") == datetime(
            2021, 1, 1, 10, 0, 0, 120000, tzinfo=timezone.utc
        )
        assert parse_instant("2021-01-01T10:00:00.123456789Z") == datetime(
            2021, 1, 1, 10, 0, 0, 123000, tzinfo=timezone.utc
        )
        assert parse_instant("2021-01-01T10:00:00.9999999+05:30") == datetime(
            2021, 1, 1, 4, 30, 0, 999000, tzinfo=timezone.utc
        )
        assert parse_instant("2021-01-01 10:00:00,5") == datetime(
            2021, 1, 1, 10, 0, 0, 500000, tzinfo=timezone.utc
        )
        assert parse_instant("2021-01-01T10:00:00.1234-01:00") == datetime(
            2021, 1, 1, 11, 0, 0, 123000, tzinfo=timezone.utc
        )

    def test_fraction_without_digits_is_rejected(self):
        with pytest.raises(ValueError):
            parse_instant("2021-01-01T10:00:00.")

    @pytest.mark.parametrize("text", [OUT_OF_RANGE, "0001-01-01T00:00:00+01:00"])
    def test_out_of_range_in_utc_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="out of range"):
            parse_instant(text)


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


TIMEZONES = st.one_of(
    st.none(),
    st.just(timezone.utc),
    st.just(timezone(timedelta(0), "GMT")),
    st.builds(
        timezone,
        st.timedeltas(min_value=timedelta(hours=-14), max_value=timedelta(hours=14)),
    ),
)


def old_format_instant(dt):
    """``format_instant`` before it stopped calling ``isoformat``, kept as the oracle."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat(timespec="milliseconds")


@settings(max_examples=500, deadline=None)
@given(st.datetimes(timezones=TIMEZONES))
def test_format_instant_matches_isoformat(dt):
    assert outcome(format_instant, dt) == outcome(old_format_instant, dt)


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
@given(iso_stamps())
def test_parse_instant_matches_old_implementation(text):
    expected = outcome(old_parse_instant, text)
    if expected is OverflowError:
        expected = ValueError  # out-of-range stamps are now rejected as unreadable input
    actual = outcome(parse_instant, text)
    assert actual == expected
    assert repr(actual) == repr(expected)
