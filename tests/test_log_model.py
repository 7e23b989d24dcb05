"""CSV / XES parsing, CSV writing, and the structural log invariants."""

import gzip
from datetime import timezone

import pytest

from logsample.errors import EmptyLogError, RowError, SchemaError, XesParseError
from logsample.log_model import (
    CASE_SCOPE,
    CATEGORICAL,
    EVENT_SCOPE,
    INSTANT,
    NUMERIC,
    ColumnMapping,
    load_log,
    parse_csv,
    parse_instant,
    parse_xes,
    subset_log,
    write_csv,
)
from logsample.variants import simple_log

from helpers import log_from_variants

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
        first_event = log.events[log.cases["1"].event_ids[0]]
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

    def test_declared_kind_wins(self, tmp_path):
        text = "case_id,activity,timestamp,code\n1,a,2021-01-01T10:00:00,42\n"
        mapping = ColumnMapping(attribute_kinds={"code": CATEGORICAL})
        log = parse_csv(write(tmp_path / "log.csv", text), mapping)
        assert log.attribute_schema["code"].kind == CATEGORICAL

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
        assert simple_log(back).entries == simple_log(log).entries

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
        events = back.case_events("1")
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
        assert [e.attributes["cost"] for e in back.case_events("1")] == [5, 9]


class TestParseXes:
    def test_basic_structure(self, tmp_path):
        log = parse_xes(write(tmp_path / "log.xes", XES_BASIC))
        assert log.num_cases == 1
        assert log.trace("t1") == ("a", "b")
        events = log.case_events("t1")
        assert events[0].attributes["org:resource"] == "r1"
        assert events[1].attributes["cost"] == 5
        assert log.attribute_schema["cost"].kind == NUMERIC

    def test_gzip_accepted(self, tmp_path):
        path = tmp_path / "log.xes.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(XES_BASIC)
        log = parse_xes(path)
        assert log.num_cases == 1

    def test_load_log_dispatches_on_suffix(self, tmp_path):
        xes = write(tmp_path / "log.xes", XES_BASIC)
        csv_path = write(tmp_path / "log.csv", CSV_BASIC)
        assert load_log(xes).num_cases == 1
        assert load_log(csv_path).num_cases == 2

    def test_malformed_xml_reports_location(self, tmp_path):
        with pytest.raises(XesParseError, match="line"):
            parse_xes(write(tmp_path / "bad.xes", "<log><trace></log>"))

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
    def test_simple_log_size_equals_case_count(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert len(simple_log(log)) == log.num_cases

    def test_event_case_cross_references(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        referenced = {eid for c in log.cases.values() for eid in c.event_ids}
        assert referenced == set(log.events)
        assert {e.case_id for e in log.events.values()} == set(log.cases)

    def test_alphabet_matches_events(self, tmp_path):
        log = parse_csv(write(tmp_path / "log.csv", CSV_BASIC))
        assert log.activity_alphabet == {e.activity for e in log.events.values()}

    def test_subset_log_shares_events(self, tiny_log):
        kept = list(tiny_log.cases)[:1]
        sub = subset_log(tiny_log, kept)
        assert set(sub.cases) == set(kept)
        for eid, ev in sub.events.items():
            assert ev is tiny_log.events[eid]
        assert sub.activity_alphabet == {e.activity for e in sub.events.values()}


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
