"""CSV / XES parsing, CSV writing, and the structural log invariants."""

import gzip
from datetime import datetime, timedelta, timezone
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsample.errors import EmptyLogError, RowError, SchemaError, XesParseError
from logsample.log_model import (
    CASE_SCOPE,
    CATEGORICAL,
    EVENT_SCOPE,
    INSTANT,
    NUMERIC,
    ColumnMapping,
    Event,
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
            "1,a,2021-01-01T10:00:00,nan,inf,1e3\n"
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
    actual = outcome(parse_instant, text)
    assert actual == expected
    assert repr(actual) == repr(expected)
