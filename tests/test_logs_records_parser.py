"""Tests for audit-log records and the text parser."""

from __future__ import annotations

import pytest

from repro.logs.parser import (
    LogParseError,
    dump_records,
    format_record,
    load_records,
    parse_line,
    parse_lines,
)
from repro.logs.records import LogCategory, LogRecord, make_record


def test_make_record_converts_values_to_strings():
    record = make_record(1.5, "n1", LogCategory.MPR, "MPR_SELECTED",
                         mpr="n2", covered={"b", "a"}, path=["b", "a"], count=3,
                         ratio=0.25)
    assert record.fields["mpr"] == "n2"
    assert record.fields["covered"] == "a,b"  # sets are sorted
    assert record.fields["path"] == "b,a"  # sequences keep their order
    assert record.fields["count"] == "3"
    assert record.fields["ratio"].startswith("0.25")


def test_make_record_skips_none_values():
    record = make_record(0.0, "n1", LogCategory.SYSTEM, "CONFIG", nothing=None, some=1)
    assert "nothing" not in record.fields
    assert "some" in record.fields


def test_record_get_and_get_list():
    record = make_record(0.0, "n1", LogCategory.MPR, "MPR_SET_CHANGED",
                         mprs=["a", "b"], empty=[])
    assert record.get("mprs") == "a,b"
    assert record.get_list("mprs") == ["a", "b"]
    assert record.get_list("empty") == []
    assert record.get_list("absent") == []
    assert record.get("absent", "fallback") == "fallback"


def test_record_with_fields_returns_copy():
    record = make_record(0.0, "n1", LogCategory.SYSTEM, "CONFIG", a="1")
    extended = record.with_fields(b="2")
    assert "b" not in record.fields
    assert extended.fields["b"] == "2"
    assert extended.fields["a"] == "1"


def test_format_and_parse_roundtrip():
    record = make_record(12.345678, "n3", LogCategory.MPR, "MPR_SELECTED",
                         mpr="n7", covered=["n9", "n12"])
    line = format_record(record)
    parsed = parse_line(line)
    assert parsed.time == pytest.approx(record.time)
    assert parsed.node == record.node
    assert parsed.category == record.category
    assert parsed.event == record.event
    assert parsed.fields == record.fields


def test_format_quotes_values_with_spaces():
    record = make_record(1.0, "n1", LogCategory.SYSTEM, "CONFIG", note="two words")
    line = format_record(record)
    assert '"two words"' in line
    assert parse_line(line).get("note") == "two words"


def test_format_quotes_empty_values():
    record = LogRecord(1.0, "n1", LogCategory.SYSTEM, "CONFIG", {"empty": ""})
    line = format_record(record)
    parsed = parse_line(line)
    assert parsed.get("empty") == ""


def test_parse_line_missing_mandatory_key_raises():
    with pytest.raises(LogParseError):
        parse_line("t=1.0 cat=MPR event=X")


def test_parse_line_invalid_category_raises():
    with pytest.raises(LogParseError):
        parse_line("t=1.0 node=n1 cat=NOPE event=X")


def test_parse_line_invalid_timestamp_raises():
    with pytest.raises(LogParseError):
        parse_line("t=abc node=n1 cat=MPR event=X")


def test_parse_empty_line_raises():
    with pytest.raises(LogParseError):
        parse_line("   ")


def test_parse_lines_skip_errors():
    lines = [
        "t=1.0 node=n1 cat=MPR event=MPR_SELECTED",
        "garbage line",
        "t=2.0 node=n1 cat=LINK event=LINK_SYM neighbor=n2",
    ]
    with pytest.raises(LogParseError):
        list(parse_lines(lines))
    parsed = list(parse_lines(lines, skip_errors=True))
    assert len(parsed) == 2


def test_dump_and_load_many_records():
    records = [
        make_record(float(i), "n1", LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
        for i in range(10)
    ]
    text = dump_records(records)
    loaded = load_records(text)
    assert len(loaded) == 10
    assert loaded[3].get("neighbor") == "n3"


def test_category_str_is_wire_value():
    assert str(LogCategory.MESSAGE_RX) == "MSG_RX"
    assert LogCategory("MSG_RX") is LogCategory.MESSAGE_RX


@pytest.mark.parametrize("value", [
    'a b"c', '"q"', '"', "\\", '\\"', "end\\", "back\\slash and space",
    "two\nlines", "\\n is not a newline", "k=v \"x=y\"",
])
def test_quotes_backslashes_and_newlines_round_trip(value):
    record = make_record(1.0, "n1", LogCategory.SYSTEM, "CONFIG", note=value, tail="x")
    line = format_record(record)
    assert "\n" not in line
    assert parse_line(line).fields == record.fields
    loaded = load_records(dump_records([record, record]))
    assert [r.fields for r in loaded] == [record.fields, record.fields]


def test_values_without_quotes_backslashes_or_newlines_format_as_before():
    record = LogRecord(1.0, "n1", LogCategory.SYSTEM, "CONFIG",
                       {"a": "x\\y", "b": "two words", "c": "", "d": "k=v"})
    assert format_record(record) == (
        't=1.000000 node=n1 cat=SYSTEM event=CONFIG a=x\\y b="two words" c="" d=k=v')
    assert parse_line(format_record(record)).fields == record.fields
