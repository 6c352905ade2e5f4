"""Tests for the per-node log store."""

from __future__ import annotations

import pytest

import repro.logs.store as store_module
from repro.logs.records import LogCategory, LogRecord, make_record
from repro.logs.store import LogStore
from tests.reference.eager_log_store import EagerLogStore


def make_store_with_records(count: int = 5) -> LogStore:
    store = LogStore("n1")
    for i in range(count):
        store.log(float(i), LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
    return store


def test_log_appends_records():
    store = make_store_with_records(3)
    assert len(store) == 3
    assert store.records[0].node == "n1"


def test_by_category_and_event():
    store = LogStore("n1")
    store.log(0.0, LogCategory.LINK, "LINK_SYM", neighbor="a")
    store.log(1.0, LogCategory.MPR, "MPR_SELECTED", mpr="a")
    store.log(2.0, LogCategory.MPR, "MPR_REMOVED", mpr="a")
    assert len(store.by_category(LogCategory.MPR)) == 2
    assert len(store.by_event("MPR_SELECTED")) == 1


def test_between_and_where():
    store = make_store_with_records(10)
    assert len(store.between(2.0, 4.0)) == 3
    assert len(store.where(lambda r: r.get("neighbor") == "n7")) == 1


def test_last_records():
    store = make_store_with_records(5)
    assert [r.time for r in store.last(2)] == [3.0, 4.0]
    assert store.last(0) == []
    assert len(store.last(100)) == 5


def test_since_mark_and_advance():
    store = make_store_with_records(3)
    assert len(store.since_mark()) == 3
    store.advance_mark()
    assert store.since_mark() == []
    store.log(10.0, LogCategory.MPR, "MPR_SELECTED", mpr="x")
    assert len(store.since_mark()) == 1


def test_multiple_named_marks_are_independent():
    store = make_store_with_records(2)
    store.advance_mark("detector")
    store.log(5.0, LogCategory.LINK, "LINK_LOST", neighbor="a")
    assert len(store.since_mark("detector")) == 1
    assert len(store.since_mark("other")) == 3


def test_max_records_discards_oldest_and_shifts_marks():
    store = LogStore("n1", max_records=3)
    for i in range(3):
        store.log(float(i), LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
    store.advance_mark()
    store.log(3.0, LogCategory.LINK, "LINK_SYM", neighbor="n3")
    store.log(4.0, LogCategory.LINK, "LINK_SYM", neighbor="n4")
    assert len(store) == 3
    # Only the records appended after the mark should be reported as new.
    new = store.since_mark()
    assert [r.get("neighbor") for r in new] == ["n3", "n4"]


def test_dump_and_reload_text():
    store = make_store_with_records(4)
    text = store.dump_text()
    reloaded = LogStore.from_text("n1", text)
    assert len(reloaded) == 4
    assert reloaded.records[2].get("neighbor") == "n2"


def test_clear_resets_everything():
    store = make_store_with_records(4)
    store.advance_mark()
    store.clear()
    assert len(store) == 0
    assert store.since_mark() == []


def test_extend_preserves_order():
    source = make_store_with_records(3)
    target = LogStore("n1")
    target.extend(source.records)
    assert [r.time for r in target] == [0.0, 1.0, 2.0]


# ------------------------------------------------- lazy build vs eager twin
def _rows(records):
    """Records as comparable tuples (``LogRecord`` equality skips fields)."""
    return [(r.time, r.node, r.category, r.event, r.fields) for r in records]


def _assert_same_reads(lazy: LogStore, eager: EagerLogStore, mark: str = "default"):
    assert len(lazy) == len(eager)
    assert all(type(record) is LogRecord for record in lazy)
    assert _rows(lazy) == _rows(eager)
    assert _rows(lazy.records) == _rows(eager.records)
    assert _rows(lazy.since_mark(mark)) == _rows(eager.since_mark(mark))
    assert _rows(lazy.last(2)) == _rows(eager.last(2))
    assert _rows(lazy.by_category(LogCategory.MPR)) == _rows(eager.by_category(LogCategory.MPR))
    assert _rows(lazy.by_event("LINK_SYM")) == _rows(eager.by_event("LINK_SYM"))
    assert _rows(lazy.between(1.0, 3.0)) == _rows(eager.between(1.0, 3.0))
    assert _rows(lazy.where(lambda r: "mpr" in r.fields)) == \
        _rows(eager.where(lambda r: "mpr" in r.fields))
    assert lazy.dump_text() == eager.dump_text()


@pytest.fixture
def pair():
    """A lazy store and its eager twin, to drive with the same calls."""
    return LogStore("n1"), EagerLogStore("n1")


def _log(stores, time, category, event, **fields):
    for store in stores:
        store.log(time, category, event, **fields)


@pytest.fixture
def make_record_calls(monkeypatch):
    """Every ``make_record`` call the store makes, in order."""
    calls = []
    monkeypatch.setattr(store_module, "make_record",
                        lambda *args, **kwargs: calls.append(args) or make_record(*args, **kwargs))
    return calls


def test_log_returns_none_and_defers_make_record(make_record_calls):
    calls = make_record_calls
    store = LogStore("n1")
    assert store.log(0.0, LogCategory.LINK, "LINK_SYM", neighbor="a") is None
    store.log(1.0, LogCategory.MPR, "MPR_SELECTED", mpr="a", covered=["c", "b"])
    assert len(store) == 2 and calls == []
    assert store.last()[0].get("covered") == "c,b"
    assert len(calls) == 2


def test_interleaved_log_and_append_keep_order(pair):
    lazy, eager = pair
    _log(pair, 0.0, LogCategory.LINK, "LINK_SYM", neighbor="a")
    built = make_record(1.0, "n1", LogCategory.MPR, "MPR_SELECTED", mpr="a")
    assert lazy.append(built) is built
    eager.append(built)
    _log(pair, 2.0, LogCategory.MPR, "MPR_REMOVED", mpr="a")
    lazy.extend([built])
    eager.extend([built])
    _log(pair, 3.0, LogCategory.LINK, "LINK_SYM", neighbor="b")
    _assert_same_reads(lazy, eager)
    assert lazy.records[1] is built and lazy.records[3] is built


def test_reading_twice_builds_each_record_once(pair, make_record_calls):
    lazy, eager = pair
    for i in range(4):
        _log(pair, float(i), LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
    first = lazy.records
    second = lazy.records
    assert all(a is b for a, b in zip(first, second))
    _assert_same_reads(lazy, eager)
    _assert_same_reads(lazy, eager)
    assert len(make_record_calls) == 4


def test_max_records_overflow_with_raw_entries_on_both_sides_of_a_mark():
    lazy, eager = LogStore("n1", max_records=4), EagerLogStore("n1", max_records=4)
    stores = (lazy, eager)
    _log(stores, 0.0, LogCategory.LINK, "LINK_SYM", neighbor="a")
    lazy.records  # built prefix
    _log(stores, 1.0, LogCategory.MPR, "MPR_SELECTED", mpr="a")
    _log(stores, 2.0, LogCategory.LINK, "LINK_SYM", neighbor="b")
    for store in stores:
        store.advance_mark()
    for i in range(3):  # overflow by 2: one built and one raw entry before the mark go
        _log(stores, 3.0 + i, LogCategory.MPR, "MPR_SELECTED", mpr=f"m{i}")
    assert [r.get("mpr") for r in lazy.since_mark()] == ["m0", "m1", "m2"]
    _assert_same_reads(lazy, eager)
    for i in range(5):  # overflow past the mark: nothing before it is left
        _log(stores, 6.0 + i, LogCategory.LINK, "LINK_SYM", neighbor=f"x{i}")
    _assert_same_reads(lazy, eager)
    assert len(lazy) == 4


def test_clear_then_more_log_calls(pair):
    lazy, eager = pair
    for i in range(3):
        _log(pair, float(i), LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
    lazy.records
    for store in pair:
        store.advance_mark()
        store.clear()
    _log(pair, 5.0, LogCategory.MPR, "MPR_SELECTED", mpr="z")
    _log(pair, 6.0, LogCategory.LINK, "LINK_SYM", neighbor="y")
    _assert_same_reads(lazy, eager)
    assert [r.time for r in lazy.since_mark()] == [5.0, 6.0]


def test_since_mark_after_a_partial_build(pair):
    lazy, eager = pair
    for i in range(3):
        _log(pair, float(i), LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
    assert len(lazy.since_mark("a")) == 3  # builds the first three
    for store in pair:
        store.advance_mark("a")
    _log(pair, 3.0, LogCategory.MPR, "MPR_SELECTED", mpr="m")
    _log(pair, 4.0, LogCategory.LINK, "LINK_LOST", neighbor="n0")
    assert [r.time for r in lazy.since_mark("a")] == [3.0, 4.0]
    _assert_same_reads(lazy, eager, mark="a")
    _assert_same_reads(lazy, eager, mark="never-advanced")
