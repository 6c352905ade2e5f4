"""Eager audit-log store: builds every record as it is written.

The oracle for :class:`repro.logs.store.LogStore`, which keeps raw tuples and
builds records on first read.  Both must give the same records, the same
query results and the same text dump for any sequence of calls.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.logs.parser import dump_records, load_records
from repro.logs.records import LogCategory, LogRecord, make_record


class EagerLogStore:
    """Append-only audit log of a single node, built on write."""

    def __init__(self, node_id: str, max_records: Optional[int] = None) -> None:
        self.node_id = node_id
        self._records: List[LogRecord] = []
        self._max_records = max_records
        self._marks: dict = {}

    def append(self, record: LogRecord) -> LogRecord:
        self._records.append(record)
        if self._max_records is not None and len(self._records) > self._max_records:
            overflow = len(self._records) - self._max_records
            del self._records[:overflow]
            self._marks = {k: max(0, v - overflow) for k, v in self._marks.items()}
        return record

    def log(self, time: float, category: LogCategory, event: str, **fields) -> LogRecord:
        return self.append(make_record(time, self.node_id, category, event, **fields))

    def extend(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> List[LogRecord]:
        return list(self._records)

    def by_category(self, category: LogCategory) -> List[LogRecord]:
        return [r for r in self._records if r.category == category]

    def by_event(self, event: str) -> List[LogRecord]:
        return [r for r in self._records if r.event == event]

    def between(self, start: float, end: float) -> List[LogRecord]:
        return [r for r in self._records if start <= r.time <= end]

    def where(self, predicate: Callable[[LogRecord], bool]) -> List[LogRecord]:
        return [r for r in self._records if predicate(r)]

    def last(self, count: int = 1) -> List[LogRecord]:
        if count <= 0:
            return []
        return list(self._records[-count:])

    def since_mark(self, mark_name: str = "default") -> List[LogRecord]:
        start = self._marks.get(mark_name, 0)
        return list(self._records[start:])

    def advance_mark(self, mark_name: str = "default") -> None:
        self._marks[mark_name] = len(self._records)

    def dump_text(self) -> str:
        return dump_records(self._records)

    @classmethod
    def from_text(cls, node_id: str, text: str) -> "EagerLogStore":
        store = cls(node_id)
        store.extend(load_records(text))
        return store

    def clear(self) -> None:
        self._records.clear()
        self._marks.clear()
