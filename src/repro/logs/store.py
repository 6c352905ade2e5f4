"""Per-node audit-log store.

The store is append-only, as a real log file would be.  It supports the
queries the detector needs: by category, by time window, by event, and
"records since the last analysis mark".

Records are built lazily.  :meth:`LogStore.log` keeps the raw
``(time, category, event, fields)`` tuple, and the first read turns it into
a :class:`~repro.logs.records.LogRecord` through
:func:`~repro.logs.records.make_record`, in place and once.  In a campaign
cell only the victim's log is ever read, so the other nodes never pay for
formatting.  The price is a contract on writers: a field value passed to
:meth:`LogStore.log` must not be mutated afterwards.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.logs.parser import dump_records, load_records
from repro.logs.records import LogCategory, LogRecord, make_record


class LogStore:
    """Append-only audit log of a single node."""

    def __init__(self, node_id: str, max_records: Optional[int] = None) -> None:
        self.node_id = node_id
        #: Built :class:`LogRecord`s and raw ``log()`` tuples, oldest first.
        self._records: list = []
        #: Every entry before this index is a built record.
        self._built = 0
        self._max_records = max_records
        self._marks: dict = {}

    # ------------------------------------------------------------- writing
    def append(self, record: LogRecord) -> LogRecord:
        """Append an already-built record."""
        self._records.append(record)
        self._trim()
        return record

    def log(self, time: float, category: LogCategory, event: str, **fields) -> None:
        """Append a record, built by :func:`make_record` when first read.

        The field values are kept as passed, so the caller must not mutate
        one afterwards: pass a fresh list (``sorted(...)``, a comprehension)
        rather than a live container.
        """
        self._records.append((time, category, event, fields))
        self._trim()

    def extend(self, records: Iterable[LogRecord]) -> None:
        """Append many records preserving order."""
        for record in records:
            self.append(record)

    def _trim(self) -> None:
        if self._max_records is not None and len(self._records) > self._max_records:
            overflow = len(self._records) - self._max_records
            del self._records[:overflow]
            self._built = max(0, self._built - overflow)
            # shift analysis marks so they keep pointing at the same records
            self._marks = {k: max(0, v - overflow) for k, v in self._marks.items()}

    def _build(self) -> List[LogRecord]:
        """Build every still-raw entry in place; return the record list."""
        records = self._records
        node_id = self.node_id
        for index in range(self._built, len(records)):
            entry = records[index]
            if type(entry) is tuple:
                time, category, event, fields = entry
                records[index] = make_record(time, node_id, category, event, **fields)
        self._built = len(records)
        return records

    # ------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._build())

    @property
    def records(self) -> List[LogRecord]:
        """All records, oldest first."""
        return list(self._build())

    def by_category(self, category: LogCategory) -> List[LogRecord]:
        """All records of ``category``."""
        return [r for r in self._build() if r.category == category]

    def by_event(self, event: str) -> List[LogRecord]:
        """All records with the given event name."""
        return [r for r in self._build() if r.event == event]

    def between(self, start: float, end: float) -> List[LogRecord]:
        """Records with ``start <= time <= end``."""
        return [r for r in self._build() if start <= r.time <= end]

    def where(self, predicate: Callable[[LogRecord], bool]) -> List[LogRecord]:
        """Records satisfying an arbitrary predicate."""
        return [r for r in self._build() if predicate(r)]

    def last(self, count: int = 1) -> List[LogRecord]:
        """The ``count`` most recent records."""
        if count <= 0:
            return []
        return self._build()[-count:]

    # -------------------------------------------------- incremental analysis
    def since_mark(self, mark_name: str = "default") -> List[LogRecord]:
        """Records appended after the last call to :meth:`advance_mark`."""
        return self._build()[self._marks.get(mark_name, 0):]

    def advance_mark(self, mark_name: str = "default") -> None:
        """Move the analysis mark to the end of the current log."""
        self._marks[mark_name] = len(self._records)

    # ------------------------------------------------------------- text I/O
    def dump_text(self) -> str:
        """Serialise the whole log to olsrd-like text."""
        return dump_records(self._build())

    @classmethod
    def from_text(cls, node_id: str, text: str) -> "LogStore":
        """Build a store from a text dump (used when replaying captured logs)."""
        store = cls(node_id)
        store.extend(load_records(text))
        return store

    def clear(self) -> None:
        """Discard every record and analysis mark."""
        self._records.clear()
        self._built = 0
        self._marks.clear()
