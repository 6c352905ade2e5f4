"""Textual serialisation of audit-log records (olsrd-like format).

A record is one line::

    t=12.345678 node=n3 cat=MPR event=MPR_SELECTED mpr=n7 covered=n9,n12

Empty field values and values containing whitespace or ``"`` are quoted;
inside the quotes ``\\``, ``"`` and newlines are backslash-escapes
(``\\\\``, ``\\"``, ``\\n``), so a record always stays on one line.  The
parser handles both quoted and unquoted values.  The round trip
``parse_line(format_record(r)) == r`` holds for every record produced through
:func:`repro.logs.records.make_record`, and ``load_records(dump_records(rs))``
gives back every record of ``rs``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List

from repro.logs.records import LogCategory, LogRecord


class LogParseError(ValueError):
    """Raised when a log line cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""(?P<key>[A-Za-z_][A-Za-z0-9_]*)=(?:"(?P<quoted>(?:[^"\\]|\\.)*)"|(?P<plain>\S*))"""
)
_ESCAPE_RE = re.compile(r"\\(.)")


def _quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _unquote(value: str) -> str:
    if "\\" not in value:
        return value
    return _ESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def format_record(record: LogRecord) -> str:
    """Serialise ``record`` to a single text line."""
    parts = [
        f"t={record.time:.6f}",
        f"node={record.node}",
        f"cat={record.category.value}",
        f"event={record.event}",
    ]
    for key in sorted(record.fields):
        value = record.fields[key]
        if value == "" or '"' in value or any(ch.isspace() for ch in value):
            parts.append(f"{key}={_quote(value)}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def parse_line(line: str) -> LogRecord:
    """Parse one text line back into a :class:`LogRecord`.

    The first occurrence of each mandatory key (``t``, ``node``, ``cat``,
    ``event``) forms the header; any later token — even one reusing a
    mandatory key name — is treated as an ordinary field, so records whose
    field names collide with the header keys round-trip correctly.
    """
    line = line.strip()
    if not line:
        raise LogParseError("empty log line")
    header: dict = {}
    fields: dict = {}
    mandatory = ("t", "node", "cat", "event")
    for match in _TOKEN_RE.finditer(line):
        key = match.group("key")
        value = match.group("quoted")
        if value is None:
            value = match.group("plain")
        else:
            value = _unquote(value)
        if key in mandatory and key not in header:
            header[key] = value
        else:
            fields[key] = value
    missing = [k for k in mandatory if k not in header]
    if missing:
        raise LogParseError(f"log line missing mandatory keys {missing}: {line!r}")
    try:
        time = float(header["t"])
    except ValueError as exc:
        raise LogParseError(f"invalid timestamp in {line!r}") from exc
    try:
        category = LogCategory(header["cat"])
    except ValueError as exc:
        raise LogParseError(f"unknown log category {header['cat']!r}") from exc
    return LogRecord(time=time, node=header["node"], category=category,
                     event=header["event"], fields=fields)


def parse_lines(lines: Iterable[str], skip_errors: bool = False) -> Iterator[LogRecord]:
    """Parse an iterable of lines, optionally skipping malformed ones."""
    for line in lines:
        if not line.strip():
            continue
        try:
            yield parse_line(line)
        except LogParseError:
            if not skip_errors:
                raise


def dump_records(records: Iterable[LogRecord]) -> str:
    """Serialise many records to a newline-joined text block."""
    return "\n".join(format_record(record) for record in records)


def load_records(text: str, skip_errors: bool = False) -> List[LogRecord]:
    """Parse a text block produced by :func:`dump_records`.

    Lines break at ``\\n`` only, the separator :func:`dump_records` writes:
    other characters :meth:`str.splitlines` breaks at may sit in a value.
    """
    return list(parse_lines(text.split("\n"), skip_errors=skip_errors))
