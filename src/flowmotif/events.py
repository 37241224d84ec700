"""Pass-event ingestion: parse, validate, and group pass logs.

Input is a flat stream of directed pass records, one per line, in either
CSV (fixed header) or JSON-lines form. Records that violate the event
invariants (self-pass, negative timestamp, malformed fields) are rejected
individually and reported as diagnostics; they never abort the parse.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

CSV_HEADER = ("match_id", "team_id", "passer", "receiver", "timestamp_s")

FORMATS = ("csv", "jsonl")


class FormatError(ValueError):
    """Raised when a stream's framing (not a single record) is wrong."""


@dataclass(frozen=True, slots=True)
class PassEvent:
    """One directed pass: who played the ball to whom, and when.

    ``timestamp`` is seconds from match start; fractional values are fine.
    """

    match_id: str
    team_id: str
    passer: str
    receiver: str
    timestamp: float

    def __post_init__(self) -> None:
        if self.passer == self.receiver:
            raise ValueError(f"self-pass by {self.passer!r}")
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0.0):
            raise ValueError(f"timestamp must be finite and >= 0, got {self.timestamp!r}")


@dataclass(frozen=True, slots=True)
class MatchEventLog:
    """All passes of one team in one match, sorted by timestamp.

    Ties in timestamp are allowed and keep their input order (stable sort).
    """

    match_id: str
    team_id: str
    events: tuple[PassEvent, ...]

    def __post_init__(self) -> None:
        for ev in self.events:
            if ev.match_id != self.match_id or ev.team_id != self.team_id:
                raise ValueError(
                    f"event ({ev.match_id!r}, {ev.team_id!r}) does not belong to "
                    f"log ({self.match_id!r}, {self.team_id!r})"
                )
        for a, b in zip(self.events, self.events[1:]):
            if b.timestamp < a.timestamp:
                raise ValueError("events not sorted by timestamp")


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    """A rejected input record: 1-based line number plus the reason."""

    line: int
    reason: str

    def __str__(self) -> str:
        return f"line={self.line} reason={self.reason}"


@dataclass(frozen=True, slots=True)
class ParseResult:
    events: tuple[PassEvent, ...]
    diagnostics: tuple[ParseDiagnostic, ...]


def _as_text(stream: IO[bytes] | IO[str]) -> IO[str]:
    raw = stream.read()
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from None
    return io.StringIO(raw)


def _build_event(
    fields: dict[str, object], line: int
) -> PassEvent | ParseDiagnostic:
    for name in CSV_HEADER:
        value = fields.get(name)
        if value is None or value == "":
            return ParseDiagnostic(line, f"missing field {name}")
    ts_raw = fields["timestamp_s"]
    try:
        timestamp = float(ts_raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}")
    if not math.isfinite(timestamp):
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}")
    if timestamp < 0.0:
        return ParseDiagnostic(line, f"negative timestamp at line {line}")
    passer, receiver = str(fields["passer"]), str(fields["receiver"])
    if passer == receiver:
        return ParseDiagnostic(line, f"self-pass at line {line}")
    return PassEvent(
        match_id=str(fields["match_id"]),
        team_id=str(fields["team_id"]),
        passer=passer,
        receiver=receiver,
        timestamp=timestamp,
    )


def _parse_csv(text: IO[str]) -> ParseResult:
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        return ParseResult((), ())
    header = [h.strip().lstrip("﻿") for h in header]
    missing = [name for name in CSV_HEADER if name not in header]
    if missing:
        raise FormatError(f"csv header missing column(s): {', '.join(missing)}")
    if tuple(header) != CSV_HEADER:
        raise FormatError(
            f"csv header must be exactly {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    events: list[PassEvent] = []
    diagnostics: list[ParseDiagnostic] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            diagnostics.append(
                ParseDiagnostic(line, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            )
            continue
        out = _build_event(dict(zip(CSV_HEADER, row)), line)
        if isinstance(out, ParseDiagnostic):
            diagnostics.append(out)
        else:
            events.append(out)
    return ParseResult(tuple(events), tuple(diagnostics))


def _parse_jsonl(text: IO[str]) -> ParseResult:
    events: list[PassEvent] = []
    diagnostics: list[ParseDiagnostic] = []
    for line_num, line in enumerate(text, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            diagnostics.append(ParseDiagnostic(line_num, "invalid JSON"))
            continue
        if not isinstance(obj, dict):
            diagnostics.append(ParseDiagnostic(line_num, "record is not an object"))
            continue
        out = _build_event(obj, line_num)
        if isinstance(out, ParseDiagnostic):
            diagnostics.append(out)
        else:
            events.append(out)
    return ParseResult(tuple(events), tuple(diagnostics))


def parse_pass_events(stream: IO[bytes] | IO[str], format: str = "csv") -> ParseResult:
    """Parse a UTF-8 stream of pass records.

    Well-formed records come back as events in input order; malformed ones
    become diagnostics with their line number. A broken CSV header or bytes
    that are not UTF-8 raise :class:`FormatError` because nothing in the
    stream can be trusted.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    text = _as_text(stream)
    if format == "csv":
        return _parse_csv(text)
    return _parse_jsonl(text)


def serialize_pass_events(events: Iterable[PassEvent], format: str = "csv") -> str:
    """Inverse of :func:`parse_pass_events` for valid records.

    Timestamps are written with ``repr`` so float values round-trip exactly.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for ev in events:
            writer.writerow(
                [ev.match_id, ev.team_id, ev.passer, ev.receiver, repr(ev.timestamp)]
            )
        return buf.getvalue()
    lines = []
    for ev in events:
        lines.append(
            json.dumps(
                {
                    "match_id": ev.match_id,
                    "team_id": ev.team_id,
                    "passer": ev.passer,
                    "receiver": ev.receiver,
                    "timestamp_s": ev.timestamp,
                },
                separators=(",", ":"),
            )
        )
    return "".join(line + "\n" for line in lines)


def group_by_match(events: Iterable[PassEvent]) -> list[MatchEventLog]:
    """Partition events into one log per (match_id, team_id), sorted by time.

    Logs come back ordered by their (match_id, team_id) key; duplicates are
    data, not errors, and are retained.
    """
    groups: dict[tuple[str, str], list[PassEvent]] = {}
    for ev in events:
        groups.setdefault((ev.match_id, ev.team_id), []).append(ev)
    logs = []
    for (match_id, team_id), evs in sorted(groups.items()):
        evs.sort(key=lambda e: e.timestamp)  # stable: ties keep input order
        logs.append(MatchEventLog(match_id, team_id, tuple(evs)))
    return logs
