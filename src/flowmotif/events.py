"""Pass-event ingestion: parse, validate, and group pass logs.

Input is a flat stream of directed pass records, one per line, in either
CSV (fixed header) or JSON-lines form. Records that violate the event
invariants (self-pass, negative timestamp, malformed fields) are rejected
individually and reported as diagnostics; they never abort the parse.
JSON lines in the compact form that ``serialize_pass_events`` writes are
read by one regular expression over the whole text; the JSON decoder reads
only the other lines, with the same rows and diagnostics as a result.

Valid records are held as columns (``PassTable``): int32 codes into a
table of distinct identifiers, and float64 timestamps. ``PassEvent`` and
``MatchEventLog`` are row types, built only when a caller indexes or
iterates the columns.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

CSV_HEADER = ("match_id", "team_id", "passer", "receiver", "timestamp_s")

FORMATS = ("csv", "jsonl")

# The kinds of reason for which a record is rejected, as ``ParseDiagnostic.kind``.
REJECTED_KINDS = (
    "fields", "missing_field", "invalid_timestamp", "negative_timestamp", "self_pass",
    "invalid_json", "not_an_object",
)

# JSON's own whitespace; a JSON-lines record may be padded with it.
_JSON_SPACE = " \t\n\r"
_decode_json = json.JSONDecoder().raw_decode
# One match per line of a JSON-lines text. A plain record, the five fields in
# CSV_HEADER order with ids that decode to their own text and an unsigned
# number as the timestamp, fills the first five groups; any other line fills
# the last one.
_PLAIN_ID = r'"([^"\\\x00-\x1f]+)"'
_PLAIN_NUMBER = r"((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
_JSON_LINE = re.compile(
    r"^(?:[ \t\r]*\{"
    + ",".join(f'"{name}":{_PLAIN_ID}' for name in CSV_HEADER[:4])
    + f',"{CSV_HEADER[4]}":{_PLAIN_NUMBER}'
    + r"\}[ \t\r]*|(.*))$",
    re.M,
)


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


class PassTable:
    """Passes as columns: a sized sequence of ``PassEvent`` rows.

    ``names`` holds distinct identifiers and ``codes`` is a (4, n) int32
    array of codes into it, one row each for ``match``, ``team``,
    ``passer`` and ``receiver`` (views of those rows), so two passes share
    an identifier exactly when they share its code. ``timestamp`` is a
    float64 array. An integer index builds one row; a slice or an index
    array gives a table of those rows.
    """

    __slots__ = ("names", "codes", "timestamp")

    def __init__(self, names: tuple[str, ...], codes: np.ndarray, timestamp: np.ndarray) -> None:
        self.names = names
        self.codes = codes
        self.timestamp = timestamp

    match = property(lambda self: self.codes[0])
    team = property(lambda self: self.codes[1])
    passer = property(lambda self: self.codes[2])
    receiver = property(lambda self: self.codes[3])

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple[str, str, str, str, float]], index: dict[str, int] | None = None
    ) -> PassTable:
        """Columns of (match_id, team_id, passer, receiver, timestamp) tuples.

        ``index`` maps names to codes and gains the rows' new names; the table's
        names are all of its names, so tables coded through one share codes.
        """
        match, team, passer, receiver, timestamp = zip(*rows) if rows else ((),) * 5
        ids = tuple(chain(match, team, passer, receiver))
        index = {} if index is None else index
        for name in dict.fromkeys(ids):
            index.setdefault(name, len(index))
        codes = np.fromiter(map(index.__getitem__, ids), np.int32, len(ids))
        return cls(tuple(index), codes.reshape(4, -1), np.array(timestamp, dtype=np.float64))

    @classmethod
    def from_events(cls, events: Iterable[PassEvent]) -> PassTable:
        return cls.from_rows(
            [(e.match_id, e.team_id, e.passer, e.receiver, e.timestamp) for e in events]
        )

    @classmethod
    def concat(cls, tables: Sequence[PassTable]) -> PassTable:
        """The rows of every table, in order, coded into one table of names."""
        if tables and all(t.names is tables[0].names for t in tables):
            names = tables[0].names
            codes = [t.codes for t in tables]
        else:
            index: dict[str, int] = {}
            codes = []
            for t in tables:
                remap = [index.setdefault(name, len(index)) for name in t.names]
                codes.append(np.array(remap, dtype=np.int32)[t.codes])
            names = tuple(index)
        return cls(
            names,
            np.concatenate(codes, axis=1) if codes else np.empty((4, 0), dtype=np.int32),
            np.concatenate([t.timestamp for t in tables] or [np.empty(0)]),
        )

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            return PassTable(self.names, self.codes[:, i], self.timestamp[i])
        names = self.names
        match, team, passer, receiver = self.codes[:, i].tolist()
        return PassEvent(
            names[match], names[team], names[passer], names[receiver], float(self.timestamp[i])
        )

    def __iter__(self) -> Iterator[PassEvent]:
        names = self.names
        for (m, t, p, r), ts in zip(self.codes.T.tolist(), self.timestamp.tolist()):
            yield PassEvent(names[m], names[t], names[p], names[r], ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PassTable):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"PassTable({list(self)!r})"

    def outsider(self, match_id: str, team_id: str) -> int | None:
        """Index of the first pass not of this match and team, or None."""
        match, team = self.codes[:2].tolist()
        if not match:
            return None
        if (self.names[match[0]], self.names[team[0]]) != (match_id, team_id):
            return 0
        if match.count(match[0]) + team.count(team[0]) == 2 * len(match):
            return None
        return next(i for i, ids in enumerate(zip(match, team)) if ids != (match[0], team[0]))


class PassRuns:
    """A pass table cut into runs of consecutive rows: a sized sequence of rows.

    Run ``i`` holds the passes from ``starts[i]`` up to the next start.
    Indexing or iterating builds a ``row``, a dataclass whose fields are
    the match id, the team id and the passes, from the ids of the run's
    first pass and the run's slice of ``passes``. The row skips its
    ``__post_init__`` checks: whoever cuts the runs guarantees them, as
    grouping and segmentation guarantee one team-match per run in time
    order, and segmentation the chain. A slice (step 1) is a ``PassRuns``
    of those runs over their own slice of ``passes``, so its last run ends
    where the next run began.
    """

    __slots__ = ("passes", "starts", "row")

    def __init__(self, passes: PassTable, starts: np.ndarray, row: type) -> None:
        self.passes = passes
        self.starts = starts
        self.row = row

    def __len__(self) -> int:
        return len(self.starts)

    def _rows(self, starts: list[int], ends: list[int]) -> Iterator:
        """Rows of the runs from each of ``starts`` up to the matching end."""
        passes = self.passes
        names, codes, timestamp = passes.names, passes.codes, passes.timestamp
        match, team = codes[:2, starts].tolist()
        row, new = self.row, object.__new__
        # the slots' own setters, which skip the frozen dataclass's __setattr__
        set_match, set_team, set_passes = [getattr(row, f).__set__ for f in row.__slots__]
        for start, end, m, t in zip(starts, ends, match, team):
            out = new(row)
            set_match(out, names[m])
            set_team(out, names[t])
            set_passes(out, PassTable(names, codes[:, start:end], timestamp[start:end]))
            yield out

    def _edge(self, i: int) -> int:
        """Where run ``i`` starts, or the end of the passes for the run after the last."""
        return int(self.starts[i]) if i < len(self) else len(self.passes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            runs = range(len(self))[i]
            if runs.step != 1:
                raise ValueError("runs are sliced with step 1 only")
            first, end = self._edge(runs.start), self._edge(max(runs.start, runs.stop))
            return PassRuns(self.passes[first:end], self.starts[i] - first, self.row)
        i = range(len(self))[i]
        return next(self._rows([self._edge(i)], [self._edge(i + 1)]))

    def __iter__(self) -> Iterator:
        starts = self.starts.tolist()
        return self._rows(starts, starts[1:] + [len(self.passes)])


@dataclass(frozen=True, slots=True)
class MatchEventLog:
    """All passes of one team in one match, sorted by timestamp.

    Ties in timestamp are allowed and keep their input order (stable sort).
    ``events`` may be given as any sequence of ``PassEvent`` and is held
    as a ``PassTable``.
    """

    match_id: str
    team_id: str
    events: PassTable

    def __post_init__(self) -> None:
        events = self.events
        if not isinstance(events, PassTable):
            events = PassTable.from_events(events)
            object.__setattr__(self, "events", events)
        i = events.outsider(self.match_id, self.team_id)
        if i is not None:
            ev = events[i]
            raise ValueError(
                f"event ({ev.match_id!r}, {ev.team_id!r}) does not belong to "
                f"log ({self.match_id!r}, {self.team_id!r})"
            )
        times = events.timestamp.tolist()
        if times != sorted(times):
            raise ValueError("events not sorted by timestamp")


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    """A rejected input record: 1-based line number, the reason and its kind.

    ``kind`` is one of ``REJECTED_KINDS``, so a caller can count rejections
    without reading ``reason``.
    """

    line: int
    reason: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in REJECTED_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {REJECTED_KINDS}")

    def __str__(self) -> str:
        return f"line={self.line} reason={self.reason}"


@dataclass(frozen=True, slots=True)
class ParseResult:
    events: PassTable
    diagnostics: tuple[ParseDiagnostic, ...]


def _as_text(stream: IO[bytes] | IO[str]) -> str:
    raw = stream.read()
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from None
    return raw


def _validate(
    fields: Sequence[object], line: int
) -> tuple[str, str, str, str, float] | ParseDiagnostic:
    """A record's five fields, in ``CSV_HEADER`` order, as ids and a timestamp.

    A field is missing when it is None or ""; the timestamp goes through
    ``float`` and every id through ``str``. A timestamp text that ``float``
    reads but no data format writes, with an underscore or a character past
    ASCII (``1_0``, ``١٢``, ``５``), is refused too.
    """
    match_id, team_id, passer, receiver, ts_raw = fields
    if not (match_id and team_id and passer and receiver and ts_raw):  # None and "" are falsy
        for name, value in zip(CSV_HEADER, fields):
            if value is None or value == "":
                return ParseDiagnostic(line, f"missing field {name}", "missing_field")
    try:
        timestamp = float(ts_raw)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float's range
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}", "invalid_timestamp")
    if not math.isfinite(timestamp) or (
        type(ts_raw) is str and ("_" in ts_raw or not ts_raw.isascii())
    ):
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}", "invalid_timestamp")
    if timestamp < 0.0:
        return ParseDiagnostic(line, f"negative timestamp at line {line}", "negative_timestamp")
    if not type(match_id) is type(team_id) is type(passer) is type(receiver) is str:  # JSON
        match_id, team_id, passer, receiver = map(str, (match_id, team_id, passer, receiver))
    if passer == receiver:
        return ParseDiagnostic(line, f"self-pass at line {line}", "self_pass")
    return match_id, team_id, passer, receiver, timestamp  # type: ignore[return-value]


def _parse_csv(text: str) -> tuple[list, list[ParseDiagnostic]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return [], []
    header = [h.strip().lstrip("﻿") for h in header]
    missing = [name for name in CSV_HEADER if name not in header]
    if missing:
        raise FormatError(f"csv header missing column(s): {', '.join(missing)}")
    if tuple(header) != CSV_HEADER:
        raise FormatError(
            f"csv header must be exactly {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    rows: list[tuple[str, str, str, str, float]] = []
    diagnostics: list[ParseDiagnostic] = []
    n_fields = len(CSV_HEADER)
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != n_fields:
            diagnostics.append(
                ParseDiagnostic(line, f"expected {n_fields} fields, got {len(row)}", "fields")
            )
            continue
        out = _validate(row, line)
        if type(out) is tuple:
            rows.append(out)
        else:
            diagnostics.append(out)
    return rows, diagnostics


def _parse_jsonl(text: str) -> tuple[list, list[ParseDiagnostic]]:
    """The rows and diagnostics of a JSON-lines text, in line order.

    One leading byte-order mark is dropped. ``_JSON_LINE`` reads the whole
    text in one pass. A plain record, the compact form that
    ``serialize_pass_events`` writes, is a row as it stands unless it is a
    self-pass or its timestamp overflows to infinity. Every other line, and
    those two, goes through the JSON decoder and then ``_validate``; a JSON
    boolean timestamp is refused before ``_validate``, which would take it
    for 1.0 or 0.0.
    """
    rows: list[tuple[str, str, str, str, float]] = []
    diagnostics: list[ParseDiagnostic] = []
    text = text.removeprefix("\ufeff")
    lines = None  # the text split at "\n", as the matches are, once a plain record is refused
    for line_num, (match_id, team_id, passer, receiver, ts, line) in enumerate(
        _JSON_LINE.findall(text), start=1
    ):
        if match_id:
            timestamp = float(ts)
            if passer != receiver and timestamp < math.inf:
                rows.append((match_id, team_id, passer, receiver, timestamp))
                continue
            lines = lines or text.split("\n")
            line = lines[line_num - 1]
        if not line.strip():
            continue
        # json.loads without its per-call set-up: one value, padded with JSON whitespace
        body = line.strip(_JSON_SPACE)
        try:
            obj, end = _decode_json(body)
        except ValueError:  # JSONDecodeError, or an integer past Python's digit limit
            end = -1
        if end != len(body):
            diagnostics.append(ParseDiagnostic(line_num, "invalid JSON", "invalid_json"))
            continue
        if not isinstance(obj, dict):
            diagnostics.append(
                ParseDiagnostic(line_num, "record is not an object", "not_an_object")
            )
            continue
        fields = list(map(obj.get, CSV_HEADER))
        if type(fields[4]) is bool:
            diagnostics.append(
                ParseDiagnostic(line_num, f"invalid timestamp {fields[4]!r}", "invalid_timestamp")
            )
            continue
        out = _validate(fields, line_num)
        if type(out) is tuple:
            rows.append(out)
        else:
            diagnostics.append(out)
    return rows, diagnostics


def parse_pass_events(
    stream: IO[bytes] | IO[str], format: str = "csv", index: dict[str, int] | None = None
) -> ParseResult:
    """Parse a UTF-8 stream of pass records.

    Well-formed records come back as a ``PassTable`` in input order;
    malformed ones become diagnostics with their line number. A broken CSV
    header or bytes that are not UTF-8 raise :class:`FormatError` because
    nothing in the stream can be trusted. The names are coded through
    ``index`` when it is given, as ``PassTable.from_rows`` codes them.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    rows, diagnostics = (_parse_csv if format == "csv" else _parse_jsonl)(_as_text(stream))
    return ParseResult(PassTable.from_rows(rows, index), tuple(diagnostics))


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


def group_by_match(events: PassTable | Iterable[PassEvent]) -> PassRuns:
    """Partition events into one log per (match_id, team_id), sorted by time.

    Logs come back as ``MatchEventLog`` rows ordered by their (match_id,
    team_id) key; ties in timestamp keep their input order, and duplicates
    are data, not errors, and are retained.
    """
    table = events if isinstance(events, PassTable) else PassTable.from_events(events)
    names = table.names
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    key = rank[table.match] * len(names) + rank[table.team]
    order = np.argsort(table.timestamp, kind="stable")
    order = order[np.argsort(key[order], kind="stable")]
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if key.size else key
    return PassRuns(table[order], starts, MatchEventLog)
