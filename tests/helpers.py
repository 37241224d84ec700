"""Shared constructors and independent oracles for the test suite.

The oracles here deliberately reimplement behavior with different code:
canonical labels via first-occurrence lists, alphabets via brute-force
enumeration over all identifier sequences, ESS via direct deviation sums,
the match shuffle one row at a time, and ingest one object per record.
Tests compare the library against these, never the other way round.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import product

import numpy as np

from flowmotif import (
    DegenerateInputError,
    FormatError,
    MatchEventLog,
    ParseDiagnostic,
    PassEvent,
    Possession,
)
from flowmotif.events import CSV_HEADER

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def make_events(pairs, match_id="m1", team_id="t1", times=None):
    """PassEvents from (passer, receiver) pairs, timestamps 0,1,2,... by default."""
    if times is None:
        times = [float(i) for i in range(len(pairs))]
    return [
        PassEvent(match_id, team_id, str(a), str(b), t)
        for (a, b), t in zip(pairs, times)
    ]


def make_log(pairs, match_id="m1", team_id="t1", times=None):
    return MatchEventLog(
        match_id, team_id, tuple(make_events(pairs, match_id, team_id, times))
    )


def make_possession(pairs, match_id="m1", team_id="t1", times=None):
    return Possession(
        match_id, team_id, tuple(make_events(pairs, match_id, team_id, times))
    )


def chain_possession(touches, match_id="m1", team_id="t1", start_t=0.0, step=1.0):
    """Possession whose touch sequence is exactly the given holder list."""
    pairs = list(zip(touches, touches[1:]))
    times = [start_t + i * step for i in range(len(pairs))]
    return make_possession(pairs, match_id, team_id, times)


def possession_touches(codes, row):
    """Each possession's touches in a row of player codes, as player names."""
    bounds = np.cumsum(codes.lengths)[:-1]
    return [[codes.players[c] for c in part.tolist()] for part in np.split(row, bounds)]


def oracle_canonical(window) -> str:
    """Independent canonicalization: label = first-occurrence rank."""
    order: list = []
    for who in window:
        if who not in order:
            order.append(who)
    return "".join(_LETTERS[order.index(who)] for who in window)


def oracle_alphabet(k: int) -> list[str]:
    """All k-pass patterns by brute force over identifier sequences.

    k+1 identifiers suffice because a window of k+1 touches can involve at
    most k+1 distinct players.
    """
    patterns = set()
    for seq in product(range(k + 1), repeat=k + 1):
        if any(a == b for a, b in zip(seq, seq[1:])):
            continue
        patterns.add(oracle_canonical(seq))
    return sorted(patterns)


def oracle_pattern_csv(keys, values, heads, columns) -> str:
    """The long per-pattern CSV as the csv module writes it, one whole row at a time.

    The arguments are those of ``cli._write_pattern_csv``: each head holds a
    key's cells and its k, and each column a value column's cells, key after
    key, in alphabet order.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*keys, "k", "pattern", *values])
    cells = zip(*columns)
    for head in heads:
        for pattern in oracle_alphabet(head[-1]):
            writer.writerow([*head, pattern, *next(cells)])
    return buf.getvalue()


def oracle_window_patterns(touches, k: int) -> list[str]:
    """Every contiguous (k+1)-touch subsequence, canonicalized independently."""
    return [
        oracle_canonical(touches[i : i + k + 1]) for i in range(len(touches) - k)
    ]


def oracle_ess(rows) -> float:
    """Within-cluster sum of squares of one cluster, by direct deviations."""
    n = len(rows)
    dim = len(rows[0])
    means = [sum(r[j] for r in rows) / n for j in range(dim)]
    return sum((r[j] - means[j]) ** 2 for r in rows for j in range(dim))


def oracle_repair_adjacent(arr, adjacency, rng, max_attempts) -> bool:
    """One row's repair sweeps, in place; False once ``max_attempts`` sweeps ran out.

    Each sweep rechecks all adjacency positions and swaps every slot still
    offending with a uniformly random other slot, in slot order.
    """
    size = arr.size
    succ = adjacency + 1
    for _ in range(max_attempts):
        bad = adjacency[arr[adjacency] == arr[succ]]
        if bad.size == 0:
            return True
        partners = rng.integers(0, size - 1, size=bad.size)
        for i, j in zip(bad.tolist(), partners.tolist()):
            if arr[i] != arr[i + 1]:
                continue  # fixed by an earlier swap in this sweep
            slot = i + 1
            if j >= slot:
                j += 1
            arr[slot], arr[j] = arr[j], arr[slot]
    return False


def oracle_match_rows(touches, adjacency, rng, n_rows, max_attempts):
    """The match shuffle one row at a time: shuffle, repair, reshuffle when the repair runs out."""
    out = np.empty((n_rows, touches.size), dtype=touches.dtype)
    for row in out:
        for _ in range(max_attempts):
            row[:] = touches
            rng.shuffle(row)
            if oracle_repair_adjacent(row, adjacency, rng, max_attempts):
                break
        else:
            raise DegenerateInputError("repair budget exhausted")
    return out


def arrangement_table(signature: tuple[int, ...]) -> np.ndarray:
    """Every valid arrangement of touches with these sorted player counts, up to
    swapping players of equal count, one per row in lexicographic order.

    Player ``i`` of a row holds ``signature[i]`` touches, and of two players
    with equal counts the lower code appears first. So each row stands for
    the same number of arrangements, prod(m!) over the m players of each
    count, and they all have the same windows. The table is grown one touch
    at a time over all valid prefixes at once. A prefix is kept only if it
    can still be completed: with ``rest`` touches left after it, the player
    just placed holds at most half of them and every other player at most
    half of ``rest + 1``.
    """
    size = len(signature)
    players = np.arange(size)
    full = np.array(signature)
    # players whose lower neighbour has the same count, and may appear only after it
    follows = np.r_[False, full[1:] == full[:-1]]
    table = np.empty((1, 0), dtype=np.int64)
    left = full[None, :]
    last = np.full((1, 1), -1)
    for rest in range(sum(signature) - 1, -1, -1):
        seen = left < full
        ready = seen | ~follows | np.c_[np.zeros((len(left), 1), bool), seen[:, :-1]]
        prefix, player = np.nonzero((left > 0) & (players != last) & ready)
        rows = np.arange(prefix.size)
        left = left[prefix]
        left[rows, player] -= 1
        keep = (2 * left <= rest + 1).all(axis=1) & (2 * left[rows, player] <= rest)
        table = np.column_stack([table[prefix[keep]], player[keep]])
        left = left[keep]
        last = table[:, -1:]
    return table


def _oracle_event(fields: dict, line: int):
    """One record's dict of fields as a PassEvent, or the diagnostic that rejects it.

    A JSON boolean timestamp is refused before any other check. A timestamp
    text that ``float`` reads is refused when it holds an underscore or a
    character past ASCII, as ``float`` takes them and no data format does.
    """
    if isinstance(fields.get("timestamp_s"), bool):
        ts_raw = fields["timestamp_s"]
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}", "invalid_timestamp")
    for name in CSV_HEADER:
        value = fields.get(name)
        if value is None or value == "":
            return ParseDiagnostic(line, f"missing field {name}", "missing_field")
    ts_raw = fields["timestamp_s"]
    try:
        timestamp = float(ts_raw)
    except (TypeError, ValueError, OverflowError):
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}", "invalid_timestamp")
    if not math.isfinite(timestamp):
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}", "invalid_timestamp")
    if isinstance(ts_raw, str) and any(c == "_" or ord(c) > 127 for c in ts_raw):
        return ParseDiagnostic(line, f"invalid timestamp {ts_raw!r}", "invalid_timestamp")
    if timestamp < 0.0:
        return ParseDiagnostic(line, f"negative timestamp at line {line}", "negative_timestamp")
    passer, receiver = str(fields["passer"]), str(fields["receiver"])
    if passer == receiver:
        return ParseDiagnostic(line, f"self-pass at line {line}", "self_pass")
    return PassEvent(str(fields["match_id"]), str(fields["team_id"]), passer, receiver, timestamp)


def oracle_parse(data: bytes, fmt: str):
    """The object path of ingest: (PassEvents, diagnostics) of a file's bytes.

    Each record becomes a dict of its fields and then a PassEvent; JSON
    lines go through ``json.loads``, after one leading byte-order mark is
    dropped. Raises FormatError like the library.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from None
    text = io.StringIO(text if fmt == "csv" else text.removeprefix("\ufeff"))
    events, diagnostics = [], []
    if fmt == "csv":
        reader = csv.reader(text)
        try:
            header = next(reader)
        except StopIteration:
            return [], []
        header = [h.strip().lstrip("\ufeff") for h in header]
        missing = [name for name in CSV_HEADER if name not in header]
        if missing:
            raise FormatError(f"csv header missing column(s): {', '.join(missing)}")
        if tuple(header) != CSV_HEADER:
            raise FormatError(
                f"csv header must be exactly {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        records = ((reader.line_num, row) for row in reader)
    else:
        records = enumerate(text, start=1)
    for line, record in records:
        if fmt == "csv":
            if not record:
                continue
            if len(record) != len(CSV_HEADER):
                diagnostics.append(
                    ParseDiagnostic(
                        line, f"expected {len(CSV_HEADER)} fields, got {len(record)}", "fields"
                    )
                )
                continue
            fields = dict(zip(CSV_HEADER, record))
        else:
            if not record.strip():
                continue
            try:
                fields = json.loads(record)
            except ValueError:
                diagnostics.append(ParseDiagnostic(line, "invalid JSON", "invalid_json"))
                continue
            if not isinstance(fields, dict):
                diagnostics.append(
                    ParseDiagnostic(line, "record is not an object", "not_an_object")
                )
                continue
        out = _oracle_event(fields, line)
        (diagnostics if isinstance(out, ParseDiagnostic) else events).append(out)
    return events, diagnostics


def oracle_group(events):
    """[(match_id, team_id, events)] by key, each sorted by time with a stable sort."""
    groups: dict[tuple[str, str], list] = {}
    for ev in events:
        groups.setdefault((ev.match_id, ev.team_id), []).append(ev)
    out = []
    for (match_id, team_id), evs in sorted(groups.items()):
        evs.sort(key=lambda e: e.timestamp)
        out.append((match_id, team_id, evs))
    return out


def oracle_segment(events, t_max):
    """Greedy left-to-right possessions of a sorted log, as lists of PassEvents."""
    possessions, run = [], []
    for ev in events:
        if run and run[-1].receiver == ev.passer and ev.timestamp - run[-1].timestamp <= t_max:
            run.append(ev)
            continue
        if run:
            possessions.append(run)
        run = [ev]
    if run:
        possessions.append(run)
    return possessions
