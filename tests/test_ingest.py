import csv
import io
import json
import pickle
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from flowmotif import (
    FormatError,
    MatchEventLog,
    ParseDiagnostic,
    PassEvent,
    PassTable,
    SegmentationConfig,
    count_motifs,
    enumerate_patterns,
    group_by_match,
    parse_pass_events,
    segment_possessions,
    serialize_pass_events,
)
from flowmotif.events import _JSON_LINE, CSV_HEADER as FIELDS, FORMATS
from helpers import make_events, oracle_group, oracle_parse, oracle_segment, oracle_window_patterns

CSV_HEADER = "match_id,team_id,passer,receiver,timestamp_s\n"


def parse_csv(body: str):
    return parse_pass_events(io.StringIO(body), "csv")


def test_csv_line_maps_fields_directly():
    result = parse_csv(CSV_HEADER + "M1,T1,p2,p4,12.0\n")
    assert result.diagnostics == ()
    assert tuple(result.events) == (PassEvent("M1", "T1", "p2", "p4", 12.0),)


def test_empty_stream_is_empty_result():
    for fmt in ("csv", "jsonl"):
        result = parse_pass_events(io.BytesIO(b""), fmt)
        assert tuple(result.events) == ()
        assert result.diagnostics == ()


def test_self_pass_rejected_with_line_number():
    result = parse_csv(CSV_HEADER + "M1,T1,p2,p4,12.0\nM1,T1,p2,p2,13.0\n")
    assert len(result.events) == 1
    (diag,) = result.diagnostics
    assert diag.line == 3
    assert "self-pass" in diag.reason
    assert str(diag) == f"line=3 reason={diag.reason}"


def test_negative_timestamp_and_bad_float_rejected():
    result = parse_csv(CSV_HEADER + "M1,T1,a,b,-1\nM1,T1,a,b,oops\nM1,T1,a,b,nan\n")
    assert tuple(result.events) == ()
    assert [d.line for d in result.diagnostics] == [2, 3, 4]


def test_wrong_field_count_rejected():
    result = parse_csv(CSV_HEADER + "M1,T1,a,b\n")
    assert tuple(result.events) == ()
    assert "expected 5 fields" in result.diagnostics[0].reason


def test_header_mismatch_names_missing_column():
    with pytest.raises(FormatError, match="receiver"):
        parse_csv("match_id,team_id,passer,timestamp_s\nM1,T1,a,0.0\n")


def test_reordered_header_rejected():
    with pytest.raises(FormatError):
        parse_csv("team_id,match_id,passer,receiver,timestamp_s\n")


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        parse_pass_events(io.StringIO(""), "xml")


def test_jsonl_parses_and_collects_diagnostics():
    body = (
        '{"match_id":"M1","team_id":"T1","passer":"a","receiver":"b","timestamp_s":1.5}\n'
        "not json\n"
        '{"match_id":"M1","team_id":"T1","passer":"a","receiver":"a","timestamp_s":2}\n'
        '{"match_id":"M1","team_id":"T1","passer":"a","timestamp_s":2}\n'
        "[1,2]\n"
    )
    result = parse_pass_events(io.StringIO(body), "jsonl")
    assert tuple(result.events) == (PassEvent("M1", "T1", "a", "b", 1.5),)
    assert [d.line for d in result.diagnostics] == [2, 3, 4, 5]
    assert "missing field receiver" in result.diagnostics[2].reason


def test_jsonl_boolean_timestamp_rejected():
    body = "".join(
        json.dumps({"match_id": "M1", "team_id": "T1", "passer": "a", "receiver": "b",
                    "timestamp_s": value}) + "\n"
        for value in (True, False)
    )
    result = parse_pass_events(io.StringIO(body), "jsonl")
    assert tuple(result.events) == ()
    assert [str(d) for d in result.diagnostics] == [
        "line=1 reason=invalid timestamp True", "line=2 reason=invalid timestamp False"
    ]


def test_jsonl_byte_order_mark_keeps_first_record():
    events = make_events([("a", "b"), ("b", "c")])
    data = "\ufeff".encode() + serialize_pass_events(events, "jsonl").encode()
    result = parse_pass_events(io.BytesIO(data), "jsonl")
    assert result.diagnostics == ()
    assert list(result.events) == events


@pytest.mark.parametrize("fmt", FORMATS)
def test_timestamps_only_float_reads_are_rejected(fmt):
    # float() takes underscores, non-ASCII digits and non-ASCII spaces; no data
    # format writes them. A negative one is invalid before it is negative.
    texts = ["1_0", "\u0661\u0662", "\uff15", "\u00a05", "-1_0", " 5 ", "1e3"]
    records = [("M1", "T1", "a", "b", text) for text in texts]
    if fmt == "csv":
        body = CSV_HEADER + "".join(",".join(r) + "\n" for r in records)
    else:
        body = "".join(json.dumps(dict(zip(FIELDS, r))) + "\n" for r in records)
    result = parse_pass_events(io.BytesIO(body.encode()), fmt)
    first = 2 if fmt == "csv" else 1
    assert [str(d) for d in result.diagnostics] == [
        f"line={first + i} reason=invalid timestamp {text!r}" for i, text in enumerate(texts[:5])
    ]
    assert {d.kind for d in result.diagnostics} == {"invalid_timestamp"}
    assert result.events.timestamp.tolist() == [5.0, 1000.0]


def test_csv_underscore_ids_keep_plain_timestamps():
    # Every CSV timestamp is screened; ids with an underscore or a non-ASCII
    # character leave plain timestamps as they parse.
    result = parse_csv(CSV_HEADER + "M_1,T1,\u00e9,b,1.5\nM_1,T1,b,c,2\n")
    assert result.diagnostics == ()
    assert list(result.events) == [
        PassEvent("M_1", "T1", "\u00e9", "b", 1.5), PassEvent("M_1", "T1", "b", "c", 2.0)
    ]


def test_diagnostic_kinds_are_checked():
    assert ParseDiagnostic(3, "invalid JSON", "invalid_json").kind == "invalid_json"
    with pytest.raises(ValueError, match="unknown kind 'invalid JSON'"):
        ParseDiagnostic(3, "invalid JSON", "invalid JSON")


def test_pass_event_invariants_enforced():
    with pytest.raises(ValueError, match="self-pass"):
        PassEvent("m", "t", "a", "a", 1.0)
    with pytest.raises(ValueError, match="timestamp"):
        PassEvent("m", "t", "a", "b", -0.5)


def test_match_event_log_refuses_a_first_pass_of_another_team_match():
    events = make_events([("a", "b"), ("b", "c")], "m2", "t")
    message = "event ('m2', 't') does not belong to log ('m', 't')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MatchEventLog("m", "t", events)


def test_match_event_log_refuses_a_later_pass_of_another_team_match():
    events = make_events([("a", "b"), ("b", "c")], "m", "t") + make_events([("c", "d")], "m", "u")
    message = "event ('m', 'u') does not belong to log ('m', 't')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MatchEventLog("m", "t", events)


def test_match_event_log_refuses_unsorted_timestamps():
    events = make_events([("a", "b"), ("b", "c")], "m", "t", times=[2.0, 1.0])
    with pytest.raises(ValueError, match="^events not sorted by timestamp$"):
        MatchEventLog("m", "t", events)


ids = st.text(
    st.characters(min_codepoint=32, max_codepoint=0x2FFF, blacklist_characters="\r\n"),
    min_size=1,
    max_size=8,
)
timestamps = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def valid_events(draw):
    passer = draw(ids)
    receiver = draw(ids.filter(lambda r: r != passer))
    return PassEvent(draw(ids), draw(ids), passer, receiver, draw(timestamps))


@given(st.lists(valid_events(), max_size=30), st.sampled_from(["csv", "jsonl"]))
def test_parse_serialize_round_trip(events, fmt):
    text = serialize_pass_events(events, fmt)
    result = parse_pass_events(io.StringIO(text), fmt)
    assert result.diagnostics == ()
    assert list(result.events) == events


def test_group_by_match_partitions_by_key():
    events = make_events([("a", "b")] * 3, "M1", "T1") + make_events(
        [("c", "d")] * 2, "M1", "T2"
    )
    logs = group_by_match(events)
    assert [(lg.match_id, lg.team_id, len(lg.events)) for lg in logs] == [
        ("M1", "T1", 3),
        ("M1", "T2", 2),
    ]


def test_group_by_match_sorts_by_timestamp_stably():
    a = PassEvent("m", "t", "x", "y", 5.0)
    b = PassEvent("m", "t", "y", "z", 1.0)
    c = PassEvent("m", "t", "p", "q", 5.0)  # ties with a, must stay after it
    (log,) = group_by_match([a, b, c])
    assert tuple(log.events) == (b, a, c)


def test_group_by_match_keeps_duplicates():
    ev = PassEvent("m", "t", "x", "y", 1.0)
    (log,) = group_by_match([ev, ev])
    assert tuple(log.events) == (ev, ev)


def test_group_by_match_empty():
    assert list(group_by_match([])) == []


def test_pass_tables_and_their_rows_survive_pickling():
    # zscores hands team-matches to worker processes as plain pickles. The
    # rows of one pickled list come back sharing one names tuple, as pickle's
    # memo writes what they share once.
    events = PassTable.from_events(
        make_events([("a", "b"), ("b", "c"), ("x", "y")], "M1", "T1", [0.0, 1.0, 20.0])
        + make_events([("c", "d"), ("d", "c")], "M2", "T2")
    )
    assert pickle.loads(pickle.dumps(events)) == events
    logs = group_by_match(events)
    for rows, field in ((list(logs), "events"), (list(segment_possessions(logs)), "passes")):
        back = pickle.loads(pickle.dumps(rows))
        assert back == rows
        assert len({id(getattr(row, field).names) for row in back}) == 1 < len(back)


@given(st.lists(valid_events(), max_size=40))
def test_group_sizes_sum_to_input_size(events):
    logs = group_by_match(events)
    assert sum(len(lg.events) for lg in logs) == len(events)


# Identifiers that stress the CSV quoting and JSON-lines framing: commas,
# quotes and newlines (quoted by the CSV writer), characters that
# str.splitlines would take for line breaks, and ids that JSON escapes
# (a backslash, a control character, and non-ASCII unless ensure_ascii is off).
ID_POOL = ["m1", "m2", "t1", "t2", "a", "b", "c", "x,y", 'q"z', "l\nb", "f\x0cg", "u\u2028v",
           "n\x85o", "s\x1ct", "", "b\\s", "c\x01", "\u00e9t\u00e9"]
TS_TEXT = ["0", "1", "1", "1.5", "2", "5", "6.5", "12", "-1", "-0", "nan", "inf", "12x", "",
           " 5 ", "1e3", "1_0", "-1_0", "\u0661\u0662", "\uff15", "\u00a05"]
TS_JSON = [0, 1, 1.5, 2.0, 5, 6.5, 12, -1, True, False, None, "1e3", " 5 ", "x", [1], 1e400,
           10**400]
ID_JSON = [7, 0, 2.5, True, False, None, [1], {"a": 1}]
# Timestamps as JSON text: integers, exponents, a signed zero, numbers whose
# float overflows, an int past float's range, and texts JSON refuses.
TS_LITERAL = ["7", "0", "1.5e3", "2E-1", "1e+2", "-0.0", "-0", "1e400", "1e-400", "9" * 400,
              "01", "1.", "Infinity"]
PAD = ["", " ", "\t", "\r", " \r"]
COMPACT = (",", ":")


@st.composite
def pass_records(draw):
    """Records as field lists: chains of valid passes, loose passes, and duplicates."""
    records = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["chain", "loose", "dup"]))
        if kind == "dup" and records:
            records.append(list(records[-1]))
        elif kind == "chain":
            match_id = draw(st.sampled_from(["m1", "m2"]))
            team_id = draw(st.sampled_from(["t1", "t2"]))
            walk = [draw(st.sampled_from(ID_POOL[4:8]))]
            for _ in range(draw(st.integers(1, 6))):
                walk.append(draw(st.sampled_from([p for p in ID_POOL[4:8] if p != walk[-1]])))
            t = draw(st.sampled_from([0, 1, 2.5, 6]))
            for a, b in zip(walk, walk[1:]):
                records.append([match_id, team_id, a, b, repr(float(t))])
                t += draw(st.sampled_from([0, 1, 5]))
        else:
            fields = [draw(st.sampled_from(ID_POOL)) for _ in range(4)]
            records.append(fields + [draw(st.sampled_from(TS_TEXT))])
    return records


def csv_file(draw, records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    header = list(FIELDS)
    shape = draw(st.sampled_from(["exact", "exact", "exact", "bom", "spaced", "reordered"]))
    if shape == "bom":
        header[0] = "\ufeff" + header[0]
    elif shape == "spaced":
        header = [f" {h} " for h in header]
    elif shape == "reordered":
        header[0], header[1] = header[1], header[0]
    writer.writerow(header)
    for fields in records:
        shape = draw(st.sampled_from(["keep", "keep", "keep", "short", "long", "blank"]))
        if shape == "blank":
            writer.writerow([])
        writer.writerow({"short": fields[:4], "long": fields + ["x"]}.get(shape, fields))
    return buf.getvalue()


def jsonl_line(draw, fields):
    shape = draw(st.sampled_from(
        ["object", "object", "object", "retyped", "missing", "null", "array", "number", "truncated",
         "raw_formfeed", "blank", "literal", "reordered", "duplicated"]))
    obj = dict(zip(FIELDS, fields))
    if draw(st.booleans()):  # the timestamp as a JSON number, as serialize_pass_events writes it
        try:
            obj["timestamp_s"] = float(obj["timestamp_s"])
        except ValueError:
            pass
    if shape == "retyped":
        key = draw(st.sampled_from(FIELDS))
        obj[key] = draw(st.sampled_from(TS_JSON if key == "timestamp_s" else ID_JSON))
    elif shape == "missing":
        del obj[draw(st.sampled_from(FIELDS))]
    elif shape == "null":
        obj[draw(st.sampled_from(FIELDS))] = None
    elif shape == "literal":
        obj["timestamp_s"] = "@ts@"
    elif shape == "reordered":
        obj = dict(draw(st.permutations(list(obj.items()))))
    separators = draw(st.sampled_from([None, COMPACT]))  # json.dumps' spaced form, or ours
    if shape == "array":
        text = json.dumps(list(obj.values()), separators=separators)
    elif shape == "number":
        text = draw(st.sampled_from(["3", "null", '"s"', "true"]))
    elif shape == "blank":
        text = draw(st.sampled_from(["", "  ", "\x0c", "\u2028", "\x1c"]))
    else:
        text = json.dumps(obj, ensure_ascii=draw(st.booleans()), separators=separators)
        if shape == "truncated":
            text = text[:-3]
        elif shape == "raw_formfeed":
            text = text.replace("\\f", "\x0c")
        elif shape == "literal":
            text = text.replace('"@ts@"', draw(st.sampled_from(TS_LITERAL)))
        elif shape == "duplicated":  # JSON keeps the last of a key's values
            key = draw(st.sampled_from(FIELDS))
            value = draw(st.sampled_from(ID_POOL if key != "timestamp_s" else TS_JSON))
            text = text[:-1] + "," + json.dumps({key: value}, separators=separators)[1:]
    return draw(st.sampled_from(PAD)) + text + draw(st.sampled_from(PAD)) + "\n"


@st.composite
def pass_files(draw):
    """One or two files of the same records, so a team-match may span both."""
    fmt = draw(st.sampled_from(FORMATS))
    records = draw(pass_records())
    cut = draw(st.integers(0, len(records)))
    files = []
    for part in (records[:cut], records[cut:]):
        if fmt == "csv":
            text = csv_file(draw, part)
        else:
            text = "".join(jsonl_line(draw, fields) for fields in part)
            text = draw(st.sampled_from(["", "\ufeff"])) + text
        files.append(text.encode() + draw(st.sampled_from([b""] * 9 + [b"\xff"])))
    return fmt, files


def parsed_or_raised(parse, data, fmt):
    try:
        return parse(data, fmt)
    except Exception as exc:  # the two paths must fail alike, too
        return type(exc), str(exc)


@settings(deadline=None, max_examples=200)
@given(pass_files(), st.sampled_from([1.0, 5.0]), st.sampled_from([2, 3]))
def test_columnar_ingest_matches_object_oracle(files, t_max, k):
    fmt, files = files

    def parse(data, fmt):
        result = parse_pass_events(io.BytesIO(data), fmt)
        return result.events, list(result.diagnostics)

    outcomes = [parsed_or_raised(parse, data, fmt) for data in files]
    expected = [parsed_or_raised(oracle_parse, data, fmt) for data in files]
    tables, oracle_events = [], []
    for got, want in zip(outcomes, expected):
        if isinstance(want[0], type):
            assert got == want
            continue
        assert (list(got[0]), got[1]) == want
        tables.append(got[0])
        oracle_events += want[0]

    # Parsed through one index, as the CLI parses a command's files, each
    # table's codes still name its rows in the index's final names.
    index: dict[str, int] = {}
    read = [data for data, want in zip(files, expected) if not isinstance(want[0], type)]
    shared = [parse_pass_events(io.BytesIO(data), fmt, index).events for data in read]
    names = tuple(index)
    assert [list(PassTable(names, t.codes, t.timestamp)) for t in shared] == list(map(list, tables))

    logs = group_by_match(PassTable.concat(tables))
    groups = oracle_group(oracle_events)
    assert [(log.match_id, log.team_id, list(log.events)) for log in logs] == groups
    config = SegmentationConfig(t_max)
    # Every log at once, as the motifs command segments and counts them.
    batched = segment_possessions(logs, config)
    found = count_motifs(batched, k)
    assert len(found) == max(len(logs), 1)
    all_possessions = []
    for log, (_, _, events), row in zip(logs, groups, found):
        possessions = segment_possessions(log, config)
        expected_possessions = oracle_segment(events, t_max)
        assert [list(pos.passes) for pos in possessions] == expected_possessions
        assert all((p.match_id, p.team_id) == (log.match_id, log.team_id) for p in possessions)
        all_possessions += expected_possessions
        windows = Counter(
            pattern
            for run in expected_possessions
            for pattern in oracle_window_patterns([run[0].passer] + [e.receiver for e in run], k)
        )
        expected_counts = [windows[p] for p in enumerate_patterns(k)]
        assert count_motifs(possessions, k)[0].counts.tolist() == expected_counts
        assert (row.match_id, row.team_id, row.counts.tolist()) == (
            log.match_id, log.team_id, expected_counts
        )
    assert [list(pos.passes) for pos in batched] == all_possessions


def compact(ensure_ascii=True, **changes) -> str:
    record = {"match_id": "m1", "team_id": "t1", "passer": "a", "receiver": "b",
              "timestamp_s": 1.5, **changes}
    return json.dumps(record, separators=COMPACT, ensure_ascii=ensure_ascii)


def with_timestamp(text: str) -> str:
    return compact(timestamp_s="@ts@").replace('"@ts@"', text)


# (line, whether _JSON_LINE reads it as a plain record)
JSON_LINES = {
    "compact": (compact(), True),
    "padded": (" \t" + compact() + " \r", True),
    "formfeed-padded": (compact() + "\x0c", False),
    "formfeed-led": ("\x0c" + compact(), False),
    "spaced": (json.dumps(json.loads(compact())), False),
    "quote-id": (compact(passer='q"z'), False),
    "backslash-id": (compact(passer="b\\s"), False),
    "control-id": (compact(passer="c\x01"), False),
    "raw-control-id": (compact(passer="c\x01").replace("\\u0001", "\x01"), False),
    "raw-tab-id": (compact(passer="c\td").replace("\\t", "\t"), False),
    "raw-x1f-id": (compact(passer="c\x1f").replace("\\u001f", "\x1f"), False),
    "non-ascii-escaped": (compact(passer="\u00e9t\u00e9"), False),
    "non-ascii-raw": (compact(False, passer="\u00e9t\u00e9"), True),
    "empty-id": (compact(team_id=""), False),
    "integer": (with_timestamp("12"), True),
    "exponent": (with_timestamp("1.5E+3"), True),
    "zero": (with_timestamp("0"), True),
    "negative-zero": (with_timestamp("-0.0"), False),
    "negative": (with_timestamp("-1"), False),
    "overflow-exponent": (with_timestamp("1e400"), True),
    "underflow-exponent": (with_timestamp("1e-400"), True),
    "400-digits": (with_timestamp("9" * 400), True),
    "leading-zero": (with_timestamp("01"), False),
    "boolean": (with_timestamp("true"), False),
    "string": (with_timestamp('"1.5"'), False),
    "reordered": (json.dumps(dict(reversed(json.loads(compact()).items())),
                             separators=COMPACT), False),
    "duplicated-key": (compact()[:-1] + ',"receiver":"c"}', False),
    "duplicated-self-pass": (compact()[:-1] + ',"receiver":"a"}', False),
    "self-pass": (compact(receiver="a"), True),
    "trailing-text": (compact() + "x", False),
}


@pytest.mark.parametrize("case", sorted(JSON_LINES))
def test_json_line_matches_object_oracle(case):
    line, plain = JSON_LINES[case]
    assert bool(_JSON_LINE.match(line)[1]) == plain
    data = (line + "\n").encode()
    result = parse_pass_events(io.BytesIO(data), "jsonl")
    assert (list(result.events), list(result.diagnostics)) == oracle_parse(data, "jsonl")
