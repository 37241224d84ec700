from collections import Counter

import pytest
from hypothesis import given, strategies as st

from flowmotif import (
    MatchEventLog,
    PassEvent,
    Possession,
    SegmentationConfig,
    count_motifs,
    enumerate_patterns,
    group_by_match,
    randomize_possessions,
    segment_possessions,
    touch_sequence,
)
from flowmotif.motifs import MAX_K
from helpers import make_log, make_possession, oracle_window_patterns


def test_time_gap_splits_possessions():
    log = make_log([("1", "2"), ("2", "3"), ("3", "4")], times=[0.0, 3.0, 10.0])
    p1, p2 = segment_possessions(log, SegmentationConfig(t_max=5.0))
    assert len(p1) == 2 and len(p2) == 1  # 10 - 3 = 7 > 5


def test_broken_chain_splits_possessions():
    log = make_log([("1", "2"), ("5", "3")], times=[0.0, 1.0])
    p1, p2 = segment_possessions(log)
    assert len(p1) == 1 and len(p2) == 1


def test_paper_worked_example_is_one_possession():
    pairs = [("2", "4"), ("4", "5"), ("5", "6"), ("6", "4"), ("4", "6")]
    log = make_log(pairs, times=[0.0, 1.0, 2.0, 3.0, 4.0])
    (pos,) = segment_possessions(log)
    assert len(pos) == 5
    assert touch_sequence(pos) == ("2", "4", "5", "6", "4", "6")


def test_gap_exactly_t_max_stays_together():
    log = make_log([("a", "b"), ("b", "c")], times=[0.0, 5.0])
    assert len(segment_possessions(log)) == 1


def test_simultaneous_timestamps_stay_together():
    log = make_log([("a", "b"), ("b", "c")], times=[2.0, 2.0])
    assert len(segment_possessions(log)) == 1


def test_empty_log_yields_nothing():
    assert list(segment_possessions(MatchEventLog("m", "t", ()))) == []


def test_config_rejects_nonpositive_t_max():
    with pytest.raises(ValueError):
        SegmentationConfig(t_max=0.0)


def test_touch_sequence_examples():
    assert touch_sequence(make_possession([("1", "2")])) == ("1", "2")
    assert touch_sequence(make_possession([("1", "2"), ("2", "1")])) == ("1", "2", "1")


def test_possession_invariants_enforced():
    with pytest.raises(ValueError, match="chain"):
        make_possession([("1", "2"), ("3", "4")])
    with pytest.raises(ValueError, match="at least one"):
        make_possession([])


def test_rows_of_grouped_and_segmented_runs_skip_the_checks(monkeypatch):
    # Grouping, segmentation and the shuffles guarantee one team-match per
    # run, time order and the chain, so their rows skip the checks; a row
    # that a caller builds keeps them.
    checked = Counter()
    for row in (MatchEventLog, Possession):

        def counted(self, check=row.__post_init__):
            checked[type(self).__name__] += 1
            check(self)

        monkeypatch.setattr(row, "__post_init__", counted)
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "x")]
    events = [PassEvent(m, "t", p, r, float(i)) for m in "mn" for i, (p, r) in enumerate(pairs)]
    logs = list(group_by_match(events))
    possessions = [pos for log in logs for pos in segment_possessions(log)]
    shuffled = list(randomize_possessions(possessions[:2], "touch_shuffle_possession", seed=1))
    assert [len(pos) for pos in possessions + shuffled] == [3, 2, 3, 2, 3, 2]
    assert checked == {}
    make_possession([("1", "2")])
    MatchEventLog("m", "t", events[:1])
    assert checked == {"Possession": 1, "MatchEventLog": 1}


@st.composite
def random_logs(draw):
    n_players = draw(st.integers(2, 6))
    players = [f"p{i}" for i in range(n_players)]
    n = draw(st.integers(0, 40))
    events = []
    t = 0.0
    prev_receiver = None
    for _ in range(n):
        if prev_receiver is not None and draw(st.booleans()):
            passer = prev_receiver
        else:
            passer = draw(st.sampled_from(players))
        receiver = draw(st.sampled_from([p for p in players if p != passer]))
        t += draw(st.sampled_from([0.0, 1.0, 4.0, 5.0, 5.5, 20.0]))
        events.append(PassEvent("m", "t", passer, receiver, t))
        prev_receiver = receiver
    return MatchEventLog("m", "t", tuple(events))


@st.composite
def consecutive_logs(draw):
    """Logs of up to six team-matches, as grouping orders them, of 1 to 12 passes each.

    A log may open with a pass by the last receiver of the log before it, at
    that log's last timestamp, so that only the log boundary parts them.
    """
    players = [f"p{i}" for i in range(5)]
    logs, last = [], None  # (receiver, timestamp) that ended the log before
    for i in range(draw(st.integers(0, 6))):
        join = last is not None and draw(st.booleans())
        holder, t = last if join else (None, draw(st.sampled_from([0.0, 3.0])))
        events = []
        for j in range(draw(st.integers(1, 12))):
            passer = holder if holder and (j == 0 or draw(st.booleans())) else None
            passer = passer or draw(st.sampled_from(players))
            holder = draw(st.sampled_from([p for p in players if p != passer]))
            t += draw(st.sampled_from([0.0, 1.0, 5.0, 5.5])) if j else 0.0
            events.append(PassEvent(f"m{i // 2}", f"t{i % 2}", passer, holder, t))
        logs.append(events)
        last = (holder, t)
    return logs


@given(consecutive_logs(), st.integers(2, MAX_K))
def test_segmenting_all_logs_at_once_matches_each_log(logs, k):
    grouped = group_by_match([ev for log in logs for ev in log])
    assert [list(log.events) for log in grouped] == logs
    config = SegmentationConfig()
    batched = segment_possessions(grouped, config)
    each = [segment_possessions(log, config) for log in grouped]
    assert [(p.match_id, p.team_id, list(p.passes)) for p in batched] == [
        (p.match_id, p.team_id, list(p.passes)) for runs in each for p in runs
    ]
    found = count_motifs(batched, k)
    assert len(found) == max(len(logs), 1)
    alphabet = enumerate_patterns(k)
    for row, log, runs in zip(found, grouped, each):
        windows = Counter(p for pos in runs for p in oracle_window_patterns(touch_sequence(pos), k))
        assert (row.match_id, row.team_id) == (log.match_id, log.team_id)
        assert row.counts.tolist() == [windows[p] for p in alphabet]


@given(random_logs())
def test_segmentation_partitions_and_preserves_order(log):
    possessions = segment_possessions(log)
    flattened = [ev for pos in possessions for ev in pos.passes]
    assert flattened == list(log.events)


@given(random_logs())
def test_segmentation_is_maximal(log):
    config = SegmentationConfig()
    possessions = segment_possessions(log, config)
    for left, right in zip(possessions, possessions[1:]):
        last, nxt = left.passes[-1], right.passes[0]
        chained = last.receiver == nxt.passer
        in_time = nxt.timestamp - last.timestamp <= config.t_max
        assert not (chained and in_time)


@given(random_logs())
def test_touch_sequences_have_no_adjacent_duplicates(log):
    for pos in segment_possessions(log):
        seq = touch_sequence(pos)
        assert len(seq) == len(pos) + 1
        assert all(a != b for a, b in zip(seq, seq[1:]))
