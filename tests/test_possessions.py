from collections import Counter

import pytest
from hypothesis import given, strategies as st

from flowmotif import (
    MatchEventLog,
    PassEvent,
    Possession,
    SegmentationConfig,
    group_by_match,
    randomize_possessions,
    segment_possessions,
    touch_sequence,
)
from helpers import make_log, make_possession


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
