from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowmotif import count_motifs, enumerate_patterns, extract_motifs
from flowmotif.motifs import MAX_K, TouchCodes, _window_starts, pattern_index
from helpers import (
    chain_possession,
    oracle_alphabet,
    oracle_window_patterns,
)


@pytest.mark.parametrize(
    "window,expected",
    [
        (("2", "4", "5", "6"), "ABCD"),
        (("4", "5", "6", "4"), "ABCA"),
        (("5", "6", "4", "6"), "ABCB"),
        (("1", "2", "1", "2"), "ABAB"),
    ],
)
def test_canonicalize_examples(window, expected):
    assert extract_motifs(chain_possession(list(window)), len(window) - 1) == [expected]


def test_canonicalize_rejects_adjacent_duplicate():
    # A possession is the only way a window reaches the classifier, and a
    # possession cannot hold a self-pass.
    with pytest.raises(ValueError, match="self-pass"):
        chain_possession(["1", "1", "2"])


@given(
    st.lists(st.integers(0, 5), min_size=3, max_size=9).filter(
        lambda w: all(a != b for a, b in zip(w, w[1:]))
    ),
    st.permutations(list(range(6))),
)
def test_canonicalize_is_relabeling_invariant(window, relabeling):
    k = len(window) - 1
    original = extract_motifs(chain_possession([str(x) for x in window]), k)
    renamed = extract_motifs(chain_possession([f"player-{relabeling[x]}" for x in window]), k)
    assert renamed == original


def test_alphabet_for_three_pass_motifs():
    assert enumerate_patterns(3) == ["ABAB", "ABAC", "ABCA", "ABCB", "ABCD"]


def test_alphabet_sizes_against_brute_force():
    for k in (2, 3, 4, 5):
        assert enumerate_patterns(k) == oracle_alphabet(k)
    assert len(enumerate_patterns(2)) == 2
    assert len(enumerate_patterns(4)) == 15
    # a one-pass window has no pattern that counting or the CLI could use
    with pytest.raises(ValueError, match=f"k must be between 2 and {MAX_K}, got 1"):
        enumerate_patterns(1)


def test_pattern_index_rows_spell_the_whole_alphabet():
    # Distinct, valid rows as many as the alphabet has patterns are the whole
    # alphabet. A window of k passes has one pattern per partition of its
    # k + 1 touches with no two adjacent touches in one block, and there
    # are Bell(k) of them.
    bell = [1]
    for n in range(MAX_K):
        bell.append(sum(comb(n, i) * bell[i] for i in range(n + 1)))
    for k in range(2, MAX_K + 1):
        index = pattern_index(k)
        rows = index.letters.tolist()
        assert index.letters.shape == (bell[k], k + 1)
        assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
        for row in rows:
            assert row[0] == 0
            assert all(a != b for a, b in zip(row, row[1:]))
            assert all(c <= max(row[:i]) + 1 for i, c in enumerate(row) if i)
        assert list(index.patterns) == ["".join(chr(ord("A") + c) for c in row) for row in rows]
        assert [index.position[p] for p in index.patterns] == list(range(len(rows)))
        assert len(index.position) == len(rows)
        assert not index.letters.flags.writeable


def test_enumerate_patterns_returns_a_fresh_list():
    patterns = enumerate_patterns(6)
    misses = pattern_index.cache_info().misses
    mine = enumerate_patterns(6)
    mine[0] = "ZZZZZZZ"
    mine.append("ABABABA")
    assert enumerate_patterns(6) == patterns
    assert list(pattern_index(6).patterns) == patterns
    assert pattern_index.cache_info().misses == misses


def test_alphabet_is_lexicographic_and_restricted_growth():
    for k in (2, 3, 4):
        patterns = enumerate_patterns(k)
        assert patterns == sorted(patterns)
        for p in patterns:
            assert p[0] == "A"
            assert all(a != b for a, b in zip(p, p[1:]))
            for i, ch in enumerate(p):
                assert ord(ch) - ord("A") <= max(
                    (ord(c) - ord("A") for c in p[:i]), default=-1
                ) + 1


def test_enumerate_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_patterns(0)


def test_extract_motifs_paper_example():
    pos = chain_possession(["2", "4", "5", "6", "4", "6"])
    assert extract_motifs(pos, 3) == ["ABCD", "ABCA", "ABCB"]


def test_extract_motifs_short_possession_is_empty():
    assert extract_motifs(chain_possession(["1", "2", "1"]), 3) == []


def test_extract_motifs_back_and_forth():
    pos = chain_possession(["1", "2", "1", "2", "1"])  # 4 passes
    assert extract_motifs(pos, 3) == ["ABAB", "ABAB"]


def test_extract_rejects_k_below_two():
    with pytest.raises(ValueError):
        extract_motifs(chain_possession(["1", "2", "3"]), 1)


@st.composite
def touch_walks(draw):
    players = [str(i) for i in range(draw(st.integers(2, 6)))]
    length = draw(st.integers(2, 31))  # 1..30 passes
    walk = [draw(st.sampled_from(players))]
    for _ in range(length - 1):
        walk.append(draw(st.sampled_from([p for p in players if p != walk[-1]])))
    return walk


@given(touch_walks(), st.integers(2, 5))
def test_extract_matches_brute_force_oracle(walk, k):
    pos = chain_possession(walk)
    assert extract_motifs(pos, k) == oracle_window_patterns(walk, k)


@given(touch_walks())
def test_window_count_law(walk):
    pos = chain_possession(walk)
    n = len(pos)
    assert len(extract_motifs(pos, 3)) == max(0, n - 2)


@given(touch_walks(), st.integers(2, 4))
def test_extracted_patterns_are_in_alphabet(walk, k):
    alphabet = set(enumerate_patterns(k))
    assert all(p in alphabet for p in extract_motifs(chain_possession(walk), k))


def test_count_motifs_paper_example():
    vec = count_motifs([chain_possession(["2", "4", "5", "6", "4", "6"])], 3)[0]
    # aligned with ["ABAB", "ABAC", "ABCA", "ABCB", "ABCD"]
    assert vec.counts.tolist() == [0, 0, 1, 1, 1]


def test_count_motifs_empty_is_all_zero():
    found = count_motifs([], 3)
    (vec,) = found
    assert (vec.match_id, vec.team_id) == ("", "")
    assert found.counts.shape == (1, len(enumerate_patterns(3))) and found.total == 0
    assert vec.counts.tolist() == [0] * len(enumerate_patterns(3))
    assert vec.total == 0


def test_count_motifs_window_total():
    possessions = [
        chain_possession(["1", "2", "1", "2", "1", "2"], match_id="m")  # 5 passes
        for _ in range(38)
    ]
    assert count_motifs(possessions, 3).total == 38 * 3


def test_count_motifs_rejects_mixed_ids():
    # Two team-matches give two rows; one whose possessions come back after
    # another's is mixed with it.
    with pytest.raises(ValueError, match=r"\('m1', 't1'\) mixed with those of \('m2', 't1'\)"):
        count_motifs(
            [
                chain_possession(["1", "2"], match_id="m1"),
                chain_possession(["1", "2"], match_id="m2"),
                chain_possession(["1", "2"], match_id="m1"),
            ],
            3,
        )


@given(st.lists(touch_walks(), max_size=8), st.integers(2, 4))
def test_count_conservation(walks, k):
    possessions = [chain_possession(w) for w in walks]
    vec = count_motifs(possessions, k)[0]
    assert vec.total == sum(max(0, len(p) - k + 1) for p in possessions)
    assert len(vec.counts) == len(enumerate_patterns(k))


@given(st.lists(touch_walks(), max_size=8), st.integers(2, 5))
def test_count_motifs_matches_brute_force_oracle(walks, k):
    possessions = [chain_possession(w) for w in walks]
    expected = Counter(p for w in walks for p in oracle_window_patterns(w, k))
    vec = count_motifs(possessions, k)[0]
    assert vec.counts.tolist() == [expected[p] for p in enumerate_patterns(k)]


def test_touch_codes_reject_a_second_team_match():
    with pytest.raises(ValueError, match=r"\('m2', 't1'\) mixed with those of \('m1', 't1'\)"):
        TouchCodes([chain_possession(["1", "2"], match_id=m) for m in ("m1", "m2")])


@given(st.lists(st.lists(touch_walks(), min_size=1, max_size=4), max_size=5), st.integers(2, 5))
def test_count_motifs_rows_match_the_oracle_per_team_match(team_matches, k):
    # Each team-match's possessions in one run, team-matches in the given order.
    possessions = [
        chain_possession(w, match_id=f"m{i}", team_id="t" if i % 2 else "u")
        for i, walks in enumerate(team_matches)
        for w in walks
    ]
    found = count_motifs(possessions, k)
    alphabet = enumerate_patterns(k)
    assert found.counts.dtype == np.int64
    assert found.counts.shape == (max(len(team_matches), 1), len(alphabet))
    for i, (row, walks) in enumerate(zip(found, team_matches)):
        expected = Counter(p for w in walks for p in oracle_window_patterns(w, k))
        assert (row.match_id, row.team_id, row.k) == (f"m{i}", "t" if i % 2 else "u", k)
        assert row.counts.tolist() == [expected[p] for p in alphabet]
    assert found.total == sum(max(0, len(w) - k) for walks in team_matches for w in walks)


def test_count_motifs_rows_follow_the_possessions_order():
    # Rows come in the order of the team-matches' first possessions, not by id.
    possessions = [
        chain_possession(["1", "2", "1", "2"], match_id="m2"),
        chain_possession(["1", "2", "3", "1"], match_id="m2"),
        chain_possession(["1", "2", "3", "4"], match_id="m1", team_id="t2"),
        chain_possession(["1", "2", "3"], match_id="m1", team_id="t1"),
    ]
    found = count_motifs(possessions, 3)
    assert len(found) == 3 and len(list(found)) == 3
    assert [(row.match_id, row.team_id) for row in found] == [
        ("m2", "t1"), ("m1", "t2"), ("m1", "t1")
    ]
    # aligned with ["ABAB", "ABAC", "ABCA", "ABCB", "ABCD"]
    assert found.counts.tolist() == [[1, 0, 1, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]
    assert found.total == sum(row.total for row in found) == 3
    assert found[-1].match_id == "m1" and found[-1].counts.tolist() == [0] * 5


def test_count_motifs_rejects_k_below_two():
    for possessions in ([], [chain_possession(["1", "2", "3"])]):
        with pytest.raises(ValueError, match=f"k must be between 2 and {MAX_K}, got 1"):
            count_motifs(possessions, 1)


@st.composite
def touch_batches(draw):
    """(k, touch rows, each possession's first touch) for ``window_counts``.

    Every row holds the same possessions, of 1 to 2k + 4 touches, drawn
    from up to 30 players coded by large, scattered integers. No touch
    repeats the one before it within a possession; a possession may start
    with the player who ended the last one.
    """
    k = draw(st.integers(2, MAX_K))
    n_rows = draw(st.sampled_from([1, 63, 64, 65, 256, 300]))
    n_players = draw(st.integers(2, 30))
    lengths = draw(st.lists(st.integers(1, 2 * k + 4), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = np.cumsum([0, *lengths[:-1]]) if lengths else np.zeros(0, dtype=np.int64)
    codes = np.empty((n_rows, sum(lengths)), dtype=np.int64)
    for t in range(codes.shape[1]):
        if t in first:
            codes[:, t] = rng.integers(0, n_players, n_rows)
        else:
            codes[:, t] = (codes[:, t - 1] + rng.integers(1, n_players, n_rows)) % n_players
    names = rng.choice(10**9, n_players, replace=False)
    return k, names[codes], first


@settings(max_examples=150, deadline=None)
@given(touch_batches())
def test_window_counts_match_brute_force_oracle(batch):
    k, rows, first = batch
    alphabet = enumerate_patterns(k)  # checked against the oracle up to k = 5 above
    bounds = [*first.tolist(), rows.shape[1]]
    counts = pattern_index(k).window_counts(rows, _window_starts(first, rows.shape[1], k))
    assert counts.shape == (rows.shape[0], len(alphabet))
    for row, got in zip(rows.tolist(), counts.tolist()):
        expected = Counter(
            p for a, b in zip(bounds, bounds[1:]) for p in oracle_window_patterns(row[a:b], k)
        )
        assert got == [expected[p] for p in alphabet]
        assert sum(got) == sum(expected.values())
