import hashlib
import math
import tracemalloc
from collections import Counter
from itertools import permutations, product
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowmotif import (
    DegenerateInputError,
    MotifCounts,
    NullDistributions,
    NullModelConfig,
    count_motifs,
    derive_seed,
    enumerate_patterns,
    extract_motifs,
    null_distribution,
    randomize_possessions,
    segment_possessions,
    touch_sequence,
    z_scores,
)
from flowmotif import nullmodel
from flowmotif.motifs import TouchCodes, pattern_index
from flowmotif.nullmodel import (
    BATCH_ROWS,
    EXACT_TOUCHES,
    _arrangements,
    _draw_rows,
    _moments,
)
from flowmotif.synth import TeamStyleParams, generate_league, generate_match
from helpers import (
    arrangement_table,
    chain_possession,
    oracle_canonical,
    oracle_match_rows,
    possession_touches,
)

POLICIES = ("touch_shuffle_match", "touch_shuffle_possession", "uniform_walk")


@pytest.fixture
def fresh_moments():
    """Signature moments computed afresh, and none left behind from a patched budget."""
    nullmodel._signature_moments.cache_clear()
    yield
    nullmodel._signature_moments.cache_clear()


def sampled_at(touches, k=3):
    """True when the possession shuffle samples a possession of these touches."""
    return nullmodel._signature_moments(signature_of(touches), k) is None


def synth_possessions(seed=11, possessions=25, squad=8, bias=0.1):
    params = TeamStyleParams(
        squad_size=squad,
        possessions_per_match=possessions,
        mean_possession_length=3.5,
        back_pass_bias=bias,
        team_id="tA",
    )
    return segment_possessions(generate_match(params, 0, seed=seed))


def all_touches(possessions):
    return [who for pos in possessions for who in touch_sequence(pos)]


@pytest.mark.parametrize("policy", POLICIES)
def test_shapes_and_timestamps_preserved(policy):
    original = synth_possessions()
    randomized = randomize_possessions(original, policy, seed=3)
    assert len(randomized) == len(original)
    for orig, rnd in zip(original, randomized):
        assert len(rnd) == len(orig)
        assert [p.timestamp for p in rnd.passes] == [p.timestamp for p in orig.passes]
        assert (rnd.match_id, rnd.team_id) == (orig.match_id, orig.team_id)
    assert list(randomize_possessions([], policy, seed=3)) == []


@pytest.mark.parametrize("policy", POLICIES)
def test_no_adjacent_duplicate_touches(policy):
    original = synth_possessions()
    for seed in range(20):
        for pos in randomize_possessions(original, policy, seed):
            seq = touch_sequence(pos)
            assert all(a != b for a, b in zip(seq, seq[1:]))


def test_match_shuffle_preserves_touch_multiset():
    original = synth_possessions()
    expected = Counter(all_touches(original))
    for seed in range(20):
        randomized = randomize_possessions(original, "touch_shuffle_match", seed)
        assert Counter(all_touches(randomized)) == expected


def test_two_player_multiset_conserved():
    possessions = [
        chain_possession(["1", "2"] * 5)  # 10 touches each: five 1s, five 2s
        for _ in range(2)
    ]
    expected = Counter(all_touches(possessions))
    assert expected == Counter({"1": 10, "2": 10})
    for seed in range(10):
        randomized = randomize_possessions(possessions, "touch_shuffle_match", seed)
        assert Counter(all_touches(randomized)) == expected


def test_possession_shuffle_preserves_per_possession_multiset():
    original = synth_possessions()
    for seed in range(10):
        randomized = randomize_possessions(original, "touch_shuffle_possession", seed)
        for orig, rnd in zip(original, randomized):
            assert Counter(touch_sequence(rnd)) == Counter(touch_sequence(orig))


def test_uniform_walk_uses_match_player_set():
    original = synth_possessions()
    players = set(all_touches(original))
    randomized = randomize_possessions(original, "uniform_walk", seed=5)
    assert set(all_touches(randomized)) <= players


def test_single_pass_possession_any_policy():
    pos = chain_possession(["1", "2"])
    for policy in POLICIES:
        (rnd,) = randomize_possessions([pos], policy, seed=1)
        seq = touch_sequence(rnd)
        assert len(seq) == 2 and seq[0] != seq[1]
        if policy != "uniform_walk":
            assert Counter(seq) == Counter(["1", "2"])


def test_randomize_is_deterministic_per_seed():
    original = synth_possessions()
    for policy in POLICIES:
        a = randomize_possessions(original, policy, seed=42)
        b = randomize_possessions(original, policy, seed=42)
        assert [touch_sequence(p) for p in a] == [touch_sequence(p) for p in b]
        c = randomize_possessions(original, policy, seed=43)
        assert [touch_sequence(p) for p in a] != [touch_sequence(p) for p in c]


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        randomize_possessions([chain_possession(["1", "2"])], "edge_rewire", 0)


def test_repair_budget_exhaustion_names_the_match(monkeypatch):
    # {A:3, B:2} admits exactly one valid arrangement; a budget of one
    # sweep and one resample gives up at seed 0 for the match shuffle.
    pos = chain_possession(["A", "B", "A", "B", "A"])
    with monkeypatch.context() as budget:
        budget.setattr(nullmodel, "MAX_REPAIR_ATTEMPTS", 1)
        with pytest.raises(DegenerateInputError, match="match"):
            randomize_possessions([pos], "touch_shuffle_match", 0)
    # the same input succeeds with the default budget
    randomize_possessions([pos], "touch_shuffle_match", 0)
    # the possession shuffle never repairs, so the budget does not bind it
    monkeypatch.setattr(nullmodel, "MAX_REPAIR_ATTEMPTS", 1)
    (rnd,) = randomize_possessions([pos], "touch_shuffle_possession", 0)
    assert touch_sequence(rnd) == ("A", "B", "A", "B", "A")


def test_match_shuffle_reshuffles_rows_inside_a_batch(monkeypatch):
    # Two shared players among 16 touches leave about 3% of shuffles dirty
    # after two sweeps, so with a budget of two some rows of a batch are
    # reshuffled while the others are done; the draw then parts from the
    # one with the default budget, which sweeps those rows a third time.
    possessions = [chain_possession(list(t)) for t in ("ABCDEFGH", "ABIJKLMN")]
    codes = TouchCodes(possessions)
    expected = Counter(all_touches(possessions))
    default_budget = nullmodel.MAX_REPAIR_ATTEMPTS

    def draw(seed, budget):
        monkeypatch.setattr(nullmodel, "MAX_REPAIR_ATTEMPTS", budget)
        rng = np.random.default_rng(seed)
        return np.concatenate(
            [_draw_rows(codes, "touch_shuffle_match", rng, BATCH_ROWS) for _ in range(2)]
        )

    rows = draw(8, 2)
    assert np.array_equal(rows, draw(8, 2))
    assert not np.array_equal(rows, draw(8, default_budget))
    for row in rows:
        randomized = possession_touches(codes, row)
        assert Counter(who for seq in randomized for who in seq) == expected
        for seq in randomized:
            assert all(a != b for a, b in zip(seq, seq[1:]))


def test_null_distribution_is_bitwise_deterministic():
    possessions = synth_possessions()
    config = NullModelConfig(replicates=50, master_seed=9)
    a = null_distribution(possessions, 3, config)[0]
    b = null_distribution(possessions, 3, config)[0]
    assert (a.k, a.replicates, a.degenerate) == (b.k, b.replicates, b.degenerate)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)


def object_path_moments(codes, policy, seed, reps):
    """Mean and Bessel-corrected variance of the replicates of coded touches,
    counted window by window with the string canonicalization.

    All replicates of a team-match are rows drawn from one stream seeded
    from (master seed, match id, team id) in batches of BATCH_ROWS.
    """
    rng = np.random.default_rng(derive_seed(seed, codes.match_id, codes.team_id))
    batches = [min(BATCH_ROWS, reps - done) for done in range(0, reps, BATCH_ROWS)]
    rows = np.concatenate([_draw_rows(codes, policy, rng, n) for n in batches])
    samples = [
        Counter(
            m
            for seq in possession_touches(codes, row)
            for m in extract_motifs(chain_possession(seq), 3)
        )
        for row in rows
    ]
    values = np.array([[s[p] for p in enumerate_patterns(3)] for s in samples])
    return values.mean(axis=0), values.var(axis=0, ddof=1)


def test_null_distribution_matches_object_path_recomputation():
    # The sampled moments must agree exactly with counting every replicate
    # through the object path; 300 replicates span two batches and five
    # count slices. The match shuffle samples every possession. The
    # possession shuffle samples only the possessions past the DP's budget,
    # here of 21 and 22 touches of ten players, and draws them as _draw_rows
    # draws a layout of just those two; ACBA and CABCA add exact moments.
    reps = 300
    possessions = synth_possessions(possessions=10)
    config = NullModelConfig(replicates=reps, policy="touch_shuffle_match", master_seed=17)
    null = null_distribution(possessions, 3, config)[0]
    mean, var = object_path_moments(TouchCodes(possessions), config.policy, 17, reps)
    assert null.sampled_possessions == len(possessions)
    assert null.mean == pytest.approx(mean, abs=1e-12)
    assert null.std == pytest.approx(np.sqrt(var), abs=1e-12)

    exact, long = ["ACBA", "CABCA"], ["ABCDEFGHIJABCDEFGHIJA", "BACDEFGHIJBACDEFGHIJAB"]
    assert all(map(sampled_at, long))
    possessions = [chain_possession(list(t)) for t in exact[:1] + long + exact[1:]]
    config = NullModelConfig(replicates=reps, policy="touch_shuffle_possession", master_seed=17)
    null = null_distribution(possessions, 3, config)[0]
    rest = TouchCodes([chain_possession(list(t)) for t in long])
    mean, var = object_path_moments(rest, config.policy, 17, reps)
    exact_mean, exact_var = enumerated_moments(exact, "touch_shuffle_possession")
    assert null.sampled_possessions == 2
    assert null.mean == pytest.approx(mean + exact_mean, abs=1e-12)
    assert null.std == pytest.approx(np.sqrt(var + exact_var), abs=1e-12)


def test_two_teams_of_a_match_draw_different_streams():
    touches = ["1", "2", "3", "1", "2", "4", "1"]
    config = NullModelConfig(replicates=200, master_seed=3)
    home = null_distribution([chain_possession(touches, team_id="home")], 3, config)[0]
    away = null_distribution([chain_possession(touches, team_id="away")], 3, config)[0]
    assert not np.array_equal(home.mean, away.mean)


def valid_arrangements(touches):
    return sorted(
        "".join(p)
        for p in set(permutations(touches))
        if all(a != b for a, b in zip(p, p[1:]))
    )


def signature_of(touches):
    return tuple(sorted(Counter(touches).values()))


def enumerated_counts(touches, policy, players, k=3):
    """Pattern counts of every equally likely outcome of one possession, one row each.

    The possession shuffle's outcomes are the valid arrangements of the
    touches; the walk's are all sequences of the players with no adjacent
    repeat.
    """
    if policy == "uniform_walk":
        walks = product(players, repeat=len(touches))
        outcomes = [w for w in walks if all(a != b for a, b in zip(w, w[1:]))]
    else:
        outcomes = valid_arrangements(touches)
    patterns = enumerate_patterns(k)
    windows = [
        Counter(oracle_canonical(o[i : i + k + 1]) for i in range(len(o) - k)) for o in outcomes
    ]
    return np.array([[c[p] for p in patterns] for c in windows])


def enumerated_moments(layout, policy, k=3):
    """Exact mean and variance of the counts of independent possessions, by enumeration."""
    players = sorted(set("".join(layout)))
    counts = [enumerated_counts(touches, policy, players, k) for touches in layout]
    return sum(c.mean(axis=0) for c in counts), sum(c.var(axis=0) for c in counts)


@pytest.mark.parametrize("touches", ["AB", "ACBA", "ABCBDAC", "ABABABABAB", "AAABBBCCD", "AAAAB"])
def test_arrangement_counts_match_enumeration(touches):
    counts = tuple(sorted(Counter(touches).values()))
    assert _arrangements(counts) == len(valid_arrangements(touches))


def test_counts_route_keeps_the_arrangements_after_each_holder(monkeypatch):
    # Decoding a row touch by touch asks, for every candidate holder, how
    # many valid arrangements may follow. The table keeps each answer, so
    # four rows of a 40-touch ABAC chain evaluate the arrangement counts
    # 2,424 times from an empty table; summing them afresh on every ask took
    # 21,374 evaluations.
    calls = []
    real_arrangements = nullmodel._arrangements

    def arrangements(counts):
        calls.append(counts)
        return real_arrangements(counts)

    monkeypatch.setattr(nullmodel, "_arrangements", arrangements)
    monkeypatch.setattr(nullmodel, "_COUNTS", {})
    touches = np.array([0, 1, 0, 2] * 10, dtype=np.int64)
    rng = np.random.default_rng(0)
    rows = [nullmodel._counted_arrangement(touches, rng) for _ in range(4)]
    assert len(calls) <= 5_000
    for row in rows:
        assert (row[1:] != row[:-1]).all()
        assert Counter(row.tolist()) == Counter(touches.tolist())
    counts = nullmodel._COUNTS
    assert counts[(1, 10), 19] + counts[(1, 10), 18] == counts[1, 10, 19]


def test_draws_and_the_budget_do_not_depend_on_the_counts_table(monkeypatch, fresh_moments):
    # The arrangement counts are exact integers kept for the process, so the
    # rows drawn from them and the budget's decisions read the same from an
    # empty table and from one that other signatures of the same players
    # filled first, where _after starts its upward fill from other entries.
    touches = "AFABAFACAFADAFAEAFAGF"
    signature = signature_of(touches)
    possessions = [chain_possession(list(touches))]

    def draw():
        nullmodel._signature_moments.cache_clear()
        budget = [nullmodel._signature_moments(signature, k) is None for k in range(3, 9)]
        rows = [
            touch_sequence(p)
            for seed in range(4)
            for p in randomize_possessions(possessions, "touch_shuffle_possession", seed)
        ]
        return budget, rows

    monkeypatch.setattr(nullmodel, "_COUNTS", {})
    cold = draw()
    assert signature in nullmodel._COUNTS
    monkeypatch.setattr(nullmodel, "_COUNTS", {})
    for other in [(1, 1, 5, 9), (1, 1, 1, 1, 4, 8), (1, 1, 1, 1, 1, 6, 9), (1, 1, 1, 1, 6, 10)]:
        _arrangements(other)
    warm = draw()
    assert cold == warm
    assert all(cold[0]) and len(set(map(tuple, cold[1]))) > 1


def canonical_by_count(arrangement, counts):
    """True when, of the letters with equal counts, the earlier letter appears first."""
    order = list(dict.fromkeys(arrangement))
    return all(
        order.index(a) < order.index(b)
        for a, b in zip(sorted(counts), sorted(counts)[1:])
        if counts[a] == counts[b]
    )


@pytest.mark.parametrize(
    "touches", ["AB", "ACBA", "ABCBDAC", "ABABABABAB", "AAABBBCCD", "AAAAB", "ABCABCABC"]
)
def test_arrangement_tables_match_enumeration(touches):
    # Player i of the oracle's table holds the i-th smallest count; ties
    # follow the letters, and a row stands for all swaps of equal counts.
    counts = Counter(touches)
    holders = sorted(counts, key=lambda c: (counts[c], c))
    table = arrangement_table(tuple(sorted(counts.values())))
    rows = sorted("".join(holders[i] for i in row) for row in table.tolist())
    assert rows == [a for a in valid_arrangements(touches) if canonical_by_count(a, counts)]


def signatures(touches, players):
    """Every sorted tuple of at most ``players`` positive counts summing to ``touches``."""
    if touches == 0:
        yield ()
    elif players:
        for first in range(1, touches + 1):
            for rest in signatures(touches - first, players - 1):
                if not rest or first <= rest[0]:
                    yield (first,) + rest


def swaps(signature):
    """Arrangements that one row of ``arrangement_table`` stands for."""
    return prod(factorial(m) for m in Counter(signature).values())


def test_arrangement_tables_hold_every_valid_arrangement():
    # Growth keeps only prefixes that can be completed, so the oracle's rows
    # stand for every valid arrangement; signatures with none give empty tables.
    for length in range(1, 12):
        for signature in signatures(length, 5):
            rows = len(arrangement_table(signature))
            assert rows * swaps(signature) == _arrangements(signature), signature
    # seven touches of one player among six others leave 720 arrangements
    assert len(arrangement_table((1, 1, 1, 1, 1, 1, 7))) == 1
    assert _arrangements((1, 1, 1, 1, 1, 1, 7)) == 720


def table_moments(signature, k):
    """Mean, variance and fourth central moment of the counts over the oracle's table."""
    table = arrangement_table(signature)
    counts = pattern_index(k).window_counts(table, np.arange(sum(signature) - k))
    deviation = counts - counts.mean(axis=0)
    return counts.mean(axis=0), counts.var(axis=0), (deviation**4).mean(axis=0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_signature_moments_match_enumeration(k):
    # Every signature of up to 10 touches with a valid arrangement and a
    # window, against the moments over every valid arrangement.
    nullmodel._signature_moments.cache_clear()
    checked = 0
    for length in range(k + 1, 11):
        for signature in signatures(length, length):
            if 2 * signature[-1] > length + 1:
                continue  # no valid arrangement
            mean, var = nullmodel._signature_moments(signature, k)
            exact_mean, exact_var, _ = table_moments(signature, k)
            assert mean == pytest.approx(exact_mean, abs=1e-12), signature
            assert var == pytest.approx(exact_var, abs=1e-12), signature
            checked += 1
    assert checked > 60


def test_signature_moments_do_not_depend_on_what_came_before():
    # A state's value is a pure function of the state, summed in a fixed
    # order, so a signature's moments are the same bits whether the DP meets
    # it first or after others have filled the shared states.
    signature = (1, 1, 2, 2, 3, 4, 6)
    nullmodel._signature_moments.cache_clear()
    nullmodel._shuffle_dp.cache_clear()
    first = nullmodel._signature_moments(signature, 3)
    nullmodel._signature_moments.cache_clear()
    nullmodel._shuffle_dp.cache_clear()
    for other in [(1, 2, 3), (2, 2, 2, 2, 3), (1, 1, 1, 2, 3, 4, 6), (1, 1, 2, 2, 3, 3, 6)]:
        nullmodel._signature_moments(other, 3)
    after = nullmodel._signature_moments(signature, 3)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, after))


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_exact_touches_bound_the_states_of_every_signature(k):
    # Over every signature of at most EXACT_TOUCHES[k] touches the DP holds
    # at most 2**20 state values; one more touch would pass that. All states
    # are shared here, so the shared ones are all the DP ever holds.
    width = 1 + 2 * len(enumerate_patterns(k))
    dp = nullmodel._SignatureMoments(k, tuple(range(len(enumerate_patterns(k)))))
    dp.shared_touches = 10**6
    for length in range(1, EXACT_TOUCHES[k] + 2):
        for signature in signatures(length, length):
            if 2 * signature[-1] <= length + 1:
                dp.moments(signature)
        if length == EXACT_TOUCHES[k]:
            assert len(dp.shared.rows) * width <= nullmodel.STATE_VALUES
    assert len(dp.shared.rows) * width > nullmodel.STATE_VALUES


@pytest.mark.parametrize(
    "signature,k",
    [((50, 50), 8), ((2, 6, 7), 4), ((1, 5, 6), 8), ((1, 1, 1, 2, 4), 8), ((2, 3, 3), 7)],
)
def test_signatures_with_few_arrangements_are_exact_past_exact_touches(signature, k):
    # Past EXACT_TOUCHES[k] a signature is exact while (touches + 1) x its
    # arrangements up to swaps of equal counts, times the values of a state,
    # stays within STATE_VALUES. No touch position holds more states than
    # arrangements follow it, so the DP holds no more. A state's values cover
    # the patterns whose label counts fit under the signature's, so a
    # two-player chain takes one pattern however large k is. 0.11.0's
    # arrangement tables made all of these exact.
    touches = sum(signature)
    assert touches > EXACT_TOUCHES[k]
    mean, var = nullmodel._signature_moments(signature, k)
    exact_mean, exact_var, _ = table_moments(signature, k)
    assert mean == pytest.approx(exact_mean, rel=1e-12, abs=1e-12)
    assert var == pytest.approx(exact_var, rel=1e-12, abs=1e-12)
    # every state of the DP, on the columns of the patterns that occur
    dp = nullmodel._SignatureMoments(k, tuple(np.flatnonzero(exact_mean).tolist()))
    dp.shared_touches = -1
    states = nullmodel._StateValues(dp.shared.width)
    dp._value((), (), signature, touches, states)
    classes = _arrangements(signature) // swaps(signature)
    assert len(states.rows) <= (touches + 1) * classes


def test_possession_routes_follow_the_signature(monkeypatch, fresh_moments):
    # Every possession the shuffle draws takes rejection rounds, however
    # long: CA, ACBA and ABCABCABC (174 of 1680 permutations valid), the
    # 21-touch one and a two-player chain of 801 touches. null_distribution
    # takes exact moments for those within the DP's budget and, as CA has
    # no 3-pass window, samples only the 21-touch one, through the same
    # _possession_rows. With no budget it samples all three.
    rejected = []

    def rejection_rows(touches, rng, n_rows):
        rejected.append(touches.size)
        return real_rejection_rows(touches, rng, n_rows)

    real_rejection_rows = nullmodel._rejection_rows
    monkeypatch.setattr(nullmodel, "_rejection_rows", rejection_rows)
    layout = ("CA", "ACBA", "ABCABCABC", "ABCDEFGHIJABCDEFGHIJA")
    possessions = [chain_possession(list(t)) for t in layout]
    rng = np.random.default_rng(0)
    _draw_rows(TouchCodes(possessions), "touch_shuffle_possession", rng, 8)
    assert rejected == [2, 4, 9, 21]
    long_pair = TouchCodes([chain_possession(["A", "B"] * 400 + ["A"])])
    _draw_rows(long_pair, "touch_shuffle_possession", rng, 8)
    assert rejected == [2, 4, 9, 21, 801]
    rejected.clear()
    config = NullModelConfig(replicates=8, policy="touch_shuffle_possession")
    assert null_distribution(possessions, 3, config)[0].sampled_possessions == 1
    assert rejected == [21]

    monkeypatch.setattr(nullmodel, "EXACT_TOUCHES", (0,) * len(EXACT_TOUCHES))
    monkeypatch.setattr(nullmodel, "STATE_VALUES", 0)
    nullmodel._signature_moments.cache_clear()
    assert null_distribution(possessions, 3, config)[0].sampled_possessions == 3
    assert rejected == [21, 4, 9, 21]


def test_possession_shuffle_computes_each_signature_once(monkeypatch):
    # ACBA, ABCA and BACB share one signature, CABCA and CBCAB another, and
    # the two seven-player chains a third, while 30 touches are past
    # EXACT_TOUCHES[k] for k = 2 and 3. randomize_possessions draws by
    # rejection rounds and computes no moments. null_distribution computes
    # each signature's moments once per k, and never those of a possession
    # past the limit.
    computed = []

    def moments(dp, signature):
        computed.append(signature)
        return real_moments(dp, signature)

    real_moments = nullmodel._SignatureMoments.moments
    monkeypatch.setattr(nullmodel._SignatureMoments, "moments", moments)
    nullmodel._signature_moments.cache_clear()
    layout = ("ACBA", "CABCA", "ABCA", "ABCDEFG", "BACB", "CBCAB", "GFEDCBA", "ABCDEFGHIJ" * 3)
    possessions = [chain_possession(list(t)) for t in layout]
    for seed in (6, 7):
        randomize_possessions(possessions, "touch_shuffle_possession", seed)
    assert computed == []
    config = NullModelConfig(replicates=8, policy="touch_shuffle_possession")
    signatures = [(1, 1, 2), (1, 2, 2), (1,) * 7]
    for k in (3, 3, 2, 2):
        null_distribution(possessions, k, config)
    assert computed == signatures * 2


@pytest.mark.parametrize("players,repeated", [(200, 0), (130, 1)])
def test_possession_shuffle_takes_more_players_than_int8_codes(players, repeated):
    # Rows keep the possession's own codes. The long possession is sampled:
    # 200 players once each have more valid arrangements than a float holds,
    # and with one player twice the DP's states would pass its budget.
    names = [f"p{i}" for i in range(players)]
    touches = names + names[1 : 1 + repeated]
    possessions = [chain_possession(touches), chain_possession(["x", "y", "x"])]
    for seed in range(3):
        randomized = randomize_possessions(possessions, "touch_shuffle_possession", seed)
        for orig, rnd in zip(possessions, randomized):
            seq = touch_sequence(rnd)
            assert all(a != b for a, b in zip(seq, seq[1:]))
            assert Counter(seq) == Counter(touch_sequence(orig))
    config = NullModelConfig(replicates=8, policy="touch_shuffle_possession")
    assert null_distribution(possessions, 3, config)[0].sampled_possessions == 1


def test_possession_shuffle_takes_a_player_with_hundreds_of_touches():
    # Two players alternating over 520 touches hold 260 each, so rejection
    # rounds pass every row to the arrangement counts. Those once failed on
    # a count of 256 (the memo took its keys as bytes), then took seconds;
    # their table is also checked directly at counts of 256. The DP's state
    # keys take a byte per count, so null_distribution samples the chain.
    assert _arrangements((1, 256)) == 0
    assert _arrangements((1, 1, 256)) == 0
    assert nullmodel._COUNTS[(256,)] == 0
    (pos,) = randomize_possessions(
        [chain_possession(["A", "B"] * 260)], "touch_shuffle_possession", seed=4
    )
    seq = touch_sequence(pos)
    assert len(seq) == 520 and all(a != b for a, b in zip(seq, seq[1:]))
    null = null_distribution(
        [chain_possession(["A", "B"] * 260)],
        3,
        NullModelConfig(replicates=4, policy="touch_shuffle_possession"),
    )[0]
    assert null.sampled_possessions == 1
    assert null.mean.tolist() == [517.0, 0.0, 0.0, 0.0, 0.0]


def chi2_limit(df, z=4.75):
    """Wilson-Hilferty upper quantile of chi-squared, here at p of about 1e-6."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize(
    "layout,draws",
    [
        ("BACBAC", 40_000),
        ("CACDA BACA", 40_000),
        ("ACBA ABCA", 40_000),
        ("ABAB", 6_400),
        ("ABA BAB", 6_400),
    ],
)
def test_match_shuffle_draws_the_law_of_the_row_by_row_repair(layout, draws):
    # The repaired shuffle is biased and its law has no closed form, so the
    # batched rows are compared with the one-row-at-a-time oracle by a
    # two-sample chi-squared test. ABAB and ABA BAB split over two cells.
    match = TouchCodes([chain_possession(list(t)) for t in layout.split()])
    names = np.array(match.players)
    # slots whose next slot belongs to the same possession
    owner = np.repeat(np.arange(len(match.lengths)), match.lengths)
    adjacency = np.flatnonzero(owner[1:] == owner[:-1])
    oracle_rng, rng = np.random.default_rng(5), np.random.default_rng(6)
    oracle = oracle_match_rows(match.touches, adjacency, oracle_rng, draws, 100)
    batches = [
        _draw_rows(match, "touch_shuffle_match", rng, min(BATCH_ROWS, draws - done))
        for done in range(0, draws, BATCH_ROWS)
    ]
    a = Counter(map("".join, names[oracle].tolist()))
    b = Counter(map("".join, names[np.concatenate(batches)].tolist()))
    cells = set(a) | set(b)
    chi2 = sum((a[c] - b[c]) ** 2 / (a[c] + b[c]) for c in cells)
    assert chi2 < chi2_limit(len(cells) - 1), (chi2, len(cells))


def assert_uniform_over_valid_arrangements(layout, draws):
    """Chi-squared test of the possession shuffle against enumeration."""
    possessions = [chain_possession(list(t)) for t in layout.split()]
    match = TouchCodes(possessions)
    cells = ["".join(c) for c in product(*map(valid_arrangements, layout.split()))]
    batch = draws // 10
    rng = np.random.default_rng(11)
    names = np.array(match.players)
    seen = Counter()
    for _ in range(draws // batch):
        rows = _draw_rows(match, "touch_shuffle_possession", rng, batch)
        seen.update(map("".join, names[rows].tolist()))
    assert set(seen) <= set(cells)
    expected = draws / len(cells)
    chi2 = sum((seen[c] - expected) ** 2 / expected for c in cells)
    assert chi2 < chi2_limit(len(cells) - 1), (chi2, len(cells))


# Every possession takes rejection rounds, and with no rounds the
# arrangement counts.
LAYOUTS = [
    ("ACBA ABCA", 50_000),
    ("ABCBDAC DBA", 200_000),
    ("ABABABABAB", 20_000),
    ("ABCD CDE", 50_000),
    ("CA ACBA ABCABCABC", 200_000),
]


@pytest.mark.parametrize("layout,draws", LAYOUTS)
@pytest.mark.parametrize("rounds", [nullmodel.POSSESSION_ROUNDS, 0])
def test_possession_shuffle_is_uniform_over_valid_arrangements(
    layout, draws, rounds, monkeypatch
):
    # ABABABABAB passes most rows on to the counts. With no rejection rounds
    # every possession with a repeated player is drawn from arrangement
    # counts, which cost more per draw.
    if not rounds:
        monkeypatch.setattr(nullmodel, "POSSESSION_ROUNDS", 0)
        draws //= 10
    assert_uniform_over_valid_arrangements(layout, draws)


def test_possession_shuffle_terminates_on_tight_possessions():
    # Two players alternating over 24 touches admit two arrangements, and A
    # holding 14 of 30 touches leaves a few in a million permutations valid,
    # so the rejection rounds pass nearly every row of both to the
    # arrangement counts.
    tight = "AB" * 12
    heavy = "".join(a + b for a, b in zip("A" * 14, "BCDEFGHI" * 2)) + "HI"
    assert Counter(heavy)["A"] == 14 and len(heavy) == 30
    possessions = [chain_possession(list(t)) for t in (tight, heavy)]
    codes = TouchCodes(possessions)
    rows = _draw_rows(codes, "touch_shuffle_possession", np.random.default_rng(5), 256)
    for row in rows:
        for orig, seq in zip(possessions, possession_touches(codes, row)):
            assert all(a != b for a, b in zip(seq, seq[1:]))
            assert Counter(seq) == Counter(touch_sequence(orig))
    assert len({row.tobytes() for row in rows}) > 200


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n_players", [2, 3, 4])
def test_walk_moments_match_enumeration(n_players, k):
    # One possession of every length from 2 to 7 touches on n players; the
    # longest ones hold pairs of windows at every offset up to k.
    letters = "ABCD"[:n_players]
    layout = ["".join(letters[i % n_players] for i in range(n)) for n in range(2, 8)]
    possessions = [chain_possession(list(t)) for t in layout]
    mean, var = enumerated_moments(layout, "uniform_walk", k)
    null = null_distribution(possessions, k, NullModelConfig(replicates=2, policy="uniform_walk"))[0]
    assert null.sampled_possessions == 0 and not null.degenerate
    assert null.mean == pytest.approx(mean, abs=1e-12)
    assert null.std**2 == pytest.approx(var, abs=1e-12)
    # one replicate leaves the exact mean but no variance
    config = NullModelConfig(replicates=1, policy="uniform_walk")
    single = null_distribution(possessions, k, config)[0]
    assert single.degenerate and not single.std.any()
    assert np.array_equal(single.mean, null.mean)


@pytest.mark.parametrize("layout", ["ACBA ABCA", "ABABABABAB", "CA ACBA ABCABCABC", "ABCD CDE"])
def test_possession_shuffle_moments_match_enumeration(layout):
    layout = layout.split()
    possessions = [chain_possession(list(t)) for t in layout]
    mean, var = enumerated_moments(layout, "touch_shuffle_possession")
    config = NullModelConfig(replicates=2, policy="touch_shuffle_possession")
    null = null_distribution(possessions, 3, config)[0]
    assert null.sampled_possessions == 0
    assert null.mean == pytest.approx(mean, abs=1e-12)
    assert null.std**2 == pytest.approx(var, abs=1e-12)


def test_possession_shuffle_samples_only_the_long_possessions():
    # The 21-touch possession, A ten times and F six, is past EXACT_TOUCHES[3],
    # so its moments are sampled while ACBA's are exact. The sampled mean and
    # variance must lie within 5 standard errors of those over its 17,892
    # valid arrangements up to swaps.
    layout = ["ACBA", "AFABAFACAFADAFAEAFAGF"]
    assert len(layout[1]) > EXACT_TOUCHES[3]
    reps = 4000
    config = NullModelConfig(replicates=reps, policy="touch_shuffle_possession", master_seed=5)
    null = null_distribution([chain_possession(list(t)) for t in layout], 3, config)[0]
    assert null.sampled_possessions == 1
    exact_mean, exact_var = enumerated_moments(layout[:1], "touch_shuffle_possession")
    rest_mean, rest_var, fourth = table_moments(signature_of(layout[1]), 3)
    mean, var = exact_mean + rest_mean, exact_var + rest_var
    assert rest_var.any()
    assert (abs(null.mean - mean) <= 5 * np.sqrt(rest_var / reps) + 1e-12).all()
    assert (abs(null.std**2 - var) <= 5 * np.sqrt((fourth - rest_var**2) / reps) + 1e-12).all()


# Possessions past the DP's budget at k = 3. The first passes 298 of 300
# rows to the arrangement counts after its rejection rounds.
LONG = ["AFABAFACAFADAFAEAFAGF", "ABCDEFGHIJABCDEFGHIJA", "BACDEFGHIJBACDEFGHIJAB"]


@pytest.mark.parametrize(
    "replicates,digest",
    [
        (40, "4905f33d22b06584a98db6b2c0e5060d6fb2b7fbdf6640a83ccf6cb7ef087dd8"),
        # two batches of 256 rows
        (300, "bcd0c7af93030aab570981e7f360ad8d2532343067ea789e1c29da56d9fdd73e"),
    ],
)
def test_possession_shuffle_sampled_stream_is_pinned(replicates, digest):
    # sha256 of the moments of possessions that are all sampled: they pin the
    # rejection rounds, the batches and the draws from arrangement counts,
    # which no exact possession reaches. Recorded in version 0.12.0; 0.11.0
    # gave the same bytes.
    assert all(map(sampled_at, LONG))
    config = NullModelConfig(replicates, "touch_shuffle_possession", master_seed=3)
    null = null_distribution([chain_possession(list(t)) for t in LONG], 3, config)[0]
    assert null.sampled_possessions == 3
    assert hashlib.sha256(null.mean.tobytes() + null.std.tobytes()).hexdigest() == digest
    drawn = randomize_possessions([chain_possession(list(t)) for t in LONG], config.policy, 3)
    text = " ".join("".join(touch_sequence(p)) for p in drawn)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "892a1ba1890a30497614b1233e85902450a1ed11d81b59ef6a1c74f2ba4ab97f"
    )


# Possessions of the batched calls' team-matches: two of no window at k = 3,
# a 20-touch one of four players, and LONG[0], past the DP's budget, whose
# rows reach the arrangement counts.
BATCHED = ["AB", "BCA", "ACBA", "CABCBA", "ABCD" * 5, LONG[0]]


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(BATCHED), min_size=1, max_size=3), min_size=1, max_size=4))
@example([["ACBA", "ABCD" * 5], ["AB", "BCA"], ["ACBA", LONG[0]], ["CABCBA"]])
def test_batched_rows_equal_calls_per_team_match(policy, team_matches):
    # Each row of a batched null_distribution and z_scores is the call on
    # that team-match alone, to the bit. The example's first team-match ends
    # on a long possession, the next has no window, and the third samples
    # under both shuffles, with straggler rows under the possession shuffle.
    config = NullModelConfig(replicates=12, policy=policy, master_seed=4)
    alone = [
        [chain_possession(list(t), match_id=f"m{i}") for t in touches]
        for i, touches in enumerate(team_matches)
    ]
    possessions = [p for own in alone for p in own]
    null = null_distribution(possessions, 3, config)
    profiles = z_scores(count_motifs(possessions, 3), null)
    assert len(null) == len(profiles) == len(team_matches)
    for own, row, profile in zip(alone, null, profiles):
        single = null_distribution(own, 3, config)
        expected = z_scores(count_motifs(own, 3), single)[0]
        assert np.array_equal(row.mean, single.mean[0]) and np.array_equal(row.std, single.std[0])
        assert row.sampled_possessions == single[0].sampled_possessions
        assert (profile.match_id, profile.team_id) == (expected.match_id, expected.team_id)
        assert np.array_equal(profile.z, expected.z)
        assert np.array_equal(profile.degenerate, expected.degenerate)


@pytest.mark.parametrize("policy", ["uniform_walk", "touch_shuffle_possession"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_exact_nulls_are_symmetric_under_reversal(policy, k):
    # Reversing every possession maps its valid arrangements, and its walks,
    # one to one, and turns each window into one with the reversed pattern,
    # canonicalized (ABAC into ABCB). So an exact null gives a pattern and its
    # reverse the same moments. The possessions, of 480, 540 and 445 valid
    # arrangements, are too long for the enumeration tests, and so is the
    # 16-touch one of eight players, which had no arrangement table; at k = 4
    # it is past EXACT_TOUCHES[4].
    layout = ["ABACBCABCAB", "ABACADABACAD", "ABCBABCBABCBA"]
    if k < 4:
        layout.append("ABCDEFABCDEFGHAB")
    possessions = [chain_possession(list(t)) for t in layout]
    null = null_distribution(possessions, k, NullModelConfig(replicates=2, policy=policy))[0]
    assert null.sampled_possessions == 0
    patterns = list(enumerate_patterns(k))
    reverse = [patterns.index(oracle_canonical(p[::-1])) for p in patterns]
    assert null.mean == pytest.approx(null.mean[reverse], abs=1e-12)
    assert null.std == pytest.approx(null.std[reverse], abs=1e-12)


def walk_probability(pattern, n_players):
    """Probability of a pattern for a walk that never passes to the holder."""
    p, seen = 1.0, {pattern[0]}
    for ch in pattern[1:]:
        p *= 1 / (n_players - 1) if ch in seen else (n_players - len(seen)) / (n_players - 1)
        seen.add(ch)
    return p


def test_uniform_walk_mean_matches_closed_form():
    # The exact null mean is the closed form, and walks drawn by _draw_rows,
    # the sampler of randomize_possessions, have a sample mean and variance
    # within 5 standard errors of the exact moments.
    possessions = synth_possessions()
    codes = TouchCodes(possessions)
    reps = 4000
    null = null_distribution(
        possessions, 3, NullModelConfig(replicates=reps, policy="uniform_walk", master_seed=2)
    )[0]
    n_players = len(set(all_touches(possessions)))
    windows = sum(max(0, len(touch_sequence(p)) - 3) for p in possessions)
    expected = [windows * walk_probability(p, n_players) for p in enumerate_patterns(3)]
    assert null.mean == pytest.approx(expected, abs=1e-9)
    rows = _draw_rows(codes, "uniform_walk", np.random.default_rng(2), reps)
    counts = pattern_index(3).window_counts(rows, codes.window_starts(3))
    var = null.std**2
    fourth = ((counts - counts.mean(axis=0)) ** 4).mean(axis=0)
    assert (abs(counts.mean(axis=0) - null.mean) <= 5 * np.sqrt(var / reps)).all()
    assert (abs(counts.var(axis=0, ddof=1) - var) <= 5 * np.sqrt((fourth - var**2) / reps)).all()


@pytest.mark.parametrize("n_players,k", [(3, 7), (4, 4), (5, 3), (6, 2)])
def test_walk_joint_matches_enumeration_of_every_walk(n_players, k):
    # Every walk of 2k + 1 touches is equally likely. Row d of _walk_joint
    # must be the share of them whose windows at touches 0 and d both have
    # each pattern; row 0 is the law of one window.
    steps = product(range(n_players), *[range(1, n_players)] * (2 * k))
    walks = np.cumsum(np.array(list(steps)), axis=1) % n_players
    pidx = pattern_index(k)
    first = pidx.window_counts(walks, np.zeros(1, dtype=np.int64)).argmax(axis=1)
    joint = nullmodel._walk_joint(n_players, k)
    for d in range(k + 1):
        other = pidx.window_counts(walks, np.array([d])).argmax(axis=1)
        shares = np.bincount(first[first == other], minlength=len(pidx.patterns)) / len(walks)
        assert joint[d] == pytest.approx(shares, abs=1e-12)


def test_walk_joint_needs_only_the_alphabet():
    # The joint law comes from the 877 patterns of k = 7, not from the
    # walks or pattern strings of 15 touches, so it stays under a megabyte.
    pattern_index(7)
    tracemalloc.start()
    try:
        joint = nullmodel._walk_joint.__wrapped__(22, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert joint.shape == (8, 877) and joint[0].sum() == pytest.approx(1.0, abs=1e-12)


CALIBRATION = [  # policy, k, squad, mean possession length, replicates
    ("uniform_walk", 3, 4, 3.2, 1000),
    ("uniform_walk", 3, 4, 5.0, 1000),
    ("touch_shuffle_possession", 3, 4, 3.2, 1000),
    # 105 possessions, past EXACT_TOUCHES[3], are sampled: through
    # rejection rounds and draws from arrangement counts (4 at length 3.2)
    ("touch_shuffle_possession", 3, 4, 5.0, 250),
    # A pattern of k + 1 distinct players needs a squad of k + 1; the
    # possession shuffle samples 193 possessions at k = 4 and 1015 at k = 5.
    ("uniform_walk", 4, 5, 3.2, 1000),
    ("touch_shuffle_possession", 4, 5, 4.0, 250),
    ("touch_shuffle_possession", 5, 6, 5.0, 250),
    # ABABAB is expected about 9 times in all, ABCDCD about 107
    ("uniform_walk", 5, 6, 3.2, 1000),
]
# Replicates drawn per team-match for the fourth moment of z under the null.
CALIBRATION_DRAWS = 64


@pytest.mark.parametrize(
    "policy,k,squad,mean_length,replicates",
    CALIBRATION,
    ids=[f"{p}-{length}-{r}" + (f"-k{k}" if k > 3 else "") for p, k, _, length, r in CALIBRATION],
)
def test_z_scores_of_teams_drawn_from_the_null_are_standard(
    policy, k, squad, mean_length, replicates
):
    # A synth team with no back-pass bias is a uniform walk with no
    # self-pass, so every valid arrangement of a team-match's possessions is
    # equally likely: its data are a draw from the walk, and from the
    # possession shuffle given each possession's touches. So each pattern's z
    # over 300 team-matches has mean 0 and variance 1, within 4 standard
    # errors. Small squads let every player appear in a team-match, as the
    # walk's player count assumes. A z with no null spread is no draw, and
    # is left out.
    # The SE of the variance needs z's fourth moment. A pattern seen a few
    # times per team-match or less has one dominated by its rare team-matches
    # of several occurrences, so the sample's own understates it whenever
    # those happen to be few: the walk at k = 5 read ABABAB (8.9 expected,
    # 4 seen) 5.8 and ABCDCD (107 expected, 92 seen) 4.3 such SEs low. So the
    # fourth moment is taken under the null, from CALIBRATION_DRAWS replicates
    # of every team-match drawn by the policy's own sampler.
    teams = [
        TeamStyleParams(
            squad_size=squad,
            possessions_per_match=25,
            mean_possession_length=mean_length,
            back_pass_bias=0.0,
            matches=30,
            team_id=f"cal{i}",
        )
        for i in range(10)
    ]
    config = NullModelConfig(replicates, policy, master_seed=3)
    index, rng = pattern_index(k), np.random.default_rng(5)
    z, fourth, sampled = [], [], 0
    for log in generate_league(teams, 11):
        possessions = segment_possessions(log)
        null = null_distribution(possessions, k, config)
        std = np.where(null.std > 0, null.std, np.nan)[0]
        z.append((count_motifs(possessions, k).counts[0] - null.mean[0]) / std)
        codes = TouchCodes(possessions)
        rows = _draw_rows(codes, policy, rng, CALIBRATION_DRAWS)
        drawn = index.window_counts(rows, codes.window_starts(k))
        fourth.append((((drawn - null.mean[0]) / std) ** 4).mean(axis=0))
        sampled += null[0].sampled_possessions
    assert (sampled > 0) == (policy == "touch_shuffle_possession")
    for pattern, column, m4 in zip(index.patterns, np.array(z).T, np.nanmean(fourth, axis=0)):
        column = column[~np.isnan(column)]
        n, mean, var = len(column), column.mean(), column.var(ddof=1)
        assert n >= 250, pattern
        assert abs(mean) <= 4 * math.sqrt(var / n), (pattern, mean)
        assert abs(var - 1) <= 4 * math.sqrt((m4 - 1) / n), (pattern, var)


def test_moments_do_not_overflow():
    # 10^9 replicates with counts alternating 0 and 20: the int64 numerator
    # reps*total_sq - total*total wraps and would give a variance of 7.77.
    reps = 10**9
    total = np.array([10 * reps], dtype=np.int64)
    total_sq = np.array([200 * reps], dtype=np.int64)
    mean, var = _moments(total, total_sq, reps)
    assert mean[0] == 10.0
    assert var[0] == pytest.approx(100.0, rel=1e-6)


def test_single_replicate_is_degenerate():
    null = null_distribution(synth_possessions(), 3, NullModelConfig(replicates=1))[0]
    assert null.degenerate
    assert not null.std.any()


def test_motif_free_match_has_zero_moments():
    # No possession has more than k = 3 touches, so no policy has a window
    # to count: the moments are 0, and so is every z, none of them flagged.
    possessions = [chain_possession(["1", "2"]), chain_possession(["2", "1", "3"], start_t=10.0)]
    counts = count_motifs(possessions, 3)
    for policy in POLICIES:
        null = null_distribution(possessions, 3, NullModelConfig(replicates=25, policy=policy))
        assert not null.mean.any() and not null.std.any()
        assert not null.degenerate
        profile = z_scores(counts, null)[0]
        assert not profile.z.any() and not profile.degenerate.any()


def make_null(mean, std, replicates=100, degenerate=False, k=3):
    """The null moments of one team-match, every pattern alike."""
    n = len(enumerate_patterns(k))
    return NullDistributions(
        k=k,
        mean=np.full((1, n), float(mean)),
        std=np.full((1, n), float(std)),
        replicates=replicates,
        degenerate=degenerate,
        sampled_possessions=np.zeros(1, dtype=np.int64),
    )


def make_counts(value, k=3):
    """The counts of one team-match, every pattern alike."""
    n = len(enumerate_patterns(k))
    return MotifCounts(["m"], ["t"], k, np.full((1, n), value))


def test_z_score_formula():
    profile = z_scores(make_counts(8), make_null(mean=4.0, std=2.0))[0]
    assert profile.z.tolist() == [2.0] * 5
    assert not profile.degenerate.any()


def test_z_score_zero_variance_matching_mean():
    profile = z_scores(make_counts(4), make_null(mean=4.0, std=0.0))[0]
    assert profile.z.tolist() == [0.0] * 5
    assert not profile.degenerate.any()


def test_z_score_zero_variance_capped_and_flagged():
    profile = z_scores(make_counts(5), make_null(mean=4.0, std=0.0))[0]
    assert profile.z.tolist() == [10.0] * 5
    assert profile.degenerate.all()
    below = z_scores(make_counts(3), make_null(mean=4.0, std=0.0))[0]
    assert below.z.tolist() == [-10.0] * 5


def test_z_score_mixes_the_cases_pattern_by_pattern():
    counts = MotifCounts(["m"], ["t"], 3, np.array([[8, 4, 5, 3, 4]]))
    null = NullDistributions(
        k=3,
        mean=np.array([[4.0, 4.0, 4.0, 4.0, 4.5]]),
        std=np.array([[2.0, 0.0, 0.0, 0.0, 0.5]]),
        replicates=100,
        degenerate=False,
        sampled_possessions=np.zeros(1, dtype=np.int64),
    )
    profile = z_scores(counts, null)[0]
    assert profile.z.tolist() == [2.0, 0.0, 10.0, -10.0, -1.0]
    assert profile.degenerate.tolist() == [False, False, True, True, False]


def test_z_score_single_replicate_flags_everything():
    null = make_null(mean=4.0, std=0.0, replicates=1, degenerate=True)
    profile = z_scores(make_counts(4), null)[0]
    assert profile.degenerate.tolist() == [True] * 5
    assert profile.z.tolist() == [0.0] * 5


def test_z_score_k_mismatch_rejected():
    with pytest.raises(ValueError, match="k mismatch"):
        z_scores(make_counts(1, k=2), make_null(1.0, 1.0, k=3))


def test_z_score_row_count_mismatch_rejected():
    two = MotifCounts(["m1", "m2"], ["t", "t"], 3, np.zeros((2, 5), dtype=np.int64))
    with pytest.raises(ValueError, match="2 team-matches of counts against 1 null rows"):
        z_scores(two, make_null(1.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        NullModelConfig(replicates=0)
    with pytest.raises(ValueError):
        NullModelConfig(policy="nope")
