import math
from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest

from flowmotif import (
    DegenerateInputError,
    MotifCountVector,
    NullDistribution,
    NullModelConfig,
    count_motifs,
    derive_seed,
    null_distribution,
    randomize_possessions,
    segment_possessions,
    touch_sequence,
    z_scores,
)
from flowmotif import nullmodel
from flowmotif.nullmodel import BATCH_ROWS, _arrangements, _draw_rows, _MatchLayout, _moments
from flowmotif.synth import TeamStyleParams, generate_match
from helpers import chain_possession

POLICIES = ("touch_shuffle_match", "touch_shuffle_possession", "uniform_walk")


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


def test_repair_budget_exhaustion_names_the_match():
    # {A:3, B:2} admits exactly one valid arrangement; a budget of one
    # sweep and one resample gives up at seed 0 for the match shuffle.
    pos = chain_possession(["A", "B", "A", "B", "A"])
    with pytest.raises(DegenerateInputError, match="match"):
        randomize_possessions([pos], "touch_shuffle_match", 0, max_repair_attempts=1)
    # the same input succeeds with the default budget
    randomize_possessions([pos], "touch_shuffle_match", 0)
    # the possession shuffle never repairs, so the budget does not bind it
    (rnd,) = randomize_possessions([pos], "touch_shuffle_possession", 0, max_repair_attempts=1)
    assert touch_sequence(rnd) == ("A", "B", "A", "B", "A")


def test_null_distribution_is_bitwise_deterministic():
    possessions = synth_possessions()
    config = NullModelConfig(replicates=50, master_seed=9)
    a = null_distribution(possessions, 3, config)
    b = null_distribution(possessions, 3, config)
    assert a == b


def test_null_distribution_matches_object_path_recomputation():
    # The batched replicate loop must agree exactly with counting every
    # replicate through the object path. All replicates of a team-match are
    # rows drawn from one stream seeded from (master seed, match id, team
    # id) in batches of BATCH_ROWS; 100 replicates span two batches.
    possessions = synth_possessions(possessions=10)
    layout = _MatchLayout(possessions)
    reps = 100
    for policy in POLICIES:
        config = NullModelConfig(replicates=reps, policy=policy, master_seed=17)
        null = null_distribution(possessions, 3, config)
        rng = np.random.default_rng(derive_seed(17, layout.match_id, layout.team_id))
        rows = np.concatenate(
            [
                _draw_rows(layout, policy, rng, n, config.max_repair_attempts)
                for n in (BATCH_ROWS, reps - BATCH_ROWS)
            ]
        )
        samples = [count_motifs(layout.rebuild(row), 3).counts for row in rows]
        for pattern in null.mean:
            values = [s[pattern] for s in samples]
            assert null.mean[pattern] == pytest.approx(np.mean(values), abs=1e-12)
            assert null.std[pattern] == pytest.approx(np.std(values, ddof=1), abs=1e-12)


def test_two_teams_of_a_match_draw_different_streams():
    touches = ["1", "2", "3", "1", "2", "4", "1"]
    config = NullModelConfig(replicates=200, master_seed=3)
    home = null_distribution([chain_possession(touches, team_id="home")], 3, config)
    away = null_distribution([chain_possession(touches, team_id="away")], 3, config)
    assert home.mean != away.mean


def valid_arrangements(touches):
    return sorted(
        "".join(p)
        for p in set(permutations(touches))
        if all(a != b for a, b in zip(p, p[1:]))
    )


@pytest.mark.parametrize("touches", ["AB", "ACBA", "ABCBDAC", "ABABABABAB", "AAABBBCCD", "AAAAB"])
def test_arrangement_counts_match_enumeration(touches):
    counts = tuple(sorted(Counter(touches).values()))
    assert _arrangements(counts, {}) == len(valid_arrangements(touches))


def chi2_limit(df, z=4.75):
    """Wilson-Hilferty upper quantile of chi-squared, here at p of about 1e-6."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize(
    "layout,draws", [("ACBA ABCA", 50_000), ("ABCBDAC DBA", 200_000), ("ABABABABAB", 20_000)]
)
@pytest.mark.parametrize("rounds", [nullmodel.POSSESSION_ROUNDS, 0])
def test_possession_shuffle_is_uniform_over_valid_arrangements(
    layout, draws, rounds, monkeypatch
):
    # With no rejection rounds every possession is drawn from arrangement
    # counts, which cost more per draw; ABABABABAB reaches them in most
    # rows even with the default rounds.
    monkeypatch.setattr(nullmodel, "POSSESSION_ROUNDS", rounds)
    possessions = [chain_possession(list(t)) for t in layout.split()]
    match = _MatchLayout(possessions)
    cells = ["".join(c) for c in product(*map(valid_arrangements, layout.split()))]
    if not rounds:
        draws //= 10
    batch = draws // 10
    rng = np.random.default_rng(11)
    names = np.array(match.players)
    seen = Counter()
    for _ in range(draws // batch):
        rows = _draw_rows(match, "touch_shuffle_possession", rng, batch, 1)
        seen.update(map("".join, names[rows].tolist()))
    assert set(seen) <= set(cells)
    expected = draws / len(cells)
    chi2 = sum((seen[c] - expected) ** 2 / expected for c in cells)
    assert chi2 < chi2_limit(len(cells) - 1), (chi2, len(cells))


def test_possession_shuffle_terminates_on_tight_possessions():
    # Two players alternating over 24 touches admit two arrangements, and A
    # holding 14 of 30 touches leaves a few in a million permutations valid;
    # the rejection rounds pass nearly all of them to the arrangement counts.
    tight = "AB" * 12
    heavy = "".join(a + b for a, b in zip("A" * 14, "BCDEFGHI" * 2)) + "HI"
    assert Counter(heavy)["A"] == 14 and len(heavy) == 30
    possessions = [chain_possession(list(t)) for t in (tight, heavy)]
    layout = _MatchLayout(possessions)
    rows = _draw_rows(layout, "touch_shuffle_possession", np.random.default_rng(5), 256, 1)
    for row in rows:
        for orig, rnd in zip(possessions, layout.rebuild(row)):
            seq = touch_sequence(rnd)
            assert all(a != b for a, b in zip(seq, seq[1:]))
            assert Counter(seq) == Counter(touch_sequence(orig))
    assert len({row.tobytes() for row in rows}) > 200


def walk_probability(pattern, n_players):
    """Probability of a pattern for a walk that never passes to the holder."""
    p, seen = 1.0, {pattern[0]}
    for ch in pattern[1:]:
        p *= 1 / (n_players - 1) if ch in seen else (n_players - len(seen)) / (n_players - 1)
        seen.add(ch)
    return p


def test_uniform_walk_mean_matches_closed_form():
    possessions = synth_possessions()
    reps = 4000
    null = null_distribution(
        possessions, 3, NullModelConfig(replicates=reps, policy="uniform_walk", master_seed=2)
    )
    n_players = len(set(all_touches(possessions)))
    windows = sum(max(0, len(touch_sequence(p)) - 3) for p in possessions)
    for pattern, mean in null.mean.items():
        expected = windows * walk_probability(pattern, n_players)
        assert abs(mean - expected) <= 5 * null.std[pattern] / math.sqrt(reps)


def test_moments_do_not_overflow():
    # 10^9 replicates with counts alternating 0 and 20: the int64 numerator
    # reps*total_sq - total*total wraps and would give a variance of 7.77.
    reps = 10**9
    total = np.array([10 * reps], dtype=np.int64)
    total_sq = np.array([200 * reps], dtype=np.int64)
    mean, std = _moments(total, total_sq, reps)
    assert mean[0] == 10.0
    assert std[0] ** 2 == pytest.approx(100.0, rel=1e-6)


def test_single_replicate_is_degenerate():
    null = null_distribution(synth_possessions(), 3, NullModelConfig(replicates=1))
    assert null.degenerate
    assert all(v == 0.0 for v in null.std.values())


def test_motif_free_match_has_zero_moments():
    null = null_distribution(
        [chain_possession(["1", "2"])], 3, NullModelConfig(replicates=25)
    )
    assert all(v == 0.0 for v in null.mean.values())
    assert all(v == 0.0 for v in null.std.values())
    assert not null.degenerate


def make_null(mean, std, replicates=100, degenerate=False, k=3):
    from flowmotif import enumerate_patterns

    patterns = enumerate_patterns(k)
    return NullDistribution(
        k=k,
        mean={p: mean for p in patterns},
        std={p: std for p in patterns},
        replicates=replicates,
        degenerate=degenerate,
    )


def make_counts(value, k=3):
    from flowmotif import enumerate_patterns

    return MotifCountVector(
        match_id="m", team_id="t", k=k, counts={p: value for p in enumerate_patterns(k)}
    )


def test_z_score_formula():
    profile = z_scores(make_counts(8), make_null(mean=4.0, std=2.0))
    assert all(v == 2.0 for v in profile.z.values())
    assert profile.degenerate == frozenset()


def test_z_score_zero_variance_matching_mean():
    profile = z_scores(make_counts(4), make_null(mean=4.0, std=0.0))
    assert all(v == 0.0 for v in profile.z.values())
    assert profile.degenerate == frozenset()


def test_z_score_zero_variance_capped_and_flagged():
    profile = z_scores(make_counts(5), make_null(mean=4.0, std=0.0))
    assert all(v == 10.0 for v in profile.z.values())
    assert profile.degenerate == frozenset(profile.z)
    below = z_scores(make_counts(3), make_null(mean=4.0, std=0.0))
    assert all(v == -10.0 for v in below.z.values())


def test_z_score_single_replicate_flags_everything():
    null = make_null(mean=4.0, std=0.0, replicates=1, degenerate=True)
    profile = z_scores(make_counts(4), null)
    assert profile.degenerate == frozenset(profile.z)
    assert all(v == 0.0 for v in profile.z.values())


def test_z_score_k_mismatch_rejected():
    with pytest.raises(ValueError, match="k mismatch"):
        z_scores(make_counts(1, k=2), make_null(1.0, 1.0, k=3))


def test_config_validation():
    with pytest.raises(ValueError):
        NullModelConfig(replicates=0)
    with pytest.raises(ValueError):
        NullModelConfig(policy="nope")
