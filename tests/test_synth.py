import numpy as np
import pytest

from flowmotif import (
    TeamStyleParams,
    count_motifs,
    generate_league,
    generate_match,
    segment_possessions,
    touch_sequence,
)


def params(**overrides):
    base = dict(
        squad_size=10,
        possessions_per_match=20,
        mean_possession_length=4.0,
        back_pass_bias=0.0,
        matches=38,
        team_id="tA",
    )
    base.update(overrides)
    return TeamStyleParams(**base)


def test_generation_is_deterministic():
    assert generate_match(params(), 0, seed=5) == generate_match(params(), 0, seed=5)
    assert generate_match(params(), 0, seed=5) != generate_match(params(), 0, seed=6)


def test_segmentation_recovers_generated_possessions():
    log = generate_match(params(), 0, seed=3)
    possessions = segment_possessions(log)
    assert len(possessions) == 20
    for pos in possessions:
        gaps = [
            b.timestamp - a.timestamp for a, b in zip(pos.passes, pos.passes[1:])
        ]
        assert all(g == 1.0 for g in gaps)
    boundary_gaps = [
        possessions[i + 1].passes[0].timestamp - possessions[i].passes[-1].timestamp
        for i in range(len(possessions) - 1)
    ]
    assert all(g == 6.0 for g in boundary_gaps)  # t_max + 1


@pytest.mark.parametrize("t_max", [0.0, -5.0, float("nan")])
def test_t_max_must_be_one_segmentation_accepts(t_max):
    with pytest.raises(ValueError, match=f"t_max must be positive, got {t_max!r}"):
        generate_match(params(), 0, seed=3, t_max=t_max)
    with pytest.raises(ValueError, match=f"t_max must be positive, got {t_max!r}"):
        generate_league([params(matches=1)], seed=3, t_max=t_max)


def test_full_back_pass_bias_gives_only_abab():
    log = generate_match(
        params(back_pass_bias=1.0, mean_possession_length=6.0), 0, seed=9
    )
    possessions = segment_possessions(log)
    counts = count_motifs(possessions, 3)[0]
    assert counts.total > 0
    assert counts.counts[0] == counts.total  # ABAB is the first pattern of the alphabet


def test_zero_bias_next_holder_is_uniform_over_others():
    log = generate_match(
        params(possessions_per_match=400, mean_possession_length=6.0), 0, seed=1
    )
    possessions = segment_possessions(log)
    returns = 0
    chances = 0
    receivers = set()
    for pos in possessions:
        seq = touch_sequence(pos)
        receivers.update(seq[1:])
        for i in range(2, len(seq)):
            chances += 1
            returns += seq[i] == seq[i - 2]
    assert receivers == {f"p{i:02d}" for i in range(10)}
    assert chances > 500
    # with no bias the return probability is 1/(squad-1) ~ 0.111
    assert 0.07 < returns / chances < 0.16


def test_abab_rate_monotone_in_bias():
    def mean_abab(bias):
        totals = []
        for seed in range(5):
            log = generate_match(params(back_pass_bias=bias), 0, seed=seed)
            totals.append(count_motifs(segment_possessions(log), 3)[0].counts[0])  # ABAB
        return np.mean(totals)

    rates = [mean_abab(b) for b in (0.0, 0.3, 0.6, 0.9)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_league_cardinality_and_team_ids():
    teams = [params(team_id=f"club{i:02d}") for i in range(20)]
    logs = generate_league(teams, seed=2)
    assert len(logs) == 20 * 38
    assert len({log.match_id for log in logs}) == len(logs)
    assert {log.team_id for log in logs} == {f"club{i:02d}" for i in range(20)}


def test_league_autonames_teams():
    logs = generate_league([params(team_id=""), params(team_id="")], seed=0)
    assert {log.team_id for log in logs} == {"team00", "team01"}


def test_identical_params_and_seed_give_identical_logs():
    a = generate_match(params(), 7, seed=123)
    b = generate_match(params(), 7, seed=123)
    assert a == b


def test_params_validation():
    with pytest.raises(ValueError):
        params(squad_size=3)
    with pytest.raises(ValueError):
        params(back_pass_bias=1.5)
    with pytest.raises(ValueError):
        params(mean_possession_length=0.5)
    with pytest.raises(ValueError):
        params(possessions_per_match=0)
    with pytest.raises(ValueError):
        params(matches=0)
