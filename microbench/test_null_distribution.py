"""Micro-benchmarks of ``null_distribution`` and ``randomize_possessions``, one case per policy.

Run from the root of a checkout (these files sit outside the test paths,
so the test suite does not run them):

    python -m pytest microbench --benchmark-only

Every case takes the same four synthetic team-matches: two of the
README's league shape (squad 10, 25 possessions, 3.2 passes per
possession) and two of a back-passing team (4.0 passes per possession,
back-pass bias 0.5). The ``null_distribution`` cases score them at 1000
replicates, and only the match shuffle draws every replicate. The walk
draws none: its moments are exact. The possession shuffle takes exact
moments for every possession within its counting DP's budget, which here
is all of them, and keeps them per signature for the process.
So after the first round the walk and possession cases time the exact
moments alone, looked up or computed. ``test_possession_moments_cold``
times the counting DP behind the possession shuffle's moments from an
empty cache and an empty table of arrangement counts, over every
signature of the four team-matches. The
``randomize_possessions`` cases draw one replicate of each team-match, one
seed per team-match; under the possession shuffle every possession takes
rejection rounds, however long. ``test_possession_shuffle_large_k`` scores
the four team-matches under the possession shuffle at k = 5..8, where the
DP's budget leaves some possessions to sampling; its first round also
computes the DP. ``test_possession_shuffle_long`` scores four team-matches
of long possessions (squad 11, 25 possessions, 8 passes per possession)
at 250 replicates, where the budget counts the arrangements of the
possessions past ``EXACT_TOUCHES[3]`` and the rows the rejection rounds
leave are drawn from those counts; ``cold`` empties the moments' cache and
the counts table before every round, ``warm`` keeps them.
"""

from collections import Counter

import pytest

from flowmotif import (
    NullModelConfig,
    null_distribution,
    randomize_possessions,
    segment_possessions,
    touch_sequence,
)
from flowmotif import nullmodel
from flowmotif.nullmodel import POLICIES
from flowmotif.synth import TeamStyleParams, generate_league

TEAMS = [
    TeamStyleParams(10, 25, 3.2, 0.0, matches=2, team_id="plain"),
    TeamStyleParams(10, 25, 4.0, 0.5, matches=2, team_id="backpass"),
]
TEAM_MATCHES = [segment_possessions(log) for log in generate_league(TEAMS, seed=1)]
LONG = [TeamStyleParams(11, 25, 8.0, 0.0, matches=4, team_id="long")]
LONG_MATCHES = [segment_possessions(log) for log in generate_league(LONG, seed=1)]
SIGNATURES = sorted(
    {
        tuple(sorted(Counter(touch_sequence(p)).values()))
        for possessions in TEAM_MATCHES
        for p in possessions
        if len(p) >= 3
    }
)


@pytest.mark.parametrize("policy", POLICIES)
def test_null_distribution(benchmark, policy):
    config = NullModelConfig(replicates=1000, policy=policy, master_seed=3)
    nulls = benchmark(lambda: [null_distribution(p, 3, config) for p in TEAM_MATCHES])
    assert len(nulls) == len(TEAM_MATCHES)


@pytest.mark.parametrize("policy", POLICIES)
def test_randomize_possessions(benchmark, policy):
    draws = benchmark(
        lambda: [randomize_possessions(p, policy, seed) for seed, p in enumerate(TEAM_MATCHES)]
    )
    assert [len(d) for d in draws] == [len(p) for p in TEAM_MATCHES]


def test_possession_moments_cold(benchmark):
    def cold():
        nullmodel._signature_moments.cache_clear()
        nullmodel._shuffle_dp.cache_clear()
        nullmodel._COUNTS.clear()
        return [nullmodel._signature_moments(s, 3) for s in SIGNATURES]

    moments = benchmark(cold)
    assert len(moments) == len(SIGNATURES)


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_possession_shuffle_large_k(benchmark, k):
    config = NullModelConfig(replicates=1000, policy="touch_shuffle_possession", master_seed=3)
    nulls = benchmark(lambda: [null_distribution(p, k, config) for p in TEAM_MATCHES])
    assert len(nulls) == len(TEAM_MATCHES)


@pytest.mark.parametrize("table", ["cold", "warm"])
def test_possession_shuffle_long(benchmark, table):
    config = NullModelConfig(replicates=250, policy="touch_shuffle_possession", master_seed=3)

    def score():
        if table == "cold":
            nullmodel._signature_moments.cache_clear()
            nullmodel._COUNTS.clear()
        return [null_distribution(p, 3, config) for p in LONG_MATCHES]

    nulls = benchmark(score)
    assert sum(n.sampled_possessions for n in nulls) > 0
