"""Micro-benchmarks of the layers around the null model, one case each.

Run from the root of a checkout, like ``test_null_distribution.py``:

    python -m pytest microbench --benchmark-only

The inputs are one synthetic league of 20 teams of the README's shape
(squad 10, 25 possessions, 3.2 passes per possession) over 4 matchdays:
80 team-matches. Parsing reads them back from CSV; segmentation and
counting take the logs. Fingerprinting averages one z-score profile per
team-match, drawn from a fixed seed since its cost does not depend on the
values, and clustering (k-means and Ward) takes the 20 fingerprints.
"""

import io

import numpy as np

from flowmotif import (
    ZScoreProfile,
    count_motifs,
    enumerate_patterns,
    group_by_match,
    kmeans,
    parse_pass_events,
    segment_possessions,
    serialize_pass_events,
    team_fingerprint,
    ward_cluster,
)
from flowmotif.synth import TeamStyleParams, generate_league

TEAMS = [TeamStyleParams(10, 25, 3.2, 0.0, matches=4, team_id=f"t{i:02d}") for i in range(20)]
LOGS = generate_league(TEAMS, seed=1)
CSV = serialize_pass_events([e for log in LOGS for e in log.events]).encode()
POSSESSIONS = [segment_possessions(log) for log in LOGS]
PATTERNS = len(enumerate_patterns(3))
_rng = np.random.default_rng(2)
PROFILES = {
    team.team_id: [
        ZScoreProfile(
            f"m{m}", team.team_id, 3, _rng.normal(size=PATTERNS), np.zeros(PATTERNS, bool)
        )
        for m in range(team.matches)
    ]
    for team in TEAMS
}
FINGERPRINTS = [team_fingerprint(profiles) for profiles in PROFILES.values()]


def test_parse(benchmark):
    result = benchmark(lambda: group_by_match(parse_pass_events(io.BytesIO(CSV), "csv").events))
    assert len(result) == len(LOGS)


def test_segment(benchmark):
    result = benchmark(lambda: [segment_possessions(log) for log in LOGS])
    assert sum(map(len, result)) == sum(map(len, POSSESSIONS))


def test_count(benchmark):
    result = benchmark(lambda: [count_motifs(p, 3) for p in POSSESSIONS])
    assert len(result) == len(POSSESSIONS)


def test_fingerprint(benchmark):
    result = benchmark(lambda: [team_fingerprint(p) for p in PROFILES.values()])
    assert len(result) == len(TEAMS)


def test_kmeans(benchmark):
    result = benchmark(lambda: kmeans(FINGERPRINTS, 4, seed=7))
    assert len(result.assignments) == len(TEAMS)


def test_ward(benchmark):
    result = benchmark(lambda: ward_cluster(FINGERPRINTS))
    assert result.root.size == len(TEAMS)
