"""Micro-benchmarks of the layers around the null model, one case each.

Run from the root of a checkout, like ``test_null_distribution.py``:

    python -m pytest microbench --benchmark-only

The inputs are one synthetic league of 20 teams of the README's shape
(squad 10, 25 possessions, 3.2 passes per possession) over 4 matchdays:
80 team-matches. The ingest cases take the path of the ``motifs`` and
``zscores`` commands: parsing reads one file per team-match, in CSV or
JSON lines, through one name index shared by all files, joins their code
columns with one ``np.concatenate`` and groups them. The JSON lines come
compact, as ``serialize_pass_events`` writes them, or in ``json.dumps``'
spaced form (``jsonl-spaced``), which only the JSON decoder reads, so that
case times the per-line path. Segmentation takes the
logs that grouping gives, and counting the possessions that segmentation
gives: one log (or its possessions, with its ids) per call, as ``zscores``
calls them, and all 80 in one call (``all-logs``), as ``motifs`` does. The
window-count cases classify and
count the windows of the first team-match at k = 3 and k = 5, for its own
touches (one row, as ``count_motifs`` does) and for a batch of 256 rows of
the match shuffle (as the null model does). Fingerprinting averages one
z-score profile per team-match, drawn from a fixed seed since its cost does
not depend on the values, and clustering (k-means and Ward) takes the 20
fingerprints. The alphabet case times the largest alphabet, k = 8 with 4,140
patterns: listing it, and fingerprinting 20 teams from one k = 8 profile
each. The CLI cases run ``cli.main`` in one process
(``FLOWMOTIF_THREADS=1``) on the league written as one CSV file per
team-match: ``motifs``, ``zscores`` under the match shuffle at 20
replicates, ``zscores-walk`` under the uniform walk, whose moments are exact
and draw no replicate, and ``fingerprint`` and ``cluster`` on what those
wrote. They time the commands' fixed work (listing, reading, hashing, writing
and the manifest) around the layers above; ``zscores-walk`` shows it with no
sampled null to hide it.
"""

import io
import json

import numpy as np
import pytest

from flowmotif import (
    PassTable,
    SegmentationConfig,
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
from flowmotif.cli import main
from flowmotif.motifs import TouchCodes, pattern_index
from flowmotif.nullmodel import _draw_rows
from flowmotif.synth import TeamStyleParams, generate_league

TEAMS = [TeamStyleParams(10, 25, 3.2, 0.0, matches=4, team_id=f"t{i:02d}") for i in range(20)]
LOGS = generate_league(TEAMS, seed=1)
FILES = {
    fmt: [serialize_pass_events(log.events, fmt).encode() for log in LOGS]
    for fmt in ("csv", "jsonl")
}
# The same records in json.dumps' spaced form, which the JSON decoder reads line by line.
FILES["jsonl-spaced"] = [
    b"".join(json.dumps(json.loads(line)).encode() + b"\n" for line in data.splitlines())
    for data in FILES["jsonl"]
]
SEGMENTATION = SegmentationConfig()


def ingest(case):
    fmt = case.split("-")[0]
    index: dict[str, int] = {}
    tables = [parse_pass_events(io.BytesIO(data), fmt, index).events for data in FILES[case]]
    codes = np.concatenate([table.codes for table in tables], axis=1)
    timestamps = np.concatenate([table.timestamp for table in tables])
    return group_by_match(PassTable(tuple(index), codes, timestamps))


GROUPED = ingest("csv")
POSSESSIONS = [segment_possessions(log, SEGMENTATION) for log in GROUPED]
ALL_POSSESSIONS = segment_possessions(GROUPED, SEGMENTATION)
WINDOW_CODES = TouchCodes(POSSESSIONS[0])
WINDOW_ROWS = {
    1: WINDOW_CODES.touches[None, :],
    256: _draw_rows(WINDOW_CODES, "touch_shuffle_match", np.random.default_rng(3), 256),
}
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
PATTERNS_K8 = len(enumerate_patterns(8))
PROFILES_K8 = [
    [ZScoreProfile("m0", t.team_id, 8, _rng.normal(size=PATTERNS_K8), np.zeros(PATTERNS_K8, bool))]
    for t in TEAMS
]
ALPHABET_CASES = {
    "enumerate_patterns": lambda: enumerate_patterns(8),
    "team_fingerprint": lambda: [team_fingerprint(p) for p in PROFILES_K8],
}


@pytest.mark.parametrize("case", sorted(FILES))
def test_parse(benchmark, case):
    result = benchmark(ingest, case)
    assert len(result) == len(LOGS)


SEGMENT_CASES = {
    "per-log": lambda: [segment_possessions(log, SEGMENTATION) for log in GROUPED],
    "all-logs": lambda: [segment_possessions(GROUPED, SEGMENTATION)],
}
COUNT_CASES = {
    "per-log": lambda: [
        count_motifs(possessions, 3, match_id=log.match_id, team_id=log.team_id)
        for log, possessions in zip(GROUPED, POSSESSIONS)
    ],
    "all-logs": lambda: [count_motifs(ALL_POSSESSIONS, 3)],
}


@pytest.mark.parametrize("case", SEGMENT_CASES)
def test_segment(benchmark, case):
    result = benchmark(SEGMENT_CASES[case])
    assert sum(map(len, result)) == sum(map(len, POSSESSIONS))


@pytest.mark.parametrize("case", COUNT_CASES)
def test_count(benchmark, case):
    result = benchmark(COUNT_CASES[case])
    assert sum(map(len, result)) == len(POSSESSIONS)


@pytest.mark.parametrize("rows", WINDOW_ROWS)
@pytest.mark.parametrize("k", [3, 5])
def test_window_counts(benchmark, k, rows):
    starts = WINDOW_CODES.window_starts(k)
    result = benchmark(pattern_index(k).window_counts, WINDOW_ROWS[rows], starts)
    assert result.sum() == rows * starts.size


def test_fingerprint(benchmark):
    result = benchmark(lambda: [team_fingerprint(p) for p in PROFILES.values()])
    assert len(result) == len(TEAMS)


def test_kmeans(benchmark):
    result = benchmark(lambda: kmeans(FINGERPRINTS, 4, seed=7))
    assert len(result.assignments) == len(TEAMS)


def test_ward(benchmark):
    result = benchmark(lambda: ward_cluster(FINGERPRINTS))
    assert result.root.size == len(TEAMS)


@pytest.mark.parametrize("case", ALPHABET_CASES)
def test_alphabet_k8(benchmark, case):
    result = benchmark(ALPHABET_CASES[case])
    assert len(result) in (PATTERNS_K8, len(TEAMS))


@pytest.fixture(scope="module")
def cli_argv(tmp_path_factory):
    """Each CLI case's argv, over the league's files, with the inputs it reads written."""
    root = tmp_path_factory.mktemp("cli")
    events = root / "events"
    events.mkdir()
    for log, data in zip(LOGS, FILES["csv"]):
        events.joinpath(f"{log.match_id}.csv").write_bytes(data)
    argv = {
        "motifs": ["motifs", str(events), "--out", str(root / "m.csv")],
        "zscores": ["zscores", str(events), "--replicates", "20", "--out", str(root / "z.csv")],
        "zscores-walk": [
            "zscores", str(events), "--null-model", "uniform-walk", "--out", str(root / "w.csv")
        ],
        "fingerprint": ["fingerprint", str(root / "z.csv"), "--out", str(root / "f.csv")],
        "cluster": ["cluster", str(root / "f.csv"), "--out", str(root / "c")],
    }
    with pytest.MonkeyPatch.context() as env:
        env.setenv("FLOWMOTIF_THREADS", "1")
        assert main(argv["zscores"]) == 0 and main(argv["fingerprint"]) == 0
    return argv


@pytest.mark.parametrize("command", ["motifs", "zscores", "zscores-walk", "fingerprint", "cluster"])
def test_cli_command(benchmark, monkeypatch, cli_argv, command):
    monkeypatch.setenv("FLOWMOTIF_THREADS", "1")
    assert benchmark(main, cli_argv[command]) == 0
