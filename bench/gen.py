"""Input generator for the benchmark; runs in its own process.

    python3 bench/gen.py <workload> <seed> <work_dir>

Writes the event files a workload scores plus ``truth.json``: the team
table, the season schedule, the distinctive team and, for the corpus, the
line numbers of every record the generator corrupted. The generator shares
no code with flowmotif, so the benchmark's checks stay independent of it.
Same seed, same bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

T_MAX = 5.0  # the CLI's default segmentation threshold
HEADER = "match_id,team_id,passer,receiver,timestamp_s"
DISTINCTIVE = "team07"
CORPUS_SEASONS = 2
CORRUPT_SHARE = 0.005

# Exactness fixtures: tiny team-matches given as touch sequences, one list
# per possession. They do not depend on the seed.
# Each is biased by more than 0.13 per-replicate standard deviations (see
# bench/README.md), so the sampler's bias shows as more than 13 standard
# errors at the fixtures' 10,000 replicates.
FIXTURES = {
    "touch-shuffle-match": {"fx-bacbac": ["BACBAC"], "fx-cacda-baca": ["CACDA", "BACA"]},
    "touch-shuffle-possession": {"fx-acba-abca": ["ACBA", "ABCA"]},
}


def team_table() -> list[dict]:
    """Twenty teams centred on the README's synthetic league.

    That league has squad 10, 25 possessions per match, a mean of 3.2
    passes per possession, back-pass bias 0 and one team with bias 0.6.
    Here squads run 9-11 and possessions 21-29, and the mean possession
    length runs 2.9-3.5. The possessions and lengths form a 5 x 4 design,
    so the ordinary teams average about 80 passes per team-match, as the
    README's teams do. The distinctive team has possessions a quarter
    longer than the league's mean and a back-pass bias of 0.5, not the
    README's 0.6: at 0.6 the per-possession shuffle's repair work varies so
    much from seed to seed (see bench/README.md) that it swamps the
    benchmark's measurement. Fixed, not drawn from the seed, so the work per
    team-match is the same for every seed and only the passes change.
    """
    teams = []
    for i in range(20):
        team = {
            "team_id": f"team{i:02d}",
            "squad_size": (9, 10, 11, 10)[i % 4],
            "possessions": 21 + 2 * (i % 5),
            "mean_length": round(2.9 + 0.2 * (i // 5), 1),
            "back_pass_bias": 0.0,
        }
        if team["team_id"] == DISTINCTIVE:
            team.update(squad_size=10, possessions=25, mean_length=4.0, back_pass_bias=0.5)
        teams.append(team)
    return teams


def double_round_robin(n_teams: int) -> list[list[tuple[int, int]]]:
    """Matchdays of (home, away) team indices by the circle method."""
    idx = list(range(n_teams))
    first_half = []
    for _ in range(n_teams - 1):
        day = [(idx[j], idx[n_teams - 1 - j]) for j in range(n_teams // 2)]
        first_half.append(day)
        idx = [idx[0], idx[-1], *idx[1:-1]]
    return first_half + [[(a, h) for h, a in day] for day in first_half]


def possession_touches(team: dict, rng: np.random.Generator) -> list[list[int]]:
    """One team-match as touch sequences (player indices), one per possession.

    The number of passes is fixed per team; only its split into possessions
    (Dirichlet-multinomial, close to geometric) and the walk are random.
    """
    n_poss = team["possessions"]
    n_passes = round(n_poss * team["mean_length"])
    split = rng.multinomial(n_passes - n_poss, rng.dirichlet(np.ones(n_poss)))
    squad, bias = team["squad_size"], team["back_pass_bias"]
    out = []
    for length in (1 + split).tolist():
        seq = [int(rng.integers(squad))]
        for _ in range(length):
            if len(seq) > 1 and rng.random() < bias:
                nxt = seq[-2]
            else:
                nxt = int(rng.integers(squad - 1))
                nxt += nxt >= seq[-1]
            seq.append(nxt)
        out.append(seq)
    return out


def fixture_records(
    match_id: str, sides: list[tuple[str, list[list[str]]]], rng: np.random.Generator | None
) -> list[tuple[str, str, str, str, float]]:
    """Pass records of one fixture, both teams' possessions interleaved in time.

    Passes inside a possession are at most 1.5 s apart and possessions are
    more than ``T_MAX`` apart, so segmentation recovers them exactly.
    """
    queue = [(team_id, poss) for team_id, possessions in sides for poss in possessions]
    order = rng.permutation(len(queue)).tolist() if rng is not None else range(len(queue))
    records, t = [], 0.0
    for i in order:
        team_id, touches = queue[i]
        for a, b in zip(touches, touches[1:]):
            records.append((match_id, team_id, a, b, t))
            t = round(t + (1.0 if rng is None else float(rng.uniform(0.5, 1.5))), 3)
        t = round(t + T_MAX + 1.0, 3)
    return records


def season_fixtures(teams: list[dict], season: int, rng: np.random.Generator):
    """Yield (matchday, match_id, records) for every fixture of one season."""
    for md, day in enumerate(double_round_robin(len(teams))):
        for home, away in day:
            match_id = f"s{season}-md{md:02d}-{teams[home]['team_id']}-{teams[away]['team_id']}"
            sides = []
            for t in (teams[home], teams[away]):
                names = [f"{t['team_id']}-p{j:02d}" for j in range(t["squad_size"])]
                sides.append(
                    (t["team_id"], [[names[c] for c in seq] for seq in possession_touches(t, rng)])
                )
            yield md, match_id, fixture_records(match_id, sides, rng)


def csv_line(rec) -> str:
    return f"{rec[0]},{rec[1]},{rec[2]},{rec[3]},{rec[4]!r}"


def jsonl_line(rec) -> str:
    return json.dumps(
        dict(zip(HEADER.split(","), rec)), separators=(",", ":")
    )


def corrupt(rec, kind: int, fmt: str) -> str:
    """A malformed rendering of a record; each kind is one rejection reason."""
    if kind == 0:  # self-pass
        return (csv_line if fmt == "csv" else jsonl_line)((*rec[:3], rec[2], rec[4]))
    if kind == 1:  # negative timestamp
        return (csv_line if fmt == "csv" else jsonl_line)((*rec[:4], -1.0 - rec[4]))
    if fmt == "csv":
        return csv_line(rec).rsplit(",", 1)[0] if kind == 2 else csv_line(rec) + "x"
    return jsonl_line(rec)[:-3] if kind == 2 else jsonl_line(rec).replace('"passer"', '"from"')


def write_fixture_file(path: Path, records, bad: dict[int, int] | None = None) -> None:
    """CSV or JSONL by suffix; ``bad`` maps record index to corruption kind."""
    fmt = path.suffix[1:]
    bad = bad or {}
    lines = [HEADER] if fmt == "csv" else []
    for i, rec in enumerate(records):
        if i in bad:
            lines.append(corrupt(rec, bad[i], fmt))
        else:
            lines.append((csv_line if fmt == "csv" else jsonl_line)(rec))
    path.write_text("".join(line + "\n" for line in lines))


def generate(workload: str, seed: int, work: Path) -> dict:
    teams = team_table()
    truth: dict = {"teams": teams, "distinctive": DISTINCTIVE, "t_max": T_MAX}
    # Both season workloads score the same season; the corpus has its own seasons.
    rng = np.random.default_rng([seed, workload == "corpus_motifs"])
    if workload in ("season_match", "season_alt_nulls"):
        days: dict[int, list[str]] = {}
        for md, match_id, records in season_fixtures(teams, 1, rng):
            day_dir = work / "season" / f"md{md:02d}"
            day_dir.mkdir(parents=True, exist_ok=True)
            write_fixture_file(day_dir / f"{match_id}.csv", records)
            days.setdefault(md, []).append(match_id)
        truth["matchdays"] = [days[md] for md in sorted(days)]
        policies = ["touch-shuffle-match"] if workload == "season_match" else [
            "touch-shuffle-possession"
        ]
        truth["fixtures"] = {}
        for policy in policies:
            for name, possessions in FIXTURES[policy].items():
                path = work / "fixtures" / f"{name}.csv"
                path.parent.mkdir(parents=True, exist_ok=True)
                write_fixture_file(path, fixture_records(name, [("fx", possessions)], None))
                truth["fixtures"][name] = {"policy": policy, "possessions": possessions}
    elif workload == "corpus_motifs":
        corrupted: dict[str, list[int]] = {}
        n_fixtures = 0
        for season in range(1, CORPUS_SEASONS + 1):
            for _, match_id, records in season_fixtures(teams, season, rng):
                n_fixtures += 1
                hit = np.flatnonzero(rng.random(len(records)) < CORRUPT_SHARE).tolist()
                bad = {i: int(rng.integers(4)) for i in hit}
                for fmt, first_line in (("csv", 2), ("jsonl", 1)):
                    path = work / "corpus" / fmt / f"{match_id}.{fmt}"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    write_fixture_file(path, records, bad)
                    corrupted[str(path.relative_to(work))] = [first_line + i for i in hit]
        truth["corrupted_lines"] = corrupted
        truth["fixtures_in_corpus"] = n_fixtures
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (work / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True))
    return truth


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit(__doc__)
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
