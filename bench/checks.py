"""Output checks computed apart from flowmotif.

Everything here reads the generated input files and the CLI's result
files with its own code: its own CSV reading, segmentation,
first-occurrence canonicalization, closed-form walk probabilities and
exhaustive enumeration of shuffle arrangements. Each check returns a list
of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import re
import statistics
from collections import Counter
from itertools import permutations, product
from pathlib import Path

K = 3
LETTERS = "ABCDEFGHIJ"
Z_CAP = 10.0
FIXTURE_SE_LIMIT = 4.0
WALK_SE_LIMIT = 5.0
CSV_FIELDS = ("match_id", "team_id", "passer", "receiver", "timestamp_s")


def canonical(window) -> str:
    order: list = []
    for who in window:
        if who not in order:
            order.append(who)
    return "".join(LETTERS[order.index(who)] for who in window)


def alphabet(k: int = K) -> list[str]:
    """Patterns by brute force over identifier sequences with no adjacent repeat."""
    seqs = product(range(k + 1), repeat=k + 1)
    return sorted({canonical(s) for s in seqs if all(a != b for a, b in zip(s, s[1:]))})


PATTERNS = alphabet()


def window_counts(possessions, k: int = K) -> Counter:
    out: Counter = Counter()
    for touches in possessions:
        for i in range(len(touches) - k):
            out[canonical(touches[i : i + k + 1])] += 1
    return out


def n_windows(possessions, k: int = K) -> int:
    return sum(max(0, len(t) - k) for t in possessions)


# ---------------------------------------------------------------------------
# Reading inputs
# ---------------------------------------------------------------------------


def record_problem(fields: dict | None) -> str | None:
    """Why a record must be rejected, or None for a valid one."""
    if fields is None or any(fields.get(f) in (None, "") for f in CSV_FIELDS):
        return "missing field"
    try:
        ts = float(fields["timestamp_s"])
    except (TypeError, ValueError):
        return "bad timestamp"
    if not math.isfinite(ts) or ts < 0:
        return "bad timestamp"
    if fields["passer"] == fields["receiver"]:
        return "self-pass"
    return None


def read_records(path: Path):
    """(line number, fields or None) for every record line of a CSV file."""
    lines = path.read_text().splitlines()
    for no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        yield no, dict(zip(CSV_FIELDS, parts)) if len(parts) == 5 else None


def team_match_touches(
    files, t_max: float, corrupted: dict[Path, set[int]] | None = None
) -> tuple[dict[tuple[str, str], list[list[str]]], list[str]]:
    """Touch sequences per (match, team), segmented by chain and time gap.

    Lines listed in ``corrupted`` must be invalid and are skipped; any other
    invalid line is reported as an error of the generator.
    """
    errors: list[str] = []
    passes: dict[tuple[str, str], list] = {}
    for path in files:
        bad = (corrupted or {}).get(path, set())
        for no, fields in read_records(path):
            problem = record_problem(fields)
            if (problem is not None) != (no in bad):
                errors.append(f"{path}:{no}: corrupted={no in bad} but problem={problem}")
            if problem is None and no not in bad:
                key = (str(fields["match_id"]), str(fields["team_id"]))
                passes.setdefault(key, []).append(
                    (float(fields["timestamp_s"]), str(fields["passer"]), str(fields["receiver"]))
                )
    out = {}
    for key, evs in passes.items():
        evs.sort(key=lambda e: e[0])
        possessions: list[list[str]] = []
        prev = None
        for ts, passer, receiver in evs:
            if prev is not None and prev[2] == passer and ts - prev[0] <= t_max:
                possessions[-1].append(receiver)
            else:
                possessions.append([passer, receiver])
            prev = (ts, passer, receiver)
        out[key] = possessions
    return out, errors


# ---------------------------------------------------------------------------
# Null-model references
# ---------------------------------------------------------------------------


def walk_probability(pattern: str, n_players: int) -> float:
    """Probability of a pattern for a no-self-loop uniform walk on n players."""
    p, seen = 1.0, {pattern[0]}
    for ch in pattern[1:]:
        p *= 1.0 / (n_players - 1) if ch in seen else (n_players - len(seen)) / (n_players - 1)
        seen.add(ch)
    return p


def exact_moments(possessions: list[str], policy: str) -> tuple[dict, dict]:
    """Mean and variance of every pattern's count over all valid arrangements.

    ``touch-shuffle-match`` permutes every touch of the team-match at once;
    ``touch-shuffle-possession`` permutes within each possession, so the
    possessions are independent and their moments add.
    """
    groups = [possessions] if policy == "touch-shuffle-match" else [[p] for p in possessions]
    mean = dict.fromkeys(PATTERNS, 0.0)
    var = dict.fromkeys(PATTERNS, 0.0)
    for group in groups:
        lengths = [len(p) for p in group]
        counts = []
        for perm in set(permutations("".join(group))):
            seqs, at = [], 0
            for n in lengths:
                seqs.append(perm[at : at + n])
                at += n
            if all(a != b for s in seqs for a, b in zip(s, s[1:])):
                counts.append(window_counts(seqs))
        for pattern in PATTERNS:
            values = [c[pattern] for c in counts]
            mean[pattern] += statistics.fmean(values)
            var[pattern] += statistics.pvariance(values)
    return mean, var


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def read_zscores(path: Path) -> dict[tuple[str, str], dict[str, dict]]:
    out: dict[tuple[str, str], dict[str, dict]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault((row["match_id"], row["team_id"]), {})[row["pattern"]] = row
    return out


def expected_z(count: int, mean: float, std: float) -> float:
    if std > 0.0:
        return (count - mean) / std
    if count == mean:
        return 0.0
    return Z_CAP if count > mean else -Z_CAP


def check_zscores(path: Path, truth_touches: dict, policy: str, reps: int) -> list[str]:
    """Counts, null means, z and (for the walk) closed-form null means."""
    errors = []
    rows = read_zscores(path)
    if set(rows) != set(truth_touches):
        return [f"{path}: team-matches {sorted(rows)} != expected {sorted(truth_touches)}"]
    for key, by_pattern in rows.items():
        possessions = truth_touches[key]
        if list(by_pattern) != PATTERNS:
            errors.append(f"{path} {key}: patterns {list(by_pattern)}")
            continue
        recount = window_counts(possessions)
        windows = n_windows(possessions)
        n_players = len({who for t in possessions for who in t})
        mean_sum = 0.0
        for pattern, row in by_pattern.items():
            count, mean = int(row["count"]), float(row["null_mean"])
            std, z = float(row["null_std"]), float(row["z"])
            mean_sum += mean
            if count != recount[pattern]:
                errors.append(f"{path} {key} {pattern}: count {count} != {recount[pattern]}")
            if not math.isclose(z, expected_z(count, mean, std), rel_tol=1e-12, abs_tol=1e-12):
                errors.append(f"{path} {key} {pattern}: z {z} != recomputed")
            if policy == "uniform-walk":
                expect = windows * walk_probability(pattern, n_players)
                se = std / math.sqrt(reps)
                if abs(mean - expect) > WALK_SE_LIMIT * se + 1e-9:
                    errors.append(
                        f"{path} {key} {pattern}: walk null mean {mean} vs closed form "
                        f"{expect:.4f} ({(mean - expect) / se:.1f} SE)"
                    )
        if not math.isclose(mean_sum, windows, rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"{path} {key}: sum of null means {mean_sum} != {windows} windows")
    return errors


def fixture_deviation(path: Path, possessions: list[str], policy: str, reps: int) -> float:
    """Largest |null mean - exact mean| over the patterns, in standard errors."""
    ((_, rows),) = read_zscores(path).items()
    mean, var = exact_moments(possessions, policy)
    worst = 0.0
    for pattern in PATTERNS:
        dev = abs(float(rows[pattern]["null_mean"]) - mean[pattern])
        se = math.sqrt(var[pattern] / reps)
        worst = max(worst, dev / se if se > 0 else (math.inf if dev > 1e-12 else 0.0))
    return worst


def check_fingerprint(zscores: Path, fingerprint: Path, distinctive: str) -> list[str]:
    per_team: dict[str, list[list[float]]] = {}
    for (_, team), by_pattern in read_zscores(zscores).items():
        per_team.setdefault(team, []).append([float(by_pattern[p]["z"]) for p in PATTERNS])
    errors = []
    with open(fingerprint, newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {(r["team_id"], r["pattern"]): r for r in rows}
    if len(got) != len(rows) or set(t for t, _ in got) != set(per_team):
        return [f"{fingerprint}: teams {sorted(set(t for t, _ in got))} != {sorted(per_team)}"]
    for team, zs in per_team.items():
        for i, pattern in enumerate(PATTERNS):
            row = got[(team, pattern)]
            expect = statistics.fmean(z[i] for z in zs)
            if not math.isclose(float(row["mean_z"]), expect, rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"{fingerprint} {team} {pattern}: mean_z {row['mean_z']} != {expect}")
            if int(row["matches_used"]) != len(zs):
                errors.append(f"{fingerprint} {team}: matches_used {row['matches_used']}")
    abab = {team: float(got[(team, "ABAB")]["mean_z"]) for team in per_team}
    if max(abab, key=abab.get) != distinctive:
        errors.append(f"{fingerprint}: highest ABAB is {max(abab, key=abab.get)}, not {distinctive}")
    return errors


def check_cluster(out_dir: Path, teams: set[str], n_clusters: int) -> list[str]:
    errors = []
    stats = json.loads((out_dir / "cluster_stats.json").read_text())
    ratio_sum = stats["between_over_total"] + stats["within_over_total"]
    if not math.isclose(ratio_sum, 1.0, rel_tol=1e-12, abs_tol=1e-12):
        errors.append(f"{out_dir}: between/total + within/total = {ratio_sum}")
    if not math.isclose(
        stats["within_over_total"], stats["within_ss"] / stats["total_ss"], rel_tol=1e-9
    ):
        errors.append(f"{out_dir}: within/total {stats['within_over_total']} != within_ss/total_ss")
    with open(out_dir / "clusters.csv", newline="") as fh:
        assigned = {r["team_id"]: int(r["cluster"]) for r in csv.DictReader(fh)}
    if set(assigned) != teams or set(assigned.values()) != set(range(n_clusters)):
        errors.append(f"{out_dir}: clusters.csv assigns {assigned}")
    return errors


def diagnostic_lines(stderr: str) -> dict[str, set[int]]:
    """Rejected line numbers per file from the CLI's ``# path`` / ``line=N`` report."""
    out: dict[str, set[int]] = {}
    current = None
    for line in stderr.splitlines():
        if line.startswith("# "):
            current = out.setdefault(line[2:], set())
        elif (m := re.match(r"line=(\d+) reason=", line)) and current is not None:
            current.add(int(m.group(1)))
        else:
            current = None
            out.setdefault("<unexpected>", set()).add(len(out))
    return out


def motif_rows(path: Path) -> list[tuple]:
    with open(path, newline="") as fh:
        return [tuple(r.values()) for r in csv.DictReader(fh)]


def check_motifs(path: Path, truth_touches: dict) -> list[str]:
    errors = []
    rows = motif_rows(path)
    got: dict[tuple[str, str], dict[str, int]] = {}
    for match_id, team_id, k, pattern, count in rows:
        if int(k) != K:
            errors.append(f"{path}: k={k}")
        got.setdefault((match_id, team_id), {})[pattern] = int(count)
    if set(got) != set(truth_touches):
        return errors + [f"{path}: {len(got)} team-matches, expected {len(truth_touches)}"]
    for key, possessions in truth_touches.items():
        recount = window_counts(possessions)
        if got[key] != {p: recount[p] for p in PATTERNS}:
            errors.append(f"{path} {key}: counts {got[key]} != {dict(recount)}")
    return errors
