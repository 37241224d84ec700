"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The league-scale
criterion (7) drives 20 teams x 38 matches x 1000 replicates per master
seed and dominates the runtime; everything else finishes in seconds.
"""

import multiprocessing
import os
import time
from collections import Counter

import numpy as np
import pytest

from flowmotif import (
    MotifCountVector,
    NullDistribution,
    NullModelConfig,
    TeamFingerprint,
    count_motifs,
    derive_seed,
    enumerate_patterns,
    extract_motifs,
    kmeans,
    null_distribution,
    pca_project,
    randomize_possessions,
    segment_possessions,
    touch_sequence,
    ward_cluster,
    z_scores,
)
from flowmotif.cli import main
from flowmotif.synth import TeamStyleParams, generate_match
from helpers import chain_possession, oracle_alphabet

K = 3
PATTERNS = enumerate_patterns(K)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def synth_match(seed=21, possessions=40, squad=10, mean_len=4.0, bias=0.0):
    params = TeamStyleParams(
        squad_size=squad,
        possessions_per_match=possessions,
        mean_possession_length=mean_len,
        back_pass_bias=bias,
        team_id="tA",
    )
    return segment_possessions(generate_match(params, 0, seed=seed))


# -- criterion 7 league fixture ---------------------------------------------

LEAGUE_TEAMS = 20
LEAGUE_MATCHES = 38
LEAGUE_REPLICATES = 1000


def _league_team_params(i: int) -> TeamStyleParams:
    return TeamStyleParams(
        squad_size=10,
        possessions_per_match=25,
        mean_possession_length=3.2,
        back_pass_bias=0.6 if i == 0 else 0.0,
        matches=LEAGUE_MATCHES,
        team_id=f"team{i:02d}",
    )


def _league_match_z(args: tuple[int, int, int]) -> tuple[int, list[float]]:
    master, team_index, match_index = args
    params = _league_team_params(team_index)
    log = generate_match(
        params, match_index, derive_seed(master, params.team_id, match_index)
    )
    possessions = segment_possessions(log)
    counts = count_motifs(possessions, K)[0]
    null = null_distribution(
        possessions, K, NullModelConfig(replicates=LEAGUE_REPLICATES, master_seed=master)
    )
    profile = z_scores(counts, null)
    return team_index, profile.z.tolist()


def test_criterion_1_paper_worked_example():
    possession = chain_possession(["2", "4", "5", "6", "4", "6"])
    extract_motifs(possession, K)  # warm-up outside the timed call
    t0 = time.perf_counter()
    motifs = extract_motifs(possession, K)
    elapsed = time.perf_counter() - t0
    ok = motifs == ["ABCD", "ABCA", "ABCB"] and elapsed < 1e-3
    report(1, ok, f"worked example -> {motifs} in {elapsed * 1e6:.0f} us")


def test_criterion_2_alphabet_facts():
    t0 = time.perf_counter()
    k3 = enumerate_patterns(3)
    ok = k3 == ["ABAB", "ABAC", "ABCA", "ABCB", "ABCD"]
    sizes = {}
    for k in (2, 3, 4):
        patterns = enumerate_patterns(k)
        ok = ok and patterns == oracle_alphabet(k)
        sizes[k] = len(patterns)
    ok = ok and sizes[2] == 2 and sizes[4] == 15
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"alphabet sizes k=2..4 -> {sizes} (oracle-checked, {elapsed:.2f} s)")


def test_criterion_3_window_count_law():
    rng = np.random.default_rng(77)
    players = [str(i) for i in range(8)]
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        walk = [players[rng.integers(8)]]
        for _ in range(n):
            step = int(rng.integers(7))
            nxt = players[step if players[step] != walk[-1] else 7]
            walk.append(nxt)
        possession = chain_possession(walk)
        ok = ok and len(extract_motifs(possession, K)) == max(0, n - 2)
    report(3, ok, "1000 random possessions, n in [1, 30]: windows == max(0, n-2)")


def test_criterion_4_null_model_conservation():
    t0 = time.perf_counter()
    original = synth_match(seed=5, possessions=25, mean_len=3.2)
    lengths = [len(p) for p in original]
    multiset = Counter(w for p in original for w in touch_sequence(p))
    ok = True
    for r in range(1000):
        seed = derive_seed(123, original[0].match_id, r)
        replicate = randomize_possessions(original, "touch_shuffle_match", seed)
        ok = ok and len(replicate) == len(original)
        ok = ok and [len(p) for p in replicate] == lengths
        touches = [w for p in replicate for w in touch_sequence(p)]
        ok = ok and Counter(touches) == multiset
        for pos in replicate:
            seq = touch_sequence(pos)
            ok = ok and all(a != b for a, b in zip(seq, seq[1:]))
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(4, ok, f"1000 replicates conserve shape + touch multiset ({elapsed:.1f} s)")


def test_criterion_5_null_self_consistency():
    t0 = time.perf_counter()
    possessions = synth_match(seed=21, possessions=40, mean_len=4.0)
    match_id = possessions[0].match_id
    reps, trials = 1000, 200
    counts = np.empty((reps, len(PATTERNS)), dtype=np.int64)
    for r in range(reps):
        seed = derive_seed(42, match_id, r)
        replicate = randomize_possessions(possessions, "touch_shuffle_match", seed)
        counts[r] = count_motifs(replicate, K)[0].counts
    total = counts.sum(axis=0)
    total_sq = (counts * counts).sum(axis=0)
    zs = []
    for i in range(trials):
        rest = reps - 1
        s = total - counts[i]
        sq = total_sq - counts[i] * counts[i]
        mean = s / rest
        var = (rest * sq - s * s) / (rest * (rest - 1))
        std = np.sqrt(np.maximum(var, 0.0))
        held_out = MotifCountVector(match_id, "tA", K, counts[i])
        null = NullDistribution(
            k=K, mean=mean, std=std, replicates=rest, degenerate=False
        )
        profile = z_scores(held_out, null)
        zs.extend(profile.z[~profile.degenerate].tolist())
    zs = np.array(zs)
    mean_z, std_z = float(zs.mean()), float(zs.std(ddof=1))
    elapsed = time.perf_counter() - t0
    ok = abs(mean_z) <= 0.15 and abs(std_z - 1.0) <= 0.15 and elapsed < 120.0
    report(
        5,
        ok,
        f"held-out z over {trials} trials: mean {mean_z:+.3f}, std {std_z:.3f} "
        f"({elapsed:.0f} s)",
    )


def _run_pipeline(tmp_path, tag: str, threads: str) -> dict[str, bytes]:
    import json

    os.environ["FLOWMOTIF_THREADS"] = threads
    teams = [
        dict(
            team_id=f"c{i}",
            squad_size=8,
            possessions_per_match=10,
            mean_possession_length=3.0,
            back_pass_bias=0.4 if i == 0 else 0.0,
            matches=4,
        )
        for i in range(6)
    ]
    spec = tmp_path / f"teams_{tag}.json"
    spec.write_text(json.dumps(teams))
    events = tmp_path / f"events_{tag}"
    zcsv = tmp_path / f"z_{tag}.csv"
    fcsv = tmp_path / f"f_{tag}.csv"
    cdir = tmp_path / f"cluster_{tag}"
    assert main(["synth", "--teams", str(spec), "--seed", "9", "--out", str(events)]) == 0
    assert (
        main(
            ["zscores", str(events), "--replicates", "60", "--seed", "4", "--out", str(zcsv)]
        )
        == 0
    )
    assert main(["fingerprint", str(zcsv), "--out", str(fcsv)]) == 0
    assert (
        main(["cluster", str(fcsv), "--clusters", "3", "--seed", "2", "--out", str(cdir)])
        == 0
    )
    outputs = {}
    for path in sorted(events.glob("*.csv")):
        outputs[f"events/{path.name}"] = path.read_bytes()
    outputs["zscores.csv"] = zcsv.read_bytes()
    outputs["fingerprints.csv"] = fcsv.read_bytes()
    for path in sorted(cdir.iterdir()):
        if path.name != "manifest.json":  # manifest embeds wall-clock duration
            outputs[f"cluster/{path.name}"] = path.read_bytes()
    return outputs


def test_criterion_6_pipeline_determinism(tmp_path):
    saved = os.environ.get("FLOWMOTIF_THREADS")
    try:
        first = _run_pipeline(tmp_path, "a", threads="1")
        second = _run_pipeline(tmp_path, "b", threads="2")
    finally:
        if saved is None:
            os.environ.pop("FLOWMOTIF_THREADS", None)
        else:
            os.environ["FLOWMOTIF_THREADS"] = saved
    same_names = set(first) == set(second)
    same_bytes = same_names and all(first[name] == second[name] for name in first)
    report(
        6,
        same_bytes,
        f"synth->zscores->cluster byte-identical across thread settings "
        f"({len(first)} files)",
    )


def test_criterion_7_synthetic_league_reproduces_paper_qualitatively():
    master_seeds = list(range(10))
    jobs_per_league = [
        (0, i, m) for i in range(LEAGUE_TEAMS) for m in range(LEAGUE_MATCHES)
    ]
    passing = 0
    details = []
    workers = min(os.cpu_count() or 1, 8)
    for master in master_seeds:
        t0 = time.perf_counter()
        jobs = [(master, i, m) for _, i, m in jobs_per_league]
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_league_match_z, jobs, chunksize=8)
        sums = np.zeros((LEAGUE_TEAMS, len(PATTERNS)))
        for team_index, z in results:
            sums[team_index] += z
        features = sums / LEAGUE_MATCHES
        fingerprints = [
            TeamFingerprint(f"team{i:02d}", K, tuple(features[i]), LEAGUE_MATCHES)
            for i in range(LEAGUE_TEAMS)
        ]
        gaps = {}
        for pattern in ("ABAB", "ABAC"):
            j = PATTERNS.index(pattern)
            others = features[1:, j]
            gaps[pattern] = (features[0, j] - others.mean()) / others.std(ddof=1)
        clustering = kmeans(fingerprints, 4, seed=master)
        biased_cluster = clustering.assignments["team00"]
        singleton = [
            t for t, c in clustering.assignments.items() if c == biased_cluster
        ] == ["team00"]
        identity_gap = abs(
            clustering.between_over_total
            + clustering.within_ss / clustering.total_ss
            - 1.0
        )
        elapsed = time.perf_counter() - t0
        seed_ok = (
            gaps["ABAB"] >= 2.5
            and gaps["ABAC"] >= 2.5
            and singleton
            and identity_gap <= 1e-9
            and elapsed < 600.0
        )
        passing += seed_ok
        details.append(
            f"seed {master}: ABAB {gaps['ABAB']:.1f} sd, ABAC {gaps['ABAC']:.1f} sd, "
            f"singleton={singleton}, {elapsed:.0f} s"
        )
    ok = passing >= 9
    report(7, ok, f"{passing}/10 seeds pass; " + "; ".join(details[:3]) + "; ...")


def test_criterion_8_clustering_oracles():
    dim = len(PATTERNS)

    def fp(team, *values):
        features = tuple(float(v) for v in values) + (0.0,) * (dim - len(values))
        return TeamFingerprint(team, K, features, 1)

    # k-means vs exhaustive search over all 2-partitions of the 4 points
    values = [0.0, 0.1, 10.0, 10.1]
    result = kmeans([fp(f"t{i}", v) for i, v in enumerate(values)], 2, seed=0)
    best = None
    from itertools import product

    for labels in product((0, 1), repeat=4):
        if len(set(labels)) < 2:
            continue
        within = 0.0
        for c in (0, 1):
            members = [v for v, g in zip(values, labels) if g == c]
            mean = sum(members) / len(members)
            within += sum((v - mean) ** 2 for v in members)
        best = within if best is None else min(best, within)
    kmeans_ok = abs(result.within_ss - best) <= 1e-9

    dendrogram = ward_cluster([fp("a", 0.0, 0.0), fp("b", 3.0, 4.0)])
    ward_ok = abs(dendrogram.merge_heights[0] - 12.5) <= 1e-9  # d=5 -> d^2/2

    projection = pca_project([fp(f"t{i}", 2.0 * i, -i) for i in range(5)], 2)
    pca_ok = abs(projection.explained_variance_ratio[0] - 1.0) <= 1e-9

    ok = kmeans_ok and ward_ok and pca_ok
    report(
        8,
        ok,
        f"kmeans within {result.within_ss:.6f} == exhaustive {best:.6f}; "
        f"ward height {dendrogram.merge_heights[0]:.6f}; "
        f"pca evr1 {projection.explained_variance_ratio[0]:.12f}",
    )


def test_criterion_9_cluster_statistic_identity():
    dim = len(PATTERNS)
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 24))
        rows = rng.normal(scale=rng.uniform(0.1, 5.0), size=(n, dim))
        fingerprints = [
            TeamFingerprint(f"t{i:02d}", K, tuple(rows[i]), 1) for i in range(n)
        ]
        n_clusters = int(rng.integers(1, n + 1))
        result = kmeans(fingerprints, n_clusters, seed=trial)
        gap = abs(
            result.between_over_total + result.within_ss / result.total_ss - 1.0
        )
        worst = max(worst, gap)
    ok = worst <= 1e-9
    report(9, ok, f"between/total + within/total == 1; worst |gap| = {worst:.2e}")
