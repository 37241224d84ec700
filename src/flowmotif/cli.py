"""Command-line pipeline: synth -> motifs/zscores -> fingerprint -> cluster/pca.

Every command writes machine-readable CSV/JSON plus a manifest that echoes
the configuration, input digests, and version needed to reproduce the run.
Exit codes: 0 success, 1 internal error, 2 input or domain error.
Parallelism is capped by the FLOWMOTIF_THREADS environment variable and
never affects results (per-match seeds are derived, not shared).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import multiprocessing
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .analytics import (
    TeamFingerprint,
    kmeans,
    pca_project,
    team_fingerprint,
    ward_cluster,
)
from .events import (
    FormatError,
    MatchEventLog,
    ParseDiagnostic,
    group_by_match,
    parse_pass_events,
    serialize_pass_events,
)
from .motifs import DEFAULT_K, MotifCountVector, count_motifs, enumerate_patterns
from .nullmodel import (
    DEFAULT_MAX_REPAIR_ATTEMPTS,
    DEFAULT_REPLICATES,
    DegenerateInputError,
    NullDistribution,
    NullModelConfig,
    ZScoreProfile,
    null_distribution,
    z_scores,
)
from .possessions import DEFAULT_T_MAX, SegmentationConfig, segment_possessions
from .svg import dendrogram_svg, scatter_svg
from .synth import TeamStyleParams, generate_league

_EXTENSIONS = {"csv": ".csv", "jsonl": ".jsonl"}

_POLICY_FLAGS = {
    "touch-shuffle-match": "touch_shuffle_match",
    "touch-shuffle-possession": "touch_shuffle_possession",
    "uniform-walk": "uniform_walk",
}


@dataclass(frozen=True, slots=True)
class RunManifest:
    """Everything needed to reproduce a run bit-exactly (plus its duration)."""

    command: str
    version: str
    config: dict
    input_digests: dict[str, str]
    duration_s: float


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    path: Path, command: str, config: dict, inputs: list[Path], started: float
) -> None:
    manifest = RunManifest(
        command=command,
        version=__version__,
        config=config,
        input_digests={str(p): _sha256(p) for p in sorted(inputs)},
        duration_s=time.perf_counter() - started,
    )
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fnum(v: float) -> str:
    return repr(float(v))


def _collect_input_files(paths: list[str], fmt: str) -> list[Path]:
    ext = _EXTENSIONS[fmt]
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.glob(f"*{ext}")))
        elif p.exists():
            files.append(p)
        else:
            raise FileNotFoundError(f"input not found: {p}")
    return files


def _report_diagnostics(path: Path, diagnostics: tuple[ParseDiagnostic, ...]) -> None:
    print(f"# {path}", file=sys.stderr)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)


def _load_match_logs(paths: list[str], fmt: str) -> tuple[list[MatchEventLog], bool]:
    """Parse all input files into match logs; True flag means any were corrupt."""
    files = _collect_input_files(paths, fmt)
    events = []
    had_errors = False
    for path in files:
        try:
            with open(path, "rb") as fh:
                result = parse_pass_events(fh, fmt)
        except FormatError as exc:
            print(f"# {path}", file=sys.stderr)
            print(f"error: {exc}", file=sys.stderr)
            had_errors = True
            continue
        if result.diagnostics:
            _report_diagnostics(path, result.diagnostics)
            had_errors = True
        events.extend(result.events)
    return group_by_match(events), had_errors


def _thread_count() -> int:
    raw = os.environ.get("FLOWMOTIF_THREADS", "")
    if raw.strip():
        return max(1, int(raw))
    return os.cpu_count() or 1


def _parallel_map(func, payloads: list) -> list:
    threads = min(_thread_count(), len(payloads))
    if threads <= 1 or len(payloads) <= 1:
        return [func(p) for p in payloads]
    with multiprocessing.Pool(threads) as pool:
        return pool.map(func, payloads, chunksize=1)


# ---------------------------------------------------------------------------
# motifs / zscores
# ---------------------------------------------------------------------------


def _count_for_log(payload: tuple[MatchEventLog, int, float]) -> MotifCountVector:
    log, k, t_max = payload
    possessions = segment_possessions(log, SegmentationConfig(t_max))
    return count_motifs(possessions, k, match_id=log.match_id, team_id=log.team_id)


def cmd_motifs(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    logs, had_errors = _load_match_logs(args.inputs, args.format)
    vectors = _parallel_map(_count_for_log, [(log, args.k, args.tmax) for log in logs])
    rows = []
    for vec in vectors:
        for pattern, count in vec.counts.items():
            rows.append([vec.match_id, vec.team_id, str(vec.k), pattern, str(count)])
    out = Path(args.out)
    out.write_text(_csv_text(["match_id", "team_id", "k", "pattern", "count"], rows))
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "motifs",
        {"k": args.k, "t_max": args.tmax, "format": args.format},
        _collect_input_files(args.inputs, args.format),
        started,
    )
    return 2 if had_errors else 0


def _zscore_for_log(
    payload: tuple[MatchEventLog, int, float, NullModelConfig]
) -> tuple[MotifCountVector, NullDistribution, ZScoreProfile]:
    log, k, t_max, config = payload
    possessions = segment_possessions(log, SegmentationConfig(t_max))
    counts = count_motifs(possessions, k, match_id=log.match_id, team_id=log.team_id)
    null = null_distribution(possessions, k, config)
    return counts, null, z_scores(counts, null)


def cmd_zscores(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    logs, had_errors = _load_match_logs(args.inputs, args.format)
    config = NullModelConfig(
        replicates=args.replicates,
        policy=_POLICY_FLAGS[args.null_model],
        master_seed=args.seed,
        max_repair_attempts=args.max_repair_attempts,
    )
    results = _parallel_map(
        _zscore_for_log, [(log, args.k, args.tmax, config) for log in logs]
    )
    rows = []
    for counts, null, profile in results:
        for pattern in enumerate_patterns(counts.k):
            rows.append(
                [
                    counts.match_id,
                    counts.team_id,
                    str(counts.k),
                    pattern,
                    str(counts.counts[pattern]),
                    _fnum(null.mean[pattern]),
                    _fnum(null.std[pattern]),
                    _fnum(profile.z[pattern]),
                    "true" if pattern in profile.degenerate else "false",
                ]
            )
    out = Path(args.out)
    out.write_text(
        _csv_text(
            [
                "match_id",
                "team_id",
                "k",
                "pattern",
                "count",
                "null_mean",
                "null_std",
                "z",
                "degenerate",
            ],
            rows,
        )
    )
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "zscores",
        {
            "k": args.k,
            "t_max": args.tmax,
            "replicates": args.replicates,
            "seed": args.seed,
            "null_model": args.null_model,
            "max_repair_attempts": args.max_repair_attempts,
            "format": args.format,
        },
        _collect_input_files(args.inputs, args.format),
        started,
    )
    return 2 if had_errors else 0


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


def _dict_reader(path: Path, fh, required: tuple[str, ...]) -> csv.DictReader:
    reader = csv.DictReader(fh)
    missing = [c for c in required if c not in (reader.fieldnames or [])]
    if missing:
        raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
    return reader


def _read_zscore_profiles(path: Path) -> list[ZScoreProfile]:
    profiles: dict[tuple[str, str], dict] = {}
    with open(path, newline="") as fh:
        reader = _dict_reader(path, fh, ("match_id", "team_id", "k", "pattern", "z", "degenerate"))
        for row in reader:
            key = (row["match_id"], row["team_id"])
            entry = profiles.setdefault(
                key, {"k": int(row["k"]), "z": {}, "degenerate": set()}
            )
            entry["z"][row["pattern"]] = float(row["z"])
            if row["degenerate"] == "true":
                entry["degenerate"].add(row["pattern"])
    out = []
    for (match_id, team_id), entry in profiles.items():
        missing = [p for p in enumerate_patterns(entry["k"]) if p not in entry["z"]]
        if missing:
            raise ValueError(
                f"{path}: match {match_id!r} team {team_id!r} missing pattern(s) {missing}"
            )
        out.append(
            ZScoreProfile(
                match_id=match_id,
                team_id=team_id,
                k=entry["k"],
                z=entry["z"],
                degenerate=frozenset(entry["degenerate"]),
            )
        )
    return out


def cmd_fingerprint(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    src = Path(args.zscores)
    profiles = _read_zscore_profiles(src)
    by_team: dict[str, list[ZScoreProfile]] = {}
    for prof in profiles:
        by_team.setdefault(prof.team_id, []).append(prof)
    rows = []
    for team in sorted(by_team):
        fp = team_fingerprint(by_team[team])
        for pattern, value in zip(enumerate_patterns(fp.k), fp.features):
            rows.append([team, str(fp.k), pattern, _fnum(value), str(fp.matches_used)])
    out = Path(args.out)
    out.write_text(
        _csv_text(["team_id", "k", "pattern", "mean_z", "matches_used"], rows)
    )
    _write_manifest(
        out.with_name(out.name + ".manifest.json"), "fingerprint", {}, [src], started
    )
    return 0


def _read_fingerprints(path: Path) -> list[TeamFingerprint]:
    raw: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = _dict_reader(path, fh, ("team_id", "k", "pattern", "mean_z", "matches_used"))
        for row in reader:
            entry = raw.setdefault(
                row["team_id"],
                {"k": int(row["k"]), "features": {}, "matches_used": int(row["matches_used"])},
            )
            entry["features"][row["pattern"]] = float(row["mean_z"])
    fingerprints = []
    for team, entry in raw.items():
        patterns = enumerate_patterns(entry["k"])
        missing = [p for p in patterns if p not in entry["features"]]
        if missing:
            raise ValueError(f"fingerprint for {team!r} missing pattern(s) {missing}")
        fingerprints.append(
            TeamFingerprint(
                team_id=team,
                k=entry["k"],
                features=tuple(entry["features"][p] for p in patterns),
                matches_used=entry["matches_used"],
            )
        )
    return fingerprints


# ---------------------------------------------------------------------------
# cluster / pca
# ---------------------------------------------------------------------------


def _pca_rows(coordinates: dict[str, tuple[float, ...]]) -> list[list[str]]:
    return [
        [team, *(_fnum(v) for v in coordinates[team])] for team in sorted(coordinates)
    ]


def cmd_cluster(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    src = Path(args.fingerprints)
    fingerprints = _read_fingerprints(src)
    clustering = kmeans(fingerprints, args.clusters, seed=args.seed)
    dendrogram = ward_cluster(fingerprints)
    projection = pca_project(fingerprints, args.pca_dims, standardize=args.pca_standardize)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_dir.joinpath("clusters.csv").write_text(
        _csv_text(
            ["team_id", "cluster"],
            [[t, str(c)] for t, c in sorted(clustering.assignments.items())],
        )
    )
    stats = {
        "n_clusters": args.clusters,
        "within_ss": clustering.within_ss,
        "total_ss": clustering.total_ss,
        "within_over_total": 1.0 - clustering.between_over_total,
        "between_over_total": clustering.between_over_total,
        "centroids": [list(c) for c in clustering.centroids],
    }
    out_dir.joinpath("cluster_stats.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )
    out_dir.joinpath("dendrogram.json").write_text(
        json.dumps(dendrogram.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    out_dir.joinpath("pca.csv").write_text(
        _csv_text(
            ["team_id"] + [f"pc{i + 1}" for i in range(args.pca_dims)],
            _pca_rows(projection.coordinates),
        )
    )
    points = [
        (
            projection.coordinates[team][0],
            projection.coordinates[team][1] if args.pca_dims >= 2 else 0.0,
            team,
            clustering.assignments[team],
        )
        for team in sorted(projection.coordinates)
    ]
    out_dir.joinpath("pca_scatter.svg").write_text(
        scatter_svg(points, title="teams by motif fingerprint (PCA)")
    )
    out_dir.joinpath("dendrogram.svg").write_text(dendrogram_svg(dendrogram))
    _write_manifest(
        out_dir / "manifest.json",
        "cluster",
        {
            "clusters": args.clusters,
            "seed": args.seed,
            "pca_dims": args.pca_dims,
            "pca_standardize": args.pca_standardize,
        },
        [src],
        started,
    )
    return 0


def cmd_pca(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    src = Path(args.fingerprints)
    fingerprints = _read_fingerprints(src)
    projection = pca_project(fingerprints, args.pca_dims, standardize=args.pca_standardize)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_dir.joinpath("pca.csv").write_text(
        _csv_text(
            ["team_id"] + [f"pc{i + 1}" for i in range(args.pca_dims)],
            _pca_rows(projection.coordinates),
        )
    )
    out_dir.joinpath("pca_explained.json").write_text(
        json.dumps(
            {"explained_variance_ratio": list(projection.explained_variance_ratio)},
            indent=2,
        )
        + "\n"
    )
    points = [
        (
            projection.coordinates[team][0],
            projection.coordinates[team][1] if args.pca_dims >= 2 else 0.0,
            team,
            0,
        )
        for team in sorted(projection.coordinates)
    ]
    out_dir.joinpath("pca_scatter.svg").write_text(
        scatter_svg(points, title="teams by motif fingerprint (PCA)")
    )
    _write_manifest(
        out_dir / "manifest.json",
        "pca",
        {"pca_dims": args.pca_dims, "pca_standardize": args.pca_standardize},
        [src],
        started,
    )
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    spec_path = Path(args.teams)
    raw = json.loads(spec_path.read_text())
    if not isinstance(raw, list):
        raise ValueError("team spec file must be a JSON array of team parameter objects")
    teams = [TeamStyleParams(**entry) for entry in raw]
    logs = generate_league(teams, args.seed, t_max=args.tmax)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = _EXTENSIONS[args.format]
    for log in logs:
        out_dir.joinpath(log.match_id + ext).write_text(
            serialize_pass_events(log.events, args.format)
        )
    _write_manifest(
        out_dir / "manifest.json",
        "synth",
        {"seed": args.seed, "t_max": args.tmax, "format": args.format},
        [spec_path],
        started,
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmotif",
        description="Flow-motif analysis of pass networks: motif counts, "
        "null-model z-scores, and team style clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=sorted(_EXTENSIONS), default="csv", help="event file format"
    )

    seg = argparse.ArgumentParser(add_help=False)
    seg.add_argument("--k", type=int, default=DEFAULT_K, help="passes per motif")
    seg.add_argument(
        "--tmax",
        type=float,
        default=DEFAULT_T_MAX,
        help="max seconds between consecutive passes of one possession",
    )

    p = sub.add_parser("motifs", parents=[fmt, seg], help="count motifs per match")
    p.add_argument("inputs", nargs="+", help="event files or directories")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_motifs)

    p = sub.add_parser(
        "zscores", parents=[fmt, seg], help="motif z-scores against the null model"
    )
    p.add_argument("inputs", nargs="+", help="event files or directories")
    p.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--null-model",
        choices=sorted(_POLICY_FLAGS),
        default="touch-shuffle-match",
    )
    p.add_argument(
        "--max-repair-attempts",
        type=int,
        default=DEFAULT_MAX_REPAIR_ATTEMPTS,
        help="repair sweeps and resamples per replicate of touch-shuffle-match; "
        "the other null models never repair",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_zscores)

    p = sub.add_parser(
        "fingerprint", help="average per-match z-scores into team fingerprints"
    )
    p.add_argument("zscores", help="z-score CSV from the zscores command")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("cluster", help="k-means, Ward dendrogram, and PCA plots")
    p.add_argument("fingerprints", help="fingerprint CSV")
    p.add_argument("--clusters", type=int, default=4, help="number of k-means clusters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pca-dims", type=int, default=2)
    p.add_argument("--pca-standardize", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("pca", help="PCA projection of team fingerprints")
    p.add_argument("fingerprints", help="fingerprint CSV")
    p.add_argument("--pca-dims", type=int, default=2)
    p.add_argument("--pca-standardize", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("synth", parents=[fmt], help="generate a synthetic league")
    p.add_argument("--teams", required=True, help="JSON array of team style parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tmax",
        type=float,
        default=DEFAULT_T_MAX,
        help="segmentation threshold the generated timestamps must respect",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        FormatError,
        DegenerateInputError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
