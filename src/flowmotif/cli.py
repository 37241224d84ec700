"""Command-line pipeline: synth -> motifs/zscores -> fingerprint -> cluster/pca.

Every command writes machine-readable CSV/JSON, and ``main`` writes its
manifest: the version, the sha256 of every input read, the run's duration and
counts, and as ``config`` every parsed value but the input and output paths.
The manifest is ``manifest.json`` inside ``--out`` when that is a directory
after the command ran, and ``<out>.manifest.json`` next to it otherwise.
Exit codes: 0 success, 1 internal error, 2 input or domain error.
``zscores`` scores team-matches in worker processes, capped by the
FLOWMOTIF_THREADS environment variable, which never affects results
(per-match seeds are derived, not shared); ``motifs`` segments and counts
all team-matches in one call each.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from collections.abc import Iterable, Sequence
from functools import cache, partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    PcaProjection,
    TeamFingerprint,
    kmeans,
    pca_project,
    team_fingerprint,
    ward_cluster,
)
from .events import (
    FORMATS,
    REJECTED_KINDS,
    FormatError,
    MatchEventLog,
    PassRuns,
    PassTable,
    group_by_match,
    parse_pass_events,
    serialize_pass_events,
)
from .motifs import DEFAULT_K, MAX_K, MotifCountVector, count_motifs, pattern_index
from .nullmodel import (
    DEFAULT_REPLICATES,
    POLICIES,
    NullDistribution,
    NullModelConfig,
    ZScoreProfile,
    null_distribution,
    z_scores,
)
from .possessions import DEFAULT_T_MAX, SegmentationConfig, segment_possessions
from .svg import dendrogram_svg, scatter_svg
from .synth import TeamStyleParams, generate_league

# Parsed values that are no setting of the run: the dispatch fields, and the
# input and output paths, which the digests and the manifest's place record.
_NOT_CONFIG = frozenset({"command", "func", "inputs", "zscores", "fingerprints", "teams", "out"})


def _read_input(path: str | Path, digests: dict[str, str]) -> bytes:
    """A file's bytes; its sha256 goes into ``digests`` for the manifest."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    digests[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def _write_manifest(
    args: argparse.Namespace, digests: dict[str, str], counts: dict[str, int], started: float
) -> None:
    """Write everything needed to reproduce the run bit-exactly, plus its duration and counts.

    ``counts`` holds what the command counted along the way; like the
    duration it is no part of any result. The text is that of
    ``json.dumps(manifest, indent=2, sort_keys=True)``, which encodes in
    Python: each value, a scalar or a dict of scalars, comes from the C
    encoder, which separates a dict's items as ``indent`` does one level down.
    """
    out = Path(args.out)
    path = out / "manifest.json" if out.is_dir() else out.with_name(out.name + ".manifest.json")
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG},
        "input_digests": digests,
        "duration_s": time.perf_counter() - started,
        "counts": counts,
    }
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode
    items = []
    for key, value in sorted(manifest.items()):
        text = encode(value)
        if isinstance(value, dict) and value:
            text = "{\n    " + text[1:-1] + "\n  }"
        items.append(f'  "{key}": {text}')
    path.write_bytes(("{\n" + ",\n".join(items) + "\n}\n").encode())


def _csv_text(header: list[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class _Lines(list):
    """A list that a csv writer writes into: one string per row."""

    write = list.append


def _write_pattern_csv(
    path: Path, keys: tuple[str, ...], values: tuple[str, ...], heads: list[tuple], columns: list
) -> None:
    """Write the long per-pattern CSV: one row per key and pattern, in alphabet order.

    Its columns are ``keys``, ``k``, ``pattern`` and ``values``. ``heads``
    holds each key's cells followed by its k. Each of ``columns`` holds a
    value column's cells, key after key, and each key's in the order of
    ``pattern_index(k).patterns``. Each key's cells go through the csv
    module once, and the pattern and value cells, which never need quoting,
    are joined onto them: a number as ``str``, ``repr`` for a float, as the
    csv module writes it.
    """
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerows([[*keys, "k", "pattern", *values], *heads])
    alphabets = [pattern_index(head[-1]).patterns for head in heads]
    rows = zip(
        chain.from_iterable(map(repeat, [line[:-1] for line in lines[1:]], map(len, alphabets))),
        chain.from_iterable(alphabets),
        *[map(str, column) for column in columns],
    )
    path.write_bytes(("\n".join([lines[0][:-1], *map(",".join, rows)]) + "\n").encode())


def _flat(arrays: list) -> list:
    """Per-key arrays as one list of Python values, key after key."""
    return np.concatenate(arrays).tolist() if arrays else []


def _read_pattern_csv(
    path: Path, digests: dict[str, str], keys: tuple[str, ...], values: dict
) -> list[tuple[tuple[str, ...], int, list[list]]]:
    """Read a long per-pattern CSV: (key, k, columns) per key, in order of appearance.

    ``values`` maps each value column to the function that parses its cells.
    Each column comes back as a list aligned with ``pattern_index(k).patterns``.
    A missing column is an error, and so are a row with fewer or more
    fields than the header, a cell that does not parse, a k outside
    ``pattern_index``' range, rows of one key that disagree on k, and a
    pattern that a key misses, repeats, or has outside its alphabet.
    """
    text = _read_input(path, digests).decode("utf-8")
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    at = {name: i for i, name in enumerate(header)}
    missing = [c for c in (*keys, "k", "pattern", *values) if c not in at]
    if missing:
        raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
    key_at, k_at, pattern_at = [at[c] for c in keys], at["k"], at["pattern"]
    parsers = [(at[name], parse) for name, parse in values.items()]
    tables: dict[tuple[str, ...], tuple] = {}  # key: k, its pattern index, columns
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            fields = "few" if len(row) < len(header) else "many"
            raise ValueError(f"{path}: line {reader.line_num} has too {fields} fields")
        try:
            k, cells = int(row[k_at]), [parse(row[j]) for j, parse in parsers]
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        key, pattern = tuple([row[i] for i in key_at]), row[pattern_at]
        if key not in tables:
            try:
                index = pattern_index(k)
            except ValueError as exc:
                raise ValueError(f"{path}: {_key_text(keys, key)}: {exc}") from None
            tables[key] = k, index, [[None] * len(index.patterns) for _ in values]
        first_k, index, columns = tables[key]
        if k != first_k:
            raise ValueError(f"{path}: {_key_text(keys, key)}: k {k} after k {first_k}")
        i = index.position.get(pattern)
        if i is None:
            raise ValueError(f"{path}: {_key_text(keys, key)}: unknown pattern {pattern!r}")
        if columns[0][i] is not None:
            raise ValueError(f"{path}: {_key_text(keys, key)}: repeated pattern {pattern!r}")
        for column, cell in zip(columns, cells):
            column[i] = cell
    for key, (_, index, columns) in tables.items():
        missing = [p for p, cell in zip(index.patterns, columns[0]) if cell is None]
        if missing:
            raise ValueError(f"{path}: {_key_text(keys, key)}: missing pattern(s) {missing}")
    return [(key, k, columns) for key, (k, _, columns) in tables.items()]


def _key_text(keys: tuple[str, ...], key: tuple[str, ...]) -> str:
    """A key's cells with their column names, for error messages."""
    return ", ".join(f"{name} {cell!r}" for name, cell in zip(keys, key))


def _collect_input_files(paths: list[str], fmt: str) -> list[str]:
    """Each path given, a directory as its regular ``*.<fmt>`` files in name order.

    Paths are spelled as ``str(Path(...))`` spells them. A file reached twice,
    directly or through its directory, is kept once, at its first place.
    """
    ext = "." + fmt
    files: dict[str, str] = {}  # resolved path: the path first given for it
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            with os.scandir(p) as entries:
                found = [e for e in entries if e.name.endswith(ext) and e.is_file()]
            prefix = "" if str(p) == "." else os.path.join(p, "")  # str(Path(".") / n) is n
            real = os.path.join(os.path.realpath(p), "")
            for e in sorted(found, key=lambda e: e.name):
                path = prefix + e.name
                files.setdefault(os.path.realpath(path) if e.is_symlink() else real + e.name, path)
        elif p.exists():
            files.setdefault(os.path.realpath(p), str(p))
        else:
            raise FileNotFoundError(f"input not found: {p}")
    return list(files.values())


def _load_match_logs(
    paths: list[str], fmt: str, digests: dict[str, str], counts: dict
) -> tuple[PassRuns, bool]:
    """Parse all input files into match logs; True flag means any were corrupt.

    Every file is read once, and hashed into ``digests`` as it is read,
    including the files whose framing is broken. Files are parsed one at a
    time, and only their pass columns are kept, until they are joined.
    ``counts`` gains the records kept and rejected over all files, and the
    rejected ones by their diagnostics' kind.
    """
    had_errors = False
    rejected = dict.fromkeys(REJECTED_KINDS, 0)
    index: dict[str, int] = {}  # codes every file's names, so the files' codes join as they are
    codes, timestamps = [np.empty((4, 0), dtype=np.int32)], [np.empty(0)]
    for path in _collect_input_files(paths, fmt):
        try:
            result = parse_pass_events(io.BytesIO(_read_input(path, digests)), fmt, index)
        except FormatError as exc:
            print(f"# {path}", f"error: {exc}", sep="\n", file=sys.stderr)
            had_errors = True
            continue
        if result.diagnostics:
            print(f"# {path}", *result.diagnostics, sep="\n", file=sys.stderr)
            had_errors = True
            for diagnostic in result.diagnostics:
                rejected[diagnostic.kind] += 1
        codes.append(result.events.codes)
        timestamps.append(result.events.timestamp)
    events = PassTable(tuple(index), np.concatenate(codes, axis=1), np.concatenate(timestamps))
    del codes, timestamps  # each file's columns, now joined: free them before grouping copies
    counts.update(records=len(events), rejected_records=sum(rejected.values()))
    counts.update({f"rejected_{kind}": n for kind, n in rejected.items()})
    return group_by_match(events), had_errors


def _thread_count() -> int:
    raw = os.environ.get("FLOWMOTIF_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"FLOWMOTIF_THREADS must be an integer, got {raw!r}") from None
    return os.cpu_count() or 1


def _parallel_map(func, payloads: Sequence) -> list:
    threads = min(_thread_count(), len(payloads))
    if threads <= 1 or len(payloads) <= 1:
        return [func(p) for p in payloads]
    import multiprocessing  # here, so that single-threaded runs never load it

    with multiprocessing.Pool(threads) as pool:
        return pool.map(func, payloads, chunksize=1)


# ---------------------------------------------------------------------------
# motifs / zscores
# ---------------------------------------------------------------------------


def cmd_motifs(args: argparse.Namespace, digests: dict[str, str], counts: dict) -> int:
    segmentation = SegmentationConfig(args.t_max)
    logs, had_errors = _load_match_logs(args.inputs, args.format, digests, counts)
    possessions = segment_possessions(logs, segmentation)
    found = count_motifs(possessions, args.k)
    rows = len(logs)  # with no logs, not even the zero row of no possessions
    _write_pattern_csv(
        Path(args.out),
        ("match_id", "team_id"),
        ("count",),
        [(m, t, args.k) for m, t in zip(found.match_ids[:rows], found.team_ids[:rows])],
        [found.counts[:rows].ravel().tolist()],
    )
    return 2 if had_errors else 0


def _zscore_for_log(
    k: int, segmentation: SegmentationConfig, config: NullModelConfig, log: MatchEventLog
) -> tuple[MotifCountVector, NullDistribution, ZScoreProfile, int]:
    possessions = segment_possessions(log, segmentation)
    counts = count_motifs(possessions, k, match_id=log.match_id, team_id=log.team_id)[0]
    null = null_distribution(possessions, k, config)
    return counts, null, z_scores(counts, null), len(possessions)


def cmd_zscores(args: argparse.Namespace, digests: dict[str, str], counts: dict) -> int:
    segmentation = SegmentationConfig(args.t_max)
    config = NullModelConfig(
        replicates=args.replicates,
        policy=args.null_model.replace("-", "_"),
        master_seed=args.seed,
    )
    logs, had_errors = _load_match_logs(args.inputs, args.format, digests, counts)
    results = _parallel_map(partial(_zscore_for_log, args.k, segmentation, config), logs)
    vectors, nulls, profiles, sizes = zip(*results) if results else ((),) * 4
    sampled = sum(null.sampled_possessions for null in nulls)
    counts.update(exact_possessions=sum(sizes) - sampled, sampled_possessions=sampled)
    _write_pattern_csv(
        Path(args.out),
        ("match_id", "team_id"),
        ("count", "null_mean", "null_std", "z", "degenerate"),
        [(vec.match_id, vec.team_id, vec.k) for vec in vectors],
        [
            _flat([vec.counts for vec in vectors]),
            _flat([null.mean for null in nulls]),
            _flat([null.std for null in nulls]),
            _flat([prof.z for prof in profiles]),
            ["true" if d else "false" for d in _flat([prof.degenerate for prof in profiles])],
        ],
    )
    return 2 if had_errors else 0


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


def _read_zscore_profiles(path: Path, digests: dict[str, str]) -> list[ZScoreProfile]:
    tables = _read_pattern_csv(
        path, digests, ("match_id", "team_id"), {"z": float, "degenerate": lambda c: c == "true"}
    )
    return [
        ZScoreProfile(match_id, team_id, k, np.array(z), np.array(degenerate))
        for (match_id, team_id), k, (z, degenerate) in tables
    ]


def cmd_fingerprint(args: argparse.Namespace, digests: dict[str, str], counts: dict) -> int:
    profiles = _read_zscore_profiles(Path(args.zscores), digests)
    by_team: dict[str, list[ZScoreProfile]] = {}
    for prof in profiles:
        by_team.setdefault(prof.team_id, []).append(prof)
    fingerprints = [team_fingerprint(by_team[team]) for team in sorted(by_team)]
    _write_pattern_csv(
        Path(args.out),
        ("team_id",),
        ("mean_z", "matches_used"),
        [(fp.team_id, fp.k) for fp in fingerprints],
        [
            _flat([fp.features for fp in fingerprints]),
            _flat([[fp.matches_used] * len(fp.features) for fp in fingerprints]),
        ],
    )
    return 0


def _read_fingerprints(path: Path, digests: dict[str, str]) -> list[TeamFingerprint]:
    tables = _read_pattern_csv(path, digests, ("team_id",), {"mean_z": float, "matches_used": int})
    for (team,), _, (_, matches_used) in tables:
        if len(set(matches_used)) > 1:
            raise ValueError(f"{path}: team_id {team!r}: matches_used differs between patterns")
    return [
        TeamFingerprint(team_id=team, k=k, features=tuple(mean_z), matches_used=matches_used[0])
        for (team,), k, (mean_z, matches_used) in tables
    ]


# ---------------------------------------------------------------------------
# cluster / pca
# ---------------------------------------------------------------------------


def _write_pca(
    out_dir: Path, projection: PcaProjection, dims: int, colors: dict[str, int]
) -> None:
    """``pca.csv`` and ``pca_scatter.svg``; a team not in ``colors`` gets palette color 0."""
    coords = projection.coordinates
    teams = sorted(coords)
    out_dir.joinpath("pca.csv").write_text(
        _csv_text(
            ["team_id"] + [f"pc{i + 1}" for i in range(dims)],
            [[team, *map(float, coords[team])] for team in teams],
        )
    )
    points = [
        (coords[t][0], coords[t][1] if dims > 1 else 0.0, t, colors.get(t, 0)) for t in teams
    ]
    out_dir.joinpath("pca_scatter.svg").write_text(scatter_svg(points))


def cmd_cluster(args: argparse.Namespace, digests: dict[str, str], counts: dict) -> int:
    fingerprints = _read_fingerprints(Path(args.fingerprints), digests)
    clustering = kmeans(fingerprints, args.clusters, seed=args.seed)
    dendrogram = ward_cluster(fingerprints)
    projection = pca_project(fingerprints, args.pca_dims, standardize=args.pca_standardize)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    assignments = sorted(clustering.assignments.items())
    out_dir.joinpath("clusters.csv").write_text(
        _csv_text(["team_id", "cluster"], [[t, str(c)] for t, c in assignments])
    )
    stats = {
        "n_clusters": args.clusters,
        "within_ss": clustering.within_ss,
        "total_ss": clustering.total_ss,
        "within_over_total": 1.0 - clustering.between_over_total,
        "between_over_total": clustering.between_over_total,
        "centroids": [list(c) for c in clustering.centroids],
    }
    for name, data in (("cluster_stats.json", stats), ("dendrogram.json", dendrogram.to_dict())):
        out_dir.joinpath(name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    _write_pca(out_dir, projection, args.pca_dims, clustering.assignments)
    out_dir.joinpath("dendrogram.svg").write_text(dendrogram_svg(dendrogram))
    return 0


def cmd_pca(args: argparse.Namespace, digests: dict[str, str], counts: dict) -> int:
    fingerprints = _read_fingerprints(Path(args.fingerprints), digests)
    projection = pca_project(fingerprints, args.pca_dims, standardize=args.pca_standardize)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_pca(out_dir, projection, args.pca_dims, {})
    explained = {"explained_variance_ratio": list(projection.explained_variance_ratio)}
    out_dir.joinpath("pca_explained.json").write_text(json.dumps(explained, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace, digests: dict[str, str], counts: dict) -> int:
    raw = json.loads(_read_input(Path(args.teams), digests))
    if not isinstance(raw, list):
        raise ValueError("team spec file must be a JSON array of team parameter objects")
    teams = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"team spec entry {i} is not an object: {entry!r}")
        try:
            teams.append(TeamStyleParams(**entry))
        except TypeError as exc:
            raise ValueError(f"team spec entry {i}: {exc}") from None
    logs = generate_league(teams, args.seed, t_max=args.t_max)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for log in logs:
        out_dir.joinpath(f"{log.match_id}.{args.format}").write_text(
            serialize_pass_events(log.events, args.format)
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _at_least_one(text: str) -> int:
    """An integer option's value, refused below 1 as the option is parsed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmotif",
        description="Flow-motif analysis of pass networks: motif counts, "
        "null-model z-scores, and team style clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="csv", help="event file format")

    k = argparse.ArgumentParser(add_help=False)
    k.add_argument(
        "--k", type=int, choices=range(2, MAX_K + 1), default=DEFAULT_K, help="passes per motif"
    )
    tmax = argparse.ArgumentParser(add_help=False)
    tmax.add_argument(
        "--tmax",
        dest="t_max",
        metavar="TMAX",
        type=float,
        default=DEFAULT_T_MAX,
        help="max seconds between consecutive passes of one possession",
    )

    p = sub.add_parser("motifs", parents=[fmt, k, tmax], help="count motifs per match")
    p.add_argument("inputs", nargs="+", help="event files or directories")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_motifs)

    p = sub.add_parser(
        "zscores", parents=[fmt, k, tmax], help="motif z-scores against the null model"
    )
    p.add_argument("inputs", nargs="+", help="event files or directories")
    p.add_argument("--replicates", type=_at_least_one, default=DEFAULT_REPLICATES)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--null-model",
        choices=sorted(policy.replace("_", "-") for policy in POLICIES),
        default="touch-shuffle-match",
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

    p = sub.add_parser("synth", parents=[fmt, tmax], help="generate a synthetic league")
    p.add_argument("--teams", required=True, help="JSON array of team style parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once: building it took about 1 ms a command."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command, then write its manifest; the command fills in its digests and counts."""
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    digests: dict[str, str] = {}
    counts: dict[str, int] = {}
    try:
        status = args.func(args, digests, counts)
        _write_manifest(args, digests, counts, started)
        return status
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
