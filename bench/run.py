"""Season-scale benchmark of flowmotif's CLI.

    python3 bench/run.py --workload season_match --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It generates the workload's inputs in one
process (``gen.py``), runs the CLI in-process with FLOWMOTIF_THREADS=1 in a
second one (``measure.py``) for the given seconds, checks every output with
``checks.py``, and prints one JSON object as its last line. With
``--trace 1`` it reports per-layer metrics from a traced copy of every
round instead of the end-to-end metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("season_match", "season_alt_nulls", "corpus_motifs")
REPLICATES = 1000
# The per-possession shuffle costs several times the match shuffle and its
# cost varies from season to season (constrained possessions repair
# slowly), so the alternative-null workload scores more team-matches with
# fewer replicates each.
ALT_REPLICATES = 250
FIXTURE_REPLICATES = 10000
FIXTURE_SEED = 7
CLUSTERS = 4
MEASURE_TIMEOUT_S = 150
# Whole matchdays per round, so every round scores every team equally often.
DAYS_PER_ROUND = {"season_match": 2, "season_alt_nulls": 1}


def zscores_op(name: str, inputs: list[str], policy: str, seed: int, reps: int, tms: int,
               timed=True):
    return {
        "name": name,
        "argv": ["zscores", *inputs, "--replicates", str(reps), "--seed", str(seed),
                 "--null-model", policy, "--out", f"{{out}}/{name}.csv"],
        "inputs": inputs, "ext": ".csv", "team_matches": tms, "timed": timed, "rc": 0,
        "policy": policy, "replicates": reps,
    }


def build_cycle(workload: str, seed: int, work: Path, truth: dict) -> list[list[dict]]:
    """The rounds a run steps through, in order; round r runs cycle[r % len]."""
    fixture_ops = [
        zscores_op(name, [str(work / "fixtures" / f"{name}.csv")], fx["policy"], FIXTURE_SEED,
                   FIXTURE_REPLICATES, 0, timed=False)
        for name, fx in sorted(truth.get("fixtures", {}).items())
    ]
    if workload == "corpus_motifs":
        return [[
            {"name": f"motifs-{fmt}",
             "argv": ["motifs", str(work / "corpus" / fmt), "--format", fmt,
                      "--out", f"{{out}}/motifs-{fmt}.csv"],
             "inputs": [str(work / "corpus" / fmt)], "ext": f".{fmt}",
             "team_matches": 2 * truth["fixtures_in_corpus"], "timed": True, "rc": 2}
            for fmt in ("csv", "jsonl")
        ]]
    cycle = []
    per_round = DAYS_PER_ROUND[workload]
    for first in range(0, len(truth["matchdays"]), per_round):
        mds = range(first, first + per_round)
        days = [str(work / "season" / f"md{md:02d}") for md in mds]
        tms = sum(2 * len(truth["matchdays"][md]) for md in mds)
        if workload == "season_match":
            ops = [
                zscores_op("zscores", days, "touch-shuffle-match", seed, REPLICATES, tms),
                {"name": "fingerprint",
                 "argv": ["fingerprint", "{out}/zscores.csv", "--out", "{out}/fingerprints.csv"],
                 "inputs": ["{out}/zscores.csv"], "ext": ".csv", "team_matches": 0,
                 "timed": True, "rc": 0},
                {"name": "cluster",
                 "argv": ["cluster", "{out}/fingerprints.csv", "--clusters", str(CLUSTERS),
                          "--seed", str(seed), "--out", "{out}/cluster"],
                 "inputs": ["{out}/fingerprints.csv"], "ext": ".csv", "team_matches": 0,
                 "timed": True, "rc": 0},
            ]
        else:
            ops = [
                zscores_op("zscores-possession", days, "touch-shuffle-possession", seed,
                           ALT_REPLICATES, tms),
                zscores_op("zscores-walk", days, "uniform-walk", seed, ALT_REPLICATES, tms),
            ]
        cycle.append(ops + fixture_ops)
    return cycle


class Checker:
    """Runs the checks on every executed operation; memoizes by file contents."""

    def __init__(self, work: Path, truth: dict) -> None:
        self.work = work
        self.truth = truth
        self.errors: list[str] = []
        self.failed_fixtures: list[str] = []
        self._touches: dict[tuple, dict] = {}
        self._done: dict[tuple, list[str]] = {}

    def touches(self, inputs: list[str]) -> dict:
        key = tuple(inputs)
        if key not in self._touches:
            files = []
            for raw in inputs:
                path = Path(raw)
                files += sorted(path.glob("*.csv")) if path.is_dir() else [path]
            corrupted = {
                self.work / rel: set(lines)
                for rel, lines in self.truth.get("corrupted_lines", {}).items()
            }
            self._touches[key], errors = checks.team_match_touches(
                files, self.truth["t_max"], corrupted
            )
            self.errors += errors
        return self._touches[key]

    def once(self, key: tuple, files: list[Path], fn) -> list[str]:
        key = key + tuple(sha256(f) for f in files)
        if key not in self._done:
            self._done[key] = fn()
        return self._done[key]

    def op(self, op: dict, spec: dict) -> bool:
        """Check one executed operation; False when it failed."""
        out = Path(op["dir"])
        name = op["name"]
        if op["rc"] != spec["rc"]:
            self.errors.append(f"{out}/{name}: exit code {op['rc']}, expected {spec['rc']}")
            return False
        errors: list[str] = []
        if name in self.truth.get("fixtures", {}):
            fx = self.truth["fixtures"][name]
            dev = checks.fixture_deviation(
                out / f"{name}.csv", fx["possessions"], fx["policy"], spec["replicates"]
            )
            if dev > checks.FIXTURE_SE_LIMIT:
                self.failed_fixtures.append(f"{name} {fx['policy']}: {dev:.1f} SE")
                return False
        elif name.startswith("zscores"):
            path = out / f"{name}.csv"
            errors = self.once(("z", spec["policy"]), [path], lambda: checks.check_zscores(
                path, self.touches(spec["inputs"]), spec["policy"], spec["replicates"]))
        elif name == "fingerprint":
            files = [out / "zscores.csv", out / "fingerprints.csv"]
            errors = self.once(("fp",), files, lambda: checks.check_fingerprint(
                *files, self.truth["distinctive"]))
        elif name == "cluster":
            teams = {t["team_id"] for t in self.truth["teams"]}
            errors = checks.check_cluster(out / "cluster", teams, CLUSTERS)
        elif name.startswith("motifs-"):
            path = out / f"{name}.csv"
            errors = self.once(("motifs",), [path], lambda: checks.check_motifs(
                path, self.touches(spec["inputs"])))
            errors = errors + self.check_diagnostics(out, name, spec)
            if name == "motifs-jsonl" and checks.motif_rows(path) != checks.motif_rows(
                out / "motifs-csv.csv"
            ):
                errors.append(f"{out}: CSV and JSONL copies give different motif rows")
        self.errors += errors
        return not errors

    def check_diagnostics(self, out: Path, name: str, spec: dict) -> list[str]:
        reported = checks.diagnostic_lines((out / f"{name}.stderr").read_text())
        expected = {
            str(self.work / rel): set(lines)
            for rel, lines in self.truth["corrupted_lines"].items()
            if rel.endswith(spec["ext"]) and lines
        }
        if reported != expected:
            wrong = sorted(set(reported.items()) ^ set(expected.items()), key=str)[:3]
            return [f"{out}/{name}: diagnostics differ from the corrupted lines, e.g. {wrong}"]
        return []


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ref_seconds(results: dict) -> float:
    """Harmonic mean of the reference-loop samples.

    The samples are spread evenly in time, so the mean of 1/duration is the
    core's average speed over the run; it weights fast and slow phases by
    the time they lasted, and a sample stretched by an interruption barely
    moves it.
    """
    return statistics.harmonic_mean(results["ref_samples_s"])


def ref_units(results: dict, op: dict) -> float:
    """An op's seconds divided by the reference samples taken while it ran."""
    inside = [
        d for t, d in zip(results["ref_times"], results["ref_samples_s"])
        if op["start"] <= t <= op["end"]
    ]
    return op["seconds"] / statistics.harmonic_mean(inside or results["ref_samples_s"])


def end_to_end(results: dict) -> tuple[dict, float]:
    """The bounded metrics, and the raw team-matches per second.

    The raw rate follows the core's speed phases (its spread over ten seeds
    was 7-27% by workload), so it is printed but is not a bounded metric.
    """
    timed = [op for op in results["ops"] if op["timed"] and not op["traced"]]
    seconds = sum(op["seconds"] for op in timed)
    team_matches = sum(op["team_matches"] for op in timed)
    metrics = {
        "team_match_cost_ref": (seconds / team_matches / ref_seconds(results), "ref"),
        "peak_rss_mb": (results["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(results["setup_samples_s"]), "s"),
    }
    return metrics, team_matches / seconds


# Span names; each layer metric is the name plus "_s".
LAYER_SPANS = (
    "events.parse", "events.group", "possessions.segment", "motifs.count",
    "nullmodel.null_match", "nullmodel.null_possession", "nullmodel.null_walk",
    "nullmodel.zscore", "seeding.derive_seed", "analytics.fingerprint", "analytics.kmeans",
    "analytics.ward", "analytics.pca", "svg.render",
)
LAYER_COUNTS = (
    "events.records", "events.rejected", "possessions.count", "motifs.windows",
    "nullmodel.slots", "seeding.calls",
)


# Spans each workload's commands must reach; a layer with no time there
# means the wrappers missed it, e.g. because the CLI no longer looks the
# function up where ``spans.install`` wraps it.
COMMON_SPANS = ("events.parse", "events.group", "possessions.segment", "motifs.count")
EXPECTED_SPANS = {
    "season_match": COMMON_SPANS + (
        "nullmodel.null_match", "nullmodel.zscore", "seeding.derive_seed",
        "analytics.fingerprint", "analytics.kmeans", "analytics.ward", "analytics.pca",
        "svg.render",
    ),
    "season_alt_nulls": COMMON_SPANS + (
        "nullmodel.null_possession", "nullmodel.null_walk", "nullmodel.zscore",
        "seeding.derive_seed",
    ),
    "corpus_motifs": COMMON_SPANS,
}
# Largest share of the traced wall time that no layer span may cover. The
# CLI's own work (argument parsing, writing, the manifest) was under 1% on
# the seasons and 9% on the corpus; more means time has left the spans.
CLI_SELF_CAP = 0.25


def per_layer(results: dict, workload: str) -> tuple[dict, str, list[str]]:
    """Per-round layer figures from the traced rounds.

    Also returns a line on how the layer self times add up to the traced
    wall time, and the trace checks that failed.
    """
    rounds = results["rounds"]
    self_s = results["self_s"]
    traced = [op for op in results["ops"] if op["traced"]]
    untraced = [op for op in results["ops"] if op["timed"] and not op["traced"]]
    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
    metrics = {"cli.self_s": (cli_self / rounds, "s")}
    read = sum(op["read_bytes"] for op in traced)
    metrics["cli.read_bytes"] = (read / rounds, "bytes")
    metrics["cli.read_amplification"] = (read / sum(op["input_bytes"] for op in traced), "ratio")
    for span in LAYER_SPANS:
        metrics[f"{span}_s"] = (self_s.get(span, 0.0) / rounds, "s")
    for counter in LAYER_COUNTS:
        metrics[counter] = (results["counts"].get(counter, 0) / rounds, "count")
    metrics["ref.loop_ms"] = (ref_seconds(results) * 1e3, "ms")
    # Each op's time in reference-loop units of its own seconds, so that a
    # fast or slow phase of the core does not read as tracing overhead.
    overhead = sum(map(partial(ref_units, results), traced)) - sum(
        map(partial(ref_units, results), untraced)
    )
    metrics["trace.overhead_s"] = (overhead * ref_seconds(results) / rounds, "s")

    # The wall time comes from the op clock that ``run_op`` reads, not from
    # the spans, so spans that are lost, left open or double counted show.
    wall = sum(op["end"] - op["start"] for op in traced)
    timer = self_s.get("ref", 0.0) + self_s.get("setup_probe", 0.0)
    layers = sum(v for k, v in self_s.items() if k not in ("ref", "setup_probe"))
    residual = (layers + timer - wall) / wall
    note = (
        f"trace: layer self times {layers:.3f} s + reference loop and set-up probes "
        f"{timer:.3f} s = traced wall {wall:.3f} s (residual {residual:+.2e}); "
        f"cli self share {cli_self / wall:.3f}"
    )
    errors = []
    if abs(residual) >= 0.01:
        errors.append(f"layer self times miss the traced wall time by {residual:+.2%}")
    if cli_self / wall > CLI_SELF_CAP:
        errors.append(f"no layer span covers {cli_self / wall:.1%} of the traced wall time")
    missing = [span for span in EXPECTED_SPANS[workload] if self_s.get(span, 0.0) <= 0.0]
    if missing:
        errors.append(f"no traced time in {', '.join(missing)}")
    return metrics, note, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "flowmotif" / "cli.py").is_file():
        print(f"error: {root} holds no src/flowmotif to benchmark", file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # A fixed hash seed gives every run the same dict and set layouts; with
    # per-process random ones, season_match's cost spread 4.5% over ten
    # seeds, against 3.1% with the seed fixed.
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        PYTHONPYCACHEPREFIX=str(root / ".bench_work" / "pycache"),
        PYTHONHASHSEED="0",
        FLOWMOTIF_THREADS="1",
    )
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), args.workload, str(args.seed), str(work)],
        env=env, check=True, timeout=MEASURE_TIMEOUT_S,
    )
    truth = json.loads((work / "truth.json").read_text())
    cycle = build_cycle(args.workload, args.seed, work, truth)
    plan = {
        "checkout": str(root), "out": str(work / "out"), "pycache": env["PYTHONPYCACHEPREFIX"],
        "seconds": args.seconds, "trace": args.trace, "cycle": cycle,
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1))
    subprocess.run(
        [sys.executable, str(BENCH / "measure.py"), str(work / "plan.json"),
         str(work / "results.json")],
        env=env, check=True, timeout=MEASURE_TIMEOUT_S,
    )
    results = json.loads((work / "results.json").read_text())

    checker = Checker(work, truth)
    failed = 0
    for op in results["ops"]:
        spec = next(s for s in cycle[op["round"] % len(cycle)] if s["name"] == op["name"])
        failed += not checker.op(op, spec)
    if args.trace:
        metrics, note, errors = per_layer(results, args.workload)
        print(note)
        checker.errors += errors
    else:
        metrics, rate = end_to_end(results)
    for note in sorted(set(checker.failed_fixtures)):
        print(f"failed fixture, {checker.failed_fixtures.count(note)} times "
              f"(shuffle sampler bias): {note}")
    for error in checker.errors[:20]:
        print(f"check failed: {error}")
    for path in sorted((work / "out" / "r000").rglob("*")):
        if path.is_file() and not path.name.endswith((".stderr", ".manifest.json")) \
                and path.name != "manifest.json":
            print(f"sha256 {sha256(path)} {path.relative_to(work / 'out')}")
    print(f"rounds {results['rounds']} elapsed_s {results['elapsed_s']:.3f} "
          f"ref_samples {len(results['ref_samples_s'])} "
          f"setup_samples {len(results['setup_samples_s'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if not args.trace:
        print(f"team_matches_per_s {rate!r} 1/s (raw rate, not bounded)")
    print(f"attempted {len(results['ops'])} failed {failed}")
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": len(results["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
