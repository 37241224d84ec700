"""The measuring process: runs flowmotif's CLI in-process, round after round.

    python3 bench/measure.py <plan.json> <results.json>

``run.py`` writes the plan and reads the results; this process only runs
the program, the reference loop and the set-up probes, so that its peak
RSS is the program's own. A round is a fixed list of CLI commands; the
process starts rounds until the plan's seconds are used up, so every run
executes whole rounds.

A SIGALRM timer interrupts the program every ``REF_INTERVAL_S`` and runs
a fixed reference loop inside the handler. The loop's harmonic-mean
duration tracks the speed of the core over the same seconds the program
ran, and its own time is subtracted from the program's. Every
``SETUP_EVERY_S`` the handler also times a fresh interpreter importing
``flowmotif.cli`` (a set-up probe), whose time is subtracted as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

REF_INTERVAL_S = 0.25
SETUP_EVERY_S = 2.0

_REF_KEYS = [f"k{i}" for i in range(64)]
_REF_CODES = np.arange(96) % 7


def ref_loop() -> int:
    """Plain Python plus small numpy calls, shaped like the program's hot loops."""
    acc = 0
    table: dict[str, int] = {}
    for i in range(4800):
        key = _REF_KEYS[i & 63]
        table[key] = table.get(key, 0) + (i * 7) % 11
    for i in range(96):
        rng = np.random.default_rng(i)
        arr = _REF_CODES.copy()
        rng.shuffle(arr)
        same = np.flatnonzero(arr[:-1] == arr[1:])
        counts = np.bincount(arr, minlength=8)
        acc += int(same.size) + int(counts.argmax())
    return acc + len(table)


class RefSampler:
    """Runs ``ref_loop`` and the set-up probes from a timer signal.

    The probes run from the handler too, so they are spread evenly over
    the run however long its commands are. Everything the handler does is
    counted in ``busy_s`` and subtracted from the program's time, and the
    probes' reads (the kernel adds a reaped child's to ``rchar``) are
    counted in ``busy_read`` and subtracted from the program's reads.
    """

    def __init__(self, probe, tracer=None) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []
        self.setup_samples: list[float] = []
        self.busy_s = 0.0
        self.busy_read = 0
        self.probe = probe
        self.last_probe = perf_counter()
        self.tracer = tracer

    def _handle(self, signum, frame) -> None:
        t0 = perf_counter()
        ref_loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.times.append(t0)
        if self.tracer is not None:
            self.tracer.fold("ref", dt)
        if t0 - self.last_probe >= SETUP_EVERY_S:
            self.stop()
            t1, rchar0 = perf_counter(), read_chars()
            self.setup_samples.append(self.probe())
            self.last_probe = perf_counter()
            self.busy_read += read_chars() - rchar0
            if self.tracer is not None:
                self.tracer.fold("setup_probe", self.last_probe - t1)
            self.start()
        self.busy_s += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def read_chars() -> int:
    """Bytes this process has read through read(2) and friends (Linux rchar)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("no rchar in /proc/self/io")


def input_bytes(paths: list[str], ext: str) -> int:
    total = 0
    for raw in paths:
        p = Path(raw)
        files = sorted(p.glob(f"*{ext}")) if p.is_dir() else [p]
        total += sum(f.stat().st_size for f in files)
    return total


def setup_probe(env: dict) -> float:
    """Seconds from a fresh interpreter to ``flowmotif.cli`` imported."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import flowmotif.cli"], env=env, check=True)
    return perf_counter() - t0


def main(plan_path: str, results_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    from flowmotif import cli, nullmodel

    src = Path(plan["checkout"]) / "src"
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"flowmotif imported from {cli.__file__}, not from {src}")

    tracer = None
    if plan["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, cli, nullmodel)

    probe_env = dict(os.environ, PYTHONPYCACHEPREFIX=plan["pycache"])
    probe_env.pop("PYTHONDONTWRITEBYTECODE", None)
    setup_probe(probe_env)  # fills the bytecode cache; not a sample

    sampler = RefSampler(partial(setup_probe, probe_env), tracer)
    for _ in range(5):  # warm the loop before the timer starts
        ref_loop()
    out_root = Path(plan["out"])
    ops: list[dict] = []

    def run_op(op: dict, round_dir: Path, round_no: int, traced: bool) -> None:
        argv = [a.replace("{out}", str(round_dir)) for a in op["argv"]]
        size = input_bytes([a.replace("{out}", str(round_dir)) for a in op["inputs"]], op["ext"])
        err = io.StringIO()
        busy0, busy_read0, rchar0 = sampler.busy_s, sampler.busy_read, read_chars()
        span = None
        if traced:
            tracer.active = True
            span = tracer.open(f"cli.{argv[0]}", f"r{round_no}:{op['name']}")
        t0 = perf_counter()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        wall = perf_counter() - t0
        if traced:
            tracer.close(span)
            tracer.active = False
        rchar = read_chars() - rchar0 - (sampler.busy_read - busy_read0)
        (round_dir / f"{op['name']}.stderr").write_text(err.getvalue())
        ops.append(
            {
                "name": op["name"], "round": round_no, "traced": traced, "rc": rc,
                "start": t0, "end": t0 + wall, "timed": op["timed"],
                "team_matches": op["team_matches"],
                "seconds": wall - (sampler.busy_s - busy0), "read_bytes": rchar,
                "input_bytes": size, "dir": str(round_dir),
            }
        )

    cycle = plan["cycle"]
    passes = (False, True) if tracer is not None else (False,)
    started = perf_counter()
    sampler.start()
    round_no = 0
    while True:
        for traced in passes:
            round_dir = out_root / f"r{round_no:03d}{'t' if traced else ''}"
            round_dir.mkdir(parents=True)
            for op in cycle[round_no % len(cycle)]:
                run_op(op, round_dir, round_no, traced and op["timed"])
        round_no += 1
        if perf_counter() - started >= plan["seconds"]:
            break
    sampler.stop()
    elapsed = perf_counter() - started
    setup_samples = [*sampler.setup_samples, setup_probe(probe_env)]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = {
        "ops": ops,
        "rounds": round_no,
        "elapsed_s": elapsed,
        "ref_samples_s": sampler.samples,
        "ref_times": sampler.times,
        "setup_samples_s": setup_samples,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    if tracer is not None:
        tracer.write(out_root / "spans.jsonl")
        results["self_s"] = tracer.self_times()
        results["counts"] = dict(tracer.counts)
    Path(results_path).write_text(json.dumps(results))
    print(
        f"measure: {round_no} rounds in {elapsed:.1f}s, "
        f"{len(sampler.samples)} ref samples (harmonic mean "
        f"{statistics.harmonic_mean(sampler.samples) * 1e3:.3f} ms), "
        f"{len(setup_samples)} set-up samples",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
