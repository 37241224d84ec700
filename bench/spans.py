"""Spans at flowmotif's layer boundaries, recorded from outside the program.

The benchmark replaces the public functions that ``flowmotif.cli`` calls
with wrappers that open a span around each call. Spans live in memory and
are written out when the run ends. A span's self time is its duration
minus the time of its child spans and of the calls folded into it
(``derive_seed``, reference-loop samples and set-up probes), so the self
times of all layers and folded calls add up to the traced commands' wall
time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# cli attribute -> span name; null_distribution is named per policy below.
CLI_CALLS = {
    "parse_pass_events": "events.parse",
    "group_by_match": "events.group",
    "segment_possessions": "possessions.segment",
    "count_motifs": "motifs.count",
    "null_distribution": None,
    "z_scores": "nullmodel.zscore",
    "team_fingerprint": "analytics.fingerprint",
    "kmeans": "analytics.kmeans",
    "ward_cluster": "analytics.ward",
    "pca_project": "analytics.pca",
    "scatter_svg": "svg.render",
    "dendrogram_svg": "svg.render",
}

NULL_SPANS = {
    "touch_shuffle_match": "nullmodel.null_match",
    "touch_shuffle_possession": "nullmodel.null_possession",
    "uniform_walk": "nullmodel.null_walk",
}


class Tracer:
    """In-memory span recorder; inert until ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        # [name, start, end, parent index, time covered by children, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.folded_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str, op_id: str = "") -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0:
            op_id = self.spans[parent][5]
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, op_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def fold(self, name: str, seconds: float) -> None:
        """Account a short call inside the open span without a span of its own."""
        if self.active and self.stack:
            self.folded_s[name] += seconds
            self.spans[self.stack[-1]][4] += seconds

    def wrap(self, fn, name: str | None, count=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name or NULL_SPANS[args[2].policy])
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def wrap_folded(self, fn, name: str, counter: str):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold(name, perf_counter() - t0)
                self.counts[counter] += 1

        return traced

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, child_s, _ in self.spans:
            out[name] += end - start - child_s
        out.update(self.folded_s)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, child_s, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "child_s": child_s, "op": op_id}
                    )
                    + "\n"
                )


def _count_parse(counts, args, out) -> None:
    counts["events.records"] += len(out.events)
    counts["events.rejected"] += len(out.diagnostics)


def _count_segment(counts, args, out) -> None:
    counts["possessions.count"] += len(out)


def _count_motifs(counts, args, out) -> None:
    counts["motifs.windows"] += out.total


def _count_null(counts, args, out) -> None:
    possessions, _, config = args
    counts["nullmodel.slots"] += config.replicates * sum(len(p.passes) + 1 for p in possessions)


COUNTERS = {
    "parse_pass_events": _count_parse,
    "segment_possessions": _count_segment,
    "count_motifs": _count_motifs,
    "null_distribution": _count_null,
}


def install(tracer: Tracer, cli, nullmodel) -> None:
    """Wrap the layer entry points that ``cli`` and ``nullmodel`` look up."""
    for attr, name in CLI_CALLS.items():
        setattr(cli, attr, tracer.wrap(getattr(cli, attr), name, COUNTERS.get(attr)))
    nullmodel.derive_seed = tracer.wrap_folded(
        nullmodel.derive_seed, "seeding.derive_seed", "seeding.calls"
    )
