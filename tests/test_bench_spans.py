"""The benchmark's tracer reaches every layer the CLI calls.

``bench/spans.py`` wraps functions where ``flowmotif.cli`` looks them up. A
command that stops calling one of them through the module's globals loses
its span, which the benchmark reports only as "no traced time in ...".
"""

import importlib.util
import json
import sys
from pathlib import Path

from flowmotif import cli, nullmodel

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_record_a_span_of_every_layer(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    monkeypatch.setenv("FLOWMOTIF_THREADS", "1")
    for attr in spans.CLI_CALLS:
        monkeypatch.setattr(cli, attr, getattr(cli, attr))
    monkeypatch.setattr(nullmodel, "derive_seed", nullmodel.derive_seed)
    tracer = spans.Tracer()
    spans.install(tracer, cli, nullmodel)

    teams = tmp_path / "teams.json"
    teams.write_text(
        json.dumps(
            [
                dict(team_id=f"t{i}", squad_size=6, possessions_per_match=6, matches=2)
                for i in range(3)
            ]
        )
    )
    events, fps = tmp_path / "events", tmp_path / "f.csv"
    tracer.active = True
    assert cli.main(["synth", "--teams", str(teams), "--out", str(events)]) == 0
    for policy in spans.NULL_SPANS:
        zs = tmp_path / f"{policy}.csv"
        null_model = policy.replace("_", "-")
        argv = ["zscores", str(events), "--replicates", "5", "--null-model", null_model]
        assert cli.main(argv + ["--out", str(zs)]) == 0
    assert cli.main(["fingerprint", str(zs), "--out", str(fps)]) == 0
    assert cli.main(["cluster", str(fps), "--clusters", "2", "--out", str(tmp_path / "c")]) == 0
    assert cli.main(["pca", str(fps), "--out", str(tmp_path / "p")]) == 0

    recorded = {span[0] for span in tracer.spans}
    expected = {name for name in spans.CLI_CALLS.values() if name} | set(spans.NULL_SPANS.values())
    assert expected - recorded == set()
    assert tracer.counts["seeding.calls"] > 0
