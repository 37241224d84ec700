import csv
import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from flowmotif import TeamFingerprint, pca_project
from flowmotif.cli import _write_pattern_csv, main
from flowmotif.events import REJECTED_KINDS as REJECTED_DIAGNOSTIC_KINDS
from helpers import oracle_pattern_csv

TEAMS = [
    dict(
        team_id=f"club{i}",
        squad_size=8,
        possessions_per_match=12,
        mean_possession_length=3.5,
        back_pass_bias=0.5 if i == 0 else 0.0,
        matches=3,
    )
    for i in range(4)
]

WORKED_EXAMPLE_CSV = (
    "match_id,team_id,passer,receiver,timestamp_s\n"
    "M1,T1,2,4,0.0\n"
    "M1,T1,4,5,1.0\n"
    "M1,T1,5,6,2.0\n"
    "M1,T1,6,4,3.0\n"
    "M1,T1,4,6,4.0\n"
)


@pytest.fixture()
def league_dir(tmp_path):
    spec = tmp_path / "teams.json"
    spec.write_text(json.dumps(TEAMS))
    out = tmp_path / "events"
    assert main(["synth", "--teams", str(spec), "--seed", "7", "--out", str(out)]) == 0
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_synth_writes_one_file_per_match(league_dir):
    files = sorted(p.name for p in league_dir.glob("*.csv"))
    assert len(files) == 4 * 3
    assert (league_dir / "manifest.json").exists()
    manifest = json.loads((league_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 7


def test_synth_is_deterministic(tmp_path, league_dir):
    spec = tmp_path / "teams2.json"
    spec.write_text(json.dumps(TEAMS))
    out2 = tmp_path / "events2"
    assert main(["synth", "--teams", str(spec), "--seed", "7", "--out", str(out2)]) == 0
    for p in sorted(league_dir.glob("*.csv")):
        assert (out2 / p.name).read_bytes() == p.read_bytes()


def test_motifs_worked_example(tmp_path):
    src = tmp_path / "match.csv"
    src.write_text(WORKED_EXAMPLE_CSV)
    out = tmp_path / "motifs.csv"
    assert main(["motifs", str(src), "--out", str(out)]) == 0
    rows = {r["pattern"]: r for r in read_rows(out)}
    assert {p: int(r["count"]) for p, r in rows.items()} == {
        "ABAB": 0,
        "ABAC": 0,
        "ABCA": 1,
        "ABCB": 1,
        "ABCD": 1,
    }
    assert all(r["match_id"] == "M1" and r["k"] == "3" for r in rows.values())


def test_motifs_empty_dir_is_header_only(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    out = tmp_path / "motifs.csv"
    assert main(["motifs", str(empty), "--out", str(out)]) == 0
    assert out.read_text() == "match_id,team_id,k,pattern,count\n"


def test_corrupt_file_reports_diagnostics_and_exits_2(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text(WORKED_EXAMPLE_CSV)
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "match_id,team_id,passer,receiver,timestamp_s\nM2,T1,a,a,0.0\nM2,T1,a,b,1.0\n"
    )
    out = tmp_path / "motifs.csv"
    assert main(["motifs", str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line=2" in err and "reason=self-pass" in err
    # well-formed records are still processed, and the manifest counts both kinds
    match_ids = {r["match_id"] for r in read_rows(out)}
    assert match_ids == {"M1", "M2"}
    manifest = json.loads(out.with_name("motifs.csv.manifest.json").read_text())
    assert manifest["counts"] == {
        **dict.fromkeys(REJECTED_KINDS, 0), "records": 6, "rejected_records": 1,
        "rejected_self_pass": 1,
    }


REJECTED_KINDS = [
    f"rejected_{kind}"
    for kind in ("fields", "invalid_json", "invalid_timestamp", "missing_field",
                 "negative_timestamp", "not_an_object", "self_pass")
]
# format: (header, records, rejected records by kind), every kind that the
# format can reject among valid records; 1_0 is refused as a timestamp
REJECTION_FILES = {
    "csv": (
        "match_id,team_id,passer,receiver,timestamp_s\n",
        ["M1,T1,a,b,1.0", "M1,T1,a,b", "M1,T1,a,b,1.0,x", "M1,T1,a,b,1_0", "M1,T1,a,b,x",
         "M1,T1,a,b,nan", "M1,,a,b,1.0", "M1,T1,a,b,", "M1,T1,a,b,-1.0", "M1,T1,a,a,1.0",
         "M1,T1,b,c,2.0"],
        {"fields": 2, "invalid_timestamp": 3, "missing_field": 2, "negative_timestamp": 1,
         "self_pass": 1},
    ),
    "jsonl": (
        "",
        ['{"match_id":"M1","team_id":"T1","passer":"a","receiver":"b","timestamp_s":1.0}',
         "{", "[1]", "7", '{"match_id":"M1"}', '{"match_id":"M1","team_id":"T1","passer":"a",'
         '"receiver":"b","timestamp_s":true}', '{"match_id":"M1","team_id":"T1","passer":"a",'
         '"receiver":"a","timestamp_s":2.0}', '{"match_id":"M1","team_id":"T1","passer":"a",'
         '"receiver":"b","timestamp_s":-2.0}'],
        {"invalid_json": 1, "not_an_object": 2, "missing_field": 1, "invalid_timestamp": 1,
         "self_pass": 1, "negative_timestamp": 1},
    ),
}


@pytest.mark.parametrize("fmt", sorted(REJECTION_FILES))
def test_manifest_counts_rejected_records_by_kind(tmp_path, capsys, fmt):
    header, records, kinds = REJECTION_FILES[fmt]
    src = tmp_path / f"events.{fmt}"
    src.write_text(header + "".join(line + "\n" for line in records))
    out = tmp_path / "m.csv"
    assert main(["motifs", str(src), "--format", fmt, "--out", str(out)]) == 2
    rejected = capsys.readouterr().err.count(" reason=")
    counts = json.loads(out.with_name("m.csv.manifest.json").read_text())["counts"]
    expected = dict.fromkeys(REJECTED_KINDS, 0)
    expected.update({f"rejected_{kind}": n for kind, n in kinds.items()})
    assert {key: counts[key] for key in REJECTED_KINDS} == expected
    assert counts["rejected_records"] == sum(kinds.values()) == rejected
    assert counts["records"] == len(records) - rejected


def test_rejection_files_cover_every_diagnostic_kind():
    kinds = {kind for _, _, by_kind in REJECTION_FILES.values() for kind in by_kind}
    assert sorted(kinds) == sorted(REJECTED_DIAGNOSTIC_KINDS)
    assert sorted(f"rejected_{kind}" for kind in kinds) == REJECTED_KINDS


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_undecodable_file_is_reported_and_the_rest_scored(tmp_path, capsys, fmt):
    # A file that is not UTF-8 is rejected whole, like a broken header; the
    # other files are still scored and every file is digested.
    inputs = tmp_path / "in"
    inputs.mkdir()
    good = inputs / f"good.{fmt}"
    good.write_text(
        WORKED_EXAMPLE_CSV if fmt == "csv" else '{"match_id":"M1","team_id":"T1",'
        '"passer":"2","receiver":"4","timestamp_s":0.0}\n'
    )
    bad = inputs / f"bad.{fmt}"
    bad.write_bytes(good.read_bytes().replace(b"M1", b"M2").replace(b"2", b"\xff\xfe", 1))
    out = tmp_path / "motifs.csv"
    assert main(["motifs", str(inputs), "--format", fmt, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"# {bad}\nerror: not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in err
    assert {r["match_id"] for r in read_rows(out)} == {"M1"}
    manifest = json.loads(out.with_name("motifs.csv.manifest.json").read_text())
    assert sorted(manifest["input_digests"]) == [str(bad), str(good)]


def test_huge_integer_timestamps_are_rejected_record_by_record(tmp_path, capsys):
    # 1 with 400 zeros is past float's range, and 1 with 5,000 zeros past
    # the digits Python turns into an int; each rejects only its own record.
    inputs = tmp_path / "in"
    inputs.mkdir()
    record = '{"match_id":"%s","team_id":"T1","passer":"%s","receiver":"%s","timestamp_s":%s}\n'
    (inputs / "a.jsonl").write_text(
        record % ("M1", "2", "4", "0.0")
        + record % ("M1", "4", "5", "1" + "0" * 400)
        + record % ("M1", "4", "5", "1" + "0" * 5000)
        + record % ("M1", "4", "5", "1.0")
        + record % ("M1", "5", "6", "2.0")
    )
    (inputs / "b.jsonl").write_text(record % ("M2", "a", "b", "0.0"))
    out = tmp_path / "motifs.csv"
    assert main(["motifs", str(inputs), "--format", "jsonl", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line=2 reason=invalid timestamp 1000" in err
    assert "line=3 reason=invalid JSON" in err
    assert "Traceback" not in err and "error:" not in err
    rows = read_rows(out)
    assert {r["match_id"] for r in rows} == {"M1", "M2"}
    # M1 keeps its three valid passes, one window of four touches
    assert [r["count"] for r in rows if r["match_id"] == "M1"] == ["0", "0", "0", "0", "1"]


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["motifs", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_an_input_reached_twice_is_read_once(league_dir, tmp_path):
    # Read twice, a file's passes were all duplicated: its possessions broke
    # into one-pass runs and its counts collapsed, without any error.
    first = sorted(league_dir.glob("*.csv"))[0]
    link = tmp_path / "link"
    link.symlink_to(league_dir)
    outputs = []
    for name, inputs in (
        ("once", [league_dir]),
        ("file-after", [league_dir, first]),
        ("file-before", [first, league_dir]),
        ("dir-twice", [league_dir, league_dir]),
        ("dir-and-link", [league_dir, link]),
    ):
        out = tmp_path / f"{name}.csv"
        assert main(["motifs", *map(str, inputs), "--out", str(out)]) == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert len(manifest["input_digests"]) == len(list(league_dir.glob("*.csv")))
        outputs.append(out.read_bytes())
    # the file given first is read first, so its rows lead
    assert outputs[0] == outputs[1] == outputs[3] == outputs[4]
    assert sorted(outputs[2].splitlines()) == sorted(outputs[0].splitlines())


def test_a_directory_lists_its_regular_files_only(tmp_path, capsys):
    events = tmp_path / "events"
    events.mkdir()
    (events / "a.csv").write_text(WORKED_EXAMPLE_CSV)
    assert main(["motifs", str(events), "--out", str(tmp_path / "plain.csv")]) == 0
    (events / "sub.csv").mkdir()  # named like an event file, but a directory
    (events / "sub.csv" / "inner.csv").write_text(WORKED_EXAMPLE_CSV.replace("M1", "M9"))
    assert main(["motifs", str(events), "--out", str(tmp_path / "o.csv")]) == 0
    assert (tmp_path / "o.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    missing = str(events / "missing.csv")
    assert main(["motifs", missing, "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"error: input not found: {missing}\n"


@pytest.mark.parametrize("replicates", ["0", "-3"])
def test_replicates_below_one_exit_2_before_any_input_is_read(tmp_path, capsys, replicates):
    argv = ["zscores", str(tmp_path / "missing"), "--replicates", replicates]
    with pytest.raises(SystemExit) as exit:
        main(argv + ["--out", str(tmp_path / "z.csv")])
    assert exit.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --replicates: must be >= 1, got {replicates}" in err
    assert "input not found" not in err


@pytest.mark.parametrize("command", ["motifs", "zscores"])
def test_a_t_max_segmentation_refuses_exits_2_before_any_input_is_read(tmp_path, capsys, command):
    # Checked once per command, up front: once per team-match, an empty
    # input was never checked and a bad one was read and parsed first.
    argv = [command, str(tmp_path / "missing"), "--tmax", "0", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: t_max must be positive, got 0.0\n"


_CELL = st.text(alphabet=list("aZ09 ,\"\n\r\t-é"), max_size=6)
_NUMBER = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-05, 1e16, -0.0, 0.0001, 1e-4 / 3, 123456789012345.6, 5e-324]),
    st.sampled_from(["true", "false"]),
)


@settings(max_examples=200, deadline=None)
@given(
    keys=st.sampled_from([("team_id",), ("match_id", "team_id")]),
    ks=st.lists(st.sampled_from([2, 3]), max_size=4),
    data=st.data(),
)
def test_pattern_csv_matches_the_csv_module_row_by_row(tmp_path_factory, keys, ks, data):
    heads = [(*data.draw(st.tuples(*[_CELL] * len(keys))), k) for k in ks]
    values = ("count", "z")
    rows = sum({2: 2, 3: 5}[k] for k in ks)
    columns = [data.draw(st.lists(_NUMBER, min_size=rows, max_size=rows)) for _ in values]
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    _write_pattern_csv(path, keys, values, heads, columns)
    assert path.read_bytes() == oracle_pattern_csv(keys, values, heads, columns).encode()


# The manifests of ``test_manifest_text_is_pinned`` over the worked example,
# with the input's directory and the duration masked.
MANIFEST_TEXT = {
    "motifs": """{
  "command": "motifs",
  "config": {
    "format": "csv",
    "k": 3,
    "t_max": 5.0
  },
  "counts": {
    "records": 5,
    "rejected_fields": 0,
    "rejected_invalid_json": 0,
    "rejected_invalid_timestamp": 0,
    "rejected_missing_field": 0,
    "rejected_negative_timestamp": 0,
    "rejected_not_an_object": 0,
    "rejected_records": 0,
    "rejected_self_pass": 0
  },
  "duration_s": <masked>,
  "input_digests": {
    "<in>/events.csv": "<sha256>"
  },
  "version": "<version>"
}
""",
    "zscores": """{
  "command": "zscores",
  "config": {
    "format": "csv",
    "k": 3,
    "null_model": "uniform-walk",
    "replicates": 3,
    "seed": 0,
    "t_max": 5.0
  },
  "counts": {
    "exact_possessions": 1,
    "records": 5,
    "rejected_fields": 0,
    "rejected_invalid_json": 0,
    "rejected_invalid_timestamp": 0,
    "rejected_missing_field": 0,
    "rejected_negative_timestamp": 0,
    "rejected_not_an_object": 0,
    "rejected_records": 0,
    "rejected_self_pass": 0,
    "sampled_possessions": 0
  },
  "duration_s": <masked>,
  "input_digests": {
    "<in>/events.csv": "<sha256>"
  },
  "version": "<version>"
}
""",
}


@pytest.mark.parametrize("command", sorted(MANIFEST_TEXT))
def test_manifest_text_is_pinned(tmp_path, command):
    from flowmotif import __version__

    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "events.csv").write_text(WORKED_EXAMPLE_CSV)
    out = tmp_path / "o.csv"
    extra = ["--null-model", "uniform-walk", "--replicates", "3"] if command == "zscores" else []
    assert main([command, str(inputs), *extra, "--out", str(out)]) == 0
    text = out.with_name("o.csv.manifest.json").read_text()
    text = re.sub(r'"duration_s": [^,\n]+,', '"duration_s": <masked>,', text)
    expected = (
        MANIFEST_TEXT[command]
        .replace("<in>", str(inputs))
        .replace("<sha256>", hashlib.sha256(WORKED_EXAMPLE_CSV.encode()).hexdigest())
        .replace("<version>", __version__)
    )
    assert text == expected


def test_zscores_deterministic_across_runs_and_threads(league_dir, tmp_path, monkeypatch):
    outputs = []
    for name, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        monkeypatch.setenv("FLOWMOTIF_THREADS", threads)
        out = tmp_path / f"z_{name}.csv"
        code = main(
            [
                "zscores",
                str(league_dir),
                "--replicates",
                "25",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_bad_thread_count_names_the_variable(league_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLOWMOTIF_THREADS", "abc")
    argv = ["zscores", str(league_dir), "--replicates", "2", "--out", str(tmp_path / "z.csv")]
    assert main(argv) == 2
    assert "FLOWMOTIF_THREADS must be an integer, got 'abc'" in capsys.readouterr().err


def test_zscores_header_and_single_replicate_degeneracy(league_dir, tmp_path):
    out = tmp_path / "z1.csv"
    assert (
        main(["zscores", str(league_dir), "--replicates", "1", "--out", str(out)]) == 0
    )
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == "match_id,team_id,k,pattern,count,null_mean,null_std,z,degenerate"
    rows = read_rows(out)
    assert rows and all(r["degenerate"] == "true" for r in rows)


def test_full_pipeline_to_cluster_and_pca(league_dir, tmp_path):
    zs = tmp_path / "z.csv"
    assert (
        main(
            ["zscores", str(league_dir), "--replicates", "40", "--seed", "3", "--out", str(zs)]
        )
        == 0
    )
    fps = tmp_path / "fingerprints.csv"
    assert main(["fingerprint", str(zs), "--out", str(fps)]) == 0
    rows = read_rows(fps)
    assert {r["team_id"] for r in rows} == {t["team_id"] for t in TEAMS}
    assert all(r["matches_used"] == "3" for r in rows)

    cluster_dir = tmp_path / "cluster"
    assert (
        main(["cluster", str(fps), "--clusters", "2", "--seed", "5", "--out", str(cluster_dir)])
        == 0
    )
    for name in (
        "clusters.csv",
        "cluster_stats.json",
        "dendrogram.json",
        "pca.csv",
        "pca_scatter.svg",
        "dendrogram.svg",
        "manifest.json",
    ):
        assert (cluster_dir / name).exists(), name
    stats = json.loads((cluster_dir / "cluster_stats.json").read_text())
    assert stats["within_over_total"] + stats["between_over_total"] == pytest.approx(1.0)
    dendro = json.loads((cluster_dir / "dendrogram.json").read_text())
    assert dendro["height_convention"] == "ess_increase"
    assignments = read_rows(cluster_dir / "clusters.csv")
    assert {r["team_id"] for r in assignments} == {t["team_id"] for t in TEAMS}
    assert {r["cluster"] for r in assignments} <= {"0", "1"}

    pca_dir = tmp_path / "pca"
    assert main(["pca", str(fps), "--out", str(pca_dir)]) == 0
    coords = read_rows(pca_dir / "pca.csv")
    assert len(coords) == 4 and set(coords[0]) == {"team_id", "pc1", "pc2"}
    explained = json.loads((pca_dir / "pca_explained.json").read_text())
    assert len(explained["explained_variance_ratio"]) == 2
    # one writer for both: cluster colors the points by cluster, pca does not
    assert (pca_dir / "pca.csv").read_bytes() == (cluster_dir / "pca.csv").read_bytes()
    clusters = {r["cluster"] for r in assignments}
    assert len(fills(cluster_dir / "pca_scatter.svg")) == len(clusters)
    assert len(fills(pca_dir / "pca_scatter.svg")) == 1
    digests = {
        (path.parent.name, path.name): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (*cluster_dir.iterdir(), *pca_dir.iterdir())
        if path.name != "manifest.json"
    }
    assert digests == CLUSTER_GOLDEN


# sha256 of the cluster and pca outputs of the pipeline above. They are
# versioned like ``GOLDEN`` below.
CLUSTER_GOLDEN = {
    ("cluster", "clusters.csv"):
        "5d280ec05b9c42446d69ac85517a4ffac405607756e96b97455bb24e868fcc8f",
    ("cluster", "cluster_stats.json"):
        "e7607fad665aad9cbe6fef9b3a0001cba385229ee69129d04929b620473ec7ba",
    ("cluster", "dendrogram.json"):
        "de2b1c71ba8fb31873118a8b929cdf4932e85ee1796f61e23b791904b6f071dd",
    ("cluster", "dendrogram.svg"):
        "9989faf6fcd43abf2c64e86837c6550672a73464e2a84d3c16eca90b760f1efe",
    ("cluster", "pca.csv"):
        "e5da6b35b15f3ece23a0597f5ef2abf17ea074104ed518f9c0f5542d2c878ab9",
    ("cluster", "pca_scatter.svg"):
        "c1ea695805af6d1368a8c67bac9c27da5ccbfef1bc43bed5577cfa47221ade47",
    ("pca", "pca.csv"):
        "e5da6b35b15f3ece23a0597f5ef2abf17ea074104ed518f9c0f5542d2c878ab9",
    ("pca", "pca_explained.json"):
        "46649cc35a440edb2866fa72a894c41dd70866ce639a8e90f553b40ebdc41546",
    ("pca", "pca_scatter.svg"):
        "9f3dbf8164577fc0aa1965b94fc080c84c665d9320eb8fb7809cfbc54876f27c",
}


def test_svg_escape_matches_the_standard_library():
    from xml.sax.saxutils import escape

    from flowmotif.svg import _escape

    for text in ["club", "A&B <C> D&amp;", "<<&&>>", ""]:
        assert _escape(text) == escape(text)


def fills(svg_path):
    return set(re.findall(r'<circle [^>]*fill="([^"]+)"', svg_path.read_text()))


def test_pca_standardize_writes_the_standardized_coordinates(league_dir, tmp_path):
    zs, fps = tmp_path / "z.csv", tmp_path / "f.csv"
    assert main(["zscores", str(league_dir), "--replicates", "5", "--out", str(zs)]) == 0
    assert main(["fingerprint", str(zs), "--out", str(fps)]) == 0
    features = {}
    for row in read_rows(fps):
        features.setdefault(row["team_id"], []).append(float(row["mean_z"]))
    fingerprints = [TeamFingerprint(team, 3, tuple(z), 3) for team, z in features.items()]
    coords = {}
    for standardize in (False, True):
        out = tmp_path / f"pca{standardize}"
        flags = ["--pca-standardize"] if standardize else []
        assert main(["pca", str(fps), *flags, "--out", str(out)]) == 0
        coords[standardize] = {
            r["team_id"]: (float(r["pc1"]), float(r["pc2"])) for r in read_rows(out / "pca.csv")
        }
    assert coords[True] == pca_project(fingerprints, 2, standardize=True).coordinates
    assert coords[True] != coords[False]


def test_cluster_with_too_few_teams_exits_2(league_dir, tmp_path, capsys):
    zs = tmp_path / "z.csv"
    main(["zscores", str(league_dir), "--replicates", "5", "--out", str(zs)])
    fps = tmp_path / "f.csv"
    main(["fingerprint", str(zs), "--out", str(fps)])
    code = main(["cluster", str(fps), "--clusters", "9", "--out", str(tmp_path / "c")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_jsonl_pipeline(tmp_path):
    spec = tmp_path / "teams.json"
    spec.write_text(json.dumps(TEAMS[:2]))
    out = tmp_path / "events"
    assert (
        main(
            [
                "synth",
                "--teams",
                str(spec),
                "--seed",
                "1",
                "--format",
                "jsonl",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert len(list(out.glob("*.jsonl"))) == 6
    motifs = tmp_path / "motifs.csv"
    assert main(["motifs", str(out), "--format", "jsonl", "--out", str(motifs)]) == 0
    assert len(read_rows(motifs)) == 6 * 5


def test_bad_team_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "teams.json"
    spec.write_text(json.dumps({"not": "a list"}))
    assert main(["synth", "--teams", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("t_max", ["0", "-5", "nan"])
def test_synth_with_a_t_max_segmentation_refuses_exits_2(tmp_path, capsys, t_max):
    # Possessions 1 s apart (t_max 0) are not recoverable, and a negative or
    # NaN t_max once failed later with a message about the timestamps.
    spec = tmp_path / "teams.json"
    spec.write_text(json.dumps(TEAMS))
    out = tmp_path / "events"
    assert main(["synth", "--teams", str(spec), "--tmax", t_max, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: t_max must be positive, got {float(t_max)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("entries", [[{"bogus": 1}], [1], [{"squad_size": "x"}]])
def test_bad_team_spec_entry_exits_2(tmp_path, capsys, entries):
    spec = tmp_path / "teams.json"
    spec.write_text(json.dumps(entries))
    assert main(["synth", "--teams", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: team spec entry 0") and "Traceback" not in err


def test_cluster_rejects_malformed_fingerprint_csv(tmp_path, capsys):
    bad = tmp_path / "f.csv"
    bad.write_text("team_id,k,pattern\nclub,3,ABAB\n")
    assert main(["cluster", str(bad), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "missing column" in err
    incomplete = tmp_path / "f2.csv"
    incomplete.write_text(
        "team_id,k,pattern,mean_z,matches_used\n"
        "a,3,ABAB,1.0,2\na,3,ABAC,1.0,2\n"  # three patterns missing
        "b,3,ABAB,0.0,2\nb,3,ABAC,0.0,2\n"
    )
    assert main(["cluster", str(incomplete), "--out", str(tmp_path / "c2")]) == 2
    assert "missing pattern" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text("team_id,k,pattern,mean_z,matches_used\na,3,ABAB,1.0,2\na,3,ABAC\n")
    assert main(["cluster", str(short), "--out", str(tmp_path / "c4")]) == 2
    assert f"error: {short}: line 3 has too few fields" in capsys.readouterr().err
    complete = "".join(f"a,3,{p},1.0,2\n" for p in ("ABAB", "ABAC", "ABCA", "ABCB", "ABCD"))
    for extra, reason in (("a,3,ZZZZ,1.0,2\n", "unknown"), ("a,3,ABCA,0.0,2\n", "repeated")):
        bad = tmp_path / f"{reason}.csv"
        bad.write_text("team_id,k,pattern,mean_z,matches_used\n" + complete + extra)
        assert main(["cluster", str(bad), "--out", str(tmp_path / "c3")]) == 2
        err = capsys.readouterr().err
        pattern = extra.split(",")[2]
        assert f"error: {bad}: team_id 'a': {reason} pattern '{pattern}'" in err
    # every row of a key must agree on k and on matches_used
    for name, rows, reason in (
        ("k", complete.replace("a,3,ABCB", "a,4,ABCB"), "k 4 after k 3"),
        ("used", complete.replace("ABCB,1.0,2", "ABCB,1.0,7"), "matches_used differs"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("team_id,k,pattern,mean_z,matches_used\n" + rows)
        assert main(["cluster", str(bad), "--out", str(tmp_path / "c5")]) == 2
        assert f"error: {bad}: team_id 'a': {reason}" in capsys.readouterr().err
    # a cell that does not parse names the file and line
    for name, rows, reason in (
        ("kcell", complete.replace("a,3,ABCA", "a,x,ABCA"), "line 4: invalid literal for int()"),
        ("zcell", complete.replace("ABCB,1.0", "ABCB,abc"), "line 5: could not convert string"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("team_id,k,pattern,mean_z,matches_used\n" + rows)
        assert main(["cluster", str(bad), "--out", str(tmp_path / "c6")]) == 2
        assert f"error: {bad}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["motifs", "zscores"])
def test_manifest_digests_every_input_once_read(tmp_path, command):
    # The digests come from the bytes that were parsed, so a file whose
    # header is broken, and which is rejected whole, is listed as well.
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "good.csv").write_text(WORKED_EXAMPLE_CSV)
    (inputs / "bad_header.csv").write_text("match,team\nM2,T1\n")
    (inputs / "bad_record.csv").write_text(WORKED_EXAMPLE_CSV.replace("M1", "M3") + "M3,T1,x\n")
    out = tmp_path / "out.csv"
    argv = [command, str(inputs), "--out", str(out)]
    assert main(argv + (["--replicates", "3"] if command == "zscores" else [])) == 2
    manifest = json.loads(out.with_name("out.csv.manifest.json").read_text())
    assert manifest["input_digests"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs.iterdir()
    }


# Per command: its settings, and where its manifest sits under ``tmp_path``.
MANIFEST_CASES = {
    "synth": (["format", "seed", "t_max"], "events/manifest.json"),
    "motifs": (["format", "k", "t_max"], "m.csv.manifest.json"),
    "zscores": (
        ["format", "k", "null_model", "replicates", "seed", "t_max"],
        "z.csv.manifest.json",
    ),
    "fingerprint": ([], "f.csv.manifest.json"),
    "cluster": (["clusters", "pca_dims", "pca_standardize", "seed"], "cluster/manifest.json"),
    "pca": (["pca_dims", "pca_standardize"], "pca/manifest.json"),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_config_holds_exactly_the_settings(league_dir, tmp_path, command):
    # Each manifest echoes every setting of its command and nothing else, the
    # null model named as on the command line. It sits inside an output
    # directory and next to an output file. The commands that parse pass logs
    # count their records, and zscores counts its possessions too.
    league, fps = str(league_dir), str(tmp_path / "f.csv")
    for argv, out in (
        (["motifs", league], "m.csv"),
        (["zscores", league, "--null-model", "uniform-walk", "--replicates", "3"], "z.csv"),
        (["fingerprint", str(tmp_path / "z.csv")], "f.csv"),
        (["cluster", fps, "--clusters", "2"], "cluster"),
        (["pca", fps], "pca"),
    ):
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
    settings, place = MANIFEST_CASES[command]
    manifest = json.loads((tmp_path / place).read_text())
    assert manifest["command"] == command
    assert sorted(manifest["config"]) == settings
    records = ["records", "rejected_records", *REJECTED_KINDS]
    if command == "zscores":
        assert manifest["config"]["null_model"] == "uniform-walk"
        assert sorted(manifest["counts"]) == sorted(records + ["exact_possessions",
                                                               "sampled_possessions"])
    elif command == "motifs":
        assert sorted(manifest["counts"]) == sorted(records)
    else:
        assert manifest["counts"] == {}


def test_fingerprint_rejects_zscores_missing_a_pattern(tmp_path, capsys):
    zs = tmp_path / "z.csv"
    zs.write_text(
        "match_id,team_id,k,pattern,count,null_mean,null_std,z,degenerate\n"
        "m,a,3,ABAB,1,1.0,0.0,0.0,false\n"
    )
    assert main(["fingerprint", str(zs), "--out", str(tmp_path / "f.csv")]) == 2
    assert "missing pattern" in capsys.readouterr().err
    complete = "".join(
        f"m,a,3,{p},1,1.0,0.0,0.0,false\n" for p in ("ABAB", "ABAC", "ABCA", "ABCB", "ABCD")
    )
    for extra, reason in (
        ("m,a,3,ZZZZ,1,1.0,0.0,0.0,false\n", "unknown"),
        ("m,a,3,ABAC,1,1.0,0.0,5.0,false\n", "repeated"),
    ):
        zs.write_text(zs.read_text().splitlines(keepends=True)[0] + complete + extra)
        assert main(["fingerprint", str(zs), "--out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        pattern = extra.split(",")[3]
        assert f"error: {zs}: match_id 'm', team_id 'a': {reason} pattern '{pattern}'" in err
    zs.write_text(zs.read_text().splitlines(keepends=True)[0] + complete.replace("3,ABCD", "5,ABCD"))
    assert main(["fingerprint", str(zs), "--out", str(tmp_path / "f.csv")]) == 2
    assert f"error: {zs}: match_id 'm', team_id 'a': k 5 after k 3" in capsys.readouterr().err


PATTERNS_K3 = ("ABAB", "ABAC", "ABCA", "ABCB", "ABCD")
PATTERN_CSVS = {  # command: a per-pattern CSV it reads, header first
    "fingerprint": [
        "match_id,team_id,k,pattern,count,null_mean,null_std,z,degenerate",
        *[f"m,a,3,{p},1,1.0,0.5,{i}.0,false" for i, p in enumerate(PATTERNS_K3)],
    ],
    "cluster": [
        "team_id,k,pattern,mean_z,matches_used",
        *[f"t{t},3,{p},{t * i}.0,2" for t in range(4) for i, p in enumerate(PATTERNS_K3)],
    ],
}
PATTERN_CSVS["pca"] = PATTERN_CSVS["cluster"]


@pytest.mark.parametrize("command", ["fingerprint", "cluster", "pca"])
@pytest.mark.parametrize("change,fields", [(",EXTRA", "many"), (",", "many"), ("<cut>", "few")])
def test_pattern_csv_row_with_the_wrong_field_count_exits_2(
    tmp_path, capsys, command, change, fields
):
    # Line 3 gains a cell, gains an empty one, or loses its last; the file
    # as written reads cleanly.
    lines = list(PATTERN_CSVS[command])
    good = tmp_path / "good.csv"
    good.write_text("\n".join(lines) + "\n")
    assert main([command, str(good), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    lines[2] = lines[2].rsplit(",", 1)[0] if change == "<cut>" else lines[2] + change
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main([command, str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 3 has too {fields} fields\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["motifs", "zscores"])
@pytest.mark.parametrize("k", ["1", "9", "15"])
def test_k_past_the_alphabet_cap_exits_2(tmp_path, capsys, command, k):
    # The alphabet has Bell(k) patterns, 4,140 at k = 8 and about five times
    # as many per step past it, so larger k are refused before any work.
    src = tmp_path / "events.csv"
    src.write_text(WORKED_EXAMPLE_CSV)
    with pytest.raises(SystemExit) as exit:
        main([command, str(src), "--k", k, "--out", str(tmp_path / "o.csv")])
    assert exit.value.code == 2
    assert "error: argument --k: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_pattern_csv_with_k_past_the_cap_exits_2(tmp_path, capsys):
    # k = 1 is below what any command writes, k = 15 past the alphabet cap
    for k, pattern in ((15, "ABAB"), (1, "AB")):
        fps = tmp_path / f"f{k}.csv"
        fps.write_text(f"team_id,k,pattern,mean_z,matches_used\na,{k},{pattern},1.0,2\n")
        assert main(["pca", str(fps), "--out", str(tmp_path / f"p{k}")]) == 2
        err = capsys.readouterr().err
        assert f"error: {fps}: team_id 'a': k must be between 2 and 8, got {k}" in err


# sha256 of zscores.csv and fingerprints.csv for the league of ``league_dir``
# at seed 3. Output bytes are versioned: a change that moves them bumps
# ``__version__`` and records new values here.
GOLDEN = {
    # re-recorded in version 0.4.0: the match shuffle draws all rows of a
    # batch together, with the same law from a new order of the stream
    ("touch-shuffle-match", "40"): (
        "cb8f61838e6925cf606267cee9fe607c8c81056d3a959e9fe1476b9c10a37102",
        "e828ffbabf0b1944fdf4d7f5da67934dd0f9e9d2c40bfaa4aee4ac626fce8425",
    ),
    # re-recorded in version 0.12.0: the possession shuffle takes exact
    # moments for every possession within its counting DP's budget, which in
    # this league is all of them, so 40 and 300 replicates give the same
    # bytes; test_possession_shuffle_sampled_stream_is_pinned pins the
    # sampled rest
    ("touch-shuffle-possession", "40"): (
        "777619fa0f15c2190a7edd29623a53fdd469cdc05a15e2205048a1f190d41d32",
        "d3a1aea9864c4a6738cc512797f45fd5b691398b706b45769c6570aad6af7619",
    ),
    # recorded in version 0.10.0: 300 replicates span two batches of 256
    # rows, so these pin the stream across a batch boundary
    ("touch-shuffle-match", "300"): (
        "6bcbc6c85c2887297ccb6076b8388fe813a31f881644608beabe367b8503d345",
        "6f7f8d76376568bf8ba61e01e89f9e6d43ae6d41dabd9e52d089da7cfbeab7ff",
    ),
    ("touch-shuffle-possession", "300"): (
        "777619fa0f15c2190a7edd29623a53fdd469cdc05a15e2205048a1f190d41d32",
        "d3a1aea9864c4a6738cc512797f45fd5b691398b706b45769c6570aad6af7619",
    ),
    # re-recorded in version 0.6.0: the walk's moments are exact
    ("uniform-walk", "40"): (
        "80bf497015c77546014359555665077c7d4e83126d801b4b20c623eb886d6772",
        "1dc50b1a54866042520e29c711837816e968e8c1ca0a585a8804aa19c771e22a",
    ),
    # one replicate: the exact mean, but every z is flagged and most are
    # capped at +-10
    ("uniform-walk", "1"): (
        "a96a941d9bd50f069133ec95396db864cfb35a1c6a94e8aeb6613c63890c3c11",
        "65af01fff140173255e6710696b7f08a64aba6376ca6e01a206a3f26ce109b3d",
    ),
}


@pytest.mark.parametrize("policy,replicates", sorted(GOLDEN))
def test_zscores_and_fingerprint_bytes_are_pinned(league_dir, tmp_path, policy, replicates):
    zs, fps = tmp_path / "z.csv", tmp_path / "f.csv"
    argv = ["zscores", str(league_dir), "--null-model", policy, "--replicates", replicates]
    assert main(argv + ["--seed", "3", "--out", str(zs)]) == 0
    assert main(["fingerprint", str(zs), "--out", str(fps)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (zs, fps))
    assert digests == GOLDEN[policy, replicates]


@pytest.mark.parametrize(
    "k,digest",
    [
        ("3", "26766b89deb7cce432d1b6b835ab0ee590cbd5e0153009e9f850d947af019e0f"),
        ("5", "b0bd2a50122467fbf5d8b82eea36cd72f323884aa7c315933c9a1b3caf699f55"),
    ],
)
def test_motifs_bytes_are_pinned(league_dir, tmp_path, k, digest):
    out = tmp_path / "m.csv"
    assert main(["motifs", str(league_dir), "--k", k, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
