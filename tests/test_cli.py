"""In-process command-line tests: every subcommand, exit codes, file outputs."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jobgraph import cli
from jobgraph.config import EngineConfig, config_hash, load_config
from jobgraph.evaluation import synth_corpus, write_corpus
from jobgraph.ingest import parse_embeddings
from jobgraph.recommend import Provenance
from jobgraph.scoring import content_edges

REF_ARG = "2017-06-01T00:00:00Z"
PROVENANCE_VALUES = {p.value for p in Provenance}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = cli.main(
        [
            "synth",
            "--clusters", "3",
            "--jobs-per-cluster", "8",
            "--users", "20",
            "--noise", "0.1",
            "--seed", "5",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out


def corpus_flags(corpus_dir, with_embeddings=True):
    flags = [
        "--events", str(corpus_dir / "events.csv"),
        "--jobs", str(corpus_dir / "jobs.csv"),
    ]
    if with_embeddings:
        flags += ["--embeddings", str(corpus_dir / "embeddings.txt")]
    return flags


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("graph")
    rc = cli.main(
        [
            "build",
            *corpus_flags(corpus_dir),
            "--reference-date", REF_ARG,
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# synth + build


def test_synth_prints_the_four_paths(corpus_dir, capsys):
    rc = cli.main(
        [
            "synth",
            "--clusters", "2",
            "--jobs-per-cluster", "4",
            "--users", "3",
            "--seed", "1",
            "--out-dir", str(corpus_dir / "mini"),
        ]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(out) == 4
    names = {line.rsplit("/", 1)[-1] for line in out}
    assert names == {"events.csv", "jobs.csv", "embeddings.txt", "users.csv"}


def test_synth_rejects_bad_parameters(corpus_dir):
    rc = cli.main(
        [
            "synth",
            "--clusters", "3",
            "--jobs-per-cluster", "4",
            "--users", "3",
            "--noise", "1.5",
            "--out-dir", str(corpus_dir / "bad"),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("window_days", ["0", "-1"])
def test_synth_window_below_one_day_is_input_error(tmp_path, caplog, window_days):
    out = tmp_path / "short"
    flags = ["--clusters", "2", "--jobs-per-cluster", "5", "--users", "10", "--window-days", window_days]
    assert cli.main(["synth", *flags, "--out-dir", str(out)]) == 1
    assert f"window_days must be >= 1, got {window_days}" in caplog.text
    assert "randrange" not in caplog.text and not out.exists()


def test_synth_negative_seed_is_config_error_before_anything_is_written(tmp_path):
    # random.Random takes -3 as 3, so the corpus would be that of --seed 3
    with pytest.raises(ValueError, match="seed"):
        synth_corpus(2, 5, 10, 0.1, -3)
    out = tmp_path / "negative"
    flags = ["--clusters", "2", "--jobs-per-cluster", "5", "--users", "10", "--seed", "-3"]
    assert cli.main(["synth", *flags, "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_manifest_content_pairs_is_the_length_of_the_content_pairs(graph_dir, corpus_dir):
    with (corpus_dir / "embeddings.txt").open(encoding="utf-8") as fh:
        embeddings, _ = parse_embeddings(fh)
    pairs = content_edges(embeddings, EngineConfig().gamma)
    manifest = json.loads((graph_dir / "manifest.json").read_text())
    assert len(pairs) == len(pairs.a) == len(pairs.b) == len(pairs.sim) == manifest["content_pairs"] > 0


def test_build_manifest_counts(graph_dir, corpus_dir):
    manifest = json.loads((graph_dir / "manifest.json").read_text())
    assert manifest["jobs"] == 3 * 8
    assert manifest["events_total"] > 0
    assert manifest["events_in_window"] == manifest["events_total"]
    assert manifest["events_unknown_job"] == 0
    assert manifest["graph_nodes"] == 24
    edge_lines = (graph_dir / "digraph.csv").read_text().strip().splitlines()
    assert manifest["digraph_edges"] == len(edge_lines)
    assert manifest["config_hash"] == config_hash(EngineConfig())
    assert set(manifest["connectivity"]) == {
        "co_apps",
        "co_clicks",
        "content",
        "co_apps+co_clicks",
        "co_apps+content",
        "co_clicks+content",
        "co_apps+co_clicks+content",
    }
    for fraction in manifest["connectivity"].values():
        assert 0.0 <= fraction <= 1.0


def test_build_is_deterministic(tmp_path, corpus_dir, graph_dir):
    again = tmp_path / "again"
    rc = cli.main(
        [
            "build",
            *corpus_flags(corpus_dir),
            "--reference-date", REF_ARG,
            "--out-dir", str(again),
        ]
    )
    assert rc == 0
    assert sorted(p.name for p in again.iterdir()) == ["digraph.csv", "manifest.json"]
    for name in ("digraph.csv", "manifest.json"):
        assert (again / name).read_bytes() == (graph_dir / name).read_bytes()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """synth_corpus(4, 25, 200, noise=0.1, seed=0) (16-dim embeddings, 200
    users) written out, and built with reference date 2017-06-01 under
    ``build``."""
    out = tmp_path_factory.mktemp("golden")
    write_corpus(synth_corpus(4, 25, 200, 0.1, 0), out)
    rc = cli.main(
        ["build", *corpus_flags(out), "--reference-date", REF_ARG, "--out-dir", str(out / "build")]
    )
    assert rc == 0
    return out


# sha256 of digraph.csv in the golden_dir build (2593 edges).
# First computed at commit 2b6a421, whose aggregate scored one edge at a
# time in scalar floats; the array scorer must write the same bytes. A
# change of term order, of float formatting or of quoting changes this
# digest. The co-counts here are too small for numpy's log to round
# differently from math's; the oracle tests in test_scoring.py use counts
# that are not. Taken again when the dump lost its five audit columns for
# one evidence code (src,dst,corr,evidence): its first three columns are
# byte for byte those of the 8-field dump.
GOLDEN_DIGRAPH_SHA256 = "a14c7edf63d20f42880b858c30fe25971742988c209ccbeeb1b7182f44ec0106"
# sha256 of that build's manifest.json and of the `evaluate --systems
# graph,cf,mf --out` report on the same corpus, computed at commit 2ab414b,
# before build and evaluate shared build_digraph. The manifest digest was
# taken again when the config lost `pagerank_max_iters` and when
# `config_hash` became a CRC-32: each time only its `config_hash` changed;
# and when it gained the four `digraph_edges_*` counts, its only change.
# The report digest was taken again when ALS drew its init from
# random.Random instead of numpy.random: only the mf row changed.
GOLDEN_MANIFEST_SHA256 = "0476a4929f2e29ebf041b8316d960c4317fb6e1fbf65e23fca1061976043cf80"
GOLDEN_EVALUATE_SHA256 = "abe2bd5cff6c93dec6b765a4f269d06133b2befde8fb1457066cd37cd5d61c6c"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the four files that write_corpus writes of the golden_dir
# corpus, computed at commit 4160db0, before synth_corpus built its events
# as columns: a change of the rng draw order, of the event order or of the
# writer's formatting changes them
GOLDEN_SYNTH_SHA256 = {
    "embeddings.txt": "a6dc24b4bc71e07d3a74a20b884a05d2883c39c78a70bbad8a4c7e585bee441a",
    "events.csv": "dba9312826170d06954d2f3553756cfe73cfbf2bef10151c6a3f1f017391db6b",
    "jobs.csv": "4c863263be81c4a033afc976a09a51c513632a8a3f3d179d55c6e24eaf02bcc9",
    "users.csv": "230409c5c51a6ecb4178d9ff95d56b5cb5c18f63eb8f454344dc23f5cedd6cc8",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SYNTH_SHA256))
def test_synth_files_match_the_golden_digests(golden_dir, name):
    assert sha256_of(golden_dir / name) == GOLDEN_SYNTH_SHA256[name]


# each edge count of the manifest, and which rows of digraph.csv it counts
# (fields src, dst, corr, evidence; evidence bits 1 co-apply, 2 co-click,
# 4 content)
MANIFEST_EDGE_COUNTS = {
    "digraph_edges_behaviour_only": lambda row: int(row[3]) in (1, 2, 3),
    "digraph_edges_content_only": lambda row: int(row[3]) == 4,
    "digraph_edges_both": lambda row: int(row[3]) in (5, 6, 7),
    "digraph_edges_nonpositive": lambda row: float(row[2]) <= 0.0,
}


@pytest.mark.parametrize("field", sorted(MANIFEST_EDGE_COUNTS))
def test_build_manifest_counts_digraph_edges_by_kind(golden_dir, field):
    manifest = json.loads((golden_dir / "build" / "manifest.json").read_text())
    with open(golden_dir / "build" / "digraph.csv", newline="") as fh:
        want = sum(map(MANIFEST_EDGE_COUNTS[field], csv.reader(fh)))
    assert manifest[field] == want > 0


def test_build_digraph_matches_the_golden_digest(golden_dir):
    assert sha256_of(golden_dir / "build" / "digraph.csv") == GOLDEN_DIGRAPH_SHA256


def test_build_manifest_matches_the_golden_digest(golden_dir):
    assert sha256_of(golden_dir / "build" / "manifest.json") == GOLDEN_MANIFEST_SHA256


def test_evaluate_report_matches_the_golden_digest(tmp_path, golden_dir):
    report = tmp_path / "report.json"
    rc = cli.main(
        [
            "evaluate",
            *corpus_flags(golden_dir),
            "--users", str(golden_dir / "users.csv"),
            "--reference-date", REF_ARG,
            "--systems", "graph,cf,mf",
            "--out", str(report),
        ]
    )
    assert rc == 0
    assert sha256_of(report) == GOLDEN_EVALUATE_SHA256


def test_build_without_embeddings_degrades(tmp_path, corpus_dir, caplog):
    out = tmp_path / "noemb"
    with caplog.at_level("WARNING"):
        rc = cli.main(
            [
                "build",
                *corpus_flags(corpus_dir, with_embeddings=False),
                "--reference-date", REF_ARG,
                "--out-dir", str(out),
            ]
        )
    assert rc == 0
    assert "no embeddings given" in caplog.text
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["embeddings"] == 0
    assert manifest["content_pairs"] == 0
    assert manifest["connectivity"]["content"] == 0.0


def test_build_missing_events_file_is_input_error(tmp_path, corpus_dir):
    rc = cli.main(
        [
            "build",
            "--events", str(corpus_dir / "no_such.csv"),
            "--jobs", str(corpus_dir / "jobs.csv"),
            "--reference-date", REF_ARG,
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert rc == 1


def test_build_bad_reference_date_is_input_error(tmp_path, corpus_dir):
    rc = cli.main(
        [
            "build",
            *corpus_flags(corpus_dir),
            "--reference-date", "last tuesday",
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert rc == 1


def test_unknown_config_key_is_config_error(tmp_path, corpus_dir):
    conf = tmp_path / "broken.conf"
    conf.write_text("warp_factor = 9\n")
    rc = cli.main(
        [
            "build",
            "--config", str(conf),
            *corpus_flags(corpus_dir),
            "--reference-date", REF_ARG,
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert rc == 2


def test_pagerank_max_iters_is_an_unknown_key(tmp_path, corpus_dir):
    # the walk's iteration cap is derived from damping and pagerank_epsilon
    conf = tmp_path / "capped.conf"
    conf.write_text("pagerank_max_iters = 100\n")
    rc = cli.main(
        [
            "build",
            "--config", str(conf),
            *corpus_flags(corpus_dir),
            "--reference-date", REF_ARG,
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# recommend + serve-batch


def test_recommend_output_format(graph_dir, corpus_dir, capsys):
    rc = cli.main(
        [
            "recommend",
            *corpus_flags(corpus_dir),
            "--users", str(corpus_dir / "users.csv"),
            "--graph-dir", str(graph_dir),
            "--reference-date", REF_ARG,
            "--user-id", "u00000",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines
    for expected_rank, line in enumerate(lines, start=1):
        rank, job_id, score, provenance = line.split(",")
        assert int(rank) == expected_rank
        assert job_id.startswith("j")
        float(score)
        assert provenance in PROVENANCE_VALUES


def test_recommend_unknown_user_degrades_to_global(graph_dir, corpus_dir, capsys):
    rc = cli.main(
        [
            "recommend",
            *corpus_flags(corpus_dir),
            "--graph-dir", str(graph_dir),
            "--reference-date", REF_ARG,
            "--user-id", "stranger",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines
    assert all(line.split(",")[3] == "global_pagerank" for line in lines)


def test_recommend_missing_graph_dir_is_input_error(tmp_path, corpus_dir):
    rc = cli.main(
        [
            "recommend",
            *corpus_flags(corpus_dir),
            "--graph-dir", str(tmp_path / "never_built"),
            "--reference-date", REF_ARG,
            "--user-id", "u00000",
        ]
    )
    assert rc == 1


def test_unreadable_digraph_dump_is_input_error(tmp_path, corpus_dir, caplog):
    (tmp_path / "graph" / "digraph.csv").mkdir(parents=True)  # exists, cannot be read
    rc = cli.main(
        [
            "recommend",
            *corpus_flags(corpus_dir),
            "--graph-dir", str(tmp_path / "graph"),
            "--reference-date", REF_ARG,
            "--user-id", "u00000",
        ]
    )
    assert rc == 1
    assert "digraph: cannot read" in caplog.text


# every file serve-batch reads, by the stage its log names
READ_STAGES = ["events", "jobs", "embeddings", "users", "user-ids", "config", "digraph"]


@pytest.mark.parametrize("stage", READ_STAGES)
def test_undecodable_input_is_an_input_error(graph_dir, corpus_dir, tmp_path, caplog, stage):
    conf = tmp_path / "engine.conf"
    conf.write_text("k = 15\n")
    ids = tmp_path / "ids.txt"
    ids.write_text("u00000\n")
    files = {
        "events": corpus_dir / "events.csv",
        "jobs": corpus_dir / "jobs.csv",
        "embeddings": corpus_dir / "embeddings.txt",
        "users": corpus_dir / "users.csv",
        "user-ids": ids,
        "config": conf,
        "digraph": graph_dir / "digraph.csv",
    }
    bad = tmp_path / "bad" / files[stage].name
    bad.parent.mkdir()
    bad.write_bytes(files[stage].read_bytes() + b"\xff\n")  # no UTF-8 sequence starts with 0xff
    files[stage] = bad
    flags = [arg for name in READ_STAGES[:-1] for arg in (f"--{name}", str(files[name]))]
    rc = cli.main(
        [
            "serve-batch",
            *flags,
            "--graph-dir", str(files["digraph"].parent),
            "--reference-date", REF_ARG,
            "--out", str(tmp_path / "recs.csv"),
        ]
    )
    assert rc == (2 if stage == "config" else 1)
    assert f"{stage}: cannot read {bad}" in caplog.text


def test_missing_embeddings_file_is_input_error(tmp_path, corpus_dir, caplog):
    missing = corpus_dir / "no_such.txt"
    rc = cli.main(
        [
            "build",
            *corpus_flags(corpus_dir, with_embeddings=False),
            "--embeddings", str(missing),
            "--reference-date", REF_ARG,
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert f"embeddings: cannot read {missing}" in caplog.text
    assert not (tmp_path / "x").exists()


# dump rows that load_digraph rejects, with the reason it names. Each case
# keeps the id it had when a dump row held 8 fields (the row of that format
# and its reason); the fault of an audit-component field is now that of the
# evidence field.
MALFORMED_ROWS = [
    pytest.param("j1,j2", "expected 4 fields, got 2", id="j1,j2-expected 8 fields, got 2"),
    pytest.param("j1,j2,0.5,1,", "expected 4 fields, got 5", id="j1,j2,0.5,,,,,,-expected 8 fields, got 9"),
    pytest.param("j1,j2,,1", "empty corr", id="j1,j2,,0.5,,,,-empty corr"),
    pytest.param("j1,j2,high,1", "non-numeric corr 'high'", id="j1,j2,high,,,,,-non-numeric corr 'high'"),
    pytest.param("j1,j2,0.5,0.x", "evidence '0.x' is not a code 1-7", id="j1,j2,0.5,,,,,0.x-non-numeric sim_e '0.x'"),
    pytest.param("j1,j2,inf,1", "non-finite corr 'inf'", id="j1,j2,inf,,,,,-non-finite corr 'inf'"),
    pytest.param("j1,j2,0.5,0", "evidence '0' is not a code 1-7", id="j1,j2,0.5,-inf,,,,-non-finite p_apps '-inf'"),
    pytest.param("j1,j2,0.5,8", "evidence '8' is not a code 1-7", id="j1,j2,0.5,,,nan,,-non-finite pmi2_apps 'nan'"),
    pytest.param(",j2,0.5,1", "empty job id", id=",j2,0.5,,,,,-empty job id"),
    pytest.param("j1,,0.5,1", "empty job id", id="j1,,0.5,,,,,-empty job id"),
]


def serve_from(command, graph_dir, corpus_dir, tmp_path):
    """Exit code of ``command`` for user u00000 from the digraph in ``graph_dir``."""
    ids = tmp_path / "ids.txt"
    ids.write_text("u00000\n")
    per_command = {
        "recommend": ["--user-id", "u00000"],
        "serve-batch": ["--user-ids", str(ids), "--out", str(tmp_path / "recs.csv")],
    }
    return cli.main(
        [
            command,
            *corpus_flags(corpus_dir),
            "--graph-dir", str(graph_dir),
            "--reference-date", REF_ARG,
            *per_command[command],
        ]
    )


@pytest.mark.parametrize("row, reason", MALFORMED_ROWS)
@pytest.mark.parametrize("command", ["recommend", "serve-batch"])
def test_malformed_digraph_row_is_input_error(graph_dir, corpus_dir, tmp_path, caplog, command, row, reason):
    lines = (graph_dir / "digraph.csv").read_text().splitlines(keepends=True)
    lines.insert(2, row + "\n")
    bad_dir = tmp_path / "graph"
    bad_dir.mkdir()
    (bad_dir / "digraph.csv").write_text("".join(lines))
    assert serve_from(command, bad_dir, corpus_dir, tmp_path) == 1
    assert f"line 3: {reason}" in caplog.text


@pytest.mark.parametrize("command", ["recommend", "serve-batch"])
def test_digraph_of_the_8_field_format_is_refused(graph_dir, corpus_dir, tmp_path, caplog, command):
    # every row as the 8-field format wrote it: corr, then p_apps,
    # p_clicks, pmi2_apps, pmi2_clicks and sim_e, empty where absent
    old_rows = []
    for src, dst, corr, code in csv.reader((graph_dir / "digraph.csv").read_text().splitlines()):
        p_apps = "0.5" if int(code) & 1 else ""
        p_clicks = "0.5" if int(code) & 2 else ""
        sim_e = "0.75" if int(code) & 4 else ""
        old_rows.append(f"{src},{dst},{corr},{p_apps},{p_clicks},{p_apps and '-1.5'},{p_clicks and '-1.5'},{sim_e}\n")
    old_dir = tmp_path / "graph"
    old_dir.mkdir()
    (old_dir / "digraph.csv").write_text("".join(old_rows))
    assert serve_from(command, old_dir, corpus_dir, tmp_path) == 1
    assert "line 1: expected 4 fields, got 8" in caplog.text


def test_serve_batch_counts_and_file_format(graph_dir, corpus_dir, tmp_path, capsys):
    ids = tmp_path / "ids.txt"
    ids.write_text("u00000\nu00001\nstranger\n\n")
    out = tmp_path / "recs.csv"
    serving_flags = [
        *corpus_flags(corpus_dir),
        "--users", str(corpus_dir / "users.csv"),
        "--graph-dir", str(graph_dir),
        "--reference-date", REF_ARG,
    ]
    rc = cli.main(["serve-batch", *serving_flags, "--user-ids", str(ids), "--out", str(out)])
    printed = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert printed[0] == "served=3 unknown=1"

    rows = out.read_text().strip().splitlines()
    assert rows
    per_user_ranks = {}
    provenance_total = 0
    for row in rows:
        user_id, rank, job_id, score, provenance = row.split(",")
        assert user_id in {"u00000", "u00001", "stranger"}
        per_user_ranks.setdefault(user_id, []).append(int(rank))
        float(score)
        assert provenance in PROVENANCE_VALUES
        provenance_total += 1
    for ranks in per_user_ranks.values():
        assert ranks == list(range(1, len(ranks) + 1))

    counted = sum(int(line.split(",")[2]) for line in printed[1:])
    assert counted == provenance_total

    # an unknown id is served as recommend serves it: anonymous, by global PageRank
    stranger = [row.split(",", 1)[1] for row in rows if row.startswith("stranger,")]
    assert stranger and all(row.endswith(",global_pagerank") for row in stranger)
    assert cli.main(["recommend", *serving_flags, "--user-id", "stranger"]) == 0
    assert capsys.readouterr().out.splitlines() == stranger


def test_served_ids_with_a_comma_and_a_quote_read_back_as_csv(tmp_path, capsys):
    # a job id and a user id that csv.writer must quote, in every input file
    job, user = 'a,"1', 'u,"1'
    assert cli.main(["synth", "--quiet", "--clusters", "2", "--jobs-per-cluster", "4",
                     "--users", "6", "--seed", "1", "--out-dir", str(tmp_path / "corpus")]) == 0
    renamed = {"j00_0000": job, "u00000": user}
    for name in ("events.csv", "jobs.csv", "users.csv"):
        path = tmp_path / "corpus" / name
        with path.open(encoding="utf-8", newline="") as fh:
            rows = [[renamed.get(field, field) for field in row] for row in csv.reader(fh)]
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    inputs = [
        "--events", str(tmp_path / "corpus" / "events.csv"),
        "--jobs", str(tmp_path / "corpus" / "jobs.csv"),
        "--reference-date", REF_ARG,
    ]
    assert cli.main(["build", "--quiet", *inputs, "--out-dir", str(tmp_path / "build")]) == 0
    serving = [*inputs, "--users", str(tmp_path / "corpus" / "users.csv"), "--graph-dir", str(tmp_path / "build")]
    ids = tmp_path / "ids.txt"
    ids.write_text("".join(f"{u}\n" for u in [user, "u00001", "u00002", "u00003", "u00004", "u00005"]))
    out = tmp_path / "recs.csv"
    assert cli.main(["serve-batch", "--quiet", *serving, "--user-ids", str(ids), "--out", str(out)]) == 0
    capsys.readouterr()
    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows and all(len(row) == 5 for row in rows)
    assert user in {row[0] for row in rows}
    assert job in {row[2] for row in rows}
    assert all(row[4] in PROVENANCE_VALUES for row in rows)

    # recommend prints the user's rows without the user id, quoted alike
    assert cli.main(["recommend", "--quiet", *serving, "--user-id", "u00001"]) == 0
    printed = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert printed == [row[1:] for row in rows if row[0] == "u00001"]
    assert job in {row[1] for row in printed}


@pytest.fixture(scope="module")
def serving_corpus(tmp_path_factory):
    """synth_corpus(4, 25, 200, 0.1, 0), built, with users of every kind
    appended: per category two resume-only users and one passive user with
    email opens of the category's expired jobs, then one passive user whose
    expired emails span all categories, two anonymous users, and an unknown
    id last in the request file."""
    root = tmp_path_factory.mktemp("serving")
    corpus = synth_corpus(4, 25, 200, 0.1, 0)
    paths = write_corpus(corpus, root / "corpus")
    categories = sorted({job.category for job in corpus.jobs.values()})
    expired = sorted(j for j, rec in corpus.jobs.items() if not rec.is_active)
    users, events = [], []
    for c in categories:
        users += [f"pr_{c}_0,{c},,,true", f"pr_{c}_1,{c},-45.0,-135.0,true", f"ph_{c},{c},,,true"]
        events += [
            f"ph_{c},{j},email_open_no_click,2017-05-0{n + 1}T00:00:00Z,"
            for n, j in enumerate(j for j in expired if corpus.jobs[j].category == c)
        ]
    users += [f"px,{categories[0]},,,true", "an_0,,,,false", "an_1,,-15.0,-45.0,false"]
    events += [f"px,{j},email_open_no_click,2017-04-01T00:00:00Z," for j in expired[::3]]
    with paths["users"].open("a") as fh:
        fh.writelines(line + "\n" for line in users)
    with paths["events"].open("a") as fh:
        fh.writelines(line + "\n" for line in events)
    ids = root / "ids.txt"
    ids.write_text("".join(u + "\n" for u in sorted(corpus.users)) + "".join(
        line.split(",")[0] + "\n" for line in users) + "nobody\n")
    rc = cli.main(
        [
            "build", "--quiet",
            "--events", str(paths["events"]),
            "--jobs", str(paths["jobs"]),
            "--embeddings", str(paths["embeddings"]),
            "--reference-date", REF_ARG,
            "--out-dir", str(root / "build"),
        ]
    )
    assert rc == 0
    args = [
        "serve-batch", "--quiet",
        "--events", str(paths["events"]),
        "--jobs", str(paths["jobs"]),
        "--embeddings", str(paths["embeddings"]),
        "--users", str(paths["users"]),
        "--graph-dir", str(root / "build"),
        "--reference-date", REF_ARG,
        "--user-ids", str(ids),
    ]
    return args


# sha256 of the serve-batch stdout and --out file for the serving_corpus
# fixture, computed at commit ec952b9, before PageRank walked only reached
# edges. Any change of a served id, score repr, provenance or order
# changes them. Taken again when serve-batch began to serve unknown ids as
# anonymous: the --out file gained the rows of `nobody`, which are those
# of `an_0` under another id, and stdout its new first line and counts.
# The --out digest was taken again when the location boost began to divide
# a negative score rather than multiply it: 24 rows of 18 lists changed
# their score, none its job or rank.
GOLDEN_SERVE_SHA256 = {
    "stdout": "fabe57d7305548a5e9c2a0d7d1052ca7e8b603891e7f29996ff80ea373edad2e",
    "out": "0dfc7f47b3ef12d914b795ecf7048b25af21ba1bd4c6ceae6949945e916e0c6c",
}


def test_serve_batch_matches_the_golden_digest(serving_corpus, tmp_path, capsys):
    args = serving_corpus
    rc = cli.main([*args, "--out", str(tmp_path / "recs.csv")])
    stdout = capsys.readouterr().out.encode()
    out = (tmp_path / "recs.csv").read_bytes()
    assert rc == 0
    assert {
        "stdout": hashlib.sha256(stdout).hexdigest(),
        "out": hashlib.sha256(out).hexdigest(),
    } == GOLDEN_SERVE_SHA256

    # the same bytes from a fresh interpreter with another string hash seed
    src = str(Path(cli.__file__).resolve().parents[1])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    again = tmp_path / "again.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "jobgraph.cli", *args, "--out", str(again)],
        env=env, capture_output=True, check=True,
    )
    assert proc.stdout == stdout
    assert again.read_bytes() == out


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_writes_json_report(corpus_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = cli.main(
        [
            "evaluate",
            *corpus_flags(corpus_dir),
            "--users", str(corpus_dir / "users.csv"),
            "--reference-date", REF_ARG,
            "--systems", "graph,cf",
            "--holdout", "0.3",
            "--k", "5",
            "--out", str(report_path),
        ]
    )
    printed = capsys.readouterr().out
    assert rc == 0
    assert "graph" in printed and "cf" in printed
    payload = json.loads(report_path.read_text())
    assert set(payload["systems"]) == {"graph", "cf"}
    for score in payload["systems"].values():
        assert 0.0 <= score["precision"] <= 1.0
        assert 0.0 <= score["recall"] <= 1.0


def test_evaluate_unknown_system_is_input_error(corpus_dir):
    rc = cli.main(
        [
            "evaluate",
            *corpus_flags(corpus_dir),
            "--reference-date", REF_ARG,
            "--systems", "graph,sorcery",
        ]
    )
    assert rc == 1


def test_evaluate_repeated_system_is_input_error(corpus_dir):
    # a repeated name is an input error, not an internal one (exit 3)
    rc = cli.main(["evaluate", *corpus_flags(corpus_dir), "--reference-date", REF_ARG, "--systems", "cf,cf"])
    assert rc == 1


def test_evaluate_k_below_one_is_input_error(corpus_dir):
    rc = cli.main(["evaluate", *corpus_flags(corpus_dir), "--reference-date", REF_ARG, "--k", "0"])
    assert rc == 1


def evaluate_mf(corpus_dir, out, *flags):
    """``evaluate`` of the mf system alone, its report written to ``out``;
    lists of 3, at which seeds 0 and 5 rank this corpus differently."""
    return cli.main(
        [
            "evaluate",
            *flags,
            "--events", str(corpus_dir / "events.csv"),
            "--jobs", str(corpus_dir / "jobs.csv"),
            "--reference-date", REF_ARG,
            "--systems", "mf",
            "--k", "3",
            "--out", str(out),
        ]
    )


def test_evaluate_seed_flag_overrides_the_config_seed(tmp_path, corpus_dir):
    conf = tmp_path / "mf.conf"
    conf.write_text("mf_k = 4\nmf_iterations = 3\n")
    seeded = tmp_path / "seeded.conf"
    seeded.write_text("mf_k = 4\nmf_iterations = 3\nseed = 5\n")
    runs = {
        "flag0": ["--config", str(conf), "--seed", "0"],
        "flag5": ["--config", str(conf), "--seed", "5"],
        "conf5": ["--config", str(seeded)],
    }
    reports = {}
    for name, flags in runs.items():
        assert evaluate_mf(corpus_dir, tmp_path / f"{name}.json", *flags) == 0
        reports[name] = (tmp_path / f"{name}.json").read_bytes()
    assert reports["flag0"] != reports["flag5"]
    assert reports["flag5"] == reports["conf5"]


def test_negative_seed_is_config_error_before_the_inputs_are_read(tmp_path, corpus_dir):
    conf = tmp_path / "negative.conf"
    conf.write_text("seed = -3\n")
    missing = tmp_path / "missing"  # an input problem would exit 1
    assert evaluate_mf(missing, tmp_path / "report.json", "--config", str(conf)) == 2
    assert evaluate_mf(missing, tmp_path / "report.json", "--seed", "-3") == 2
    assert evaluate_mf(corpus_dir, tmp_path / "report.json", "--seed", "-3") == 2
    assert not (tmp_path / "report.json").exists()


def test_zero_mf_reg_is_config_error(tmp_path, corpus_dir):
    conf = tmp_path / "noreg.conf"
    conf.write_text("mf_reg = 0\n")
    assert evaluate_mf(corpus_dir, tmp_path / "report.json", "--config", str(conf)) == 2


# ---------------------------------------------------------------------------
# init-config


def test_init_config_round_trips_defaults(tmp_path, capsys):
    path = tmp_path / "engine.conf"
    rc = cli.main(["init-config", "--out", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(path)
    assert load_config(path.read_text().splitlines()) == EngineConfig()

    assert cli.main(["init-config", "--out", str(path)]) == 1
    assert cli.main(["init-config", "--out", str(path), "--force"]) == 0


def test_config_overrides_flow_into_manifest(tmp_path, corpus_dir):
    conf = tmp_path / "custom.conf"
    conf.write_text("gamma = 0.9\nwindow_days = 90\n")
    out = tmp_path / "custom_build"
    rc = cli.main(
        [
            "build",
            "--config", str(conf),
            *corpus_flags(corpus_dir),
            "--reference-date", REF_ARG,
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["window_days"] == 90
    assert manifest["config_hash"] == config_hash(EngineConfig(gamma=0.9, window_days=90))
    assert manifest["config_hash"] != config_hash(EngineConfig())


# ---------------------------------------------------------------------------
# parser-level behavior


def test_version_flag_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--out-dir", "/tmp/x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["build", "recommend", "serve-batch", "init-config"])
def test_seed_flag_is_a_usage_error_where_nothing_is_seeded(
    command, corpus_dir, graph_dir, tmp_path, capsys
):
    flags = {
        "build": [*corpus_flags(corpus_dir), "--reference-date", REF_ARG, "--out-dir", str(tmp_path)],
        "recommend": [
            *corpus_flags(corpus_dir), "--reference-date", REF_ARG,
            "--graph-dir", str(graph_dir), "--user-id", "u0000",
        ],
        "serve-batch": [
            *corpus_flags(corpus_dir), "--reference-date", REF_ARG, "--graph-dir", str(graph_dir),
            "--user-ids", str(tmp_path / "ids.txt"), "--out", str(tmp_path / "recs.csv"),
        ],
        "init-config": ["--out", str(tmp_path / "jobgraph.conf")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *flags, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# text encoding


def test_every_command_names_the_encoding_of_its_files(tmp_path):
    """Each command in a child interpreter in which opening a text file
    without an explicit encoding raises instead of using the locale's."""
    d = tmp_path
    ref = ["--reference-date", REF_ARG]
    conf = ["--config", str(d / "engine.conf")]
    inputs = ["--events", str(d / "events.csv"), "--jobs", str(d / "jobs.csv")]
    corpus = [*inputs, "--embeddings", str(d / "embeddings.txt")]
    serving = [*corpus, "--users", str(d / "users.csv"), "--graph-dir", str(d / "build")]
    (d / "ids.txt").write_text("u00000\nstranger\n")
    runs = [
        ["init-config", "--out", str(d / "engine.conf")],
        ["synth", "--clusters", "3", "--jobs-per-cluster", "10", "--users", "30", "--out-dir", str(d)],
        ["build", *conf, *corpus, *ref, "--out-dir", str(d / "build")],
        ["recommend", *conf, *serving, *ref, "--user-id", "u00000"],
        ["serve-batch", *conf, *serving, *ref, "--user-ids", str(d / "ids.txt"), "--out", str(d / "recs.csv")],
        ["evaluate", *conf, *corpus, "--users", str(d / "users.csv"), *ref, "--out", str(d / "report.json")],
    ]
    child = "import json, sys\nfrom jobgraph import cli\nprint(json.dumps([cli.main(a) for a in json.loads(sys.argv[1])]))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", child, json.dumps(runs)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr


def test_no_command_imports_numpy_ma(tmp_path):
    """``build``, ``serve-batch`` (with a resume-only user, so a
    personalized walk runs) and ``evaluate`` in a child interpreter leave
    ``numpy.ma`` unimported. numpy imports it on the first ``np.unique``
    without ``return_*`` flags, at over 1 MB of every process's memory; a
    numpy upgrade can bring it back by another call."""
    d = tmp_path
    paths = write_corpus(synth_corpus(3, 10, 30, 0.1, 0), d)
    with paths["users"].open("a", encoding="utf-8") as fh:
        fh.write("resume_only,cat00,,,true\n")
    (d / "ids.txt").write_text("u00000\nresume_only\nstranger\n")
    ref = ["--reference-date", REF_ARG]
    corpus = corpus_flags(d)
    users = ["--users", str(paths["users"])]
    runs = [
        ["build", *corpus, *ref, "--out-dir", str(d / "build")],
        ["serve-batch", *corpus, *users, "--graph-dir", str(d / "build"), *ref,
         "--user-ids", str(d / "ids.txt"), "--out", str(d / "recs.csv")],
        ["evaluate", *corpus, *users, *ref, "--out", str(d / "report.json")],
    ]
    assert run_in_child(runs, ["numpy.ma"]) == ([0] * len(runs), [])
    rows = (d / "recs.csv").read_text().splitlines()
    assert any(r.startswith("resume_only,") and r.endswith(",personalized_pagerank") for r in rows)


def run_in_child(runs, modules):
    """Run ``cli.main`` on each argument list of ``runs`` in one fresh
    interpreter; returns the exit codes and those of ``modules`` that the
    child then holds in ``sys.modules``."""
    child = (
        "import json, sys\nfrom jobgraph import cli\n"
        "runs, modules = json.loads(sys.argv[1])\n"
        "codes = [cli.main(a) for a in runs]\n"
        "print(json.dumps([codes, [m for m in modules if m in sys.modules]]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps([runs, modules])], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    codes, present = json.loads(proc.stdout.splitlines()[-1])
    return codes, present


def test_no_command_loads_openssl_or_numpy_random(tmp_path):
    """Each of the six commands, in its own child interpreter, leaves
    ``hashlib``, OpenSSL's ``_hashlib`` and ``numpy.random`` (which loads
    OpenSSL through ``secrets``) unimported: about 5.5 MB of a process.
    ``serve-batch`` serves an active, a resume-only and an unknown user;
    ``build`` still writes the golden manifest. A numpy upgrade can import
    ``numpy.random`` from another call."""
    d = tmp_path
    paths = write_corpus(synth_corpus(4, 25, 200, 0.1, 0), d)
    with paths["users"].open("a", encoding="utf-8") as fh:
        fh.write("resume_only,cat00,,,true\n")
    (d / "ids.txt").write_text("u00000\nresume_only\nstranger\n")
    ref = ["--reference-date", REF_ARG]
    corpus = corpus_flags(d)
    users = ["--users", str(paths["users"])]
    serving = [*corpus, *users, "--graph-dir", str(d / "build"), *ref]
    runs = {  # in order: recommend and serve-batch read the build
        "build": ["build", *corpus, *ref, "--out-dir", str(d / "build")],
        "recommend": ["recommend", *serving, "--user-id", "u00000"],
        "serve-batch": ["serve-batch", *serving, "--user-ids", str(d / "ids.txt"), "--out", str(d / "recs.csv")],
        "evaluate": ["evaluate", *corpus, *users, *ref, "--out", str(d / "report.json")],
        "synth": ["synth", "--clusters", "2", "--jobs-per-cluster", "5", "--users", "10", "--out-dir", str(d / "synth")],
        "init-config": ["init-config", "--out", str(d / "engine.conf")],
    }
    modules = ["hashlib", "_hashlib", "numpy.random"]
    loaded = {command: run_in_child([args], modules) for command, args in runs.items()}
    assert loaded == {command: ([0], []) for command in runs}
    assert sha256_of(d / "build" / "manifest.json") == GOLDEN_MANIFEST_SHA256
    served = {row.split(",")[0]: row.rsplit(",", 1)[1] for row in (d / "recs.csv").read_text().splitlines()}
    assert served == {"u00000": "level1", "resume_only": "personalized_pagerank", "stranger": "global_pagerank"}
