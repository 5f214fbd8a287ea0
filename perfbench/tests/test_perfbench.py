"""Tests of the benchmark itself: a tiny run of every workload with its
checks, and planted bad outputs each check must reject.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402  (puts the program's src on sys.path)
import checks  # noqa: E402
import inputs  # noqa: E402
import procs  # noqa: E402

TINY = {"num_clusters": 4, "jobs_per_cluster": 25, "users": 150, "noise": 0.1, "embedding_dim": 16}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "WORK", tmp_path / "work")
    monkeypatch.setattr(inputs, "CONTENT_SHAPE", {**TINY, "events_per_user": 8})
    monkeypatch.setattr(inputs, "BEHAVIOR_SHAPE", {**TINY, "events_per_user": 12})
    monkeypatch.setattr(inputs, "PASS_MIX", {"active": 16, "passive_resume": 2, "passive_history": 1, "anonymous": 1})
    return tmp_path


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_passes_its_checks(tiny, workload):
    result = bench.run_workload(workload, seed=3, seconds=1, trace=False)
    assert result["correct"], workload
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "serve-mixed":
        # Whole passes only; only stale-artifact probe requests may fail.
        per_pass = sum(inputs.PASS_MIX.values()) + inputs.PROBE_USERS
        assert result["attempted"] % per_pass == 0
        assert result["failed"] <= result["attempted"] // per_pass * inputs.PROBE_USERS
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(tiny, workload):
    result = bench.run_workload(workload, seed=3, seconds=1, trace=True)
    assert result["correct"], workload
    assert list(result["metrics"]) == bench.per_layer_names()
    assert result["metrics"]["ingest.parse_events_s"]["value"] > 0
    assert result["metrics"]["ingest.events"]["value"] > 0


def test_printed_metrics_match_the_manifest():
    """Every metric is printed under the name and unit BENCHMARK.json gives it."""
    manifest = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == bench.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == [
        (name, bench.unit_of(name)) for name in bench.per_layer_names()
    ]
    assert [w["name"] for w in manifest["workloads"]] == list(bench.WORKLOADS)


# ---------------------------------------------------------------------------
# planted bad outputs


GOOD = [("j3", 0.9, "level1"), ("j4", 0.5, "level1"), ("j5", 0.7, "level2"), ("j6", 0.01, "global_pagerank")]
ACTIVE = {"j3", "j4", "j5", "j6", "j7"}
HISTORY = {"j1", "j2"}


def test_good_response_passes():
    assert checks.check_response(GOOD, 15, HISTORY, ACTIVE) == (False, [])


def test_expired_job_is_a_failed_request():
    expired, problems = checks.check_response(GOOD + [("j9", 0.001, "global_pagerank")], 15, HISTORY, ACTIVE)
    assert expired and problems == []


@pytest.mark.parametrize(
    "bad",
    [
        GOOD + [("j1", 0.001, "global_pagerank")],  # history job
        GOOD + [("j3", 0.001, "global_pagerank")],  # duplicate
        [GOOD[2], GOOD[0], GOOD[1], GOOD[3]],  # level2 before level1
        [GOOD[1], GOOD[0], GOOD[2], GOOD[3]],  # scores rise within a tier
        GOOD[:1] + [("j4", 0.5, "popularity")],  # unknown tier
    ],
)
def test_bad_response_is_rejected(bad):
    assert checks.check_response(bad, 15, HISTORY, ACTIVE)[1]


def test_response_longer_than_k_is_rejected():
    assert checks.check_response(GOOD, 3, HISTORY, ACTIVE)[1]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A tiny corpus, its digraph from `jobgraph build`, and the recomputation."""
    from jobgraph.evaluation import synth_corpus, write_corpus

    out = tmp_path_factory.mktemp("built")
    write_corpus(synth_corpus(seed=5, events_per_user=8, **TINY), out)
    inputs._build_artifact(out)
    jobs = checks.read_jobs(out / "jobs.csv")
    signals = checks.read_signals(out / "events.csv", jobs, bench.REFERENCE)
    sources = sorted(jobs)[::7]
    expected = checks.expected_out_edges(sources, signals, jobs, out / "embeddings.txt")
    dsts, edges = checks.read_digraph(out / "artifact" / "digraph.csv")
    return jobs, expected, dsts, edges


def test_build_matches_recomputation(built):
    jobs, expected, dsts, edges = built
    assert sum(len(e) for e in expected.values()) > 0
    assert checks.check_build(dsts, edges, expected, jobs) == []


def test_wrong_edge_score_is_rejected(built):
    jobs, expected, dsts, edges = built
    src = next(s for s in expected if expected[s])
    dst = sorted(expected[src])[0]
    bad = {s: dict(out) for s, out in edges.items()}
    bad[src][dst] += 1e-6
    assert checks.check_build(dsts, bad, expected, jobs)


def test_missing_edge_is_rejected(built):
    jobs, expected, dsts, edges = built
    src = next(s for s in expected if expected[s])
    bad = {s: dict(out) for s, out in edges.items()}
    del bad[src][sorted(expected[src])[0]]
    assert checks.check_build(dsts, bad, expected, jobs)


def test_expired_destination_is_rejected(built):
    jobs, expected, dsts, edges = built
    expired = next(j for j, active in jobs.items() if not active)
    assert checks.check_build(dsts | {expired}, edges, expected, jobs)


REPORT = {
    "k": 10,
    "num_users": 100,
    "systems": {
        "graph": {"precision": 0.05, "recall": 0.3, "users_served": 100},
        "cf": {"precision": 0.04, "recall": 0.25, "users_served": 90},
        "mf": {"precision": 0.01, "recall": 0.05, "users_served": 80},
    },
}
LOSS = [("iter1:users", 10.0), ("iter1:jobs", 8.0), ("iter2:users", 7.5)]


def _with(system: str, field: str, value) -> dict:
    report = {**REPORT, "systems": {n: dict(s) for n, s in REPORT["systems"].items()}}
    report["systems"][system][field] = value
    return report


def test_good_report_passes():
    assert checks.check_evaluate(REPORT, 100, 0.1, LOSS) == []


@pytest.mark.parametrize(
    "report, users, loss",
    [
        (REPORT, 99, LOSS),  # evaluated-user count differs from the raw events
        (_with("mf", "recall", 1.5), 100, LOSS),
        (_with("cf", "users_served", 101), 100, LOSS),
        (_with("graph", "recall", 0.05), 100, LOSS),  # below a random list
        (REPORT, 100, LOSS + [("iter2:jobs", 7.6)]),  # ALS loss rose
    ],
)
def test_bad_report_is_rejected(report, users, loss):
    assert checks.check_evaluate(report, users, 0.1, loss)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    """In a copy holding only the benchmark files, it exits non-zero and
    prints no result."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in procs.BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "build-content", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
