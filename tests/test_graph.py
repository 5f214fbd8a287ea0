"""Multigraph construction tests: co-statistics against brute-force oracles."""

import random
from io import StringIO
from itertools import combinations

import pytest

from helpers import make_job, make_jobs, ts
from jobgraph.graph import CoStats, JobMultiGraph, NodeStats, build_costats, dump_graph, load_graph
from jobgraph.ingest import DedupedSignal, SignalKind


def sig(user, job, kind=SignalKind.APPLY, age_days=1.0, queries=()):
    return DedupedSignal(user, job, kind, ts(age_days), frozenset(queries))


def test_two_users_co_applying():
    jobs = make_jobs("j1", "j2", "j3")
    signals = [
        sig("u1", "j1"),
        sig("u1", "j2"),
        sig("u2", "j1"),
        sig("u2", "j2"),
        sig("u3", "j3"),
    ]
    graph = build_costats(signals, jobs)
    assert graph.costats("j1", "j2").co_apps == 2
    assert graph.costats("j2", "j1").co_apps == 2
    assert graph.costats("j1", "j3").co_apps == 0
    assert graph.stats("j1") == NodeStats(total_apps=2, total_clicks=0)
    assert graph.stats("j3") == NodeStats(total_apps=1, total_clicks=0)


def test_every_listed_job_becomes_a_node():
    jobs = make_jobs("j1", "j2", "lonely")
    graph = build_costats([sig("u1", "j1")], jobs)
    assert set(graph.nodes) == {"j1", "j2", "lonely"}
    assert graph.stats("lonely") == NodeStats()
    assert not any("lonely" in pair for pair in graph.edges)


def test_signal_for_unknown_job_raises():
    with pytest.raises(KeyError):
        build_costats([sig("u1", "ghost")], make_jobs("j1"))


# ---------------------------------------------------------------------------
# co-click scoping


def test_co_clicks_same_query():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 50.0, queries={"q1", "q2"}),
    ]
    graph = build_costats(signals, jobs)
    assert graph.costats("a", "b").co_clicks == 1


def test_co_clicks_disjoint_queries_do_not_pair():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 1.0, queries={"q2"}),
    ]
    assert build_costats(signals, jobs).costats("a", "b").co_clicks == 0


def test_co_clicks_session_gap_fallback():
    jobs = make_jobs("a", "b", "c")
    signals = [
        sig("u1", "a", SignalKind.CLICK, age_days=1.0),
        sig("u1", "b", SignalKind.CLICK, age_days=1.0 - 29 / (24 * 60)),
        sig("u1", "c", SignalKind.CLICK, age_days=1.0 - 31 / (24 * 60)),
    ]
    graph = build_costats(signals, jobs, session_gap_minutes=30.0)
    assert graph.costats("a", "b").co_clicks == 1
    assert graph.costats("a", "c").co_clicks == 0
    assert graph.costats("b", "c").co_clicks == 1


def test_mixed_query_and_timestamp_clicks_never_pair():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 1.0),
    ]
    assert build_costats(signals, jobs).costats("a", "b").co_clicks == 0


def test_distinct_user_counting_across_users():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u2", "a", SignalKind.CLICK, 2.0, queries={"z"}),
        sig("u2", "b", SignalKind.CLICK, 2.0, queries={"z"}),
    ]
    assert build_costats(signals, jobs).costats("a", "b").co_clicks == 2


# ---------------------------------------------------------------------------
# randomized oracles


def _random_signals(rng, users=50, jobs=20):
    signals = []
    for u in range(users):
        applied = rng.sample(range(jobs), rng.randint(0, 5))
        for j in applied:
            signals.append(sig(f"u{u}", f"j{j:02d}"))
        session_jobs = rng.sample(range(jobs), rng.randint(0, 4))
        for j in session_jobs:
            signals.append(
                sig(f"u{u}", f"j{j:02d}", SignalKind.CLICK, queries={f"q{u}"})
            )
    return signals


def test_co_apps_equal_applier_set_intersections():
    rng = random.Random(5)
    signals = _random_signals(rng)
    jobs = make_jobs(*[f"j{j:02d}" for j in range(20)])
    graph = build_costats(signals, jobs)

    appliers = {}
    clickers = {}
    for s in signals:
        target = appliers if s.kind is SignalKind.APPLY else clickers
        target.setdefault(s.job_id, set()).add(s.user_id)
    for i, j in combinations(sorted(jobs), 2):
        expected_apps = len(appliers.get(i, set()) & appliers.get(j, set()))
        expected_clicks = len(clickers.get(i, set()) & clickers.get(j, set()))
        assert graph.costats(i, j).co_apps == expected_apps
        assert graph.costats(i, j).co_clicks == expected_clicks
    for j in jobs:
        assert graph.stats(j).total_apps == len(appliers.get(j, set()))
        assert graph.stats(j).total_clicks == len(clickers.get(j, set()))


def test_counts_bounded_by_endpoint_totals_and_symmetric():
    rng = random.Random(6)
    signals = _random_signals(rng, users=30, jobs=12)
    jobs = make_jobs(*[f"j{j:02d}" for j in range(12)])
    graph = build_costats(signals, jobs)
    for (i, j), stats in graph.edges.items():
        assert stats.co_apps <= min(graph.stats(i).total_apps, graph.stats(j).total_apps)
        assert stats.co_clicks <= min(graph.stats(i).total_clicks, graph.stats(j).total_clicks)
        assert graph.costats(i, j) == graph.costats(j, i)


def test_signal_order_does_not_matter():
    rng = random.Random(7)
    signals = _random_signals(rng, users=15, jobs=8)
    jobs = make_jobs(*[f"j{j:02d}" for j in range(8)])
    forward = build_costats(signals, jobs)
    backward = build_costats(list(reversed(signals)), jobs)
    assert forward.nodes == backward.nodes
    assert forward.edges == backward.edges


def test_dump_load_round_trip(tmp_path):
    rng = random.Random(9)
    signals = _random_signals(rng, users=20, jobs=9)
    jobs = make_jobs(*[f"j{j:02d}" for j in range(9)])
    graph = build_costats(signals, jobs)
    nodes_path = tmp_path / "nodes.csv"
    edges_path = tmp_path / "edges.csv"
    with nodes_path.open("w") as nfh, edges_path.open("w") as efh:
        dump_graph(graph, nfh, efh)
    reloaded = load_graph(nodes_path.read_text().splitlines(), edges_path.read_text().splitlines())
    assert reloaded.nodes == graph.nodes
    assert reloaded.edges == graph.edges


def test_dump_load_round_trip_quotes_job_ids():
    ids = ["plain", "with,comma", 'with"quote']
    graph = JobMultiGraph(
        {job_id: NodeStats(i + 1, i) for i, job_id in enumerate(ids)},
        {("plain", "with,comma"): CoStats(1, 0), ("plain", 'with"quote'): CoStats(0, 1)},
    )
    nodes_fh, edges_fh = StringIO(), StringIO()
    dump_graph(graph, nodes_fh, edges_fh)
    assert nodes_fh.getvalue() == 'plain,1,0\n"with""quote",3,2\n"with,comma",2,1\n'
    assert edges_fh.getvalue() == 'plain,"with""quote",0,1\nplain,"with,comma",1,0\n'
    reloaded = load_graph(StringIO(nodes_fh.getvalue()), StringIO(edges_fh.getvalue()))
    assert reloaded.nodes == graph.nodes
    assert reloaded.edges == graph.edges


def test_stats_records_are_named_tuples_without_a_dict():
    for record in (NodeStats(2, 1), CoStats(1, 0)):
        assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    assert NodeStats(2, 1).total_clicks == 1 and CoStats(1, 0).co_apps == 1
