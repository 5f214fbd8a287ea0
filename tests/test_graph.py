"""Multigraph construction tests: co-statistics against brute-force oracles."""

import random
from datetime import timedelta
from io import StringIO
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import REF, DedupedSignal, co_maps, co_pairs, log_of, make_jobs, reference_costats, ts
from jobgraph.graph import build_costats, dump_graph, load_graph
from jobgraph.ingest import SignalKind


def sig(user, job, kind=SignalKind.APPLY, age_days=1.0, queries=()):
    return DedupedSignal(user, job, kind, ts(age_days), frozenset(queries))


def costats(graph, i, j):
    """``(co_apps, co_clicks)`` of the pair (i, j) in either order; zero if absent."""
    return co_maps(graph).edges.get((min(i, j), max(i, j)), (0, 0))


def test_two_users_co_applying():
    jobs = make_jobs("j1", "j2", "j3")
    signals = [
        sig("u1", "j1"),
        sig("u1", "j2"),
        sig("u2", "j1"),
        sig("u2", "j2"),
        sig("u3", "j3"),
    ]
    graph = build_costats(log_of(signals), jobs)
    assert costats(graph, "j1", "j2")[0] == 2
    assert costats(graph, "j2", "j1")[0] == 2
    assert costats(graph, "j1", "j3")[0] == 0
    assert co_maps(graph).nodes["j1"] == (2, 0)
    assert co_maps(graph).nodes["j3"] == (1, 0)


def test_every_listed_job_becomes_a_node():
    jobs = make_jobs("j1", "j2", "lonely")
    nodes, edges = co_maps(build_costats(log_of([sig("u1", "j1")]), jobs))
    assert set(nodes) == {"j1", "j2", "lonely"}
    assert nodes["lonely"] == (0, 0)
    assert not any("lonely" in pair for pair in edges)


def test_signal_for_unknown_job_raises():
    with pytest.raises(KeyError):
        build_costats(log_of([sig("u1", "ghost")]), make_jobs("j1"))


# ---------------------------------------------------------------------------
# co-click scoping


def test_co_clicks_same_query():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 50.0, queries={"q1", "q2"}),
    ]
    graph = build_costats(log_of(signals), jobs)
    assert costats(graph, "a", "b")[1] == 1


def test_co_clicks_disjoint_queries_do_not_pair():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 1.0, queries={"q2"}),
    ]
    assert costats(build_costats(log_of(signals), jobs), "a", "b")[1] == 0


def test_co_clicks_session_gap_fallback():
    jobs = make_jobs("a", "b", "c")
    signals = [
        sig("u1", "a", SignalKind.CLICK, age_days=1.0),
        sig("u1", "b", SignalKind.CLICK, age_days=1.0 - 29 / (24 * 60)),
        sig("u1", "c", SignalKind.CLICK, age_days=1.0 - 31 / (24 * 60)),
    ]
    graph = build_costats(log_of(signals), jobs, session_gap_minutes=30.0)
    assert costats(graph, "a", "b")[1] == 1
    assert costats(graph, "a", "c")[1] == 0
    assert costats(graph, "b", "c")[1] == 1


def test_mixed_query_and_timestamp_clicks_never_pair():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 1.0),
    ]
    assert costats(build_costats(log_of(signals), jobs), "a", "b")[1] == 0


def test_distinct_user_counting_across_users():
    jobs = make_jobs("a", "b")
    signals = [
        sig("u1", "a", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u1", "b", SignalKind.CLICK, 1.0, queries={"q1"}),
        sig("u2", "a", SignalKind.CLICK, 2.0, queries={"z"}),
        sig("u2", "b", SignalKind.CLICK, 2.0, queries={"z"}),
    ]
    assert costats(build_costats(log_of(signals), jobs), "a", "b")[1] == 2


def click_at(user, job, microseconds, queries=()):
    """A click ``microseconds`` before the reference date."""
    return DedupedSignal(user, job, SignalKind.CLICK, REF - timedelta(microseconds=microseconds), frozenset(queries))


JOB_IDS = ["j0", "j1", "j2", "j3", "j4", "j5"]


@st.composite
def costat_cases(draw):
    """Signals of a few users over a few jobs, so that they repeat and pair
    often, with click times a whole number of session gaps apart, give or
    take 1 µs; sometimes a signal's job is missing from the jobs."""
    gap_minutes = draw(st.sampled_from([0.0, 0.5, 30.0]))
    gap = timedelta(minutes=gap_minutes) // timedelta(microseconds=1)
    signal = st.builds(
        lambda user, job, kind, steps, nudge, queries: DedupedSignal(
            user, job, kind, REF - timedelta(microseconds=steps * gap + nudge), queries
        ),
        st.sampled_from(["u1", "u2", "u3"]),
        st.sampled_from(JOB_IDS),
        st.sampled_from(SignalKind),
        st.integers(0, 3),
        st.integers(-1, 1),
        st.frozensets(st.sampled_from(["q1", "q2", "q3"]), max_size=2),
    )
    signals = draw(st.lists(signal, max_size=30))
    signals += draw(st.lists(st.sampled_from(signals), max_size=5)) if signals else []
    known = JOB_IDS[1:] if draw(st.integers(0, 4)) == 0 else JOB_IDS
    return signals, make_jobs(*known, "isolated"), gap_minutes


MANY_JOBS = [f"m{i:02d}" for i in range(40)]


@settings(max_examples=300)
@given(costat_cases())
# two shared query ids count the pair once
@example(([click_at("u1", "j0", 0, {"q1", "q2"}), click_at("u1", "j1", 0, {"q1", "q2"})], make_jobs(*JOB_IDS), 30.0))
# exactly the gap apart pairs, 1 µs further does not
@example(([click_at("u1", "j0", 0), click_at("u1", "j1", 1800 * 10**6), click_at("u1", "j2", 3600 * 10**6 + 1)], make_jobs(*JOB_IDS), 30.0))
# a job clicked twice without a query id, at a gap of 0
@example(([click_at("u1", "j0", 0), click_at("u1", "j0", 1), click_at("u1", "j1", 1)], make_jobs(*JOB_IDS), 0.0))
# one user with many jobs
@example(([sig("u1", j) for j in MANY_JOBS] + [click_at("u1", j, 0) for j in MANY_JOBS], make_jobs(*MANY_JOBS), 30.0))
@example(([click_at("u1", "j0", 0), click_at("u1", "ghost", 0)], make_jobs(*JOB_IDS), 30.0))
@example(([], {}, 30.0))
def test_build_costats_equals_the_dict_reference(case):
    signals, jobs, gap_minutes = case
    try:
        want = reference_costats(signals, jobs, gap_minutes)
    except KeyError:
        with pytest.raises(KeyError, match="signal references unknown job"):
            build_costats(log_of(signals), jobs, gap_minutes)
        return
    graph = build_costats(log_of(signals), jobs, gap_minutes)
    assert co_maps(graph) == want
    assert graph.ids == sorted(jobs) and graph.num_nodes == len(jobs)
    keys = graph.a.astype(np.int64) * graph.num_nodes + graph.b
    assert (graph.a < graph.b).all() and (np.diff(keys) > 0).all()
    assert ((graph.co_apps > 0) | (graph.co_clicks > 0)).all()


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
    nodes, edges = co_maps(build_costats(log_of(signals), jobs))

    appliers = {}
    clickers = {}
    for s in signals:
        target = appliers if s.kind is SignalKind.APPLY else clickers
        target.setdefault(s.job_id, set()).add(s.user_id)
    for i, j in combinations(sorted(jobs), 2):
        expected_apps = len(appliers.get(i, set()) & appliers.get(j, set()))
        expected_clicks = len(clickers.get(i, set()) & clickers.get(j, set()))
        assert edges.get((i, j), (0, 0)) == (expected_apps, expected_clicks)
    for j in jobs:
        assert nodes[j] == (len(appliers.get(j, set())), len(clickers.get(j, set())))


def test_counts_bounded_by_endpoint_totals_and_symmetric():
    rng = random.Random(6)
    signals = _random_signals(rng, users=30, jobs=12)
    jobs = make_jobs(*[f"j{j:02d}" for j in range(12)])
    graph = build_costats(log_of(signals), jobs)
    nodes, edges = co_maps(graph)
    for (i, j), (co_apps, co_clicks) in edges.items():
        assert co_apps <= min(nodes[i][0], nodes[j][0])
        assert co_clicks <= min(nodes[i][1], nodes[j][1])
        assert costats(graph, i, j) == costats(graph, j, i)


def test_signal_order_does_not_matter():
    rng = random.Random(7)
    signals = _random_signals(rng, users=15, jobs=8)
    jobs = make_jobs(*[f"j{j:02d}" for j in range(8)])
    forward = build_costats(log_of(signals), jobs)
    backward = build_costats(log_of(list(reversed(signals))), jobs)
    assert co_maps(forward) == co_maps(backward)


def test_dump_load_round_trip(tmp_path):
    rng = random.Random(9)
    signals = _random_signals(rng, users=20, jobs=9)
    jobs = make_jobs(*[f"j{j:02d}" for j in range(9)])
    graph = build_costats(log_of(signals), jobs)
    nodes_path = tmp_path / "nodes.csv"
    edges_path = tmp_path / "edges.csv"
    with nodes_path.open("w") as nfh, edges_path.open("w") as efh:
        dump_graph(graph, nfh, efh)
    reloaded = load_graph(nodes_path.read_text().splitlines(), edges_path.read_text().splitlines())
    assert co_maps(reloaded) == co_maps(graph)


def test_dump_load_round_trip_quotes_job_ids():
    ids = ["plain", "with,comma", 'with"quote']
    graph = co_pairs(
        {job_id: (i + 1, i) for i, job_id in enumerate(ids)},
        {("plain", "with,comma"): (1, 0), ("plain", 'with"quote'): (0, 1)},
    )
    nodes_fh, edges_fh = StringIO(), StringIO()
    dump_graph(graph, nodes_fh, edges_fh)
    assert nodes_fh.getvalue() == 'plain,1,0\n"with""quote",3,2\n"with,comma",2,1\n'
    assert edges_fh.getvalue() == 'plain,"with""quote",0,1\nplain,"with,comma",1,0\n'
    reloaded = load_graph(StringIO(nodes_fh.getvalue()), StringIO(edges_fh.getvalue()))
    assert co_maps(reloaded) == co_maps(graph)
