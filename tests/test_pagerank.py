"""Power-iteration popularity scores checked against a direct linear solve."""

import importlib
import random

import pytest

from helpers import REF, dense_pagerank, make_job, random_digraph
from jobgraph.recommend import (
    RecommenderParams,
    UserProfile,
    global_pagerank,
    personalized_pagerank,
    recommend,
)
from jobgraph.scoring import RecDigraph

# the package re-exports the function `recommend` under the module's name
recommend_module = importlib.import_module("jobgraph.recommend")


def test_two_node_cycle_splits_mass_evenly():
    digraph = RecDigraph.from_corr({("a", "b"): 1.0, ("b", "a"): 1.0}, ["a", "b"])
    result = global_pagerank(digraph)
    assert result.converged
    assert result.scores["a"] == pytest.approx(0.5, abs=1e-9)
    assert result.scores["b"] == pytest.approx(0.5, abs=1e-9)


def test_single_node_holds_all_mass():
    digraph = RecDigraph.from_corr({}, ["only"])
    result = global_pagerank(digraph)
    assert result.converged
    assert result.scores == {"only": pytest.approx(1.0)}


def test_empty_digraph_gives_empty_scores():
    digraph = RecDigraph.from_corr({}, [])
    result = global_pagerank(digraph)
    assert result.scores == {} and result.converged


def test_sink_attracts_more_mass_than_sources():
    digraph = RecDigraph.from_corr(
        {("a", "hub"): 1.0, ("b", "hub"): 1.0, ("c", "hub"): 1.0},
        ["a", "b", "c", "hub"],
    )
    scores = global_pagerank(digraph).scores
    assert scores["hub"] > scores["a"] == scores["b"] == scores["c"]


def test_damping_must_be_in_open_interval():
    digraph = RecDigraph.from_corr({("a", "b"): 1.0}, ["a", "b"])
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            global_pagerank(digraph, damping=bad)
        with pytest.raises(ValueError):
            personalized_pagerank(digraph, ["a"], damping=bad)


def test_global_matches_dense_solve_on_random_graphs():
    rng = random.Random(17)
    for _ in range(60):
        digraph = random_digraph(rng, 12)
        nodes = sorted(digraph.active_jobs)
        result = global_pagerank(digraph, epsilon=1e-14, max_iters=3000)
        assert result.converged
        restart = {j: 1.0 / len(nodes) for j in nodes}
        want = dense_pagerank(digraph, restart, 0.85)
        for j in nodes:
            assert result.scores[j] == pytest.approx(want[j], abs=1e-9)
        assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_negative_edges_carry_no_mass():
    # the only out-edge of "a" has negative aggregate score, so "a" acts as
    # a dangling node and its mass teleports to the restart distribution
    with_neg = RecDigraph.from_corr({("a", "b"): -0.5}, ["a", "b"])
    without = RecDigraph.from_corr({}, ["a", "b"])
    got = global_pagerank(with_neg).scores
    want = global_pagerank(without).scores
    assert got == pytest.approx(want)
    assert got["a"] == pytest.approx(0.5, abs=1e-9)


def test_full_preference_set_reproduces_global_ranking():
    rng = random.Random(23)
    for _ in range(30):
        digraph = random_digraph(rng, 12)
        nodes = sorted(digraph.active_jobs)
        g = global_pagerank(digraph, epsilon=1e-14, max_iters=3000)
        p = personalized_pagerank(digraph, nodes, epsilon=1e-14, max_iters=3000)
        for j in nodes:
            assert p.scores[j] == pytest.approx(g.scores[j], abs=1e-10)


def test_personalized_restricts_to_out_reachable_set():
    digraph = RecDigraph.from_corr(
        {("p", "a"): 1.0, ("a", "b"): 0.5, ("z", "p"): 1.0, ("neg", "p"): 1.0,
         ("b", "neg"): -1.0},
        ["p", "a", "b", "z", "neg"],
    )
    result = personalized_pagerank(digraph, ["p"])
    # z points INTO the walk but is never reached; neg only via a negative edge
    assert set(result.scores) == {"p", "a", "b"}
    assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_personalized_matches_dense_solve_on_reachable_subgraph():
    rng = random.Random(29)
    for _ in range(40):
        digraph = random_digraph(rng, 12)
        nodes = sorted(digraph.active_jobs)
        prefs = rng.sample(nodes, rng.randint(1, len(nodes)))
        result = personalized_pagerank(digraph, prefs, epsilon=1e-14, max_iters=3000)
        assert result.converged
        members = sorted(result.scores)
        assert set(prefs) <= set(members)
        restart = {j: (1.0 / len(prefs) if j in set(prefs) else 0.0) for j in members}
        want = dense_pagerank(digraph, restart, 0.85)
        for j in members:
            assert result.scores[j] == pytest.approx(want[j], abs=1e-9)


def test_preference_job_without_out_edges_keeps_all_mass():
    digraph = RecDigraph.from_corr({("a", "b"): 1.0}, ["a", "b", "island"])
    result = personalized_pagerank(digraph, ["island"])
    assert result.scores == {"island": pytest.approx(1.0)}


def test_edges_from_expired_sources_carry_no_mass():
    # "bx" expired: it keeps its out-edges as a level-1 source, and sorts
    # between active jobs, but moves no PageRank mass
    active_edges = {("a", "b"): 1.0, ("b", "c"): 0.5, ("c", "a"): 0.25}
    with_expired = RecDigraph.from_corr({**active_edges, ("bx", "a"): 2.0, ("bx", "c"): 1.0}, "abc")
    without = RecDigraph.from_corr(active_edges, "abc")
    assert with_expired.num_edges == 5
    assert global_pagerank(with_expired).scores == global_pagerank(without).scores
    assert personalized_pagerank(with_expired, ["b"]).scores == personalized_pagerank(without, ["b"]).scores


def test_preferences_outside_active_set_yield_empty_result():
    digraph = RecDigraph.from_corr({("a", "b"): 1.0}, ["a", "b"])
    result = personalized_pagerank(digraph, ["ghost"])
    assert result.scores == {} and result.converged


def test_unconverged_run_is_flagged():
    digraph = RecDigraph.from_corr(
        {("a", "b"): 1.0, ("b", "c"): 1.0}, ["a", "b", "c"]
    )
    result = global_pagerank(digraph, epsilon=1e-15, max_iters=2)
    assert not result.converged
    assert result.iterations == 2


def test_global_pagerank_iterates_once_per_digraph_and_settings(monkeypatch):
    runs = []
    power_iteration = recommend_module._pagerank

    def counted(*args, **kwargs):
        runs.append(args)
        return power_iteration(*args, **kwargs)

    monkeypatch.setattr(recommend_module, "_pagerank", counted)
    digraph = RecDigraph.from_corr({("a", "b"): 1.0, ("c", "b"): 0.5}, ["a", "b", "c"])
    jobs = {j: make_job(j) for j in digraph.active_jobs}
    anonymous = UserProfile("anon")
    first = recommend(anonymous, digraph, jobs, {}, REF)
    second = recommend(anonymous, digraph, jobs, {}, REF)
    assert first == second and first[0].job_id == "b"
    assert len(runs) == 1
    assert global_pagerank(digraph) is global_pagerank(digraph)
    assert len(runs) == 1

    recommend(anonymous, digraph, jobs, {}, REF, RecommenderParams(damping=0.5))
    assert len(runs) == 2
    fresh = RecDigraph.from_corr({("a", "b"): 1.0, ("c", "b"): 0.5}, ["a", "b", "c"])
    assert global_pagerank(fresh).scores == global_pagerank(digraph).scores
    assert len(runs) == 3
    with pytest.raises(ValueError):
        global_pagerank(digraph, damping=1.0)
    with pytest.raises(ValueError):
        recommend(anonymous, digraph, jobs, {}, REF, RecommenderParams(damping=0.0))
    assert len(runs) == 3
