"""Power-iteration popularity scores checked against a direct linear solve."""

import dataclasses
import importlib
import random
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    REF,
    built_pipeline,
    dense_pagerank,
    from_corr,
    make_job,
    random_digraph,
    reference_pagerank,
)
from jobgraph.config import EngineConfig
from jobgraph.evaluation import synth_corpus
from jobgraph.ingest import JobStatus
from jobgraph.recommend import (
    PageRankResult,
    Provenance,
    UserProfile,
    global_pagerank,
    personalized_pagerank,
    preference_vector,
    recommend,
    recommend_users,
)
from jobgraph.scoring import EVIDENCE_APPLY, RecDigraph, dump_digraph, load_digraph

# the package re-exports the function `recommend` under the module's name
recommend_module = importlib.import_module("jobgraph.recommend")


def test_two_node_cycle_splits_mass_evenly():
    digraph = from_corr({("a", "b"): 1.0, ("b", "a"): 1.0}, ["a", "b"])
    result = global_pagerank(digraph)
    assert result.converged
    assert result.scores["a"] == pytest.approx(0.5, abs=1e-9)
    assert result.scores["b"] == pytest.approx(0.5, abs=1e-9)


def test_single_node_holds_all_mass():
    digraph = from_corr({}, ["only"])
    result = global_pagerank(digraph)
    assert result.converged
    assert result.scores == {"only": pytest.approx(1.0)}


def test_empty_digraph_gives_empty_scores():
    digraph = from_corr({}, [])
    result = global_pagerank(digraph)
    assert result.scores == {} and result.converged


def test_sink_attracts_more_mass_than_sources():
    digraph = from_corr(
        {("a", "hub"): 1.0, ("b", "hub"): 1.0, ("c", "hub"): 1.0},
        ["a", "b", "c", "hub"],
    )
    scores = global_pagerank(digraph).scores
    assert scores["hub"] > scores["a"] == scores["b"] == scores["c"]


def test_damping_must_be_in_open_interval():
    digraph = from_corr({("a", "b"): 1.0}, ["a", "b"])
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
        result = global_pagerank(digraph, epsilon=1e-14)
        assert result.converged
        restart = {j: 1.0 / len(nodes) for j in nodes}
        want = dense_pagerank(digraph, restart, 0.85)
        for j in nodes:
            assert result.scores[j] == pytest.approx(want[j], abs=1e-9)
        assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_negative_edges_carry_no_mass():
    # the only out-edge of "a" has negative aggregate score, so "a" acts as
    # a dangling node and its mass teleports to the restart distribution
    with_neg = from_corr({("a", "b"): -0.5}, ["a", "b"])
    without = from_corr({}, ["a", "b"])
    got = global_pagerank(with_neg).scores
    want = global_pagerank(without).scores
    assert got == pytest.approx(want)
    assert got["a"] == pytest.approx(0.5, abs=1e-9)


def test_full_preference_set_reproduces_global_ranking():
    rng = random.Random(23)
    for _ in range(30):
        digraph = random_digraph(rng, 12)
        nodes = sorted(digraph.active_jobs)
        g = global_pagerank(digraph, epsilon=1e-14)
        p = personalized_pagerank(digraph, nodes, epsilon=1e-14)
        for j in nodes:
            assert p.scores[j] == pytest.approx(g.scores[j], abs=1e-10)


def test_personalized_restricts_to_out_reachable_set():
    digraph = from_corr(
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
        result = personalized_pagerank(digraph, prefs, epsilon=1e-14)
        assert result.converged
        members = sorted(result.scores)
        assert set(prefs) <= set(members)
        restart = {j: (1.0 / len(prefs) if j in set(prefs) else 0.0) for j in members}
        want = dense_pagerank(digraph, restart, 0.85)
        for j in members:
            assert result.scores[j] == pytest.approx(want[j], abs=1e-9)


def test_preference_job_without_out_edges_keeps_all_mass():
    digraph = from_corr({("a", "b"): 1.0}, ["a", "b", "island"])
    result = personalized_pagerank(digraph, ["island"])
    assert result.scores == {"island": pytest.approx(1.0)}


def test_edges_from_expired_sources_carry_no_mass():
    # "bx" expired: it keeps its out-edges as a level-1 source, and sorts
    # between active jobs, but moves no PageRank mass
    active_edges = {("a", "b"): 1.0, ("b", "c"): 0.5, ("c", "a"): 0.25}
    with_expired = from_corr({**active_edges, ("bx", "a"): 2.0, ("bx", "c"): 1.0}, "abc")
    without = from_corr(active_edges, "abc")
    assert with_expired.num_edges == 5
    assert global_pagerank(with_expired).scores == global_pagerank(without).scores
    assert personalized_pagerank(with_expired, ["b"]).scores == personalized_pagerank(without, ["b"]).scores


def test_preferences_outside_active_set_yield_empty_result():
    digraph = from_corr({("a", "b"): 1.0}, ["a", "b"])
    result = personalized_pagerank(digraph, ["ghost"])
    assert result.scores == {} and result.converged


def test_unconverged_run_is_flagged():
    digraph = from_corr(
        {("a", "b"): 1.0, ("b", "c"): 1.0}, ["a", "b", "c"]
    )
    result = recommend_module._pagerank(digraph, sorted(digraph.active_jobs), 0.85, 1e-15, 2)
    assert not result.converged
    assert result.iterations == 2


def test_iteration_cap_follows_from_damping_and_epsilon():
    cap = recommend_module._iteration_cap
    assert cap(0.85, 1e-10) == 148
    assert cap(0.85, 1e-14) == 205
    assert cap(0.5, 10.0) == 2


def test_personalized_walk_on_a_two_cycle_converges_at_the_defaults():
    # the slowest walk there is: the L1 change of a step is exactly
    # 2 * damping**t, so epsilon 1e-10 takes 146 steps
    d = EngineConfig().damping
    digraph = from_corr({("a", "b"): 1.0, ("b", "a"): 1.0}, ["a", "b"])
    result = personalized_pagerank(digraph, ["a"], d, EngineConfig().pagerank_epsilon)
    assert result.converged
    assert result.iterations == 146
    assert result.scores["a"] == pytest.approx(1 / (1 + d), abs=1e-9)
    assert result.scores["b"] == pytest.approx(d / (1 + d), abs=1e-9)


def test_walks_converge_within_the_derived_cap():
    rng = np.random.default_rng(47)
    for _ in range(80):
        digraph = bridged_digraph(rng)
        damping = float(rng.uniform(0.5, 0.99))
        epsilon = float(10.0 ** rng.uniform(-12, -4))
        nodes = sorted(digraph.active_jobs)
        restart = sorted(rng.choice(nodes, int(rng.integers(1, len(nodes) + 1)), replace=False).tolist())
        for result in (
            global_pagerank(digraph, damping, epsilon),
            personalized_pagerank(digraph, restart, damping, epsilon),
        ):
            assert result.converged
            assert result.iterations <= recommend_module._iteration_cap(damping, epsilon)


def test_the_global_walk_runs_once_per_catalogue_and_settings(monkeypatch):
    runs = []
    power_iteration = recommend_module._pagerank

    def counted(*args, **kwargs):
        runs.append(args)
        return power_iteration(*args, **kwargs)

    monkeypatch.setattr(recommend_module, "_pagerank", counted)
    digraph = from_corr({("a", "b"): 1.0, ("c", "b"): 0.5}, ["a", "b", "c"])
    jobs, embeddings = {j: make_job(j) for j in digraph.active_jobs}, {}
    anonymous = UserProfile("anon")
    first = recommend(anonymous, digraph, jobs, embeddings, REF)
    second = recommend(anonymous, digraph, jobs, embeddings, REF)
    assert first == second and first[0].job_id == "b"
    assert len(runs) == 1
    assert list(digraph.catalogue.walks) == [(None, 0.85, 1e-10)]
    # global_pagerank itself walks on every call, to the kept bytes
    assert repr(global_pagerank(digraph)) == repr(digraph.catalogue.walks[None, 0.85, 1e-10])
    assert len(runs) == 2

    recommend(anonymous, digraph, jobs, embeddings, REF, EngineConfig(damping=0.5))
    assert len(runs) == 3
    # a new jobs map object starts a new catalogue, which walks again
    assert recommend(anonymous, digraph, dict(jobs), embeddings, REF) == first
    assert len(runs) == 4
    fresh = from_corr({("a", "b"): 1.0, ("c", "b"): 0.5}, ["a", "b", "c"])
    assert global_pagerank(fresh).scores == global_pagerank(digraph).scores
    assert len(runs) == 6
    with pytest.raises(ValueError):
        global_pagerank(digraph, damping=1.0)
    assert len(runs) == 6


def bridged_digraph(rng: np.random.Generator) -> RecDigraph:
    """Clusters of dense edges joined by a few weak bridges. Some corr are
    negative or exactly zero, some jobs lose every out-edge (dangling), and
    some jobs are expired: their out-edges stay, edges into them go."""
    sizes = rng.integers(1, 60, size=rng.integers(1, 5))
    n = int(sizes.sum())
    ids = [f"j{i:03d}" for i in range(n)]
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    same = cluster[:, None] == cluster[None, :]
    adjacent = rng.random((n, n)) < np.where(same, rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.01))
    np.fill_diagonal(adjacent, False)
    adjacent[rng.random(n) < 0.1] = False
    src, dst = np.nonzero(adjacent)
    corr = rng.uniform(-0.5, 2.0, len(src))
    corr[rng.random(len(src)) < 0.1] = 0.0
    corr[cluster[src] != cluster[dst]] *= 1e-3
    active = [j for j in ids if rng.random() > 0.15] or ids[:1]
    return RecDigraph(ids, src, dst, corr, np.full(len(src), EVIDENCE_APPLY, dtype=np.uint8), active)


def test_reached_edge_walk_equals_the_full_walk_bit_for_bit():
    rng = np.random.default_rng(41)
    # "bx" is an expired source numbered between active jobs
    expired_source = from_corr(
        {("a", "b"): 1.0, ("b", "c"): 0.5, ("c", "a"): 0.25, ("bx", "a"): 2.0, ("bx", "c"): 1.0}, "abc"
    )
    cut_off = converged = 0
    for trial in range(160):
        digraph = expired_source if trial < 10 else bridged_digraph(rng)
        nodes = sorted(digraph.active_jobs)
        size = int(rng.choice([1, rng.integers(1, len(nodes) + 1), len(nodes)]))
        restart = sorted(rng.choice(nodes, size, replace=False).tolist())
        settings = (
            float(rng.uniform(0.5, 0.95)),
            float(rng.choice([1e-10, 1e-14])),
            int(rng.choice([1, 3, 100, 1000])),
        )
        got = recommend_module._pagerank(digraph, restart, *settings)
        want = reference_pagerank(digraph, restart, *settings)
        assert list(got.scores.items()) == list(want.scores.items())
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        cut_off += not got.converged
        converged += got.converged
    assert cut_off and converged


def test_ranked_fill_equals_filter_then_sort():
    rng = random.Random(43)
    for _ in range(200):
        ids = [f"j{i:02d}" for i in range(rng.randint(0, 30))]
        # few distinct values, so that ties break by job id
        scores = {j: rng.choice([0.1, 0.2, 0.25, rng.random()]) for j in ids}
        result = PageRankResult(scores, True, 1)
        banned = {j for j in ids if rng.random() < 0.3} | {"ghost"}
        slots = rng.randint(1, 35)
        want = sorted(
            ((j, s) for j, s in scores.items() if j not in banned), key=lambda kv: (-kv[1], kv[0])
        )[:slots]
        assert recommend_module._pagerank_fill(result, banned, slots) == want


def kept_batch(corpus, profiles) -> list[UserProfile]:
    """Users of every serving path of a kept walk, and of none: a resume-only
    user of each category; a user emailed one expired job of each category,
    with that resume category; one emailed an expired job of the first
    category, with the second as resume category, so their nearest actives
    leave it; two corpus users, active and with a resume category; an
    anonymous user; and the resume-only users again."""
    categories = sorted({rec.category for rec in corpus.jobs.values()})
    first_expired, first_location = {}, {}
    for job_id, rec in sorted(corpus.jobs.items()):
        if not rec.is_active:
            first_expired.setdefault(rec.category, job_id)
        first_location.setdefault(rec.category, rec.location)
    resume = [UserProfile(f"r_{c}", resume_category=c, location=first_location[c]) for c in categories]
    history = [UserProfile(f"h_{c}", seen=(first_expired[c],), resume_category=c) for c in categories]
    leaver = UserProfile("leaver", seen=(first_expired[categories[0]],), resume_category=categories[1])
    active = [p for p in profiles.values() if p.engaged and p.resume_category][:2]
    return resume + history + [leaver] + active + [UserProfile("anon")] + resume


def category_seeds(jobs, category) -> tuple[str, ...]:
    return tuple(sorted(j for j, rec in jobs.items() if rec.is_active and rec.category == category))


def dump_digraph_text(digraph) -> str:
    buf = StringIO()
    dump_digraph(digraph, buf)
    return buf.getvalue()


def fresh_catalogues():
    """Patch recommend_users to build the catalogue index anew on every call."""
    return mock.patch.object(
        recommend_module, "_catalogue", lambda digraph, jobs, embeddings: recommend_module.Catalogue(jobs, embeddings)
    )


@st.composite
def kept_cases(draw):
    """A small synth_corpus (2-3 clusters of 4-10 jobs, a quarter of them
    expired, so each cluster has one expired job and three active ones at
    least) and settings: a k that cuts the fills or leaves active users
    short, at most three similar actives per expired job, and the damping."""
    corpus = synth_corpus(
        draw(st.integers(2, 3)),
        draw(st.integers(4, 10)),
        draw(st.integers(4, 30)),
        draw(st.sampled_from([0.0, 0.1, 0.3])),
        draw(st.integers(0, 2**16)),
        expired_fraction=0.25,
    )
    config = EngineConfig(
        k=draw(st.sampled_from([3, 40])),
        similar_actives_per_expired=draw(st.integers(1, 3)),
        damping=draw(st.sampled_from([0.5, 0.85])),
    )
    return corpus, config


@given(kept_cases())
def test_kept_walks_serve_the_bytes_of_a_fresh_digraph(case):
    corpus, config = case
    _, built, active, profiles = built_pipeline(corpus)
    buf = StringIO()
    dump_digraph(built, buf)
    dump = buf.getvalue()
    users = kept_batch(corpus, profiles)
    args = (corpus.jobs, corpus.embeddings, REF, config)
    # each user alone on a digraph fresh from the dump, with the catalogue
    # index built afresh, so every walk runs and nothing is kept
    with fresh_catalogues():
        want = [recommend(user, load_digraph(StringIO(dump), active), *args) for user in users]
    digraph = load_digraph(StringIO(dump), active)
    walked = []
    personalized = recommend_module.personalized_pagerank

    def counted(digraph, preference_jobs, *settings):
        walked.append(frozenset(preference_jobs))
        return personalized(digraph, preference_jobs, *settings)

    with mock.patch.object(recommend_module, "personalized_pagerank", counted):
        batch = list(recommend_users(users, digraph, *args))
        again = [recommend(user, digraph, *args) for user in users]
    # repr shows each float exactly
    assert repr(batch) == repr(want)
    assert repr(again) == repr(want)
    # one walk kept per category served (every category: each has a
    # resume-only user) and the global one, each walked once; the leaver's
    # seeds are walked on every request
    categories = sorted({rec.category for rec in corpus.jobs.values()})
    kept = {(c, config.damping, config.pagerank_epsilon) for c in categories}
    kept.add((None, config.damping, config.pagerank_epsilon))
    assert set(digraph.catalogue.walks) == kept
    category_jobs = [frozenset(category_seeds(corpus.jobs, c)) for c in categories]
    assert all(walked.count(jobs) == 1 for jobs in category_jobs)
    leaver = users[2 * len(categories)]
    leaver_seeds = frozenset(
        preference_vector(leaver, corpus.jobs, corpus.embeddings, config.similar_actives_per_expired)
    )
    assert leaver_seeds not in category_jobs
    assert walked.count(leaver_seeds) >= 2


@st.composite
def remapped_cases(draw):
    """A kept case and second maps of its jobs and embeddings: one active
    job expired, one job moved to another category, and one job's vector
    replaced by a multiple of another's."""
    corpus, config = draw(kept_cases())
    ids = sorted(corpus.jobs)
    categories = sorted({rec.category for rec in corpus.jobs.values()})
    jobs = dict(corpus.jobs)
    expire = draw(st.sampled_from([j for j in ids if jobs[j].is_active]))
    jobs[expire] = dataclasses.replace(jobs[expire], status=JobStatus.EXPIRED)
    move = draw(st.sampled_from(ids))
    other = draw(st.sampled_from([c for c in categories if c != jobs[move].category]))
    jobs[move] = dataclasses.replace(jobs[move], category=other)
    embeddings = dict(corpus.embeddings)
    replace, source = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
    embeddings[replace] = corpus.embeddings[source] * draw(st.sampled_from([1.0, -1.0, 2.0]))
    return corpus, config, jobs, embeddings


@given(remapped_cases())
def test_a_kept_catalogue_serves_new_maps_as_a_fresh_digraph(case):
    corpus, config, jobs, embeddings = case
    _, built, active, profiles = built_pipeline(corpus)
    dump = dump_digraph_text(built)
    users = kept_batch(corpus, profiles)
    maps = [(corpus.jobs, corpus.embeddings), (jobs, corpus.embeddings), (jobs, embeddings)]
    with fresh_catalogues():
        want = [
            [recommend(user, load_digraph(StringIO(dump), active), *pair, REF, config) for user in users]
            for pair in maps
        ]
    built_catalogues = []

    class Counted(recommend_module.Catalogue):
        def __init__(self, *args):
            built_catalogues.append(args)
            super().__init__(*args)

    digraph = load_digraph(StringIO(dump), active)
    with mock.patch.object(recommend_module, "Catalogue", Counted):
        for pair, fresh in zip(maps, want):
            # the same two map objects twice: the index is built once
            for _ in range(2):
                assert repr(list(recommend_users(users, digraph, *pair, REF, config))) == repr(fresh)
            assert digraph.catalogue.jobs is pair[0] and digraph.catalogue.embeddings is pair[1]
    assert [tuple(map(id, args)) for args in built_catalogues] == [tuple(map(id, pair)) for pair in maps]


@pytest.mark.parametrize("flawed", ["active", "expired"])
@pytest.mark.parametrize("flaw", ["dimension", "zero-norm"])
def test_a_flawed_embedding_fails_only_the_requests_that_reach_the_product(flawed, flaw):
    corpus = synth_corpus(3, 8, 30, 0.1, seed=0, expired_fraction=0.1)
    _, built, active, profiles = built_pipeline(corpus)
    users = kept_batch(corpus, profiles)
    history = [user for user in users if user.user_id.startswith("h_")] + [users[6]]
    expired = history[0].seen[0]  # the first category's, also the leaver's
    job_id = sorted(active)[0] if flawed == "active" else expired
    vec = corpus.embeddings[job_id]
    embeddings = {**corpus.embeddings, job_id: np.append(vec, 1.0) if flaw == "dimension" else np.zeros_like(vec)}
    # active users none of whose jobs is expired, resume-only and anonymous users
    clean = [p for p in profiles.values() if p.engaged and all(corpus.jobs[j].is_active for j in p.seen)]
    served = users[:3] + clean[:3] + [UserProfile("anon")]
    assert len(served) == 7
    args = (REF, EngineConfig())
    want = [recommend(user, built, corpus.jobs, corpus.embeddings, *args) for user in served]
    digraph = load_digraph(StringIO(dump_digraph_text(built)), active)
    for _ in range(2):
        # a failed request leaves the kept index serving the others
        assert [recommend(user, digraph, corpus.jobs, embeddings, *args) for user in served] == want
        for user in history:
            if flawed == "active" or expired in user.seen:
                with pytest.raises(ValueError):
                    recommend(user, digraph, corpus.jobs, embeddings, *args)
            else:
                recommend(user, digraph, corpus.jobs, embeddings, *args)


def test_each_digraph_keeps_its_own_walks(monkeypatch):
    runs = []
    power_iteration = recommend_module._pagerank

    def counted(digraph, restart_jobs, *args):
        runs.append(tuple(restart_jobs))
        return power_iteration(digraph, restart_jobs, *args)

    monkeypatch.setattr(recommend_module, "_pagerank", counted)
    corpus = synth_corpus(3, 8, 30, 0.1, seed=0, expired_fraction=0.25)
    _, built, active, profiles = built_pipeline(corpus)
    dump = dump_digraph_text(built)
    args = (corpus.jobs, corpus.embeddings, REF, EngineConfig())
    users = kept_batch(corpus, profiles)
    first = load_digraph(StringIO(dump), active)
    list(recommend_users(users, first, *args))
    categories = ["cat00", "cat01", "cat02"]
    seeds = [category_seeds(corpus.jobs, c) for c in categories]
    assert sorted(first.catalogue.walks, key=str) == sorted(
        [(c, 0.85, 1e-10) for c in categories] + [(None, 0.85, 1e-10)], key=str
    )
    # each category and the global walk ran once; the leaver's seeds, the
    # first category's nearest actives and the second's jobs, every time
    assert all(runs.count(s) == 1 for s in seeds)
    leaver = tuple(preference_vector(users[6], corpus.jobs, corpus.embeddings))
    assert runs.count(leaver) == 1 and leaver not in seeds
    kept = dict(first.catalogue.walks)
    recommend(users[6], first, *args)
    assert runs.count(leaver) == 2

    # a second digraph from the same dump walks its own category once
    second = load_digraph(StringIO(dump), active)
    recommend(users[0], second, *args)
    recommend(users[0], second, *args)
    assert list(second.catalogue.walks) == [("cat00", 0.85, 1e-10)]
    assert runs.count(seeds[0]) == 2
    recommend(users[0], second, corpus.jobs, corpus.embeddings, REF, EngineConfig(damping=0.5))
    assert list(second.catalogue.walks) == [("cat00", 0.85, 1e-10), ("cat00", 0.5, 1e-10)]
    assert runs.count(seeds[0]) == 3
    assert second.catalogue.walks["cat00", 0.85, 1e-10] is not kept["cat00", 0.85, 1e-10]
    assert first.catalogue.walks == kept


def test_a_warm_catalogue_serves_resume_only_and_anonymous_users_without_a_walk(monkeypatch):
    corpus = synth_corpus(3, 8, 30, 0.1, seed=0, expired_fraction=0.25)
    _, built, active, profiles = built_pipeline(corpus)
    args = (corpus.jobs, corpus.embeddings, REF, EngineConfig())
    users = kept_batch(corpus, profiles)
    resume_only, leaver = users[:3], users[6]
    passes = resume_only + [UserProfile("anon")]
    digraph = load_digraph(StringIO(dump_digraph_text(built)), active)
    warm = list(recommend_users(passes, digraph, *args))
    calls = []
    for name in ("personalized_pagerank", "global_pagerank"):
        walk = getattr(recommend_module, name)

        def counted(*walk_args, _name=name, _walk=walk, **walk_kwargs):
            calls.append(_name)
            return _walk(*walk_args, **walk_kwargs)

        monkeypatch.setattr(recommend_module, name, counted)
    assert list(recommend_users(passes, digraph, *args)) == warm
    assert calls == []
    assert [{rec.provenance for rec in recs} for recs in warm] == [
        {Provenance.PERSONALIZED_PAGERANK}
    ] * 3 + [{Provenance.GLOBAL_PAGERANK}]
    # seeds that leave the resume category are walked on every request
    for n in (1, 2):
        assert recommend(leaver, digraph, *args)[0].provenance is Provenance.PERSONALIZED_PAGERANK
        assert calls == ["personalized_pagerank"] * n
