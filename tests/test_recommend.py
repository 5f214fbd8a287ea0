"""User classification, propagation, preference seeding, geo re-ranking,
and the end-to-end top-k pipeline."""

import math
import random
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    REF,
    DedupedSignal,
    brute_force_levels,
    edge_map,
    embed_sim,
    ev,
    from_corr,
    log_of,
    make_job,
    random_digraph,
    reference_haversine_km,
    reference_hop,
    reference_location_rerank,
    ts,
)
from jobgraph import mf
from jobgraph.config import ConfigError, EngineConfig
from jobgraph.ingest import SignalKind, UserRecord, dedupe, epoch_us
from jobgraph.recommend import (
    Catalogue,
    Provenance,
    UserProfile,
    UserType,
    activity_score,
    build_profiles,
    classify_user,
    global_pagerank,
    haversine_km,
    level1,
    level2,
    location_rerank,
    personalized_pagerank,
    preference_vector,
    recommend,
    recommend_users,
    sources_with_activity,
)
from jobgraph.scoring import dump_digraph, load_digraph


def profile(user_id="u1", triples=(), category=None, location=None):
    """The profile ``build_profiles`` makes of (job, kind, age in days) signals."""
    signals = log_of(DedupedSignal(user_id, job, kind, ts(age)) for job, kind, age in triples)
    return build_profiles(signals, {user_id: UserRecord(user_id, category, location, True)})[user_id]


# ---------------------------------------------------------------------------
# classification


def test_classify_apply_or_click_is_active():
    assert classify_user(profile(triples=[("a", SignalKind.APPLY, 1)])) is UserType.ACTIVE
    assert classify_user(profile(triples=[("a", SignalKind.CLICK, 1)])) is UserType.ACTIVE


def test_classify_ignored_email_does_not_activate():
    p = profile(triples=[("a", SignalKind.EMAIL_OPEN_NO_CLICK, 1)], category="sales")
    assert classify_user(p) is UserType.PASSIVE_OR_NEW_WITH_PROFILE
    q = profile(triples=[("a", SignalKind.EMAIL_OPEN_NO_CLICK, 1)])
    assert classify_user(q) is UserType.ANONYMOUS


def test_classify_resume_only_and_nothing():
    assert (
        classify_user(profile(category="retail")) is UserType.PASSIVE_OR_NEW_WITH_PROFILE
    )
    assert classify_user(profile()) is UserType.ANONYMOUS


def test_engaged_jobs_excludes_ignored_emails():
    p = profile(
        triples=[
            ("a", SignalKind.APPLY, 1),
            ("b", SignalKind.CLICK, 2),
            ("c", SignalKind.EMAIL_OPEN_NO_CLICK, 3),
        ]
    )
    assert p.engaged_jobs() == {"a", "b"}


def test_build_profiles_merges_events_and_user_records():
    signals = dedupe(log_of([ev("u1", "a"), ev("u2", "b", SignalKind.CLICK)]))
    users = {
        "u2": UserRecord("u2", "sales", (10.0, 20.0), True),
        "u3": UserRecord("u3", "retail", None, True),
    }
    profiles = build_profiles(signals, users)
    assert set(profiles) == {"u1", "u2", "u3"}
    assert profiles["u1"].resume_category is None
    assert profiles["u2"].location == (10.0, 20.0)
    assert profiles["u1"].engaged == (("a", epoch_us(ts(1.0))),) and profiles["u1"].seen == ("a",)
    assert profiles["u3"] == UserProfile("u3", (), (), "retail", None)


def test_profiles_keep_the_latest_engagement_and_every_seen_job():
    signals = dedupe(log_of([
        ev("u1", "b", SignalKind.APPLY, 5.0),
        ev("u1", "b", SignalKind.CLICK, 3.0),
        ev("u1", "b", SignalKind.EMAIL_OPEN_NO_CLICK, 1.0),  # later, but not an engagement
        ev("u1", "a", SignalKind.EMAIL_OPEN_NO_CLICK, 2.0),
    ]))
    p = build_profiles(signals)["u1"]
    assert p.engaged == (("b", epoch_us(ts(3.0))),)
    assert p.seen == ("a", "b")


def test_build_profiles_drops_category_outside_taxonomy(caplog):
    users = {"u1": UserRecord("u1", "astronaut", None, True)}
    with caplog.at_level("WARNING"):
        profiles = build_profiles(log_of([]), users, taxonomy=["sales", "retail"])
    assert profiles["u1"].resume_category is None
    assert any("astronaut" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# activity weighting


def test_activity_score_frozen_values():
    assert activity_score(0.0) == 1.0
    assert activity_score(20.0, 0.05) == pytest.approx(0.36787944117144233, abs=1e-16)


def test_activity_score_strictly_decreasing():
    ages = [0.0, 0.5, 3.0, 10.0, 100.0]
    values = [activity_score(a) for a in ages]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_activity_score_rejects_negative_age():
    with pytest.raises(ValueError):
        activity_score(-0.1)


def test_sources_use_most_recent_interaction_per_job():
    p = profile(
        triples=[
            ("a", SignalKind.APPLY, 30),
            ("a", SignalKind.CLICK, 10),
            ("b", SignalKind.CLICK, 5),
            ("c", SignalKind.EMAIL_OPEN_NO_CLICK, 1),
        ]
    )
    result = sources_with_activity(p, REF)
    assert [job for job, _ in result] == ["a", "b"]
    scores = dict(result)
    assert scores["a"] == pytest.approx(activity_score(10))
    assert scores["b"] == pytest.approx(activity_score(5))


def test_sources_clamp_future_interactions_to_age_zero():
    p = profile(triples=[("a", SignalKind.APPLY, -3)])
    assert sources_with_activity(p, REF) == [("a", 1.0)]


# ---------------------------------------------------------------------------
# level 1 propagation


def test_level1_scores_are_activity_times_corr():
    digraph = from_corr(
        {("s", "a"): 0.5, ("s", "b"): 0.9}, ["s", "a", "b"]
    )
    result = level1(digraph, [[("s", 0.5)]], k=10)[0]
    assert result == [("b", pytest.approx(0.45)), ("a", pytest.approx(0.25))]


def test_level1_max_merges_across_sources():
    digraph = from_corr(
        {("s1", "a"): 0.4, ("s2", "a"): 0.9}, ["s1", "s2", "a"]
    )
    result = level1(digraph, [[("s1", 1.0), ("s2", 0.5)]], k=5)[0]
    assert result == [("a", pytest.approx(0.45))]


def test_level1_never_recommends_sources_or_excluded():
    digraph = from_corr(
        {("s1", "s2"): 1.0, ("s1", "a"): 0.8, ("s1", "x"): 0.9},
        ["s1", "s2", "a", "x"],
    )
    result = level1(digraph, [[("s1", 1.0), ("s2", 1.0)]], k=5, exclude=[["x"]])[0]
    assert [job for job, _ in result] == ["a"]


def test_level1_ranking_invariant_to_activity_scale():
    rng = random.Random(7)
    for _ in range(30):
        digraph = random_digraph(rng, 10)
        nodes = sorted(digraph.active_jobs)
        sources = [(j, rng.uniform(0.1, 1.0)) for j in nodes[:3]]
        base = [j for j, _ in level1(digraph, [sources], k=50)[0]]
        scaled = [(j, 7.25 * a) for j, a in sources]
        assert [j for j, _ in level1(digraph, [scaled], k=50)[0]] == base


def test_level1_ties_break_by_job_id():
    digraph = from_corr(
        {("s", "b"): 0.5, ("s", "a"): 0.5, ("s", "c"): 0.5}, ["s", "a", "b", "c"]
    )
    result = level1(digraph, [[("s", 1.0)]], k=2)[0]
    assert [job for job, _ in result] == ["a", "b"]


# ---------------------------------------------------------------------------
# level 2 propagation


def test_level2_multiplies_scores_along_the_path():
    # chain fixture: 1 -> 6 -> 4; the two-hop score must equal the level-1
    # score of the midpoint times the onward edge weight
    digraph = from_corr(
        {("j1", "j6"): 0.7, ("j6", "j4"): 0.6}, ["j1", "j4", "j6"]
    )
    l1 = level1(digraph, [[("j1", 0.9)]], k=10)[0]
    assert l1 == [("j6", pytest.approx(0.63))]
    l2 = level2(digraph, [l1], k=10)[0]
    assert len(l2) == 1
    job, score = l2[0]
    assert job == "j4"
    assert score == pytest.approx(l1[0][1] * 0.6, abs=1e-15)
    assert score == pytest.approx(0.378, abs=1e-15)


def test_level2_skips_level1_jobs_and_exclusions():
    digraph = from_corr(
        {("s", "a"): 0.9, ("s", "b"): 0.8, ("a", "b"): 1.0, ("a", "c"): 0.5, ("a", "x"): 0.9},
        ["s", "a", "b", "c", "x"],
    )
    l1 = level1(digraph, [[("s", 1.0)]], k=10)[0]
    l2 = level2(digraph, [l1], k=10, exclude=[["x"]])[0]
    assert [job for job, _ in l2] == ["c"]


def test_hop_keeps_the_first_of_two_equal_scores():
    # 0.5 * 0.0 and -2.0 * 0.0 compare equal; the start met first sets the sign
    digraph = from_corr({("a", "x"): 0.0, ("b", "x"): 0.0}, ["a", "b", "x"])
    served = level2(digraph, [[("a", 0.5), ("b", -2.0)]], k=10)[0]
    assert served == [("x", 0.0)] and math.copysign(1.0, served[0][1]) == 1.0
    served = level2(digraph, [[("b", -2.0), ("a", 0.5)]], k=10)[0]
    assert served == [("x", 0.0)] and math.copysign(1.0, served[0][1]) == -1.0


def test_block_hop_keeps_each_users_first_zero():
    # two users in one block meet the same equal zeros in opposite orders
    digraph = from_corr({("a", "x"): 0.0, ("b", "x"): 0.0}, ["a", "b", "x"])
    served = level1(digraph, [[("a", 0.5), ("b", -2.0)], [("b", -2.0), ("a", 0.5)]], k=10)
    assert served == [[("x", 0.0)], [("x", 0.0)]]
    assert [math.copysign(1.0, score) for [(_, score)] in served] == [1.0, -1.0]


def test_level1_rejects_k_below_one():
    digraph = from_corr({("a", "b"): 1.0}, ["a", "b"])
    for k in (0, -1):
        with pytest.raises(ValueError):
            level1(digraph, [[("a", 1.0)]], k)


def test_level2_rejects_k_below_one():
    digraph = from_corr({("a", "b"): 1.0}, ["a", "b"])
    for k in (0, -1):
        with pytest.raises(ValueError):
            level2(digraph, [[("a", 0.5)]], k)


# corr values that tie exactly, zeros of both signs and negatives
HOP_CORR = [-1.5, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]


@st.composite
def hop_cases(draw):
    """A random_digraph whose corr ties, is 0.0, -0.0 or negative; each
    user's (job_id, weight) starts, repeated and unknown jobs included, with
    weights of either sign and zero; each user's exclusions; k; and the
    users per block: 1, 3 or the default."""
    digraph = random_digraph(draw(st.randoms(use_true_random=False)), 8, edge_prob=0.5, values=HOP_CORR)
    jobs = st.sampled_from(sorted(digraph.active_jobs) + ["ghost"])
    weights = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0])
    users = draw(st.integers(1, 7))
    starts = [draw(st.lists(st.tuples(jobs, weights), max_size=4)) for _ in range(users)]
    exclusions = [draw(st.lists(jobs, max_size=3)) for _ in range(users)]
    k = draw(st.integers(1, len(digraph.nodes) + 2))
    return digraph, starts, exclusions, k, draw(st.sampled_from([1, 3, None]))


@given(hop_cases())
@example((
    from_corr({("a", "x"): 0.0, ("b", "x"): 0.0}, ["a", "b", "x"]),
    [[("a", 0.5), ("b", -2.0)], [("b", -2.0), ("a", 0.5)]], [[], []], 10, None,
))
def test_block_hop_matches_reference_hop(case):
    digraph, starts, exclusions, k, rows = case
    cells = mf.BLOCK_CELLS if rows is None else rows * len(digraph.nodes)
    with mock.patch.object(mf, "BLOCK_CELLS", cells):
        got1 = level1(digraph, starts, k, iter(exclusions))
        got2 = level2(digraph, got1, k, iter(exclusions))
    want1 = [reference_hop(digraph, s, k, e) for s, e in zip(starts, exclusions)]
    want2 = [reference_hop(digraph, s, k, e) for s, e in zip(want1, exclusions)]
    # repr shows each float exactly, and the sign of a zero
    assert repr(got1) == repr(want1)
    assert repr(got2) == repr(want2)


def test_levels_match_bruteforce_on_random_digraphs():
    rng = random.Random(21)
    for _ in range(80):
        digraph = random_digraph(rng, 10)
        nodes = sorted(digraph.active_jobs)
        n_src = rng.randint(1, min(3, len(nodes)))
        sources = [(j, rng.uniform(0.05, 1.0)) for j in rng.sample(nodes, n_src)]
        exclude = {j for j, _ in sources}
        if rng.random() < 0.5 and len(nodes) > n_src:
            exclude.add(rng.choice([n for n in nodes if n not in exclude]))
        want_l1, want_l2 = brute_force_levels(digraph, sources, exclude)
        got_l1 = level1(digraph, [sources], k=len(nodes), exclude=[exclude])[0]
        got_l2 = level2(digraph, [got_l1], k=len(nodes), exclude=[exclude])[0]
        assert dict(got_l1) == pytest.approx(want_l1)
        assert dict(got_l2) == pytest.approx(want_l2)


# ---------------------------------------------------------------------------
# preference seeding


def embeddings_for(ids, dim, seed=0):
    rng = np.random.default_rng(seed)
    return {j: rng.normal(size=dim) for j in ids}


def test_preference_vector_unions_similar_and_category_jobs():
    jobs = {
        "old": make_job("old", category="sales", active=False),
        "a": make_job("a", category="retail"),
        "b": make_job("b", category="retail"),
        "c": make_job("c", category="sales"),
        "d": make_job("d", category="sales"),
    }
    emb = {
        "old": np.array([1.0, 0.0]),
        "a": np.array([0.9, 0.1]),  # most similar to old
        "b": np.array([0.0, 1.0]),
        "c": np.array([0.5, 0.5]),
        "d": np.array([-1.0, 0.0]),
    }
    p = profile(triples=[("old", SignalKind.APPLY, 10)], category="retail")
    prefs = preference_vector(p, jobs, emb, m_similar=1)
    # top-1 similar to "old" is "a"; category retail adds "a" and "b"
    assert prefs == ["a", "b"]
    wider = preference_vector(p, jobs, emb, m_similar=2)
    assert wider == ["a", "b", "c"]


def test_preference_vector_ignores_active_history_and_missing_embeddings():
    jobs = {
        "active_hist": make_job("active_hist"),
        "old_noemb": make_job("old_noemb", active=False),
        "a": make_job("a"),
    }
    emb = embeddings_for(["active_hist", "a"], 4)
    p = profile(
        triples=[
            ("active_hist", SignalKind.APPLY, 5),
            ("old_noemb", SignalKind.APPLY, 9),
        ]
    )
    assert preference_vector(p, jobs, emb) == []


def test_preference_vector_empty_for_anonymous():
    jobs = {"a": make_job("a")}
    assert preference_vector(profile(), jobs, {}) == []


def test_preference_vector_matches_set_oracle():
    rng = random.Random(31)
    cats = ["c0", "c1", "c2"]
    for _ in range(40):
        ids = [f"j{i:02d}" for i in range(rng.randint(4, 14))]
        jobs = {
            j: make_job(j, category=rng.choice(cats), active=rng.random() < 0.7)
            for j in ids
        }
        emb = embeddings_for(ids, 5, seed=rng.randint(0, 10**6))
        history = rng.sample(ids, rng.randint(0, 3))
        cat = rng.choice(cats + [None])
        p = profile(
            triples=[(j, SignalKind.APPLY, rng.uniform(1, 40)) for j in history],
            category=cat,
        )
        m = rng.randint(1, 4)
        got = preference_vector(p, jobs, emb, m_similar=m)

        active = sorted(j for j in ids if jobs[j].is_active)
        want = set()
        for old in {j for j in history if not jobs[j].is_active}:
            ranked = sorted(active, key=lambda j: (-embed_sim(emb[old], emb[j]), j))
            want.update(ranked[:m])
        if cat is not None:
            want.update(j for j in active if jobs[j].category == cat)
        assert got == sorted(want)


def embed_sim_preferences(p, jobs, emb, m):
    """preference_vector restated with one embed_sim call per job pair."""
    active = sorted(j for j in jobs if jobs[j].is_active)
    embeddable = [j for j in active if j in emb]
    want = set()
    for old in {j for j in p.seen if not jobs[j].is_active and j in emb}:
        ranked = sorted(embeddable, key=lambda j: (-embed_sim(emb[old], emb[j]), j))
        want.update(ranked[:m])
    if p.resume_category is not None:
        want.update(j for j in active if jobs[j].category == p.resume_category)
    return sorted(want)


def test_preference_vector_matches_embed_sim_oracle_on_random_embeddings():
    rng = random.Random(43)
    cats = ["c0", "c1", "c2", "c3"]
    for _ in range(40):
        ids = [f"j{i:03d}" for i in range(rng.randint(5, 90))]
        jobs = {
            j: make_job(j, category=rng.choice(cats), active=rng.random() < 0.7)
            for j in ids
        }
        dim = rng.choice([2, 7, 16, 33])
        emb = embeddings_for([j for j in ids if rng.random() < 0.9], dim, seed=rng.randint(0, 10**6))
        # duplicated embeddings tie exactly and are ranked by job_id
        for _ in range(rng.randint(0, 4)):
            a, b = rng.sample(sorted(emb), 2)
            emb[b] = emb[a].copy()
        history = rng.sample(ids, rng.randint(1, 8))
        p = profile(
            triples=[(j, SignalKind.APPLY, rng.uniform(1, 40)) for j in history],
            category=rng.choice(cats + [None]),
        )
        m = rng.randint(1, 12)
        assert preference_vector(p, jobs, emb, m_similar=m) == embed_sim_preferences(p, jobs, emb, m)


def test_preference_vector_breaks_exact_ties_by_job_id():
    rng = np.random.default_rng(7)
    ids = [f"j{i:03d}" for i in range(63)]
    jobs = {"old": make_job("old", active=False), **{j: make_job(j) for j in ids}}
    p = profile(triples=[("old", SignalKind.APPLY, 3)])
    for dim in (3, 5, 17, 32, 61, 64):
        shared = rng.normal(size=dim)
        emb = {"old": rng.normal(size=dim), **{j: shared.copy() for j in ids}}
        assert preference_vector(p, jobs, emb, m_similar=3) == ids[:3]


def test_preference_vector_rejects_zero_and_mismatched_embeddings():
    jobs = {"old": make_job("old", active=False), "a": make_job("a"), "b": make_job("b")}
    p = profile(triples=[("old", SignalKind.APPLY, 3)])
    with pytest.raises(ValueError, match="zero-norm"):
        preference_vector(p, jobs, {"old": np.ones(2), "a": np.ones(2), "b": np.zeros(2)})
    with pytest.raises(ValueError, match="dimension"):
        preference_vector(p, jobs, {"old": np.ones(3), "a": np.ones(2), "b": np.ones(2)})


@st.composite
def similarity_cases(draw):
    """Active jobs with embeddings of one dimension, a few of them equal or
    scaled copies of another, expired jobs to compare with them, and a
    block of 1 or 2 expired jobs or the default."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 32, 33, 200]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    active = [f"j{i:02d}" for i in range(draw(st.integers(1, 40)))]
    emb = {j: rng.normal(size=dim) * scale for j in active}
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(active)), draw(st.sampled_from(active))
        emb[b] = emb[a] * draw(st.sampled_from([1.0, 2.0]))
    expired = [f"old{i}" for i in range(draw(st.integers(1, 6)))]
    emb.update({j: rng.normal(size=dim) for j in expired})
    jobs = {**{j: make_job(j) for j in active}, **{j: make_job(j, active=False) for j in expired}}
    return jobs, emb, expired, draw(st.sampled_from([1, 2, None]))


@given(similarity_cases())
def test_folded_similarities_match_the_per_job_product(case):
    jobs, emb, expired, rows = case
    catalogue = Catalogue(jobs, emb)
    cells = mf.BLOCK_CELLS if rows is None else rows * len(catalogue.embeddable)
    with mock.patch.object(mf, "BLOCK_CELLS", cells):
        got = np.concatenate(list(catalogue.similarities(expired)))
    mat = np.stack([emb[j] for j in sorted(j for j in jobs if jobs[j].is_active)])
    norms = np.linalg.norm(mat, axis=1)
    assert len(got) == len(expired)
    for row, old in zip(got, expired):
        want = (mat * emb[old]).sum(axis=1) / (norms * np.linalg.norm(emb[old]))
        assert row.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# geography


def test_haversine_frozen_values():
    assert haversine_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(
        111.1950802335329, abs=1e-9
    )
    assert haversine_km((40.0, -74.0), (40.0, -74.0)) == 0.0
    a, b = (48.85, 2.35), (52.52, 13.40)
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-12)


def test_location_rerank_boosts_nearby_jobs_past_distant_ones():
    jobs = {
        "near": make_job("near", location=(0.0, 0.3)),  # ~33 km away
        "far": make_job("far", location=(0.0, 10.0)),
        "nowhere": make_job("nowhere", location=None),
    }
    ranked = location_rerank(
        [("far", 1.0), ("near", 0.9), ("nowhere", 0.85)], (0.0, 0.0), jobs
    )
    assert ranked[0] == ("near", pytest.approx(0.9 * 1.25))
    assert ranked[1] == ("far", 1.0)
    assert ranked[2] == ("nowhere", 0.85)


def test_location_rerank_boosts_a_negative_score_towards_zero():
    jobs = {
        "near": make_job("near", location=(0.0, 0.3)),
        "far": make_job("far", location=(0.0, 10.0)),
    }
    # "far" sorts first by id before the boost; a multiplied -1.0 would
    # fall to -1.25 and rank "near" last
    ranked = location_rerank([("far", -1.0), ("near", -1.0)], (0.0, 0.0), jobs)
    assert ranked == [("near", -1.0 / 1.25), ("far", -1.0)]


def test_location_rerank_identity_cases():
    jobs = {"a": make_job("a", location=(0.0, 0.0))}
    unsorted = [("a", 0.2), ("b", 0.9)]
    assert location_rerank(unsorted, None, jobs) == unsorted
    assert location_rerank(unsorted, (0.0, 0.0), jobs, boost=1.0) == unsorted


def test_location_rerank_never_changes_the_candidate_set():
    rng = random.Random(5)
    jobs = {
        f"j{i}": make_job(
            f"j{i}",
            location=(rng.uniform(-60, 60), rng.uniform(-150, 150))
            if rng.random() < 0.8
            else None,
        )
        for i in range(20)
    }
    for _ in range(25):
        cands = [(f"j{i}", rng.uniform(0, 1)) for i in rng.sample(range(20), 8)]
        out = location_rerank(cands, (0.0, 0.0), jobs, radius_km=5000.0)
        assert sorted(j for j, _ in out) == sorted(j for j, _ in cands)
        scores = [s for _, s in out]
        assert scores == sorted(scores, reverse=True)


points = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))


@st.composite
def rerank_cases(draw):
    """A user point, candidates with scores (±0.0 among them) at random
    points, near the user or at no point, and a radius that is often one
    candidate's exact distance."""
    user = draw(points)
    nearby = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(
        lambda delta: (min(max(user[0] + delta[0], -90.0), 90.0), user[1] + delta[1])
    )
    where = st.one_of(st.none(), points, nearby, st.just(user))
    scores = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-5.0, 5.0))
    n = draw(st.integers(1, 8))
    locations = draw(st.lists(where, min_size=n, max_size=n))
    candidates = [(f"j{i}", draw(scores)) for i in draw(st.permutations(range(n)))]
    on_radius = [reference_haversine_km(user, loc) for loc in locations if loc is not None]
    radius = draw(st.one_of(st.floats(0.0, 3000.0), st.sampled_from(on_radius or [80.0])))
    boost = draw(st.sampled_from([1.25, 1.5, 3.0]))
    # an expired job is boosted as an active one: the re-rank reads locations only
    active = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jobs = {f"j{i}": make_job(f"j{i}", location=loc, active=a) for i, (loc, a) in enumerate(zip(locations, active))}
    return candidates, user, jobs, radius, boost


@given(rerank_cases())
def test_location_rerank_matches_the_per_candidate_haversine_rule(case):
    candidates, user, jobs, radius, boost = case
    got = location_rerank(candidates, user, jobs, radius_km=radius, boost=boost)
    want = reference_location_rerank(candidates, user, jobs, radius, boost)
    assert got == want
    assert repr(got) == repr(want)  # tells 0.0 from -0.0
    for record in jobs.values():
        if record.location is not None:
            assert haversine_km(user, record.location) == reference_haversine_km(user, record.location)


def test_location_rerank_rejects_damping_boost():
    with pytest.raises(ValueError):
        location_rerank([("a", 1.0)], (0.0, 0.0), {}, boost=0.8)


# ---------------------------------------------------------------------------
# full pipeline


def pipeline_jobs(digraph, extra_expired=()):
    jobs = {j: make_job(j) for j in digraph.active_jobs}
    for j in extra_expired:
        jobs[j] = make_job(j, active=False)
    return jobs


def test_recommend_active_user_tier_order_and_provenance():
    digraph = from_corr(
        {("h", "a"): 0.9, ("h", "b"): 0.5, ("a", "c"): 0.8, ("b", "c"): 0.1, ("a", "d"): 0.4},
        ["h", "a", "b", "c", "d"],
    )
    p = profile(triples=[("h", SignalKind.APPLY, 0)])
    recs = recommend(p, digraph, pipeline_jobs(digraph), {}, REF)
    by_job = {r.job_id: r for r in recs}
    assert by_job["a"].provenance is Provenance.LEVEL1
    assert by_job["b"].provenance is Provenance.LEVEL1
    assert by_job["c"].provenance is Provenance.LEVEL2
    assert by_job["d"].provenance is Provenance.LEVEL2
    assert "h" not in by_job
    order = [r.provenance for r in recs]
    assert order == sorted(order, key=[
        Provenance.LEVEL1,
        Provenance.LEVEL2,
        Provenance.PERSONALIZED_PAGERANK,
        Provenance.GLOBAL_PAGERANK,
    ].index)
    assert by_job["c"].score == pytest.approx(0.9 * 0.8)


def test_recommend_k_truncates_and_min_recs_stops_early():
    digraph = from_corr(
        {("h", "a"): 0.9, ("h", "b"): 0.5, ("a", "c"): 0.8},
        ["h", "a", "b", "c"],
    )
    p = profile(triples=[("h", SignalKind.APPLY, 0)])
    short = recommend(p, digraph, pipeline_jobs(digraph), {}, REF, EngineConfig(k=1))
    assert [r.job_id for r in short] == ["a"]
    # min_recs=2 is satisfied by level 1 alone, so no level-2 tier appears
    capped = recommend(
        p, digraph, pipeline_jobs(digraph), {}, REF, EngineConfig(k=5, min_recs=2)
    )
    assert {r.provenance for r in capped} == {Provenance.LEVEL1}


def test_recommend_active_user_falls_back_to_pagerank():
    # history job has no out-edges, so propagation yields nothing
    digraph = from_corr({("a", "b"): 0.5}, ["h", "a", "b"])
    p = profile(triples=[("h", SignalKind.APPLY, 0)])
    recs = recommend(p, digraph, pipeline_jobs(digraph), {}, REF)
    assert recs
    assert {r.provenance for r in recs} == {Provenance.GLOBAL_PAGERANK}
    assert {r.job_id for r in recs} == {"a", "b"}


def test_recommend_anonymous_is_global_popularity():
    digraph = from_corr(
        {("a", "b"): 1.0, ("c", "b"): 1.0, ("b", "a"): 0.2}, ["a", "b", "c"]
    )
    recs = recommend(profile(), digraph, pipeline_jobs(digraph), {}, REF)
    assert {r.provenance for r in recs} == {Provenance.GLOBAL_PAGERANK}
    assert recs[0].job_id == "b"  # both other nodes point at it
    total = sum(r.score for r in recs)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_recommend_passive_user_uses_personalized_pagerank():
    digraph = from_corr(
        {("a", "b"): 1.0, ("b", "c"): 1.0, ("d", "a"): 1.0}, ["a", "b", "c", "d"]
    )
    jobs = {
        "a": make_job("a", category="retail"),
        "b": make_job("b", category="sales"),
        "c": make_job("c", category="sales"),
        "d": make_job("d", category="sales"),
    }
    p = profile(category="retail")
    recs = recommend(p, digraph, jobs, {}, REF)
    assert recs
    assert {r.provenance for r in recs} == {Provenance.PERSONALIZED_PAGERANK}
    # mass can only reach a, b, c (restart at a); d is unreachable
    assert {r.job_id for r in recs} == {"a", "b", "c"}


def test_recommend_empty_digraph_yields_nothing():
    digraph = from_corr({}, [])
    assert recommend(profile(), digraph, {}, {}, REF) == []


def test_recommend_rejects_bad_k():
    digraph = from_corr({("a", "b"): 1.0}, ["a", "b"])
    with pytest.raises(ConfigError):
        recommend(profile(), digraph, {}, {}, REF, EngineConfig(k=0))


def test_recommend_invariants_on_random_inputs():
    rng = random.Random(99)
    tier_rank = {
        Provenance.LEVEL1: 0,
        Provenance.LEVEL2: 1,
        Provenance.PERSONALIZED_PAGERANK: 2,
        Provenance.GLOBAL_PAGERANK: 3,
    }
    for trial in range(60):
        digraph = random_digraph(rng, 12)
        nodes = sorted(digraph.active_jobs)
        jobs = {j: make_job(j, category=rng.choice(["c0", "c1"])) for j in nodes}
        expired = [f"x{i}" for i in range(rng.randint(0, 2))]
        for j in expired:
            jobs[j] = make_job(j, category="c0", active=False)
        kinds = [SignalKind.APPLY, SignalKind.CLICK, SignalKind.EMAIL_OPEN_NO_CLICK]
        triples = [
            (rng.choice(nodes + expired), rng.choice(kinds), rng.uniform(0, 90))
            for _ in range(rng.randint(0, 5))
        ]
        p = profile(
            triples=triples,
            category=rng.choice(["c0", "c1", None]),
            location=(rng.uniform(-60, 60), rng.uniform(-150, 150))
            if rng.random() < 0.5
            else None,
        )
        k = rng.randint(1, 8)
        # a min_recs below k cuts level 2 and the fills short or skips them
        min_recs = rng.choice([None, rng.randint(1, k)])
        recs = recommend(p, digraph, jobs, {}, REF, EngineConfig(k=k, min_recs=min_recs))

        ids = [r.job_id for r in recs]
        assert len(recs) <= k
        assert len(set(ids)) == len(ids)
        assert set(ids) <= digraph.active_jobs
        assert not set(ids) & p.engaged_jobs()
        ranks = [tier_rank[r.provenance] for r in recs]
        assert ranks == sorted(ranks), f"tiers interleaved on trial {trial}"
        for a, b in zip(recs, recs[1:]):
            if a.provenance is b.provenance:
                assert a.score >= b.score - 1e-12


def test_recommend_users_equals_recommend_per_user():
    # h1's lists fill at level 2; h2's and h3's fall short of it and are
    # filled by personalized and by global PageRank
    digraph = from_corr(
        {("h1", "a"): 0.9, ("h1", "b"): 0.5, ("a", "c"): 0.8, ("b", "d"): 0.4,
         ("h2", "e"): 0.3, ("f", "g"): 0.7, ("c", "g"): 0.2, ("g", "a"): 0.6},
        ["h1", "h2", "h3", "a", "b", "c", "d", "e", "f", "g"],
    )
    jobs = pipeline_jobs(digraph, extra_expired=["x"])
    for j in "efx":
        jobs[j] = make_job(j, category="retail", active=j != "x", location=(0.0, 0.1))
    embeddings = {j: np.array([1.0, i + 1.0]) for i, j in enumerate(sorted(jobs))}
    apply = SignalKind.APPLY
    profiles = [
        profile("u1", [("h1", apply, 0)]),
        profile("u2", [("h2", apply, 2)], category="retail"),
        profile("u3", [("h3", SignalKind.CLICK, 1)]),
        profile("p1", category="sales", location=(0.0, 0.0)),
        profile("p2", [("x", SignalKind.EMAIL_OPEN_NO_CLICK, 1)], category="sales"),
        profile("anon"),
        profile("u4", [("h1", apply, 5), ("h2", SignalKind.CLICK, 0)], location=(0.0, 0.0)),
        profile("e1", [("x", SignalKind.EMAIL_OPEN_NO_CLICK, 3)]),
    ]
    config = EngineConfig(k=4, min_recs=4)
    want = [recommend(p, digraph, jobs, embeddings, REF, config) for p in profiles]
    served = {p.user_id: {r.provenance for r in recs} for p, recs in zip(profiles, want)}
    assert served["u1"] == {Provenance.LEVEL1, Provenance.LEVEL2}
    assert served["u2"] == {Provenance.LEVEL1, Provenance.PERSONALIZED_PAGERANK}
    assert served["u3"] == {Provenance.GLOBAL_PAGERANK}
    assert served["anon"] == served["e1"] == {Provenance.GLOBAL_PAGERANK}
    for rows in (1, 3, None):
        cells = mf.BLOCK_CELLS if rows is None else rows * len(digraph.nodes)
        with mock.patch.object(mf, "BLOCK_CELLS", cells):
            got = list(recommend_users(profiles, digraph, jobs, embeddings, REF, config))
        # repr shows each float exactly
        assert repr(got) == repr(want)


def test_recommend_location_boost_reorders_within_tier():
    digraph = from_corr(
        {("h", "far"): 0.9, ("h", "near"): 0.8}, ["h", "far", "near"]
    )
    jobs = {
        "h": make_job("h"),
        "far": make_job("far", location=(0.0, 50.0)),
        "near": make_job("near", location=(0.0, 0.2)),
    }
    p = profile(triples=[("h", SignalKind.APPLY, 0)], location=(0.0, 0.0))
    recs = recommend(p, digraph, jobs, {}, REF)
    assert [r.job_id for r in recs[:2]] == ["near", "far"]
    assert recs[0].score == pytest.approx(0.8 * 1.25)


def test_stale_artifact_never_serves_a_job_expired_after_the_build():
    # "x" is a strong direct, two-hop, PageRank and popularity target at
    # build time, and expires before the dump is served
    built = from_corr(
        {("h", "x"): 0.9, ("h", "a"): 0.5, ("a", "x"): 0.9, ("a", "b"): 0.2,
         ("p", "x"): 1.0, ("p", "b"): 0.1, ("b", "x"): 1.0},
        ["h", "a", "b", "p", "x"],
    )
    buf = StringIO()
    dump_digraph(built, buf)
    served = load_digraph(StringIO(buf.getvalue()), ["h", "a", "b", "p"])
    assert "x" not in {dst for src, dst in edge_map(served)}

    l1 = level1(served, [[("h", 1.0)]], 10)[0]
    assert [j for j, _ in l1] == ["a"]
    assert "x" not in {j for j, _ in level2(served, [l1], 10)[0]}
    assert "x" not in personalized_pagerank(served, ["p"]).scores
    assert "x" not in global_pagerank(served).scores

    jobs = {j: make_job(j, category="retail" if j == "p" else "sales") for j in "habp"}
    jobs["x"] = make_job("x", active=False)
    users = [
        profile(triples=[("h", SignalKind.APPLY, 0)]),
        profile(category="retail"),
        profile(),
    ]
    for p in users:
        recs = recommend(p, served, jobs, {}, REF, EngineConfig(k=10))
        assert recs
        assert "x" not in {r.job_id for r in recs}
