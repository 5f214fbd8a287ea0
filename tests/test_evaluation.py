"""Connectivity reporting, the CF baseline, holdout splitting, metrics, the
synthetic corpus generator, and the multi-system comparison harness."""

import math
import os
import random
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    REF, InteractionEvent, co_maps, co_pairs, content_pairs, embed_sim, ev, event_records, log_of,
    reference_cf_index, reference_cf_recommend,
)
from jobgraph import evaluation, mf
from jobgraph.evaluation import (
    EDGE_TYPES,
    KNOWN_SYSTEMS,
    build_cf_index,
    cf_recommend,
    connectivity_report,
    evaluate_systems,
    format_report,
    holdout_split,
    precision_recall_at_k,
    synth_corpus,
    write_corpus,
)
from jobgraph.ingest import (
    JobRecord,
    JobStatus,
    SignalKind,
    UserRecord,
    dedupe,
    parse_events,
    parse_jobs,
    parse_users,
    resolve_jobs,
    window_filter,
)
from jobgraph.config import EngineConfig
from jobgraph.mf import predict_implicit


def graph_of(nodes, edges):
    return co_pairs(nodes, edges)


# ---------------------------------------------------------------------------
# connectivity


def test_connectivity_zero_edges_is_all_zero():
    g = graph_of({"a": (1, 1), "b": (1, 1)}, {})
    report = connectivity_report(g, content_pairs({}), ["a", "b"])
    assert report.active_count == 2
    assert all(v == 0.0 for v in report.fractions.values())
    assert len(report.fractions) == 7


def test_connectivity_full_content_saturates_content_subsets():
    g = graph_of({"a": (0, 0), "b": (0, 0), "c": (0, 0)}, {})
    content = {("a", "b"): 0.9, ("a", "c"): 0.8, ("b", "c"): 0.7}
    report = connectivity_report(g, content_pairs(content), ["a", "b", "c"])
    assert report.fraction("content") == 1.0
    assert report.fraction("co_apps", "content") == 1.0
    assert report.fraction("co_apps") == 0.0
    assert report.fraction("co_apps", "co_clicks") == 0.0


def test_connectivity_labeled_view_is_ordered():
    g = graph_of({"a": (1, 1)}, {})
    labels = list(connectivity_report(g, content_pairs({}), ["a"]).labeled())
    assert labels == [
        "co_apps",
        "co_clicks",
        "content",
        "co_apps+co_clicks",
        "co_apps+content",
        "co_clicks+content",
        "co_apps+co_clicks+content",
    ]


def test_connectivity_ignores_content_pairs_outside_graph():
    g = graph_of({"a": (0, 0), "b": (0, 0)}, {})
    report = connectivity_report(g, content_pairs({("a", "ghost"): 0.9}), ["a", "b"])
    assert report.fraction("content") == 0.0


def test_connectivity_empty_active_set():
    g = graph_of({"a": (1, 0)}, {})
    report = connectivity_report(g, content_pairs({}), [])
    assert report.active_count == 0
    assert all(v == 0.0 for v in report.fractions.values())


def test_connectivity_rejects_unknown_type():
    g = graph_of({"a": (1, 0)}, {})
    with pytest.raises(ValueError):
        connectivity_report(g, content_pairs({}), ["a"]).fraction("telepathy")


def random_connectivity_case(rng):
    n = rng.randint(2, 12)
    ids = [f"n{i:02d}" for i in range(n)]
    nodes = {j: (rng.randint(0, 5), rng.randint(0, 5)) for j in ids}
    edges = {}
    content = {}
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            if rng.random() < 0.25:
                edges[(a, b)] = (rng.randint(0, 3), rng.randint(0, 3))
            if rng.random() < 0.25:
                content[(a, b)] = rng.uniform(0.4, 1.0)
    active = [j for j in ids if rng.random() < 0.8]
    return graph_of(nodes, edges), content, active


def test_connectivity_matches_incidence_oracle():
    rng = random.Random(71)
    for _ in range(40):
        g, content, active = random_connectivity_case(rng)
        report = connectivity_report(g, content_pairs(content), active)
        for size in (1, 2, 3):
            for subset in combinations(EDGE_TYPES, size):
                connected = 0
                for job in set(active):
                    hit = False
                    for (a, b), (co_apps, co_clicks) in co_maps(g).edges.items():
                        if job not in (a, b):
                            continue
                        if "co_apps" in subset and co_apps > 0:
                            hit = True
                        if "co_clicks" in subset and co_clicks > 0:
                            hit = True
                    if "content" in subset:
                        for a, b in content:
                            if job in (a, b) and a in g.ids and b in g.ids:
                                hit = True
                    if hit:
                        connected += 1
                want = connected / len(set(active)) if active else 0.0
                assert report.fraction(*subset) == pytest.approx(want, abs=1e-12)


def test_connectivity_monotone_under_subset_inclusion():
    rng = random.Random(73)
    for _ in range(40):
        g, content, active = random_connectivity_case(rng)
        report = connectivity_report(g, content_pairs(content), active)
        subsets = [frozenset(s) for size in (1, 2, 3) for s in combinations(EDGE_TYPES, size)]
        for small in subsets:
            for big in subsets:
                if small < big:
                    assert report.fractions[small] <= report.fractions[big] + 1e-12


# ---------------------------------------------------------------------------
# classic CF


def test_classic_cf_recommends_neighbor_jobs():
    events = [
        ev("u1", "j1", age_days=10),
        ev("u2", "j1", age_days=8),
        ev("u2", "j2", age_days=4),
        ev("u2", "j3", age_days=2),
    ]
    recs = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF)[0]
    assert [j for j, _ in recs] == ["j3", "j2"]  # newer apply scores higher
    scores = dict(recs)
    assert scores["j2"] == pytest.approx(math.exp(-0.05 * 4))
    assert scores["j3"] == pytest.approx(math.exp(-0.05 * 2))


def test_classic_cf_frequency_stacks_across_neighbors():
    events = [
        ev("u1", "j1", age_days=10),
        ev("u2", "j1", age_days=9),
        ev("u3", "j1", age_days=9),
        ev("u2", "shared", age_days=5),
        ev("u3", "shared", age_days=5),
        ev("u2", "solo", age_days=5),
    ]
    recs = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF)[0]
    scores = dict(recs)
    assert scores["shared"] == pytest.approx(2 * scores["solo"])
    assert recs[0][0] == "shared"


def test_classic_cf_user_without_applies_gets_nothing():
    events = [ev("u1", "j1", SignalKind.CLICK), ev("u2", "j1"), ev("u2", "j2")]
    assert cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF) == [[]]


def test_classic_cf_sole_applicant_gets_nothing():
    events = [ev("u1", "j1"), ev("u1", "j2")]
    assert cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF) == [[]]


def test_classic_cf_excludes_own_history_and_respects_filters():
    events = [
        ev("u1", "j1", age_days=10),
        ev("u2", "j1", age_days=9),
        ev("u2", "j2", age_days=5),
        ev("u2", "j3", age_days=5),
    ]
    recs = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF)[0]
    assert "j1" not in dict(recs)
    only_j3 = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF, exclude=[["j2"]])[0]
    assert [j for j, _ in only_j3] == ["j3"]
    pooled = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF, active_jobs=["j2"])[0]
    assert [j for j, _ in pooled] == ["j2"]


class UniterableSet(frozenset):
    """A set that fails if anything iterates over it, as copying it does."""

    def __iter__(self):
        raise AssertionError("iterated over the active set")


def test_classic_cf_uses_a_set_of_active_jobs_as_it_is():
    events = [
        ev("u1", "j1", age_days=10),
        ev("u2", "j1", age_days=9),
        ev("u2", "j2", age_days=5),
        ev("u2", "j3", age_days=5),
    ]
    index = build_cf_index(dedupe(log_of(events)))
    pooled = cf_recommend(index, ["u1"], 5, REF, active_jobs=UniterableSet(["j2", "j3"]))[0]
    assert pooled == cf_recommend(index, ["u1"], 5, REF, active_jobs=["j3", "j2"])[0]
    assert [j for j, _ in pooled] == ["j2", "j3"]


def test_classic_cf_applier_window_keeps_newest():
    events = [
        ev("u1", "hub", age_days=30),
        ev("old", "hub", age_days=20),
        ev("new", "hub", age_days=1),
        ev("old", "from_old", age_days=10),
        ev("new", "from_new", age_days=10),
    ]
    recs = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF, window_applicants=1)[0]
    assert [j for j, _ in recs] == ["from_new"]


def test_classic_cf_applier_window_tells_one_microsecond_apart_in_year_3000():
    # a float of seconds since the epoch cannot: its step is 2**-19 s past 2**33 s
    t = datetime(3000, 1, 1, tzinfo=timezone.utc)
    events = [
        InteractionEvent("u1", "hub", SignalKind.APPLY, t - timedelta(days=1)),
        InteractionEvent("ua", "hub", SignalKind.APPLY, t),
        InteractionEvent("ub", "hub", SignalKind.APPLY, t + timedelta(microseconds=1)),
        InteractionEvent("ua", "from_ua", SignalKind.APPLY, t),
        InteractionEvent("ub", "from_ub", SignalKind.APPLY, t),
    ]
    recs = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u1"], 5, REF, window_applicants=1)[0]
    assert [j for j, _ in recs] == ["from_ub"]


CF_SCORES_SCRIPT = """
from jobgraph.evaluation import DEFAULT_REFERENCE_DATE, build_cf_index, cf_recommend, synth_corpus
from jobgraph.ingest import dedupe
index = build_cf_index(dedupe(synth_corpus(3, 10, 60, 0.1, 3, events_per_user=12).events))
for user, ranked in zip(index.users, cf_recommend(index, index.users, 10, DEFAULT_REFERENCE_DATE)):
    for job, score in ranked:
        print(user, job, score.hex())
"""


def test_cf_scores_do_not_depend_on_the_string_hash_seed():
    src = str(Path(evaluation.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", CF_SCORES_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, check=True, text=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0].count("\n") > 100
    assert outputs[0] == outputs[1]


def test_classic_cf_matches_replay_oracle():
    rng = random.Random(79)
    for _ in range(15):
        events = [
            ev(
                f"u{rng.randint(0, 6)}",
                f"j{rng.randint(0, 9)}",
                age_days=rng.uniform(0, 60),
            )
            for _ in range(rng.randint(5, 80))
        ]
        window = rng.choice([1, 2, 50])
        user = f"u{rng.randint(0, 6)}"

        latest = {}
        for e in events:
            key = (e.user_id, e.job_id)
            if key not in latest or e.timestamp > latest[key]:
                latest[key] = e.timestamp
        own = {j for (u, j) in latest if u == user}
        neighbors = set()
        for j in own:
            appliers = sorted(
                ((t, u) for (u, jj), t in latest.items() if jj == j and u != user),
                key=lambda p: (REF - p[0], p[1]),  # newest first
            )
            neighbors.update(u for _, u in appliers[:window])
        want = {}
        for other in neighbors:
            for (u, j), t in latest.items():
                if u != other or j in own:
                    continue
                age = max((REF - t).total_seconds() / 86400.0, 0.0)
                want[j] = want.get(j, 0.0) + math.exp(-0.05 * age)

        got = cf_recommend(build_cf_index(dedupe(log_of(events))), [user], 100, REF, window_applicants=window)[0]
        assert dict(got) == pytest.approx(want)


# an age past 2**53 us whose float division by 10**6 differs from the exact
# quotient rounded once, and so, at a decay of 1e-6, the weight
FAR_US = 13804984579974445


def far_apply(user_id, job_id):
    return InteractionEvent(user_id, job_id, SignalKind.APPLY, REF - timedelta(microseconds=FAR_US))


@st.composite
def cf_cases(draw):
    """Applies with equal times, weights that underflow to 0.0 and ages past
    2**53 us; querying users inside and outside their jobs' applier windows,
    and an unknown one; exclusions, pools and the rows per block: 1, 3 or
    the default."""
    users, jobs = [f"u{i}" for i in range(6)], [f"j{i}" for i in range(7)]
    day = 86400 * 10**6
    ages = st.sampled_from([0, day, day, 5 * day // 2, 40 * day, 20000 * day, FAR_US, -3 * day])
    apply = lambda u, j, age: InteractionEvent(u, j, SignalKind.APPLY, REF - timedelta(microseconds=age))
    events = draw(st.lists(st.builds(apply, st.sampled_from(users), st.sampled_from(jobs), ages), max_size=40))
    queried = draw(st.lists(st.sampled_from(users + ["ghost"]), min_size=1, max_size=8))
    some_jobs = st.lists(st.sampled_from(jobs + ["ghost"]), max_size=3)
    exclude = [draw(some_jobs) for _ in queried]
    options = {
        "window_applicants": draw(st.sampled_from([1, 2, 3, 50])),
        "decay": draw(st.sampled_from([0.05, 1e-6])),
        "active_jobs": draw(st.none() | some_jobs.map(frozenset)),
    }
    return events, queried, draw(st.integers(1, 9)), exclude, options, draw(st.sampled_from([1, 3, None]))


@given(cf_cases())
@example(([ev("u0", "j0"), ev("u1", "j0"), far_apply("u1", "j1")], ["u0"], 5, [[]], {"decay": 1e-6}, None))
def test_cf_recommend_lists_match_dict_oracle(case):
    events, queried, k, exclude, options, rows = case
    index = build_cf_index(dedupe(log_of(events)))
    cells = mf.BLOCK_CELLS if rows is None else rows * len(index.jobs)
    with mock.patch.object(mf, "BLOCK_CELLS", cells):
        got = cf_recommend(index, queried, k, REF, exclude=iter(exclude), **options)
    want_index = reference_cf_index(events)
    want = [reference_cf_recommend(want_index, u, k, REF, exclude=e, **options) for u, e in zip(queried, exclude)]
    # repr shows each float exactly
    assert repr(got) == repr(want)


def test_cf_rejects_bad_k():
    with pytest.raises(ValueError):
        cf_recommend(build_cf_index(dedupe(log_of([]))), ["u"], 0, REF)


def test_cf_rejects_a_bare_user_id():
    # a str is a sequence of its characters: "u1" would rank users "u" and "1"
    index = build_cf_index(dedupe(log_of([ev("u1", "j1"), ev("u2", "j1"), ev("u2", "j2")])))
    with pytest.raises(TypeError):
        cf_recommend(index, "u1", 5, REF)


def test_cf_index_refuses_apply_rows_that_dedupe_would_change():
    # u2's applies split by u1's, and u1's j1 twice: read as a raw log, the
    # index would serve u2 its own apply j1 instead of [j2, j4]
    events = [ev("u2", "j1"), ev("u1", "j1"), ev("u1", "j1", age_days=2), ev("u2", "j3"),
              ev("u1", "j2"), ev("u1", "j3"), ev("u1", "j4")]
    with pytest.raises(ValueError, match="dedupe"):
        build_cf_index(log_of(events))
    with pytest.raises(ValueError, match="dedupe"):
        build_cf_index(log_of(sorted(events, key=lambda e: (e.user_id, e.job_id))))
    ranked = cf_recommend(build_cf_index(dedupe(log_of(events))), ["u2"], 5, REF)[0]
    assert [j for j, _ in ranked] == ["j2", "j4"]


# ---------------------------------------------------------------------------
# holdout split


def test_holdout_keeps_latest_applies():
    events = [
        ev("u1", "a", age_days=40),
        ev("u1", "b", age_days=30),
        ev("u1", "c", age_days=20),
        ev("u1", "d", age_days=10),
    ]
    train, test = map(event_records, holdout_split(log_of(events), 0.5))
    assert sorted(e.job_id for e in test) == ["c", "d"]
    assert sorted(e.job_id for e in train) == ["a", "b"]


def test_holdout_floor_rounds_down():
    events = [ev("u1", j, age_days=d) for j, d in [("a", 3), ("b", 2), ("c", 1)]]
    train, test = map(event_records, holdout_split(log_of(events), 0.5))
    assert [e.job_id for e in test] == ["c"]
    single = [ev("u1", "a")]
    train, test = map(event_records, holdout_split(log_of(single), 0.3))
    assert test == [] and train == single


def test_holdout_non_applies_always_stay_in_train():
    events = [
        ev("u1", "a", age_days=30),
        ev("u1", "b", age_days=1),
        ev("u1", "c", SignalKind.CLICK, age_days=0.5),
        ev("u1", "d", SignalKind.EMAIL_OPEN_NO_CLICK, age_days=0.1),
    ]
    train, test = map(event_records, holdout_split(log_of(events), 0.5))
    assert [e.job_id for e in test] == ["b"]
    assert {e.job_id for e in train} == {"a", "c", "d"}


def test_holdout_partitions_apply_events_exactly():
    rng = random.Random(83)
    events = [
        ev(
            f"u{rng.randint(0, 5)}",
            f"j{rng.randint(0, 8)}",
            rng.choice(list(SignalKind)),
            age_days=rng.uniform(0, 90),
        )
        for _ in range(300)
    ]
    applies_per_user = {}
    for e in events:
        if e.kind is SignalKind.APPLY:
            applies_per_user[e.user_id] = applies_per_user.get(e.user_id, 0) + 1

    for fraction in (0.4, 0.9999999999999999):
        train, test = map(event_records, holdout_split(log_of(events), fraction, seed=7))
        assert len(train) + len(test) == len(events) == len(set(events))
        assert set(train) | set(test) == set(events)
        assert not set(train) & set(test)
        assert all(e.kind is SignalKind.APPLY for e in test)

        held_per_user = {}
        for e in test:
            held_per_user[e.user_id] = held_per_user.get(e.user_id, 0) + 1
        for user, n in applies_per_user.items():
            assert held_per_user.get(user, 0) == math.floor(n * fraction)

        for user in applies_per_user:
            held_ts = [e.timestamp for e in test if e.user_id == user]
            kept_ts = [e.timestamp for e in train if e.user_id == user and e.kind is SignalKind.APPLY]
            # floor(n * fraction) < n: evaluate_systems relies on every user keeping a train apply
            assert kept_ts
            if held_ts:
                assert min(held_ts) >= max(kept_ts)


def test_holdout_deterministic_and_order_independent():
    rng = random.Random(89)
    events = [
        ev(f"u{rng.randint(0, 3)}", f"j{rng.randint(0, 5)}", age_days=rng.choice([1, 2, 3]))
        for _ in range(60)
    ]
    test_a = event_records(holdout_split(log_of(events), 0.5, seed=3)[1])
    test_b = event_records(holdout_split(log_of(events), 0.5, seed=3)[1])
    assert test_a == test_b
    shuffled = events[:]
    rng.shuffle(shuffled)
    test_c = event_records(holdout_split(log_of(shuffled), 0.5, seed=3)[1])
    key = lambda e: (e.user_id, e.job_id, e.timestamp)
    assert sorted(map(key, test_a)) == sorted(map(key, test_c))


def test_holdout_holds_one_of_a_record_listed_twice():
    e = ev("u1", "a")
    for events in ([e, e], [e, ev("u1", "a")]):
        train, test = holdout_split(log_of(events), 0.5)
        assert (event_records(train), event_records(test)) == ([e], [e])


def test_holdout_fraction_validation():
    with pytest.raises(ValueError):
        holdout_split(log_of([]), 1.0)
    with pytest.raises(ValueError):
        holdout_split(log_of([]), -0.1)
    train, test = holdout_split(log_of([ev("u", "a")]), 0.0)
    assert event_records(test) == []


# ---------------------------------------------------------------------------
# metrics


def test_precision_recall_hand_values():
    assert precision_recall_at_k(["a", "b"], {"a", "b"}, 2) == (1.0, 1.0)
    assert precision_recall_at_k(["x", "y"], {"a"}, 2) == (0.0, 0.0)
    recs = [f"r{i}" for i in range(10)]
    recs[0], recs[5] = "hit1", "hit2"
    p, r = precision_recall_at_k(recs, {"hit1", "hit2", "miss1", "miss2"}, 10)
    assert p == pytest.approx(0.2)
    assert r == pytest.approx(0.5)


def test_precision_penalizes_short_lists():
    p, r = precision_recall_at_k(["a"], {"a", "b"}, 10)
    assert p == pytest.approx(0.1)
    assert r == pytest.approx(0.5)


def test_precision_recall_validation():
    with pytest.raises(ValueError):
        precision_recall_at_k(["a"], set(), 5)
    with pytest.raises(ValueError):
        precision_recall_at_k(["a"], {"a"}, 0)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_is_deterministic_across_calls(tmp_path):
    a = synth_corpus(3, 10, 20, 0.2, seed=42)
    b = synth_corpus(3, 10, 20, 0.2, seed=42)
    pa = write_corpus(a, tmp_path / "a")
    pb = write_corpus(b, tmp_path / "b")
    for name in pa:
        assert pa[name].read_bytes() == pb[name].read_bytes()
    c = synth_corpus(3, 10, 20, 0.2, seed=43)
    assert [e.job_id for e in event_records(c.events)] != [e.job_id for e in event_records(a.events)]


def test_corpus_files_round_trip_fields_that_need_quoting(tmp_path):
    jobs = {
        "j1": JobRecord("j1", 'Sales, "senior"', 'retail, "b2b"', (40.5, -74.25), REF, JobStatus.ACTIVE),
        "j2": JobRecord("j2", "Driver", "transport", None, REF - timedelta(days=3), JobStatus.EXPIRED),
    }
    users = {
        "u1": UserRecord("u1", "retail, wholesale", (1.5, 2.0), True),
        "u2": UserRecord("u2", None, None, False),
    }
    events = [ev("u1", "j1", SignalKind.CLICK, query_id='q,"1"'), ev("u2", "j2")]
    corpus = evaluation.SynthCorpus(log_of(events), jobs, {"j1": np.array([1.0, 0.5])}, users)
    paths = write_corpus(corpus, tmp_path)
    assert parse_jobs(paths["jobs"].read_text().splitlines()) == (jobs, [])
    assert parse_users(paths["users"].read_text().splitlines()) == (users, [])
    log, issues = parse_events(paths["events"].read_text().splitlines())
    assert (event_records(log), issues) == (events, [])


@pytest.mark.parametrize(
    "title, category, resume_category, padded",
    [(" Driver", "transport", "transport", " Driver"),
     ("Driver", "transport\t", "transport", "transport\t"),
     ("Driver", "transport", "transport ", "transport ")],
)
def test_corpus_files_refuse_fields_the_parsers_would_strip(tmp_path, title, category, resume_category, padded):
    jobs = {"j1": JobRecord("j1", title, category, None, REF, JobStatus.ACTIVE)}
    users = {"u1": UserRecord("u1", resume_category, None, True)}
    corpus = evaluation.SynthCorpus(log_of([ev("u1", "j1")]), jobs, {}, users)
    with pytest.raises(ValueError, match="whitespace") as exc:
        write_corpus(corpus, tmp_path)
    assert repr(padded) in str(exc.value)


@pytest.mark.parametrize("job_id", ["j 1", "j\t1", ""])
def test_embeddings_file_refuses_a_job_id_it_would_split(tmp_path, job_id):
    # parse_embeddings splits a line on whitespace: 'j 1 1.0 0.5' would read
    # back as job 'j' with the vector [1.0, 1.0, 0.5]
    jobs = {job_id: JobRecord(job_id, "Driver", "transport", None, REF, JobStatus.ACTIVE)}
    corpus = evaluation.SynthCorpus(log_of([]), jobs, {job_id: np.array([1.0, 0.5])}, {})
    with pytest.raises(ValueError, match="whitespace") as exc:
        write_corpus(corpus, tmp_path)
    assert repr(job_id) in str(exc.value)


def test_synth_zero_noise_confines_events_to_home_cluster():
    corpus = synth_corpus(4, 8, 30, 0.0, seed=1)
    for e in event_records(corpus.events):
        home = corpus.cluster_of_user[e.user_id]
        assert corpus.cluster_of_job[e.job_id] == home


def test_synth_noise_rate_matches_target():
    corpus = synth_corpus(5, 10, 400, 0.1, seed=2)
    applies = [e for e in event_records(corpus.events) if e.kind is SignalKind.APPLY]
    assert len(applies) >= 1000
    at_home = sum(
        1
        for e in applies
        if corpus.cluster_of_job[e.job_id] == corpus.cluster_of_user[e.user_id]
    )
    assert at_home / len(applies) == pytest.approx(0.9, abs=0.03)


def test_synth_cold_jobs_receive_no_events():
    corpus = synth_corpus(4, 10, 100, 0.1, seed=3, cold_fraction=0.25)
    assert corpus.cold_jobs
    touched = {e.job_id for e in event_records(corpus.events)}
    assert not touched & corpus.cold_jobs
    for j in corpus.cold_jobs:
        assert corpus.jobs[j].is_active


def test_synth_expired_jobs_are_outside_posting_window():
    corpus = synth_corpus(3, 10, 10, 0.0, seed=4, expired_fraction=0.2)
    expired = [j for j, rec in corpus.jobs.items() if not rec.is_active]
    assert len(expired) == 3 * 2
    horizon = corpus.reference_date - timedelta(days=corpus.window_days)
    for j in expired:
        assert corpus.jobs[j].posted_at <= horizon
    for j, rec in corpus.jobs.items():
        if rec.is_active:
            assert rec.posted_at > horizon


def test_synth_event_mix_per_user():
    corpus = synth_corpus(2, 10, 12, 0.0, seed=5, events_per_user=8)
    events = event_records(corpus.events)
    for u in corpus.users:
        mine = [e for e in events if e.user_id == u]
        kinds = {}
        for e in mine:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        assert kinds[SignalKind.APPLY] == 4  # round(8 * 0.45)
        assert kinds[SignalKind.EMAIL_OPEN_NO_CLICK] == 1
        assert kinds[SignalKind.CLICK] == 3


def test_synth_click_sessions_share_query_and_cluster():
    corpus = synth_corpus(3, 12, 40, 0.0, seed=6)
    sessions = {}
    for e in event_records(corpus.events):
        if e.kind is SignalKind.CLICK:
            assert e.query_id is not None
            sessions.setdefault(e.query_id, []).append(e)
    assert sessions
    for query_id, clicks in sessions.items():
        assert len({e.user_id for e in clicks}) == 1
        assert len({corpus.cluster_of_job[e.job_id] for e in clicks}) == 1
        assert len({e.job_id for e in clicks}) == len(clicks)


def test_synth_timestamps_are_whole_seconds_inside_window():
    corpus = synth_corpus(2, 6, 15, 0.3, seed=7)
    horizon = corpus.reference_date - timedelta(days=corpus.window_days)
    for e in event_records(corpus.events):
        assert e.timestamp.microsecond == 0
        assert horizon < e.timestamp < corpus.reference_date


def test_synth_embeddings_separate_clusters():
    corpus = synth_corpus(4, 6, 0, 0.0, seed=8)
    ids = sorted(corpus.jobs)
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            sim = embed_sim(corpus.embeddings[a], corpus.embeddings[b])
            if corpus.cluster_of_job[a] == corpus.cluster_of_job[b]:
                assert sim > 0.9
            else:
                assert sim < 0.3


def test_synth_users_round_robin_with_matching_resume():
    corpus = synth_corpus(3, 5, 9, 0.0, seed=9)
    for u, record in corpus.users.items():
        home = corpus.cluster_of_user[u]
        assert home == int(u[1:]) % 3
        assert record.resume_category == f"cat{home:02d}"


def test_synth_parameter_validation():
    with pytest.raises(ValueError):
        synth_corpus(3, 10, 5, 1.0, seed=0)
    with pytest.raises(ValueError):
        synth_corpus(0, 10, 5, 0.1, seed=0)
    with pytest.raises(ValueError):
        synth_corpus(3, 10, -1, 0.1, seed=0)
    with pytest.raises(ValueError):
        synth_corpus(20, 10, 5, 0.1, seed=0, embedding_dim=16)
    with pytest.raises(ValueError):
        synth_corpus(3, 10, 5, 0.1, seed=0, events_per_user=0)
    with pytest.raises(ValueError):
        synth_corpus(3, 10, 5, 0.1, seed=0, expired_fraction=1.0)
    with pytest.raises(ValueError, match="window_days must be >= 1, got 0"):
        synth_corpus(3, 10, 5, 0.1, seed=0, window_days=0)


# ---------------------------------------------------------------------------
# multi-system comparison


def test_evaluate_systems_smoke_and_bounds():
    corpus = synth_corpus(3, 15, 60, 0.1, seed=10)
    report = evaluate_systems(
        corpus.events,
        corpus.jobs,
        corpus.embeddings,
        corpus.users,
        corpus.reference_date,
        systems=KNOWN_SYSTEMS,
        holdout_fraction=0.3,
        k=5,
        config=EngineConfig(mf_k=4, mf_iterations=3),
    )
    assert report.num_users > 0
    assert set(report.systems) == set(KNOWN_SYSTEMS)
    for score in report.systems.values():
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0
        assert 0 <= score.users_served <= report.num_users
    assert report.systems["graph"].users_served > 0
    text = format_report(report)
    for name in KNOWN_SYSTEMS:
        assert name in text


def test_evaluate_systems_rejects_unknown_system():
    corpus = synth_corpus(2, 5, 5, 0.0, seed=11)
    with pytest.raises(ValueError):
        evaluate_systems(
            corpus.events,
            corpus.jobs,
            corpus.embeddings,
            corpus.users,
            corpus.reference_date,
            systems=("graph", "oracle"),
        )


def test_evaluate_systems_rejects_a_repeated_system():
    # a repeated name would count each evaluated user twice in users_served
    corpus = synth_corpus(2, 5, 5, 0.0, seed=11)
    for systems in (("graph", "graph"), ("cf", "mf", "cf")):
        with pytest.raises(ValueError, match="named twice"):
            evaluate_systems(
                corpus.events, corpus.jobs, corpus.embeddings, corpus.users, corpus.reference_date, systems=systems
            )


def test_evaluate_ranks_each_baseline_with_one_call_over_every_evaluated_user(monkeypatch):
    # the benchmark's tracer times cf_recommend and recommend_mf by swapping
    # every reference the package holds to them (matched by identity); a
    # ranking that bypasses them reads 0 in its per-layer metrics
    calls = []
    modules = [m for n, m in sys.modules.items() if n == "jobgraph" or n.startswith("jobgraph.")]
    for original in (evaluation.cf_recommend, mf.recommend_mf):

        def counted(model, user_ids, *args, _original=original, **kwargs):
            calls.append((_original.__name__, list(user_ids)))
            return _original(model, user_ids, *args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    corpus = synth_corpus(3, 12, 40, 0.1, seed=12)
    config = EngineConfig(seed=4, mf_k=4, mf_iterations=2)
    report = evaluate_systems(
        corpus.events, corpus.jobs, corpus.embeddings, corpus.users, corpus.reference_date, k=5, config=config
    )
    windowed = window_filter(corpus.events, corpus.reference_date, config.window_days)
    _, test = holdout_split(resolve_jobs(windowed, corpus.jobs)[0], 0.3, config.seed)
    evaluated = sorted({test.users[u] for u in test.user.tolist()})
    assert len(evaluated) == report.num_users > 0
    assert sorted(calls) == [("cf_recommend", evaluated), ("recommend_mf", evaluated)]


def test_evaluate_systems_same_split_for_subset_runs():
    corpus = synth_corpus(3, 12, 40, 0.1, seed=12)
    args = (
        corpus.events,
        corpus.jobs,
        corpus.embeddings,
        corpus.users,
        corpus.reference_date,
    )
    config = EngineConfig(seed=4)
    both = evaluate_systems(*args, systems=("graph", "cf"), k=5, config=config)
    only_graph = evaluate_systems(*args, systems=("graph",), k=5, config=config)
    assert both.systems["graph"] == only_graph.systems["graph"]
    assert both.num_users == only_graph.num_users


def test_evaluate_k_sets_the_graph_list_length(monkeypatch):
    seen = []
    serve = evaluation.recommend_users

    def spy(profiles, digraph, jobs, embeddings, reference_date, params):
        seen.append((params.k, params.min_recs))
        return serve(profiles, digraph, jobs, embeddings, reference_date, params)

    monkeypatch.setattr(evaluation, "recommend_users", spy)
    corpus = synth_corpus(3, 12, 40, 0.1, seed=12)
    args = (
        corpus.events,
        corpus.jobs,
        corpus.embeddings,
        corpus.users,
        corpus.reference_date,
    )
    report = evaluate_systems(
        *args, systems=("graph",), k=5, config=EngineConfig(k=15, min_recs=12, seed=4)
    )
    assert seen and set(seen) == {(5, 5)}
    seen.clear()
    evaluate_systems(*args, systems=("graph",), k=5, config=EngineConfig(min_recs=3, seed=4))
    assert set(seen) == {(5, 3)}
    same = evaluate_systems(
        *args, systems=("graph",), k=5, config=EngineConfig(k=5, min_recs=5, seed=4)
    )
    assert report.systems["graph"] == same.systems["graph"]


def test_evaluate_mf_ranks_by_the_implicit_model(monkeypatch):
    # with mf_implicit, als_train fits (U[u] + |N(u)|^-1/2 sum Y[N(u)]) . J[j]
    # over the user's clicked jobs N(u); the mf lists must rank by that
    calls = []
    serve = evaluation.recommend_mf

    def spy(model, user_ids, k, exclusions, active_jobs, implicit_items):
        exclusions = list(exclusions)
        lists = serve(model, user_ids, k, exclusions, active_jobs, implicit_items)
        for user_id, history, ranked in zip(user_ids, exclusions, lists):
            calls.append((model, user_id, {"active_jobs": active_jobs, "exclusions": history}, ranked))
        return lists

    monkeypatch.setattr(evaluation, "recommend_mf", spy)
    corpus = synth_corpus(4, 20, 200, 0.1, seed=5)
    config = EngineConfig(mf_k=8, mf_reg=0.1, mf_iterations=5, mf_implicit=True)
    evaluate_systems(
        corpus.events,
        corpus.jobs,
        corpus.embeddings,
        corpus.users,
        corpus.reference_date,
        systems=("mf",),
        k=10,
        config=config,
    )
    # clicks are never held out, and every synth event lies in the window
    clicks = {}
    for e in event_records(corpus.events):
        if e.kind is SignalKind.CLICK:
            clicks.setdefault(e.user_id, set()).add(e.job_id)
    assert len(calls) > 100
    for model, user_id, kwargs, ranked in calls:
        implicit = sorted(j for j in clicks.get(user_id, ()) if j in model.job_index)
        pool = [j for j in model.job_ids if j in kwargs["active_jobs"] and j not in kwargs["exclusions"]]
        want = {j: predict_implicit(model, user_id, j, implicit) for j in pool}
        assert len(ranked) == min(10, len(pool))
        for job_id, score in ranked:
            assert score == pytest.approx(want[job_id], abs=1e-9)
        listed = {job_id for job_id, _ in ranked}
        assert all(want[j] <= ranked[-1][1] + 1e-9 for j in pool if j not in listed)
