"""Acceptance gate: end-to-end guarantees of the engine at fixed tolerances.

Each criterion prints a single pass/fail line (visible even under pytest's
capture) and enforces its own wall-clock budget.
"""

import hashlib
import math
import random
import sys
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from helpers import (
    REF,
    CoMaps,
    brute_force_levels,
    co_pairs,
    content_pairs,
    dense_pagerank,
    embed_sim,
    mle,
    pmi2,
    random_digraph,
)
from jobgraph import cli
from jobgraph.config import EngineConfig
from jobgraph.evaluation import (
    EDGE_TYPES,
    connectivity_report,
    evaluate_systems,
    synth_corpus,
)
from jobgraph.graph import build_costats
from jobgraph.ingest import dedupe, resolve_jobs, window_filter
from jobgraph.mf import (
    RatingsMatrix,
    als_train,
    build_matrix,
    predict_biased,
    predict_implicit,
    recommend_mf,
)
from jobgraph.recommend import (
    UserProfile,
    build_profiles,
    global_pagerank,
    level1,
    level2,
    personalized_pagerank,
    recommend,
)
from jobgraph.scoring import (
    RecDigraph,
    aggregate,
    content_edges,
)


@contextmanager
def criterion(number, label, limit_s):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if not failed and elapsed < limit_s else "FAIL"
        print(
            f"[acceptance] {number}. {label}: {status} ({elapsed:.2f}s, limit {limit_s:.0f}s)",
            file=sys.__stdout__,
            flush=True,
        )
    assert elapsed < limit_s, f"{label}: {elapsed:.2f}s exceeded the {limit_s:.0f}s budget"


def graph_of(nodes, edges):
    return co_pairs(nodes, edges)


def built_pipeline(corpus, weights=EngineConfig()):
    """Corpus -> (signals, digraph, active set, profiles), the serving path."""
    windowed = window_filter(corpus.events, corpus.reference_date, corpus.window_days)
    resolved, _ = resolve_jobs(windowed, corpus.jobs)
    signals = dedupe(resolved)
    graph = build_costats(signals, corpus.jobs)
    content = content_edges(corpus.embeddings, weights.gamma)
    active = frozenset(j for j, rec in corpus.jobs.items() if rec.is_active)
    digraph = aggregate(graph, content, weights, active)
    taxonomy = {j.category for j in corpus.jobs.values()}
    profiles = build_profiles(signals, corpus.users, taxonomy)
    return signals, digraph, active, profiles


# ---------------------------------------------------------------------------


def test_criterion_1_score_formula_suite():
    with criterion(1, "score formulas", 1.0):
        rng = random.Random(101)
        for _ in range(500):
            ci, cj = rng.randint(0, 40), rng.randint(0, 40)
            co = rng.randint(0, min(ci, cj)) if min(ci, cj) else 0
            g = CoMaps({"i": (ci, 0), "j": (cj, 0)}, {("i", "j"): (co, 0)})
            assert 0.0 <= mle(g, "i", "j", "apps") <= 1.0
            value = pmi2(g, "i", "j", "apps")
            if min(ci, cj, co) == 0:
                assert value is None
            else:
                assert value <= 1e-12
                if ci == cj == co:
                    assert abs(value) <= 1e-12
                else:
                    assert value < 0
                assert value == pmi2(g, "j", "i", "apps")

        vec_rng = np.random.default_rng(102)
        for _ in range(300):
            a, b = vec_rng.normal(size=8), vec_rng.normal(size=8)
            s = embed_sim(a, b)
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
            assert abs(embed_sim(5.5 * a, 0.25 * b) - s) < 1e-10

        fixtures = [
            # (node stats, edge co-stats, content sim, weights, src, dst, expected)
            ({"i": (0, 0), "j": (0, 0)}, None, 0.8, EngineConfig(), "i", "j", 0.16),
            ({"i": (2, 2), "j": (2, 2)}, (2, 2), 1.0, EngineConfig(), "i", "j", 1.2),
            (
                {"i": (2, 2), "j": (2, 2)},
                (2, 2),
                1.0,
                EngineConfig(normalize_pmi2=True),
                "i",
                "j",
                1.8,
            ),
            (
                {"i": (4, 0), "j": (8, 0)},
                (2, 0),
                None,
                EngineConfig(),
                "i",
                "j",
                0.5 * (2 / 4) + 0.3 * math.log(4 / 32),
            ),
            (
                {"i": (4, 0), "j": (8, 0)},
                (2, 0),
                None,
                EngineConfig(),
                "j",
                "i",
                0.5 * (2 / 8) + 0.3 * math.log(4 / 32),
            ),
            ({"i": (0, 3), "j": (0, 3)}, (0, 3), None, EngineConfig(), "i", "j", 0.5),
        ]
        for nodes, co, sim, weights, src, dst, expected in fixtures:
            g = graph_of(nodes, {("i", "j"): co} if co else {})
            content = content_pairs({("i", "j"): sim} if sim is not None else {})
            digraph = aggregate(g, content, weights, ["i", "j"])
            got = digraph.corr(src, dst)
            assert got is not None and abs(got - expected) < 1e-12, (
                f"fixture {src}->{dst}: got {got}, expected {expected}"
            )


def test_criterion_2_propagation_matches_bruteforce():
    with criterion(2, "two-hop propagation oracle", 30.0):
        # chain fixture: the two-hop score is the product of the one-hop scores
        chain = RecDigraph.from_corr(
            {("j1", "j6"): 0.7, ("j6", "j4"): 0.6}, ["j1", "j4", "j6"]
        )
        l1 = level1(chain, [("j1", 1.0)], k=10)
        l2 = level2(chain, l1, k=10)
        assert dict(l1)["j6"] == 0.7
        assert dict(l2)["j4"] == dict(l1)["j6"] * 0.6

        rng = random.Random(103)
        for _ in range(500):
            digraph = random_digraph(rng, 12)
            nodes = sorted(digraph.active_jobs)
            n_src = rng.randint(1, min(3, len(nodes)))
            sources = [(j, rng.uniform(0.05, 1.0)) for j in rng.sample(nodes, n_src)]
            exclude = {j for j, _ in sources}
            want_l1, want_l2 = brute_force_levels(digraph, sources, exclude)
            got_l1 = dict(level1(digraph, sources, k=len(nodes), exclude=exclude))
            got_l2 = dict(
                level2(
                    digraph,
                    sorted(got_l1.items(), key=lambda kv: (-kv[1], kv[0])),
                    k=len(nodes),
                    exclude=exclude,
                )
            )
            assert set(got_l1) == set(want_l1)
            assert set(got_l2) == set(want_l2)
            for j, v in want_l1.items():
                assert abs(got_l1[j] - v) < 1e-12
            for j, v in want_l2.items():
                assert abs(got_l2[j] - v) < 1e-12


def test_criterion_3_pagerank_matches_dense_solve():
    with criterion(3, "random-walk oracle", 30.0):
        rng = random.Random(107)
        for _ in range(100):
            digraph = random_digraph(rng, 15)
            nodes = sorted(digraph.active_jobs)
            result = global_pagerank(digraph, epsilon=1e-14)
            assert result.converged
            restart = {j: 1.0 / len(nodes) for j in nodes}
            want = dense_pagerank(digraph, restart, 0.85)
            for j in nodes:
                assert abs(result.scores[j] - want[j]) < 1e-8
            assert abs(sum(result.scores.values()) - 1.0) < 1e-9

            ppr = personalized_pagerank(digraph, nodes, epsilon=1e-14)
            for j in nodes:
                assert abs(ppr.scores[j] - result.scores[j]) < 1e-8


def test_criterion_4_connectivity_ordering_and_monotonicity():
    with criterion(4, "edge-coverage ordering", 60.0):
        corpus = synth_corpus(4, 30, 40, 0.1, seed=11)
        windowed = window_filter(corpus.events, corpus.reference_date, corpus.window_days)
        resolved, _ = resolve_jobs(windowed, corpus.jobs)
        signals = dedupe(resolved)
        graph = build_costats(signals, corpus.jobs)
        content = content_edges(corpus.embeddings, 0.4)
        active = [j for j, rec in corpus.jobs.items() if rec.is_active]
        report = connectivity_report(graph, content, active)

        f_clicks = report.fraction("co_clicks")
        f_apps = report.fraction("co_apps")
        f_union = report.fraction("co_apps", "co_clicks")
        f_all = report.fraction(*EDGE_TYPES)
        assert f_clicks < f_apps < f_union < f_all, (
            f"ordering violated: {f_clicks} {f_apps} {f_union} {f_all}"
        )
        assert f_all >= 0.95

        rng = random.Random(109)
        subsets = [
            frozenset(s) for size in (1, 2, 3) for s in combinations(EDGE_TYPES, size)
        ]
        for _ in range(50):
            n = rng.randint(2, 12)
            ids = [f"n{i:02d}" for i in range(n)]
            nodes = {j: (rng.randint(0, 5), rng.randint(0, 5)) for j in ids}
            edges, pairs = {}, {}
            for a_pos, a in enumerate(ids):
                for b in ids[a_pos + 1:]:
                    if rng.random() < 0.3:
                        edges[(a, b)] = (rng.randint(0, 3), rng.randint(0, 3))
                    if rng.random() < 0.3:
                        pairs[(a, b)] = rng.uniform(0.4, 1.0)
            act = [j for j in ids if rng.random() < 0.8]
            rpt = connectivity_report(graph_of(nodes, edges), content_pairs(pairs), act)
            for small in subsets:
                for big in subsets:
                    if small < big:
                        assert rpt.fractions[small] <= rpt.fractions[big] + 1e-12


def test_criterion_5_cold_start_contrast():
    with criterion(5, "cold-job reach vs factorization", 60.0):
        corpus = synth_corpus(5, 40, 500, 0.1, seed=0, cold_fraction=0.2)
        cold = corpus.cold_jobs
        assert cold and not {e.job_id for e in corpus.events} & cold

        signals, digraph, active, profiles = built_pipeline(corpus)
        params = EngineConfig(k=15)
        reached = 0
        for user_id in sorted(corpus.users):
            profile = profiles.get(user_id) or UserProfile(user_id)
            recs = recommend(
                profile, digraph, corpus.jobs, corpus.embeddings, corpus.reference_date, params
            )
            home = corpus.cluster_of_user[user_id]
            if any(
                r.job_id in cold and corpus.cluster_of_job[r.job_id] == home
                for r in recs
            ):
                reached += 1
        assert reached / len(corpus.users) >= 0.5, (
            f"only {reached}/{len(corpus.users)} users reached a cold job"
        )

        matrix = build_matrix(signals)
        model = als_train(matrix, k=8, reg=0.1, iterations=5, seed=0)
        assert not set(model.job_ids) & cold  # structurally outside the model
        cold_hits = 0
        for user_id in model.user_ids:
            profile = profiles.get(user_id)
            history = profile.engaged_jobs() if profile else set()
            for job_id, _ in recommend_mf(
                model, user_id, 15, exclusions=history, active_jobs=active
            ):
                if job_id in cold:
                    cold_hits += 1
        assert cold_hits == 0


def test_criterion_6_holdout_win_rate_over_cf():
    with criterion(6, "holdout precision vs neighbor baseline", 300.0):
        wins = 0
        for seed in range(10):
            corpus = synth_corpus(5, 60, 2000, 0.1, seed=seed, expired_fraction=0.0)
            report = evaluate_systems(
                corpus.events,
                corpus.jobs,
                corpus.embeddings,
                corpus.users,
                corpus.reference_date,
                systems=("graph", "cf"),
                holdout_fraction=0.3,
                k=10,
                config=EngineConfig(seed=seed),
            )
            if report.systems["graph"].precision > report.systems["cf"].precision:
                wins += 1
        assert wins >= 8, f"graph beat the neighbor baseline in only {wins}/10 seeds"


def test_criterion_7_als_training_guarantees():
    with criterion(7, "factorization training dynamics", 60.0):
        rng = random.Random(113)
        for trial in range(20):
            m, n = rng.randint(4, 9), rng.randint(4, 9)
            entries = [
                (u, j, rng.choice([1.0, -1.0]))
                for u in range(m)
                for j in range(n)
                if rng.random() < 0.5
            ] or [(0, 0, 1.0)]
            matrix = RatingsMatrix(
                [f"u{i}" for i in range(m)], [f"j{i}" for i in range(n)], entries
            )
            model = als_train(matrix, k=3, reg=0.1, iterations=10, seed=trial)
            values = [v for _, v in model.loss_trace]
            assert len(values) == 20
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

        s = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
        t = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
        entries = [(u, j, float(s[u] * t[j])) for u in range(8) for j in range(6)]
        rank1 = RatingsMatrix(
            [f"u{i}" for i in range(8)], [f"j{i}" for i in range(6)], entries
        )
        model = als_train(rank1, k=1, reg=0.0, iterations=15, seed=0)
        assert model.mse_trace[-1] < 1e-6

        probe = als_train(rank1, k=2, reg=0.1, iterations=3, seed=1)
        for u in probe.user_ids:
            for j in probe.job_ids:
                assert predict_implicit(probe, u, j, []) == predict_biased(probe, u, j)


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    with criterion(8, "byte-identical reruns", 60.0):
        synth_args = [
            "synth",
            "--clusters", "3",
            "--jobs-per-cluster", "10",
            "--users", "30",
            "--noise", "0.1",
            "--seed", "17",
        ]
        hashes = []
        for run in range(3):
            corpus_dir = tmp_path / f"corpus{run}"
            build_dir = tmp_path / f"build{run}"
            assert cli.main(synth_args + ["--out-dir", str(corpus_dir)]) == 0
            assert (
                cli.main(
                    [
                        "build",
                        "--events", str(corpus_dir / "events.csv"),
                        "--jobs", str(corpus_dir / "jobs.csv"),
                        "--embeddings", str(corpus_dir / "embeddings.txt"),
                        "--reference-date", "2017-06-01T00:00:00Z",
                        "--out-dir", str(build_dir),
                    ]
                )
                == 0
            )
            digest = {}
            for directory in (corpus_dir, build_dir):
                for path in sorted(directory.iterdir()):
                    digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            hashes.append(digest)
        assert len(hashes[0]) == 6  # 4 corpus files + digraph.csv and manifest.json
        assert hashes[0] == hashes[1] == hashes[2]
