"""Shared constructors and brute-force oracles used across the test suite."""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta, timezone

import numpy as np

from jobgraph.graph import _pair
from jobgraph.ingest import InteractionEvent, JobRecord, JobStatus, SignalKind
from jobgraph.scoring import EdgeScores, RecDigraph, mle, pmi2

REF = datetime(2017, 6, 1, tzinfo=timezone.utc)


def ts(age_days: float = 0.0, age_seconds: float = 0.0) -> datetime:
    """A timestamp ``age_days`` (+ seconds) before the reference date."""
    return REF - timedelta(days=age_days, seconds=age_seconds)


def ev(user, job, kind=SignalKind.APPLY, age_days=1.0, query_id=None):
    return InteractionEvent(user, job, kind, ts(age_days), query_id)


def make_job(job_id, category="sales", active=True, location=None, posted_age_days=30.0):
    return JobRecord(
        job_id,
        f"Title {job_id}",
        category,
        location,
        ts(posted_age_days),
        JobStatus.ACTIVE if active else JobStatus.EXPIRED,
    )


def make_jobs(*job_ids, category="sales", active=True):
    return {j: make_job(j, category=category, active=active) for j in job_ids}


def random_digraph(rng: random.Random, max_nodes: int = 12, *, edge_prob=0.3, negatives=True):
    """A random corr-weighted digraph over n0..n{N-1}, all nodes active."""
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    corr = {}
    lo = -1.0 if negatives else 0.05
    for src in nodes:
        for dst in nodes:
            if src != dst and rng.random() < edge_prob:
                corr[(src, dst)] = rng.uniform(lo, 2.0)
    return RecDigraph.from_corr(corr, nodes)


def edge_map(digraph):
    """Every edge of ``digraph`` as (src, dst) -> EdgeScores, in (src, dst)
    order, read through ``out_edges``."""
    return {(src, dst): es for src in digraph.nodes for dst, es in digraph.out_edges(src)}


def digraph_of_scores(scores, active_jobs):
    """A digraph holding the given (src, dst) -> EdgeScores."""
    ids = sorted({job_id for pair in scores for job_id in pair})
    index = {job_id: i for i, job_id in enumerate(ids)}
    src = np.array([index[s] for s, _ in scores], dtype=np.intp)
    dst = np.array([index[d] for _, d in scores], dtype=np.intp)
    rows = [[np.nan if v is None else v for v in es] for es in scores.values()]
    return RecDigraph(ids, src, dst, np.array(rows).reshape(len(rows), 6), active_jobs)


def brute_force_levels(digraph, sources, exclude):
    """Enumerate every path of length <= 2 from the sources with product
    scoring and max-merge, honoring tier precedence: one-hop candidates
    stay level 1 even when some two-hop path scores higher.

    Assumes no truncation (call sites use k >= number of nodes) and that
    ``exclude`` contains the source jobs, mirroring pipeline usage.
    """
    banned = set(exclude) | {s for s, _ in sources}
    level1 = {}
    for src, activity in sources:
        for dst, es in digraph.out_edges(src):
            if dst in banned:
                continue
            score = activity * es.corr
            if dst not in level1 or score > level1[dst]:
                level1[dst] = score
    banned2 = set(exclude) | set(level1)
    level2 = {}
    for mid, path_score in level1.items():
        for dst, es in digraph.out_edges(mid):
            if dst in banned2:
                continue
            score = path_score * es.corr
            if dst not in level2 or score > level2[dst]:
                level2[dst] = score
    return level1, level2


def dense_pagerank(digraph, restart: dict, damping: float) -> dict:
    """Reference PageRank by direct linear solve.

    Transitions are row-normalized non-negative corr weights; rows with no
    positive out-weight are replaced by the restart distribution, matching
    the teleport-dangling-mass convention. Solves
    (I - d Pᵀ) x = (1 - d) r exactly.
    """
    nodes = sorted(restart)
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    r = np.array([restart[node] for node in nodes])
    P = np.zeros((n, n))
    for src in nodes:
        weights = [
            (dst, max(es.corr, 0.0))
            for dst, es in digraph.out_edges(src)
            if dst in index
        ]
        total = sum(w for _, w in weights if w > 0)
        if total > 0:
            for dst, w in weights:
                if w > 0:
                    P[index[src], index[dst]] = w / total
        else:
            P[index[src]] = r
    x = np.linalg.solve(np.eye(n) - damping * P.T, (1.0 - damping) * r)
    return {node: float(x[index[node]]) for node in nodes}


def reference_edge_scores(graph, content, weights, src, dst):
    """Score the directed edge src -> dst one signal at a time from
    :func:`mle`, :func:`pmi2` and the cosine map; None when no signal
    contributes. The scalar statement of what ``aggregate`` computes."""
    p_apps = p_clicks = pm_apps = pm_clicks = None
    co = graph.costats(dst, src)
    if co.co_apps > 0:
        p_apps = mle(graph, dst, src, "apps")
        pm_apps = pmi2(graph, dst, src, "apps")
    if co.co_clicks > 0:
        p_clicks = mle(graph, dst, src, "clicks")
        pm_clicks = pmi2(graph, dst, src, "clicks")
    sim = content.get(_pair(src, dst))
    if p_apps is None and p_clicks is None and sim is None:
        return None

    def pmi_term(value):
        if value is None:
            return 0.0
        return math.exp(value) if weights.normalize_pmi2 else value

    corr = (
        weights.w1 * ((p_apps or 0.0) + (p_clicks or 0.0))
        + weights.w2 * (pmi_term(pm_apps) + pmi_term(pm_clicks))
        + weights.w3 * (sim if sim is not None else 0.0)
    )
    return EdgeScores(corr, p_apps, p_clicks, pm_apps, pm_clicks, sim)


def reference_aggregate(graph, content, weights, active):
    """Every (src, dst) -> EdgeScores that ``aggregate`` should produce:
    both directions of each multigraph pair and of each content pair
    between known nodes, into active destinations only."""
    pairs = set(graph.edges) | {p for p in content if p[0] in graph.nodes and p[1] in graph.nodes}
    edges = {}
    for a, b in pairs:
        for src, dst in ((a, b), (b, a)):
            if dst in active:
                scores = reference_edge_scores(graph, content, weights, src, dst)
                if scores is not None:
                    edges[(src, dst)] = scores
    return edges
