"""Shared constructors and brute-force oracles used across the test suite."""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from jobgraph.graph import _pair
from jobgraph.ingest import InteractionEvent, JobRecord, JobStatus, ParseIssue, SignalKind
from jobgraph.mf import FactorModel, RatingsMatrix, _implicit_offsets
from jobgraph.recommend import PageRankResult
from jobgraph.scoring import ContentPairs, EdgeScores, RecDigraph, mle, pmi2

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


def reference_parse_embeddings(lines):
    """parse_embeddings one line at a time, as it was before its one-matrix
    path: the oracle for both its vectors and its issues."""
    vectors: dict[str, np.ndarray] = {}
    issues: list[ParseIssue] = []
    dim = None
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        job_id = tokens[0]
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError:
            issues.append(ParseIssue(line_no, "non-numeric component"))
            continue
        if vec.size == 0:
            issues.append(ParseIssue(line_no, "no vector components"))
            continue
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            issues.append(ParseIssue(line_no, f"dimension {vec.size} != corpus dimension {dim}"))
            continue
        if not np.all(np.isfinite(vec)):
            issues.append(ParseIssue(line_no, "non-finite component"))
            continue
        if float(np.linalg.norm(vec)) == 0.0:
            issues.append(ParseIssue(line_no, "zero-norm vector"))
            continue
        if job_id in vectors:
            issues.append(ParseIssue(line_no, f"duplicate job_id {job_id!r}"))
        vectors[job_id] = vec
    return vectors, issues


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


def reference_pagerank(
    digraph: RecDigraph,
    restart_jobs: Sequence[str],
    damping: float,
    epsilon: float,
    max_iters: int,
) -> PageRankResult:
    """The power iteration as it was before it walked only reached edges:
    every iteration walks every positive edge of the digraph, whatever the
    restart set, over arrays built here from ``out_edges``. The vectors run
    over ``digraph.nodes``; an active job without a positive out-edge is
    dangling. recommend._pagerank must return the same result, bit for
    bit."""
    nodes = digraph.nodes
    n = len(nodes)
    index = {job_id: i for i, job_id in enumerate(nodes)}
    edges = [
        (index[src], index[dst], es.corr)
        for src in nodes
        for dst, es in digraph.out_edges(src)
        if es.corr > 0.0
    ]
    out_sum = [0.0] * n
    for src, _, corr in edges:
        out_sum[src] += corr
    src = np.array([e[0] for e in edges], dtype=np.intp)
    dst = np.array([e[1] for e in edges], dtype=np.intp)
    prob = np.array([corr / out_sum[s] for s, _, corr in edges])
    dangling = [i for i, job_id in enumerate(nodes) if job_id in digraph.active_jobs and out_sum[i] == 0.0]
    restart = np.zeros(n)
    restart[[index[j] for j in restart_jobs]] = 1.0 / len(restart_jobs)

    x = restart.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        flow = np.bincount(dst, weights=x[src] * prob, minlength=n)
        dangling_mass = float(x[dangling].sum())
        x_next = damping * (flow + dangling_mass * restart) + (1.0 - damping) * restart
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        if delta < epsilon:
            converged = True
            break
    scores = {job_id: score for job_id, score in zip(nodes, x.tolist()) if score > 0.0}
    return PageRankResult(scores, converged, iterations)


def content_pairs(sims: Mapping[tuple[str, str], float]) -> ContentPairs:
    """The :class:`ContentPairs` of a map of job pairs ``(i, j)``, ``i < j``,
    to cosine similarities, laid out as ``content_edges`` returns them."""
    ids = sorted({job_id for pair in sims for job_id in pair})
    index = {job_id: i for i, job_id in enumerate(ids)}
    rows = sorted((index[i], index[j], sim) for (i, j), sim in sims.items())
    if any(a >= b for a, b, _ in rows):
        raise ValueError("content pairs are keyed (i, j) with i < j")
    a = np.array([a for a, _, _ in rows], dtype=np.intp)
    b = np.array([b for _, b, _ in rows], dtype=np.intp)
    return ContentPairs(ids, a, b, np.array([sim for _, _, sim in rows], dtype=float))


def content_map(pairs: ContentPairs) -> dict[tuple[str, str], float]:
    """The content pairs as a map of ``(i, j)`` to cosine similarity."""
    return {
        (pairs.ids[a], pairs.ids[b]): sim
        for a, b, sim in zip(pairs.a.tolist(), pairs.b.tolist(), pairs.sim.tolist())
    }


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


def _solve_row(design: np.ndarray, target: np.ndarray, reg: float) -> np.ndarray:
    """Exact ridge solution of one row's least-squares subproblem."""
    gram = design.T @ design
    rhs = design.T @ target
    if reg > 0.0:
        gram = gram + reg * np.eye(gram.shape[0])
        return np.linalg.solve(gram, rhs)
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def reference_als_train(
    matrix: RatingsMatrix,
    k: int = 32,
    reg: float = 0.1,
    iterations: int = 10,
    seed: int = 0,
    implicit: bool = False,
) -> FactorModel:
    """:func:`als_train` one row at a time: each user's and each job's
    ridge problem is gathered with ``flatnonzero`` and solved on its own."""
    if not matrix.entries:
        raise ValueError("ratings matrix is empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if reg < 0:
        raise ValueError(f"reg must be >= 0, got {reg}")

    m, n = matrix.num_users, matrix.num_jobs
    rng = np.random.default_rng(seed)
    U = rng.uniform(-0.01, 0.01, size=(m, k))
    J = rng.uniform(-0.01, 0.01, size=(n, k))
    b_u = np.zeros(m)
    b_j = np.zeros(n)
    Y = np.zeros((n, k))

    rows = np.array([e[0] for e in matrix.entries], dtype=np.intp)
    cols = np.array([e[1] for e in matrix.entries], dtype=np.intp)
    vals = np.array([e[2] for e in matrix.entries])
    mu = float(vals.mean())

    by_user: dict[int, np.ndarray] = {
        u: np.flatnonzero(rows == u) for u in np.unique(rows)
    }
    by_job: dict[int, np.ndarray] = {j: np.flatnonzero(cols == j) for j in np.unique(cols)}
    job_users_with: dict[int, list[int]] = {}
    if implicit:
        for u, items in matrix.implicit.items():
            for g in items:
                job_users_with.setdefault(g, []).append(u)

    def offsets() -> np.ndarray:
        return (
            _implicit_offsets(matrix, Y, k) if implicit else np.zeros((m, k))
        )

    def predictions(off: np.ndarray) -> np.ndarray:
        return (
            mu
            + b_u[rows]
            + b_j[cols]
            + np.einsum("ij,ij->i", U[rows] + off[rows], J[cols])
        )

    def objective(off: np.ndarray) -> float:
        resid = vals - predictions(off)
        penalty = (
            np.sum(U * U)
            + np.sum(J * J)
            + np.sum(b_u * b_u)
            + np.sum(b_j * b_j)
            + np.sum(Y * Y)
        )
        return float(np.sum(resid * resid) + reg * penalty)

    loss_trace: list[tuple[str, float]] = []
    mse_trace: list[float] = []

    for it in range(1, iterations + 1):
        off = offsets()
        for u, idx in by_user.items():
            js = cols[idx]
            design = np.hstack([J[js], np.ones((len(idx), 1))])
            target = vals[idx] - mu - b_j[js] - J[js] @ off[u]
            beta = _solve_row(design, target, reg)
            U[u] = beta[:k]
            b_u[u] = beta[k]
        loss_trace.append((f"iter{it}:users", objective(off)))

        for j, idx in by_job.items():
            us = rows[idx]
            design = np.hstack([U[us] + off[us], np.ones((len(idx), 1))])
            target = vals[idx] - mu - b_u[us]
            beta = _solve_row(design, target, reg)
            J[j] = beta[:k]
            b_j[j] = beta[k]
        off = offsets()
        loss_trace.append((f"iter{it}:jobs", objective(off)))

        if implicit and job_users_with:
            # Cyclic exact solves per implicit-factor row; each observation
            # (u, j) with g in N(u) constrains Y[g] through c_u * J[j].
            for g in sorted(job_users_with):
                design_rows = []
                targets = []
                for u in job_users_with[g]:
                    idx = by_user.get(u)
                    if idx is None:
                        continue
                    c_u = 1.0 / np.sqrt(len(matrix.implicit[u]))
                    partial = off[u] - c_u * Y[g]
                    js = cols[idx]
                    resid = (
                        vals[idx]
                        - mu
                        - b_u[u]
                        - b_j[js]
                        - J[js] @ (U[u] + partial)
                    )
                    design_rows.append(c_u * J[js])
                    targets.append(resid)
                if not design_rows:
                    continue
                design = np.vstack(design_rows)
                target = np.concatenate(targets)
                Y[g] = _solve_row(design, target, reg)
                off = offsets()
            loss_trace.append((f"iter{it}:implicit", objective(off)))

        if not (
            np.all(np.isfinite(U))
            and np.all(np.isfinite(J))
            and np.all(np.isfinite(b_u))
            and np.all(np.isfinite(b_j))
            and np.all(np.isfinite(Y))
        ):
            raise ArithmeticError(f"non-finite factors after iteration {it}")

        resid = vals - predictions(off)
        mse = float(np.mean(resid * resid))
        mse_trace.append(mse)

    return FactorModel(
        U, J, b_u, b_j, Y, mu, list(matrix.user_ids), list(matrix.job_ids),
        loss_trace, mse_trace,
    )


def reference_recommend_mf(
    model: FactorModel,
    user_id: str,
    k: int,
    exclusions: Iterable[str] = (),
    active_jobs: Iterable[str] | None = None,
    implicit_items: Sequence[str] | None = None,
) -> list[tuple[str, float]]:
    """:func:`recommend_mf` by one Python sort of every candidate on
    (-score, job_id)."""
    if user_id not in model.user_index:
        raise KeyError(f"user {user_id!r} unknown to the model")
    u = model.user_index[user_id]
    user_vec = model.user_factors[u]
    if implicit_items:
        known = [model.job_index[i] for i in implicit_items if i in model.job_index]
        if known:
            user_vec = user_vec + model.implicit_factors[known].sum(axis=0) / np.sqrt(len(known))
    scores = model.mu + model.user_bias[u] + model.job_bias + model.job_factors @ user_vec

    banned = set(exclusions)
    allowed = None if active_jobs is None else set(active_jobs)
    candidates = {
        job_id: float(scores[j])
        for job_id, j in model.job_index.items()
        if job_id not in banned and (allowed is None or job_id in allowed)
    }
    ranked = sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
