"""Per-pair association scores and their aggregation into the rec digraph.

Three score families feed a weighted aggregate:

* conditional co-interaction probability ``c(i,j) / c(j)`` per signal
  (asymmetric, popularity-biased),
* a squared pointwise-mutual-information variant
  ``ln(c(i,j)^2 / (c(i) * c(j)))`` per signal (symmetric, <= 0,
  popularity-normalized),
* cosine similarity of job content embeddings, cut off below ``gamma``.

The aggregate ``corr`` of an ordered pair is asymmetric, and directed
edges only ever point at active jobs.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, TextIO

import numpy as np

from .graph import JobMultiGraph, _pair

logger = logging.getLogger(__name__)

SIGNALS = ("apps", "clicks")


@dataclass(frozen=True)
class ScoreWeights:
    """Weights of the aggregate score plus the content-similarity cutoff.

    ``normalize_pmi2`` replaces the raw (non-positive) PMI^2 term with
    ``exp(pmi2)`` in (0, 1] so all three terms share a common scale;
    off by default.
    """

    w1: float = 0.5
    w2: float = 0.3
    w3: float = 0.2
    gamma: float = 0.4
    normalize_pmi2: bool = False

    def __post_init__(self):
        if min(self.w1, self.w2, self.w3) < 0:
            raise ValueError("weights must be non-negative")
        if max(self.w1, self.w2, self.w3) <= 0:
            raise ValueError("at least one weight must be positive")
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-1, 1], got {self.gamma}")


@dataclass(frozen=True)
class EdgeScores:
    """Aggregate score of one directed edge plus its audit components.

    Component fields are ``None`` when the corresponding signal contributed
    no evidence. ``corr`` is computed from the components at aggregation
    time (honoring ``normalize_pmi2``), so it is authoritative.
    """

    corr: float
    p_apps: float | None = None
    p_clicks: float | None = None
    pmi2_apps: float | None = None
    pmi2_clicks: float | None = None
    sim_e: float | None = None


def mle(graph: JobMultiGraph, i: str, j: str, signal: str) -> float:
    """Conditional probability estimate of interacting with i given j.

    Returns ``c(i,j) / c(j)`` for the requested signal; a zero denominator
    means no evidence and yields 0.0 rather than an error.
    """
    total = graph.stats(j).total(signal)
    if total == 0:
        return 0.0
    return graph.costats(i, j).count(signal) / total


def pmi2(graph: JobMultiGraph, i: str, j: str, signal: str) -> float | None:
    """Squared-PMI association ``ln(c(i,j)^2 / (c(i) * c(j)))``, always <= 0.

    Returns ``None`` when any involved count is zero (no evidence for this
    signal on this pair).
    """
    co = graph.costats(i, j).count(signal)
    ci = graph.stats(i).total(signal)
    cj = graph.stats(j).total(signal)
    if co == 0 or ci == 0 or cj == 0:
        return None
    return math.log(co * co / (ci * cj))


def embed_sim(v_i: np.ndarray, v_j: np.ndarray) -> float:
    """Cosine similarity of two embedding vectors."""
    v_i = np.asarray(v_i, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    if v_i.shape != v_j.shape:
        raise ValueError(f"dimension mismatch: {v_i.shape} vs {v_j.shape}")
    denom = float(np.linalg.norm(v_i) * np.linalg.norm(v_j))
    if denom == 0.0:
        raise ValueError("zero-norm vector")
    return float(np.dot(v_i, v_j) / denom)


def content_edges(
    embeddings: Mapping[str, np.ndarray],
    gamma: float,
    categories: Mapping[str, str] | None = None,
) -> dict[tuple[str, str], float]:
    """All unordered pairs with cosine similarity >= gamma (kept at equality).

    Exhaustive pairwise comparison; when ``categories`` is given, only
    same-category pairs are compared (a blocking pre-filter for larger
    corpora).
    """
    if categories is None:
        groups = [sorted(embeddings)]
    else:
        by_cat: dict[str, list[str]] = {}
        for job_id in sorted(embeddings):
            if job_id in categories:
                by_cat.setdefault(categories[job_id], []).append(job_id)
        groups = [by_cat[c] for c in sorted(by_cat)]

    edges: dict[tuple[str, str], float] = {}
    for ids in groups:
        if len(ids) < 2:
            continue
        mat = np.stack([embeddings[job_id] for job_id in ids])
        norms = np.linalg.norm(mat, axis=1)
        unit = mat / norms[:, None]
        sims = unit @ unit.T
        hit_i, hit_j = np.nonzero(np.triu(sims >= gamma, k=1))
        for a, b in zip(hit_i.tolist(), hit_j.tolist()):
            edges[(ids[a], ids[b])] = float(sims[a, b])
    return edges


def _directed_scores(
    graph: JobMultiGraph,
    content: Mapping[tuple[str, str], float],
    weights: ScoreWeights,
    src: str,
    dst: str,
) -> EdgeScores | None:
    """Score the directed edge src -> dst; None when no signal contributes."""
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

    def pmi_term(value: float | None) -> float:
        if value is None:
            return 0.0
        return math.exp(value) if weights.normalize_pmi2 else value

    corr = (
        weights.w1 * ((p_apps or 0.0) + (p_clicks or 0.0))
        + weights.w2 * (pmi_term(pm_apps) + pmi_term(pm_clicks))
        + weights.w3 * (sim if sim is not None else 0.0)
    )
    return EdgeScores(corr, p_apps, p_clicks, pm_apps, pm_clicks, sim)


class Transitions(NamedTuple):
    """Random walk over the sorted active jobs: edge ``e`` moves ``prob[e]``
    of the mass of job ``src[e]`` to job ``dst[e]``. Only positive-corr edges
    between active jobs carry mass; a ``dangling`` job has none of them."""

    nodes: list[str]
    index: dict[str, int]
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray
    dangling: np.ndarray


class RecDigraph:
    """Directed, weighted recommendation graph over active destinations.

    Every edge points at an active job: edges into any other job are dropped
    here, so a dump loaded against a newer jobs file never serves a job that
    expired since the build. The adjacency is held in (src, dst) order.
    """

    def __init__(self, edges: dict[str, dict[str, EdgeScores]], active_jobs: Iterable[str]):
        self.active_jobs = frozenset(active_jobs)
        self.edges: dict[str, dict[str, EdgeScores]] = {}
        for src in sorted(edges):
            out = edges[src]
            kept = {dst: out[dst] for dst in sorted(out) if dst in self.active_jobs}
            if kept:
                self.edges[src] = kept
        # global PageRank results per (damping, epsilon, max_iters), filled
        # by recommend.global_pagerank
        self.global_pagerank_results: dict[tuple[float, float, int], object] = {}

    @classmethod
    def from_corr(
        cls, corr: Mapping[tuple[str, str], float], active_jobs: Iterable[str]
    ) -> "RecDigraph":
        """Build from bare (src, dst) -> corr weights (components unset)."""
        edges: dict[str, dict[str, EdgeScores]] = {}
        for (src, dst), value in corr.items():
            edges.setdefault(src, {})[dst] = EdgeScores(float(value))
        return cls(edges, active_jobs)

    @property
    def num_edges(self) -> int:
        return sum(len(out) for out in self.edges.values())

    def out_edges(self, src: str) -> Iterable[tuple[str, EdgeScores]]:
        """Outgoing edges of ``src`` ordered by destination job_id."""
        return self.edges.get(src, {}).items()

    def corr(self, src: str, dst: str) -> float | None:
        es = self.edges.get(src, {}).get(dst)
        return es.corr if es is not None else None

    @functools.cached_property
    def transitions(self) -> Transitions:
        """The walk PageRank runs on, built on first use."""
        nodes = sorted(self.active_jobs)
        index = {job_id: i for i, job_id in enumerate(nodes)}
        hops = [
            (index[src], index[dst], es.corr)
            for src, out in self.edges.items()
            if src in index
            for dst, es in out.items()
            if es.corr > 0.0
        ]
        src = np.array([h[0] for h in hops], dtype=np.intp)
        dst = np.array([h[1] for h in hops], dtype=np.intp)
        weight = np.array([h[2] for h in hops], dtype=np.float64)
        out_sum = np.bincount(src, weights=weight, minlength=len(nodes))
        return Transitions(nodes, index, src, dst, weight / out_sum[src], out_sum == 0.0)


def aggregate(
    graph: JobMultiGraph,
    content: Mapping[tuple[str, str], float],
    weights: ScoreWeights,
    active_set: Iterable[str],
) -> RecDigraph:
    """Aggregate all signals into directed weighted edges.

    Both directions of every candidate pair are scored independently; an
    edge is created only when at least one signal contributes and the
    destination job is active. Sources may be expired.
    """
    active = frozenset(active_set)
    pairs = set(graph.edges) | {p for p in content if p[0] in graph.nodes and p[1] in graph.nodes}
    edges: dict[str, dict[str, EdgeScores]] = {}
    for a, b in pairs:
        for src, dst in ((a, b), (b, a)):
            if dst not in active:
                continue
            scores = _directed_scores(graph, content, weights, src, dst)
            if scores is not None:
                edges.setdefault(src, {})[dst] = scores
    return RecDigraph(edges, active)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def dump_digraph(digraph: RecDigraph, fh: TextIO) -> None:
    """Write one edge per line with audit components; deterministic order."""
    writer = csv.writer(fh, lineterminator="\n")
    for src, out in digraph.edges.items():
        for dst, es in out.items():
            writer.writerow(
                [
                    src,
                    dst,
                    repr(es.corr),
                    _fmt(es.p_apps),
                    _fmt(es.p_clicks),
                    _fmt(es.pmi2_apps),
                    _fmt(es.pmi2_clicks),
                    _fmt(es.sim_e),
                ]
            )


def load_digraph(lines: Iterable[str], active_jobs: Iterable[str] | None = None) -> RecDigraph:
    """Reload a digraph dump; bit-exact inverse of :func:`dump_digraph`.

    When ``active_jobs`` is supplied, edges into jobs outside it (expired
    since the build) are dropped. Otherwise the destination set of the dump
    is used (active jobs without incoming edges are then unknown).
    """
    edges: dict[str, dict[str, EdgeScores]] = {}
    dsts: set[str] = set()
    for row in csv.reader(lines):
        if not row:
            continue
        src, dst = row[0], row[1]
        vals = [float(f) if f else None for f in row[2:8]]
        edges.setdefault(src, {})[dst] = EdgeScores(vals[0], *vals[1:])
        dsts.add(dst)
    return RecDigraph(edges, frozenset(active_jobs) if active_jobs is not None else dsts)
