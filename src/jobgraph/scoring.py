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
import io
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, TextIO

import numpy as np

from .graph import JobMultiGraph

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


class EdgeScores(NamedTuple):
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
    expired since the build. The adjacency is held in (src, dst) order; an
    out-edge dict of ``edges`` that is already in order and points at active
    jobs only is held as it is, not copied.
    """

    def __init__(self, edges: dict[str, dict[str, EdgeScores]], active_jobs: Iterable[str]):
        self.active_jobs = frozenset(active_jobs)
        self.edges: dict[str, dict[str, EdgeScores]] = {}
        for src in sorted(edges):
            out = edges[src]
            dsts = sorted(out)
            if dsts == list(out) and self.active_jobs.issuperset(dsts):
                kept = out
            else:
                kept = {dst: out[dst] for dst in dsts if dst in self.active_jobs}
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


# Candidate pairs scored per numpy block: large enough that the array work
# outweighs its set-up, small enough that a block's temporaries stay far
# below the digraph they feed.
AGGREGATE_BLOCK = 4096


def aggregate(
    graph: JobMultiGraph,
    content: Mapping[tuple[str, str], float],
    weights: ScoreWeights,
    active_set: Iterable[str],
) -> RecDigraph:
    """Aggregate all signals into directed weighted edges.

    Both directions of every candidate pair are scored independently; an
    edge is created only when at least one signal contributes and the
    destination job is active. Sources may be expired. The candidate pairs
    are the multigraph's pairs plus the content pairs between its nodes,
    scored as arrays in blocks of :data:`AGGREGATE_BLOCK` pairs.
    """
    active = frozenset(active_set)
    ids = sorted(graph.nodes)  # node index order is job-id order
    index = {job_id: i for i, job_id in enumerate(ids)}
    nodes = _NodeArrays(
        np.array([graph.nodes[j].total_apps for j in ids], dtype=np.int64),
        np.array([graph.nodes[j].total_clicks for j in ids], dtype=np.int64),
        np.array([j in active for j in ids], dtype=bool),
    )
    # a content key not ordered (i, j) with i <= j is never looked up, as
    # graph.costats orders every pair that way
    content_keys = [
        k for k in content if k[0] <= k[1] and k not in graph.edges and k[0] in index and k[1] in index
    ]
    pair_keys = list(graph.edges)
    co_stats = list(graph.edges.values())
    scored: list[_ScoredEdges] = []
    for lo in range(0, len(pair_keys), AGGREGATE_BLOCK):
        keys = pair_keys[lo : lo + AGGREGATE_BLOCK]
        stats = co_stats[lo : lo + AGGREGATE_BLOCK]
        co_apps = [cs.co_apps for cs in stats]
        co_clicks = [cs.co_clicks for cs in stats]
        sims = [content.get(k) for k in keys]
        scored += _score_block(keys, co_apps, co_clicks, sims, index, nodes, weights)
    for lo in range(0, len(content_keys), AGGREGATE_BLOCK):
        keys = content_keys[lo : lo + AGGREGATE_BLOCK]
        zeros = [0] * len(keys)
        scored += _score_block(keys, zeros, zeros, [content[k] for k in keys], index, nodes, weights)
    if not scored:
        return RecDigraph({}, active)
    # one (src, dst) sort of all kept edges, then one dict per source; the
    # names are rebound as they go so each step frees the one before
    src, dst, scores = (np.concatenate(column) for column in zip(*scored))
    del scored
    order = np.lexsort((dst, src))
    src, dst, scores = src[order], dst[order], scores[order]
    del order
    dst_ids = np.array(ids, dtype=object)[dst]
    bounds = [0, *(np.flatnonzero(src[1:] != src[:-1]) + 1).tolist(), len(src)]
    edges = {
        ids[src[lo]]: dict(zip(dst_ids[lo:hi], scores[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
    }
    return RecDigraph(edges, active)


class _NodeArrays(NamedTuple):
    """Per-node columns of the multigraph, indexed like ``sorted(nodes)``."""

    total_apps: np.ndarray
    total_clicks: np.ndarray
    active: np.ndarray


class _ScoredEdges(NamedTuple):
    """Kept edges of one block and direction: node indices and an object
    array of their :class:`EdgeScores`."""

    src: np.ndarray
    dst: np.ndarray
    scores: np.ndarray


def _score_block(
    keys: list[tuple[str, str]],
    co_apps: list[int],
    co_clicks: list[int],
    sims: list[float | None],
    index: Mapping[str, int],
    nodes: _NodeArrays,
    weights: ScoreWeights,
) -> list[_ScoredEdges]:
    """Score both directions of a block of pairs (a, b), given as parallel
    columns; one entry per direction that keeps an edge.

    ``corr`` keeps the term order of ``w1*(p_apps+p_clicks) +
    w2*(pmi2_apps+pmi2_clicks) + w3*sim`` in float64, so it equals the
    scalar formula bit for bit. The columns are lists, not one tuple per
    pair: CPython keeps thousands of freed small tuples for reuse, and made
    per pair they end up spread over the memory the digraph fills, which
    then stays resident after the digraph is freed.
    """
    a = np.array([index[i] for i, _ in keys], dtype=np.int32)
    b = np.array([index[j] for _, j in keys], dtype=np.int32)
    co_apps = np.array(co_apps, dtype=np.int64)
    co_clicks = np.array(co_clicks, dtype=np.int64)
    has_sim = np.array([s is not None for s in sims], dtype=bool)
    sim = np.where(has_sim, np.array(sims, dtype=np.float64), 0.0)
    has_apps = co_apps > 0
    has_clicks = co_clicks > 0
    evidence = has_apps | has_clicks | has_sim
    # PMI^2 is symmetric in the pair: one value serves both directions
    pm_apps, has_pm_apps, term_apps = _pmi2_block(co_apps, nodes.total_apps[a], nodes.total_apps[b], weights)
    pm_clicks, has_pm_clicks, term_clicks = _pmi2_block(
        co_clicks, nodes.total_clicks[a], nodes.total_clicks[b], weights
    )
    pmi_sum = term_apps + term_clicks
    scored = []
    for src, dst in ((a, b), (b, a)):
        keep = evidence & nodes.active[dst]
        if not keep.any():
            continue
        p_apps = _mle_block(co_apps, nodes.total_apps[src], has_apps)
        p_clicks = _mle_block(co_clicks, nodes.total_clicks[src], has_clicks)
        corr = weights.w1 * (p_apps + p_clicks) + weights.w2 * pmi_sum + weights.w3 * sim
        fields = zip(
            corr[keep].tolist(),
            _optional(p_apps, has_apps, keep),
            _optional(p_clicks, has_clicks, keep),
            _optional(pm_apps, has_pm_apps, keep),
            _optional(pm_clicks, has_pm_clicks, keep),
            _optional(sim, has_sim, keep),
        )
        # _make copies zip's reused tuple; calling EdgeScores(...) would
        # pack every edge's fields into one more tuple first
        scores = map(EdgeScores._make, fields)
        count = int(keep.sum())
        scored.append(_ScoredEdges(src[keep], dst[keep], np.fromiter(scores, dtype=object, count=count)))
    return scored


def _mle_block(co: np.ndarray, src_total: np.ndarray, present: np.ndarray) -> np.ndarray:
    """:func:`mle` of dst given src per pair; 0.0 where ``present`` is false."""
    p = np.zeros(len(co))
    np.divide(co, src_total, out=p, where=present & (src_total != 0))
    return p


def _pmi2_block(
    co: np.ndarray, total_a: np.ndarray, total_b: np.ndarray, weights: ScoreWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pmi2` per pair with its presence mask and its aggregate term
    (``exp(pmi2)`` under ``normalize_pmi2``; 0.0 where absent).

    ``math.log``/``math.exp`` rather than their numpy forms: those differ
    from the scalar functions in the last bit on some inputs, and the
    artifact must not depend on which is used.
    """
    present = (co > 0) & (total_a != 0) & (total_b != 0)
    value = np.zeros(len(co))
    # int64 products are exact, and their float quotient equals Python's
    # int division, while both stay below 2**53: counts below 9.4e7 users
    if present.any():
        c = co[present]
        ratio = (c * c) / (total_a[present] * total_b[present])
        value[present] = list(map(math.log, ratio.tolist()))
    if not weights.normalize_pmi2:
        return value, present, value
    term = np.zeros(len(co))
    if present.any():
        term[present] = list(map(math.exp, value[present].tolist()))
    return value, present, term


def _optional(values: np.ndarray, present: np.ndarray, keep: np.ndarray) -> list[float | None]:
    """The kept ``values`` as Python floats, ``None`` where not ``present``."""
    out = np.empty(int(keep.sum()), dtype=object)  # all None
    shown = present[keep]
    out[shown] = values[keep][shown]
    return out.tolist()


def _csv_fields(values: Iterable[str]) -> dict[str, str]:
    """Each value as ``csv.writer`` writes it as one field of a row.

    Each is written as the first of two fields and cut from the output, so
    an empty value comes out empty, as inside a row (alone it is ``""``).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = {}
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow([value, ""])
        fields[value] = buf.getvalue()[:-2]
    return fields


def dump_digraph(digraph: RecDigraph, fh: TextIO) -> None:
    """Write one edge per line with audit components; deterministic order.

    The bytes are those of ``csv.writer``: each job id is quoted once,
    floats are ``repr``s, absent components empty. One write per source.
    """
    quoted = _csv_fields(digraph.edges.keys() | digraph.active_jobs)
    for src, out in digraph.edges.items():
        q_src = quoted[src]
        fh.write(
            "".join(
                [
                    f"{q_src},{quoted[dst]},{corr!r},"
                    f"{'' if pa is None else repr(pa)},"
                    f"{'' if pc is None else repr(pc)},"
                    f"{'' if ma is None else repr(ma)},"
                    f"{'' if mc is None else repr(mc)},"
                    f"{'' if se is None else repr(se)}\n"
                    for dst, (corr, pa, pc, ma, mc, se) in out.items()
                ]
            )
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
        edges.setdefault(src, {})[dst] = EdgeScores(*vals)
        dsts.add(dst)
    return RecDigraph(edges, frozenset(active_jobs) if active_jobs is not None else dsts)
