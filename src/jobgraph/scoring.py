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
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .config import EngineConfig
from .graph import JobMultiGraph, build_costats
from .ingest import DedupedSignal, JobRecord, active_job_ids

logger = logging.getLogger(__name__)


class EdgeScores(NamedTuple):
    """Aggregate score of one directed edge plus its audit components, as
    :meth:`RecDigraph.out_edges` shows them.

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
        for a, b, sim in zip(hit_i.tolist(), hit_j.tolist(), sims[hit_i, hit_j].tolist()):
            edges[(ids[a], ids[b])] = sim
    return edges


class Walk(NamedTuple):
    """Random walk over the nodes of a :class:`RecDigraph`: edge ``e`` of
    the rows ``indptr[i]:indptr[i+1]`` moves ``prob[e]`` of the mass of
    job ``i`` to job ``dst[e]``. Only positive-corr edges carry mass; the
    ``dangling`` jobs are the active ones with none of them."""

    indptr: np.ndarray
    dst: np.ndarray
    prob: np.ndarray
    dangling: np.ndarray


class RecDigraph:
    """Directed, weighted recommendation graph over active destinations.

    One CSR over the interned job ids ``nodes`` (the active jobs and the
    edge sources, sorted, so index ties break like job-id ties): the edges
    of ``nodes[i]`` are rows ``indptr[i]:indptr[i+1]`` of ``dst`` (ascending
    node indices) and of ``scores``, one float64 column per field of
    :class:`EdgeScores`, NaN for an absent component.

    The constructor takes edges as indices into ``ids``, in any order; it
    drops edges into jobs outside ``active_jobs`` (so a dump loaded against
    a newer jobs file never serves a job that expired since the build),
    sorts the rest by (src, dst) and keeps the last of repeated edges.
    """

    def __init__(
        self, ids: Sequence[str], src: np.ndarray, dst: np.ndarray, scores: np.ndarray, active_jobs: Iterable[str]
    ):
        self.active_jobs = frozenset(active_jobs)
        rows = np.flatnonzero(np.array([j in self.active_jobs for j in ids], dtype=bool)[dst])
        src, dst = src[rows], dst[rows]
        self.nodes = sorted(self.active_jobs.union([ids[i] for i in np.unique(src).tolist()]))
        self.index = {job_id: i for i, job_id in enumerate(self.nodes)}
        remap = np.array([self.index.get(j, -1) for j in ids], dtype=np.intp)
        order = np.lexsort((remap[dst], remap[src]))  # stable: repeats keep their input order
        src, dst = remap[src][order], remap[dst][order]
        last = np.ones(len(src), dtype=bool)
        last[:-1] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        rows = rows[order[last]]
        self.dst = dst[last]
        # one gather of the score rows, none when they are in order already
        in_order = len(rows) == len(scores) and (rows == np.arange(len(rows))).all()
        self.scores = scores if in_order else scores[rows]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(src[last], minlength=len(self.nodes)))))
        # global PageRank results per (damping, epsilon, max_iters), filled
        # by recommend.global_pagerank
        self.global_pagerank_results: dict[tuple[float, float, int], object] = {}

    @classmethod
    def from_corr(
        cls, corr: Mapping[tuple[str, str], float], active_jobs: Iterable[str]
    ) -> "RecDigraph":
        """Build from bare (src, dst) -> corr weights (components unset)."""
        ids = sorted({job_id for pair in corr for job_id in pair})
        index = {job_id: i for i, job_id in enumerate(ids)}
        src = np.array([index[s] for s, _ in corr], dtype=np.intp)
        dst = np.array([index[d] for _, d in corr], dtype=np.intp)
        scores = np.full((len(corr), len(EdgeScores._fields)), np.nan)
        scores[:, 0] = list(corr.values())
        return cls(ids, src, dst, scores, active_jobs)

    @property
    def num_edges(self) -> int:
        return len(self.dst)

    def _span(self, src: str) -> tuple[int, int]:
        i = self.index.get(src)
        return (0, 0) if i is None else (int(self.indptr[i]), int(self.indptr[i + 1]))

    def out_edges(self, src: str) -> list[tuple[str, EdgeScores]]:
        """Outgoing edges of ``src`` ordered by destination job_id."""
        lo, hi = self._span(src)
        return [
            (self.nodes[d], EdgeScores._make(None if v != v else v for v in row))
            for d, row in zip(self.dst[lo:hi].tolist(), self.scores[lo:hi].tolist())
        ]

    def out_corr(self, src: str) -> Iterable[tuple[str, float]]:
        """(dst, corr) of the outgoing edges of ``src`` in destination order."""
        lo, hi = self._span(src)
        dst_ids, corr = self._hop_lists
        return zip(dst_ids[lo:hi], corr[lo:hi])

    @functools.cached_property
    def _hop_lists(self) -> tuple[list[str], list[float]]:
        # list slices make a faster hop than array slices
        return np.array(self.nodes, dtype=object)[self.dst].tolist(), self.scores[:, 0].tolist()

    def corr(self, src: str, dst: str) -> float | None:
        return next((es.corr for d, es in self.out_edges(src) if d == dst), None)

    @functools.cached_property
    def walk(self) -> Walk:
        """The walk PageRank runs on, built on first use from the
        positive-corr rows of the CSR. No edge leads into an expired job,
        so a walk restarting from active jobs never reaches one."""
        n = len(self.nodes)
        src = np.repeat(np.arange(n), np.diff(self.indptr))
        corr = self.scores[:, 0]
        hop = corr > 0.0
        src, weight = src[hop], corr[hop]
        out_sum = np.bincount(src, weights=weight, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        is_active = np.array([j in self.active_jobs for j in self.nodes], dtype=bool)
        dangling = np.flatnonzero(is_active & (out_sum == 0.0))
        return Walk(indptr, self.dst[hop], weight / out_sum[src], dangling)


# Candidate pairs scored per numpy block: large enough that the array work
# outweighs its set-up, small enough that a block's temporaries stay far
# below the digraph they feed.
AGGREGATE_BLOCK = 4096


def aggregate(
    graph: JobMultiGraph,
    content: Mapping[tuple[str, str], float],
    config: EngineConfig,
    active_set: Iterable[str],
) -> RecDigraph:
    """Aggregate all signals into directed weighted edges.

    Both directions of every candidate pair are scored independently; an
    edge is created only when at least one signal contributes and the
    destination job is active. Sources may be expired. ``config`` gives
    the weights ``w1``/``w2``/``w3`` and ``normalize_pmi2``, which replaces
    the raw (non-positive) PMI^2 term with ``exp(pmi2)`` in (0, 1] so all
    three terms share a common scale. The candidate pairs
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
    scored: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for lo in range(0, len(pair_keys), AGGREGATE_BLOCK):
        keys = pair_keys[lo : lo + AGGREGATE_BLOCK]
        stats = co_stats[lo : lo + AGGREGATE_BLOCK]
        co_apps = [cs.co_apps for cs in stats]
        co_clicks = [cs.co_clicks for cs in stats]
        sims = [content.get(k) for k in keys]
        scored += _score_block(keys, co_apps, co_clicks, sims, index, nodes, config)
    for lo in range(0, len(content_keys), AGGREGATE_BLOCK):
        keys = content_keys[lo : lo + AGGREGATE_BLOCK]
        zeros = [0] * len(keys)
        scored += _score_block(keys, zeros, zeros, [content[k] for k in keys], index, nodes, config)
    if not scored:
        return RecDigraph.from_corr({}, active)
    src, dst, scores = (np.concatenate(column) for column in zip(*scored))
    del scored  # the blocks are freed before the digraph is built
    return RecDigraph(ids, src, dst, scores, active)


def build_digraph(
    signals: Iterable[DedupedSignal],
    jobs: Mapping[str, JobRecord],
    embeddings: Mapping[str, np.ndarray],
    config: EngineConfig,
) -> tuple[RecDigraph, JobMultiGraph, dict[tuple[str, str], float]]:
    """The build pipeline: the co-stat multigraph of the windowed, deduped
    ``signals``, the content pairs of ``embeddings`` at ``config.gamma``,
    and their aggregate into the digraph over the active ``jobs``.

    Returns the digraph, the multigraph and the content pairs.
    """
    graph = build_costats(signals, jobs, config.session_gap_minutes)
    content = content_edges(embeddings, config.gamma)
    digraph = aggregate(graph, content, config, active_job_ids(jobs))
    return digraph, graph, content


class _NodeArrays(NamedTuple):
    """Per-node columns of the multigraph, indexed like ``sorted(nodes)``."""

    total_apps: np.ndarray
    total_clicks: np.ndarray
    active: np.ndarray


def _score_block(
    keys: list[tuple[str, str]],
    co_apps: list[int],
    co_clicks: list[int],
    sims: list[float | None],
    index: Mapping[str, int],
    nodes: _NodeArrays,
    config: EngineConfig,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Score both directions of a block of pairs (a, b), given as parallel
    columns, as one (src, dst, scores) entry per direction, scores in
    :class:`RecDigraph` columns.

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
    pm_apps, has_pm_apps, term_apps = _pmi2_block(co_apps, nodes.total_apps[a], nodes.total_apps[b], config)
    pm_clicks, has_pm_clicks, term_clicks = _pmi2_block(
        co_clicks, nodes.total_clicks[a], nodes.total_clicks[b], config
    )
    pmi_sum = term_apps + term_clicks
    scored = []
    for src, dst in ((a, b), (b, a)):
        p_apps = _mle_block(co_apps, nodes.total_apps[src], has_apps)
        p_clicks = _mle_block(co_clicks, nodes.total_clicks[src], has_clicks)
        corr = config.w1 * (p_apps + p_clicks) + config.w2 * pmi_sum + config.w3 * sim
        columns = (
            corr,
            np.where(has_apps, p_apps, np.nan),
            np.where(has_clicks, p_clicks, np.nan),
            np.where(has_pm_apps, pm_apps, np.nan),
            np.where(has_pm_clicks, pm_clicks, np.nan),
            np.where(has_sim, sim, np.nan),
        )
        # the digraph drops edges into inactive jobs anyway; not making them
        # keeps the blocks, and the build's peak memory, smaller
        keep = evidence & nodes.active[dst]
        scored.append((src[keep], dst[keep], np.column_stack(columns)[keep]))
    return scored


def _mle_block(co: np.ndarray, src_total: np.ndarray, present: np.ndarray) -> np.ndarray:
    """:func:`mle` of dst given src per pair; 0.0 where ``present`` is false."""
    p = np.zeros(len(co))
    np.divide(co, src_total, out=p, where=present & (src_total != 0))
    return p


def _pmi2_block(
    co: np.ndarray, total_a: np.ndarray, total_b: np.ndarray, config: EngineConfig
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
    if not config.normalize_pmi2:
        return value, present, value
    term = np.zeros(len(co))
    if present.any():
        term[present] = list(map(math.exp, value[present].tolist()))
    return value, present, term


def _csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a row.

    Each is written as the first of two fields and cut from the output, so
    an empty value comes out empty, as inside a row (alone it is ``""``).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow([value, ""])
        fields.append(buf.getvalue()[:-2])
    return fields


# Dump rows formatted per block by dump_digraph: a larger block shares more
# reprs, a smaller one holds fewer strings at once
DUMP_BLOCK = 4096


def dump_digraph(digraph: RecDigraph, fh: TextIO) -> None:
    """Write one edge per line with audit components; deterministic order.

    The bytes are those of ``csv.writer``: each job id is quoted once,
    floats are ``repr``s, absent components empty. Rows are formatted
    :data:`DUMP_BLOCK` at a time, column by column, with one ``repr`` per
    distinct float bit pattern of a column of the block.
    """
    quoted = np.array(_csv_fields(digraph.nodes), dtype=object)
    for lo in range(0, digraph.num_edges, DUMP_BLOCK):
        dst = digraph.dst[lo : lo + DUMP_BLOCK]
        src = np.searchsorted(digraph.indptr, np.arange(lo, lo + len(dst)), side="right") - 1
        columns = [quoted[src].tolist(), quoted[dst].tolist()]
        for scores in digraph.scores[lo : lo + DUMP_BLOCK].T:
            # by bit pattern, so -0.0 and 0.0 keep their own reprs
            bits, where = np.unique(scores.view(np.int64), return_inverse=True)
            texts = np.array([repr(v) if v == v else "" for v in bits.view(np.float64).tolist()], dtype=object)
            columns.append(texts[where].tolist())
        # 512 rows a write: joining a whole block at once left the build's
        # peak RSS about 0.7 MB higher
        for s in range(0, len(dst), 512):
            fh.write("\n".join([*map(",".join, zip(*(c[s : s + 512] for c in columns))), ""]))


# Dump rows parsed per numpy block by load_digraph
LOAD_BLOCK = 4096


def load_digraph(lines: Iterable[str], active_jobs: Iterable[str] | None = None) -> RecDigraph:
    """Reload a digraph dump; bit-exact inverse of :func:`dump_digraph`.

    When ``active_jobs`` is supplied, edges into jobs outside it (expired
    since the build) are dropped. Otherwise the destination set of the dump
    is used (active jobs without incoming edges are then unknown). A row
    with other than 8 fields, an empty ``corr``, or a non-numeric or
    non-finite value raises ``ValueError`` naming its line.
    """
    index: dict[str, int] = {}
    blocks, block = [], []
    reader = csv.reader(lines)
    for row in reader:
        if row:
            block.append((reader.line_num, row))
        if len(block) == LOAD_BLOCK:
            blocks.append(_parse_rows(block, index))
            block = []
    blocks.append(_parse_rows(block, index))
    src, dst, scores = (np.concatenate(column) for column in zip(*blocks))
    del blocks  # the blocks are freed before the digraph is built
    ids = list(index)
    if active_jobs is None:
        active_jobs = [ids[i] for i in np.unique(dst).tolist()]
    return RecDigraph(ids, src, dst, scores, active_jobs)


def _parse_rows(block: list[tuple[int, list[str]]], index: dict[str, int]) -> tuple[np.ndarray, ...]:
    """(line number, row) pairs of the dump as (src, dst, scores), job ids
    interned into ``index``.

    The block is checked at once: 8 fields a row, a finite ``corr``, no
    infinity, and NaN only where a field is empty. A block that fails (as
    one with an empty job id does) is checked row by row for a line to name.
    """
    rows = [row for _, row in block]
    try:
        values = [float(f) if f else math.nan for row in rows for f in row[2:]]
        scores = np.array(values).reshape(len(rows), 6)
    except ValueError:  # a non-numeric field, or a wrong field count
        scores = None
    if (
        scores is None
        or set(map(len, rows)) != {8}
        or not np.isfinite(scores[:, 0]).all()
        or np.isinf(scores).any()
        or np.count_nonzero(np.isnan(scores)) != sum(row.count("") for row in rows)
    ):
        for line_no, row in block:
            if problem := _row_problem(row):
                raise ValueError(f"digraph line {line_no}: {problem}")
    src = np.array([index.setdefault(row[0], len(index)) for row in rows], dtype=np.intp)
    dst = np.array([index.setdefault(row[1], len(index)) for row in rows], dtype=np.intp)
    return src, dst, scores


def _row_problem(row: list[str]) -> str | None:
    """What makes a dump row malformed, or None."""
    if len(row) != 8:
        return f"expected 8 fields, got {len(row)}"
    if not row[2]:
        return "empty corr"
    for name, field in zip(EdgeScores._fields, row[2:]):
        try:
            if field and not math.isfinite(float(field)):
                return f"non-finite {name} {field!r}"
        except ValueError:
            return f"non-numeric {name} {field!r}"
    return None
