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
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .config import EngineConfig
from .graph import CoPairs, build_costats
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


@dataclass(frozen=True, eq=False)
class ContentPairs:
    """The content pairs of :func:`content_edges` as arrays: jobs
    ``ids[a[k]]`` and ``ids[b[k]]`` have cosine similarity ``sim[k]``.

    ``ids`` are the embedding ids, sorted; ``a < b`` in every pair, and the
    pairs are sorted by ``(a, b)``. ``len`` is the number of pairs.
    """

    ids: list[str]
    a: np.ndarray
    b: np.ndarray
    sim: np.ndarray

    def __len__(self) -> int:
        return len(self.sim)

    def between(self, ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs between jobs of ``ids`` as indices into it, and their
        sims; ``ids`` sorted, so ``a < b`` and the ``(a, b)`` order hold."""
        index = {job_id: i for i, job_id in enumerate(ids)}
        remap = np.array([index.get(j, -1) for j in self.ids], dtype=np.int32)
        a, b = remap[self.a], remap[self.b]
        known = (a >= 0) & (b >= 0)
        return a[known], b[known], self.sim[known]


# Similarities computed per row block by content_edges: a block of
# ``max(1, SIM_BLOCK // n)`` rows of n float64 is at most 32 MB, and every
# corpus of up to 2048 jobs is one block. One block is one matrix product,
# whose last bits can differ from those of a split product (BLAS picks its
# kernel by shape), so small corpora are never split.
SIM_BLOCK = 2**22


def content_edges(
    embeddings: Mapping[str, np.ndarray],
    gamma: float,
    categories: Mapping[str, str] | None = None,
) -> ContentPairs:
    """All unordered pairs with cosine similarity >= gamma (kept at equality).

    Exhaustive pairwise comparison, one row block of :data:`SIM_BLOCK`
    similarities at a time, so memory is O(block + pairs) rather than
    O(n^2). When ``categories`` is given, only same-category pairs are
    compared (a blocking pre-filter for larger corpora). A vector of zero
    norm raises ``ValueError`` naming its job.
    """
    ids = sorted(embeddings)
    if categories is None:
        groups = [np.arange(len(ids))]
    else:
        by_cat: dict[str, list[int]] = {}
        for i, job_id in enumerate(ids):
            if job_id in categories:
                by_cat.setdefault(categories[job_id], []).append(i)
        groups = [np.array(by_cat[c]) for c in sorted(by_cat)]

    a: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    b: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    sim: list[np.ndarray] = [np.zeros(0)]
    for group in groups:
        if len(group) < 2:
            continue
        mat = np.stack([embeddings[ids[i]] for i in group.tolist()])
        norms = np.linalg.norm(mat, axis=1)
        if not norms.all():
            raise ValueError(f"zero-norm vector for job {ids[group[np.argmin(norms)]]!r}")
        unit = mat / norms[:, None]
        rows = max(1, SIM_BLOCK // len(group))
        for lo in range(0, len(group), rows):
            sims = unit[lo : lo + rows] @ unit.T
            # the pairs right of the diagonal: column > row
            hit_i, hit_j = np.nonzero(np.triu(sims >= gamma, k=lo + 1))
            a.append(group[hit_i + lo])
            b.append(group[hit_j])
            sim.append(sims[hit_i, hit_j])
    a, b, sim = np.concatenate(a), np.concatenate(b), np.concatenate(sim)
    if categories is not None:  # the groups' pairs interleave in (a, b) order
        order = np.lexsort((b, a))
        a, b, sim = a[order], b[order], sim[order]
    return ContentPairs(ids, a, b, sim)


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
    Edges given in (src, dst) order, none repeated and all into active
    jobs, keep their ``scores`` array as it is, with no copy.
    """

    def __init__(
        self, ids: Sequence[str], src: np.ndarray, dst: np.ndarray, scores: np.ndarray, active_jobs: Iterable[str]
    ):
        self.active_jobs = frozenset(active_jobs)
        rows = np.flatnonzero(np.array([j in self.active_jobs for j in ids], dtype=bool)[dst])
        src, dst = src[rows], dst[rows]
        # the sources by bincount, not np.unique: numpy's unique without
        # return_* flags imports numpy.ma, over 1 MB for every process
        sources = np.flatnonzero(np.bincount(src, minlength=len(ids)))
        self.nodes = sorted(self.active_jobs.union([ids[i] for i in sources.tolist()]))
        self.index = {job_id: i for i, job_id in enumerate(self.nodes)}
        remap = np.array([self.index.get(j, -1) for j in ids], dtype=np.intp)
        n = len(self.nodes)
        key = remap[src] * n + remap[dst]
        del src, dst
        order = np.argsort(key, kind="stable")  # stable: repeats keep their input order
        key = key[order]
        last = np.ones(len(key), dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        rows = rows[order[last]]
        key = key[last]
        self.dst = key % max(n, 1)
        self.indptr = np.searchsorted(key, np.arange(n + 1) * n)
        # one gather of the score rows, none when they are in order already
        in_order = len(rows) == len(scores) and (rows == np.arange(len(rows))).all()
        self.scores = scores if in_order else scores[rows]
        # global PageRank results per (damping, epsilon), filled by
        # recommend.global_pagerank
        self.global_pagerank_results: dict[tuple[float, float], object] = {}

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


# Digraph rows scored per numpy block: large enough that the array work
# outweighs its set-up, small enough that a block's temporaries stay far
# below the digraph they feed.
AGGREGATE_BLOCK = 4096


def aggregate(
    graph: CoPairs,
    content: ContentPairs,
    config: EngineConfig,
    active_set: Iterable[str],
) -> RecDigraph:
    """Aggregate all signals into directed weighted edges.

    Both directions of every candidate pair are scored independently; an
    edge is created only when at least one signal contributes and the
    destination job is active. Sources may be expired. ``config`` gives
    the weights ``w1``/``w2``/``w3`` and ``normalize_pmi2``, which replaces
    the raw (non-positive) PMI^2 term with ``exp(pmi2)`` in (0, 1] so all
    three terms share a common scale. The candidate pairs are the
    multigraph's pairs plus the content pairs between its nodes. Their
    directed rows are put in (src, dst) order first and scored as arrays,
    :data:`AGGREGATE_BLOCK` rows at a time, into the one score array the
    digraph keeps.
    """
    active = frozenset(active_set)
    is_active = np.array([j in active for j in graph.ids], dtype=bool)
    a, b, pairs = _candidate_pairs(graph, content, is_active, config)
    # the directed rows: a -> b into an active b, b -> a into an active a,
    # each with its pair; the keys are distinct, so any sort gives one order
    forward, backward = np.flatnonzero(is_active[b]), np.flatnonzero(is_active[a])
    src = np.concatenate((a[forward], b[backward]))
    dst = np.concatenate((b[forward], a[backward]))
    order = np.argsort(src.astype(np.int64) * graph.num_nodes + dst)
    pair = np.concatenate((forward, backward))[order]
    src, dst = src[order], dst[order]
    del a, b, forward, backward, order
    scores = np.empty((len(src), len(EdgeScores._fields)))
    for lo in range(0, len(src), AGGREGATE_BLOCK):
        rows = slice(lo, lo + AGGREGATE_BLOCK)
        _score_rows(src[rows], pairs, pair[rows], graph, config, scores[rows])
    del pairs, pair  # the candidate columns are freed before the digraph is built
    return RecDigraph(graph.ids, src, dst, scores, active)


def build_digraph(
    signals: Iterable[DedupedSignal],
    jobs: Mapping[str, JobRecord],
    embeddings: Mapping[str, np.ndarray],
    config: EngineConfig,
) -> tuple[RecDigraph, CoPairs, ContentPairs]:
    """The build pipeline: the co-stat multigraph of the windowed, deduped
    ``signals``, the content pairs of ``embeddings`` at ``config.gamma``,
    and their aggregate into the digraph over the active ``jobs``.

    Returns the digraph, the multigraph and the content pairs.
    """
    graph = build_costats(signals, jobs, config.session_gap_minutes)
    content = content_edges(embeddings, config.gamma)
    digraph = aggregate(graph, content, config, active_job_ids(jobs))
    return digraph, graph, content


class _PairColumns(NamedTuple):
    """Per-pair columns of the candidate pairs of :func:`aggregate`: the
    co-counts, the content sim (NaN: no content evidence), the PMI^2 of
    each signal (NaN: absent) and the sum of the two PMI^2 terms. PMI^2 is
    symmetric in the pair, so one value serves both directions."""

    co_apps: np.ndarray
    co_clicks: np.ndarray
    sim: np.ndarray
    pmi2_apps: np.ndarray
    pmi2_clicks: np.ndarray
    pmi2_term: np.ndarray


def _candidate_pairs(
    graph: CoPairs,
    content: ContentPairs,
    is_active: np.ndarray,
    config: EngineConfig,
) -> tuple[np.ndarray, np.ndarray, _PairColumns]:
    """The candidate pairs of :func:`aggregate` as node indices ``a``,
    ``b`` of ``graph`` and their columns: first the multigraph's pairs,
    then the content pairs between its nodes that it does not hold. Only
    pairs with some evidence and an active job are kept.
    """
    content_a, content_b, content_sim = content.between(graph.ids)
    # each multigraph pair's content sim by one search of the sorted pair
    # keys; a sentinel above every key ends them
    n = np.int64(graph.num_nodes)
    content_keys = np.append(n * content_a + content_b, n * n)
    pair_keys = n * graph.a + graph.b
    at = np.searchsorted(content_keys, pair_keys)
    found = content_keys[at] == pair_keys
    pair_sim = np.full(graph.num_edges, np.nan)
    pair_sim[found] = content_sim[at[found]]
    content_only = np.ones(len(content_sim), dtype=bool)
    content_only[at[found]] = False
    del content_keys, pair_keys, at, found
    padding = np.zeros(np.count_nonzero(content_only), dtype=np.int64)
    a = np.concatenate((graph.a, content_a[content_only]))
    b = np.concatenate((graph.b, content_b[content_only]))
    co_apps = np.concatenate((graph.co_apps, padding))
    co_clicks = np.concatenate((graph.co_clicks, padding))
    sim = np.concatenate((pair_sim, content_sim[content_only]))
    del content_a, content_b, content_sim, pair_sim
    keep = np.flatnonzero(((co_apps > 0) | (co_clicks > 0) | ~np.isnan(sim)) & (is_active[a] | is_active[b]))
    a, b, co_apps, co_clicks, sim = a[keep], b[keep], co_apps[keep], co_clicks[keep], sim[keep]
    pmi2_apps, term_apps = _pmi2_column(co_apps, graph.total_apps[a], graph.total_apps[b], config)
    pmi2_clicks, term_clicks = _pmi2_column(co_clicks, graph.total_clicks[a], graph.total_clicks[b], config)
    return a, b, _PairColumns(co_apps, co_clicks, sim, pmi2_apps, pmi2_clicks, term_apps + term_clicks)


def _score_rows(
    src: np.ndarray,
    pairs: _PairColumns,
    pair: np.ndarray,
    graph: CoPairs,
    config: EngineConfig,
    out: np.ndarray,
) -> None:
    """Score the directed rows from the jobs ``src`` over the candidate
    pairs ``pair`` into ``out``, in :class:`RecDigraph` columns.

    ``corr`` keeps the term order of ``w1*(p_apps+p_clicks) +
    w2*(pmi2_apps+pmi2_clicks) + w3*sim`` in float64, so it equals the
    scalar formula bit for bit.
    """
    co_apps, co_clicks, sim = pairs.co_apps[pair], pairs.co_clicks[pair], pairs.sim[pair]
    has_apps, has_clicks = co_apps > 0, co_clicks > 0
    p_apps = _mle_block(co_apps, graph.total_apps[src], has_apps)
    p_clicks = _mle_block(co_clicks, graph.total_clicks[src], has_clicks)
    sim_term = np.where(np.isnan(sim), 0.0, sim)
    out[:, 0] = config.w1 * (p_apps + p_clicks) + config.w2 * pairs.pmi2_term[pair] + config.w3 * sim_term
    out[:, 1] = np.where(has_apps, p_apps, np.nan)
    out[:, 2] = np.where(has_clicks, p_clicks, np.nan)
    out[:, 3] = pairs.pmi2_apps[pair]
    out[:, 4] = pairs.pmi2_clicks[pair]
    out[:, 5] = sim


def _mle_block(co: np.ndarray, src_total: np.ndarray, present: np.ndarray) -> np.ndarray:
    """The probability ``c(src,dst) / c(src)`` per row; 0.0 where
    ``present`` is false or ``c(src)`` is 0."""
    p = np.zeros(len(co))
    np.divide(co, src_total, out=p, where=present & (src_total != 0))
    return p


def _pmi2_column(
    co: np.ndarray, total_a: np.ndarray, total_b: np.ndarray, config: EngineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The PMI^2 ``ln(c(a,b)^2 / (c(a) * c(b)))`` per pair, NaN where a
    count is 0, and its aggregate term (``exp(pmi2)`` under
    ``normalize_pmi2``; 0.0 where absent).

    ``math.log``/``math.exp`` rather than their numpy forms: those differ
    from the scalar ones in the last bit on some inputs, and the artifact
    must not depend on which is used.
    """
    present = (co > 0) & (total_a != 0) & (total_b != 0)
    value = np.full(len(co), np.nan)
    term = np.zeros(len(co))
    # int64 products are exact, and their float quotient equals Python's
    # int division, while both stay below 2**53: counts below 9.4e7 users
    if present.any():
        c = co[present]
        ratio = (c * c) / (total_a[present] * total_b[present])
        logs = list(map(math.log, ratio.tolist()))
        value[present] = logs
        term[present] = list(map(math.exp, logs)) if config.normalize_pmi2 else logs
    return value, term


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


# Dump rows parsed per numpy block by load_digraph. A block's field strings
# are freed once it is parsed, but the memory they held stays with the
# process: a serving set-up peaked 2.5 MB lower at 512 rows than at 4096
# (43.2 against 45.7 MB, 23k edges), with no slower load; 256 saved no more.
LOAD_BLOCK = 512


def load_digraph(lines: Iterable[str], active_jobs: Iterable[str]) -> RecDigraph:
    """Reload a digraph dump; bit-exact inverse of :func:`dump_digraph`.

    Edges into jobs outside ``active_jobs`` (expired since the build) are
    dropped. A row with other than 8 fields, an empty job id or ``corr``,
    or a non-numeric or non-finite value raises ``ValueError`` naming its
    line.
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
    return RecDigraph(list(index), src, dst, scores, active_jobs)


def _parse_rows(block: list[tuple[int, list[str]]], index: dict[str, int]) -> tuple[np.ndarray, ...]:
    """(line number, row) pairs of the dump as (src, dst, scores), job ids
    interned into ``index``.

    The block is checked at once: 8 fields a row, two nonempty job ids, a
    finite ``corr``, no infinity, and NaN only where a field is empty. A
    block that fails is checked row by row for a line to name.
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
        or not all(row[0] and row[1] for row in rows)
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
    if not row[0] or not row[1]:
        return "empty job id"
    if not row[2]:
        return "empty corr"
    for name, field in zip(EdgeScores._fields, row[2:]):
        try:
            if field and not math.isfinite(float(field)):
                return f"non-finite {name} {field!r}"
        except ValueError:
            return f"non-numeric {name} {field!r}"
    return None
