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
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .config import EngineConfig
from .graph import CoPairs, build_costats
from .ingest import DedupedSignal, EventLog, JobRecord, active_job_ids
from .textblock import code_ids, split_block

logger = logging.getLogger(__name__)


# The evidence code of an edge: one bit per signal that gave it evidence.
# A code is never 0, since an edge needs at least one signal.
EVIDENCE_APPLY, EVIDENCE_CLICK, EVIDENCE_CONTENT = 1, 2, 4


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
    int32 node indices), of ``corr`` (float64) and of ``evidence`` (uint8,
    the ``EVIDENCE_*`` bits of the signals that gave the edge evidence).

    The constructor takes edges as indices into ``ids``, in any order; it
    drops edges into jobs outside ``active_jobs`` (so a dump loaded against
    a newer jobs file never serves a job that expired since the build),
    sorts the rest by (src, dst) and keeps the last of repeated edges.
    Edges given in (src, dst) order, none repeated and all into active
    jobs, keep their ``corr`` and ``evidence`` arrays as they are, with no
    copy.
    """

    def __init__(
        self,
        ids: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        corr: np.ndarray,
        evidence: np.ndarray,
        active_jobs: Iterable[str],
    ):
        self.active_jobs = frozenset(active_jobs)
        keep = np.array([j in self.active_jobs for j in ids], dtype=bool)[dst]
        rows = None  # the rows of the kept edges in (src, dst) order; None: all, as given
        if not keep.all():
            rows = np.flatnonzero(keep)
            src, dst = src[rows], dst[rows]
        # the sources by bincount, not np.unique: numpy's unique without
        # return_* flags imports numpy.ma, over 1 MB for every process
        sources = np.flatnonzero(np.bincount(src, minlength=len(ids)))
        self.nodes = sorted(self.active_jobs.union([ids[i] for i in sources.tolist()]))
        self.index = {job_id: i for i, job_id in enumerate(self.nodes)}
        remap = np.array([self.index.get(j, -1) for j in ids], dtype=np.intp)
        n = len(self.nodes)
        key = remap[src] * n
        key += remap[dst]  # in place: one key array at a time
        del src, dst
        if not (key[1:] > key[:-1]).all():  # edges in order with no repeats, as a dump holds them, need no sort
            order = np.argsort(key, kind="stable")  # stable: repeats keep their input order
            key = key[order]
            last = np.ones(len(key), dtype=bool)
            last[:-1] = key[1:] != key[:-1]
            rows = order[last] if rows is None else rows[order[last]]
            key = key[last]
        self.indptr = np.searchsorted(key, np.arange(n + 1) * n)
        np.remainder(key, max(n, 1), out=key)
        self.dst = key.astype(np.int32)
        del key
        # one gather of the edge rows, none when they are in order already
        self.corr = corr if rows is None else corr[rows]
        self.evidence = evidence if rows is None else evidence[rows]
        # PageRank results per (seeds, damping, epsilon), filled on first use
        # by recommend.global_pagerank (seeds None: every active job) and by
        # recommend_users for a resume category's active jobs (seeds their
        # sorted tuple): at most one entry per category served, plus the
        # global one, per setting
        self.pagerank_results: dict[tuple[tuple[str, ...] | None, float, float], object] = {}

    @property
    def num_edges(self) -> int:
        return len(self.dst)

    @functools.cached_property
    def walk(self) -> Walk:
        """The walk PageRank runs on, built on first use from the
        positive-corr rows of the CSR. No edge leads into an expired job,
        so a walk restarting from active jobs never reaches one."""
        n = len(self.nodes)
        src = np.repeat(np.arange(n), np.diff(self.indptr))
        hop = self.corr > 0.0
        src, weight = src[hop], self.corr[hop]
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
    :data:`AGGREGATE_BLOCK` rows at a time, into the one ``corr`` array the
    digraph keeps; each row's evidence code is its pair's.
    """
    active = frozenset(active_set)
    is_active = np.array([j in active for j in graph.ids], dtype=bool)
    a, b, pairs = _candidate_pairs(graph, content, is_active, config)
    # the directed rows: a -> b into an active b, b -> a into an active a,
    # each with its pair; the keys are distinct, so any sort gives one order
    forward, backward = np.flatnonzero(is_active[b]), np.flatnonzero(is_active[a])
    src = np.concatenate((a[forward], b[backward]), dtype=np.int32)
    dst = np.concatenate((b[forward], a[backward]), dtype=np.int32)
    pair = np.concatenate((forward, backward), dtype=np.int32)
    del a, b, forward, backward
    key = src.astype(np.int64)
    key *= graph.num_nodes
    key += dst  # in place: one key array at a time
    order = np.argsort(key)
    del key
    src, dst, pair = src[order], dst[order], pair[order]
    del order
    corr = np.empty(len(src))
    for lo in range(0, len(src), AGGREGATE_BLOCK):
        rows = slice(lo, lo + AGGREGATE_BLOCK)
        corr[rows] = _score_rows(src[rows], pairs, pair[rows], graph, config)
    evidence = pairs.evidence[pair]
    del pairs, pair  # the candidate columns are freed before the digraph is built
    return RecDigraph(graph.ids, src, dst, corr, evidence, active)


def build_digraph(
    signals: EventLog | Iterable[DedupedSignal],
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
    co-counts, the content sim (0.0: no content evidence), the sum of the
    two PMI^2 terms and the evidence code. All but the co-counts are
    symmetric in the pair, so one value serves both directions."""

    co_apps: np.ndarray
    co_clicks: np.ndarray
    sim: np.ndarray
    pmi2_term: np.ndarray
    evidence: np.ndarray


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
    evidence = np.zeros(len(sim), dtype=np.uint8)
    evidence[co_apps > 0] |= EVIDENCE_APPLY
    evidence[co_clicks > 0] |= EVIDENCE_CLICK
    evidence[~np.isnan(sim)] |= EVIDENCE_CONTENT
    keep = np.flatnonzero((evidence != 0) & (is_active[a] | is_active[b]))
    a, b, co_apps, co_clicks, sim, evidence = a[keep], b[keep], co_apps[keep], co_clicks[keep], sim[keep], evidence[keep]
    pmi2_term = _pmi2_term(co_apps, graph.total_apps[a], graph.total_apps[b], config)
    pmi2_term += _pmi2_term(co_clicks, graph.total_clicks[a], graph.total_clicks[b], config)
    return a, b, _PairColumns(co_apps, co_clicks, np.nan_to_num(sim, nan=0.0), pmi2_term, evidence)


def _score_rows(
    src: np.ndarray, pairs: _PairColumns, pair: np.ndarray, graph: CoPairs, config: EngineConfig
) -> np.ndarray:
    """The ``corr`` of the directed rows from the jobs ``src`` over the
    candidate pairs ``pair``.

    It keeps the term order of ``w1*(p_apps+p_clicks) +
    w2*(pmi2_apps+pmi2_clicks) + w3*sim`` in float64, so it equals the
    scalar formula bit for bit.
    """
    p_apps = _mle_block(pairs.co_apps[pair], graph.total_apps[src])
    p_clicks = _mle_block(pairs.co_clicks[pair], graph.total_clicks[src])
    return config.w1 * (p_apps + p_clicks) + config.w2 * pairs.pmi2_term[pair] + config.w3 * pairs.sim[pair]


def _mle_block(co: np.ndarray, src_total: np.ndarray) -> np.ndarray:
    """The probability ``c(src,dst) / c(src)`` per row; 0.0 where ``c(src)``
    is 0 (and so is ``c(src,dst)``)."""
    p = np.zeros(len(co))
    np.divide(co, src_total, out=p, where=src_total != 0)
    return p


def _pmi2_term(co: np.ndarray, total_a: np.ndarray, total_b: np.ndarray, config: EngineConfig) -> np.ndarray:
    """The aggregate term of the PMI^2 ``ln(c(a,b)^2 / (c(a) * c(b)))`` per
    pair: the PMI^2, or ``exp(pmi2)`` under ``normalize_pmi2``; 0.0 where a
    count is 0.

    ``math.log``/``math.exp`` rather than their numpy forms: those differ
    from the scalar ones in the last bit on some inputs, and the artifact
    must not depend on which is used.
    """
    present = (co > 0) & (total_a != 0) & (total_b != 0)
    term = np.zeros(len(co))
    # int64 products are exact, and their float quotient equals Python's
    # int division, while both stay below 2**53: counts below 9.4e7 users
    if present.any():
        c = co[present]
        ratio = (c * c) / (total_a[present] * total_b[present])
        logs = list(map(math.log, ratio.tolist()))
        term[present] = list(map(math.exp, logs)) if config.normalize_pmi2 else logs
    return term


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


def edge_diagnostics(digraph: RecDigraph) -> dict[str, int]:
    """The digraph's edge counts that ``build`` writes to its manifest: by
    evidence, behaviour (co-apply or co-click) only, content only or both,
    and the edges with ``corr <= 0``."""
    behaviour = (digraph.evidence & (EVIDENCE_APPLY | EVIDENCE_CLICK)) != 0
    content = (digraph.evidence & EVIDENCE_CONTENT) != 0
    return {
        "digraph_edges_behaviour_only": int(np.count_nonzero(behaviour & ~content)),
        "digraph_edges_content_only": int(np.count_nonzero(content & ~behaviour)),
        "digraph_edges_both": int(np.count_nonzero(behaviour & content)),
        "digraph_edges_nonpositive": int(np.count_nonzero(digraph.corr <= 0.0)),
    }


# Dump rows formatted per block by dump_digraph: a larger block shares more
# reprs, a smaller one holds fewer strings at once
DUMP_BLOCK = 4096


def dump_digraph(digraph: RecDigraph, fh: TextIO) -> None:
    """Write one edge per line as ``src,dst,corr,evidence``; deterministic
    order.

    The bytes are those of ``csv.writer``: each job id is quoted once,
    ``corr`` is a float ``repr`` and ``evidence`` the integer code. Rows are
    formatted :data:`DUMP_BLOCK` at a time, column by column, with one
    ``repr`` per distinct float bit pattern of the block's ``corr``.
    """
    # the job ids with the comma after them, and the codes with the comma
    # before them and the line break: a row is four parts
    quoted = np.array(_csv_fields(digraph.nodes), dtype=object) + ","
    codes = np.array([f",{code}\n" for code in range(256)], dtype=object)
    for lo in range(0, digraph.num_edges, DUMP_BLOCK):
        block = slice(lo, lo + DUMP_BLOCK)
        dst = digraph.dst[block]
        src = np.searchsorted(digraph.indptr, np.arange(lo, lo + len(dst)), side="right") - 1
        # by bit pattern, so -0.0 and 0.0 keep their own reprs
        bits, where = np.unique(digraph.corr[block].view(np.int64), return_inverse=True)
        corr = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        parts = [None] * (4 * len(dst))
        parts[0::4] = quoted[src].tolist()
        parts[1::4] = quoted[dst].tolist()
        parts[2::4] = corr[where].tolist()
        parts[3::4] = codes[digraph.evidence[block]].tolist()
        # 512 rows a write: joining a whole block at once left the build's
        # peak RSS about 0.7 MB higher
        for s in range(0, len(parts), 4 * 512):
            fh.write("".join(parts[s : s + 4 * 512]))


# Dump lines parsed per block by load_digraph. A block's field strings
# are freed once it is parsed, but the memory they held stays with the
# process: a serving set-up peaked 2.5 MB lower at 512 rows than at 4096
# (43.2 against 45.7 MB, 23k edges), with no slower load; 256 saved no more.
LOAD_BLOCK = 512

# The evidence field of a dump row and its code: an edge has at least one
# of the three bits
_EVIDENCE_CODES = {str(code): code for code in range(1, 8)}


def load_digraph(lines: Iterable[str], active_jobs: Iterable[str]) -> RecDigraph:
    """Reload a digraph dump; bit-exact inverse of :func:`dump_digraph`.

    Edges into jobs outside ``active_jobs`` (expired since the build) are
    dropped. A row with other than 4 fields (as every row of a dump in the
    earlier 8-field format has), an empty job id or ``corr``, a non-numeric
    or non-finite ``corr``, or an evidence code other than 1-7 raises
    ``ValueError`` naming its line.

    Lines are read :data:`LOAD_BLOCK` at a time and split as columns while
    a block's lines hold 4 fields each and no quote, CR or NUL; from the
    first block that does not, the rest goes through ``csv.reader``.
    """
    index: dict[str, int] = {}
    # each checked block goes straight into growing buffers: one copy of the rows
    src, dst, corr, evidence = buffers = array("i"), array("i"), array("d"), array("B")
    lines = iter(lines)
    line_no = 0  # the lines before the block
    while block := list(islice(lines, LOAD_BLOCK)):
        columns = split_block(block, (4,), '"\r\0')
        if columns is None:
            _parse_csv(chain(block, lines), line_no, index, *buffers)
            break
        _parse_columns(columns, range(line_no + 1, line_no + 1 + len(block)), index, *buffers)
        line_no += len(block)
    return RecDigraph(
        list(index),
        np.frombuffer(src, dtype=np.intc),
        np.frombuffer(dst, dtype=np.intc),
        np.frombuffer(corr),
        np.frombuffer(evidence, dtype=np.uint8),
        active_jobs,
    )


def _parse_csv(lines: Iterable[str], line_no: int, index: dict[str, int], *buffers: array) -> None:
    """Parse dump lines with ``csv.reader``, :data:`LOAD_BLOCK` rows at a
    time, numbering them from line ``line_no + 1``."""
    reader = csv.reader(lines)
    block = []
    for row in reader:
        if row:
            block.append((line_no + reader.line_num, row))
        if len(block) == LOAD_BLOCK:
            _parse_rows(block, index, *buffers)
            block = []
    _parse_rows(block, index, *buffers)


def _parse_rows(block: list[tuple[int, list[str]]], index: dict[str, int], *buffers: array) -> None:
    """Append (line number, row) pairs of the dump as :func:`_parse_columns` does."""
    if not block:
        return
    line_nos, rows = zip(*block)
    if set(map(len, rows)) != {4}:
        _check_rows(line_nos, rows)
    _parse_columns(list(zip(*rows)), line_nos, index, *buffers)


def _parse_columns(
    columns: list[Sequence[str]],
    line_nos: Sequence[int],
    index: dict[str, int],
    src: array,
    dst: array,
    corr: array,
    evidence: array,
) -> None:
    """Append a block of dump rows, given as its four columns, to the
    ``src``, ``dst``, ``corr`` and ``evidence`` buffers, job ids interned
    into ``index``.

    The block is checked at once: two nonempty job ids, a finite ``corr``
    and an evidence code 1-7. A block that fails is checked row by row for
    a line to name.
    """
    src_ids, dst_ids, corr_tokens, evidence_tokens = columns
    try:
        values = array("d", map(float, corr_tokens))
        codes = array("B", map(_EVIDENCE_CODES.__getitem__, evidence_tokens))
    except (ValueError, KeyError):
        values = None
    if values is None or "" in src_ids or "" in dst_ids or not np.isfinite(np.frombuffer(values)).all():
        _check_rows(line_nos, zip(*columns))
    src.extend(code_ids(index, src_ids))
    dst.extend(code_ids(index, dst_ids))
    corr.extend(values)
    evidence.extend(codes)


def _check_rows(line_nos: Iterable[int], rows: Iterable[Sequence[str]]) -> None:
    """Raise ``ValueError`` naming the line of the first malformed row."""
    for line_no, row in zip(line_nos, rows):
        if problem := _row_problem(row):
            raise ValueError(f"digraph line {line_no}: {problem}")


def _row_problem(row: Sequence[str]) -> str | None:
    """What makes a dump row malformed, or None."""
    if len(row) != 4:
        return f"expected 4 fields, got {len(row)}"
    if not row[0] or not row[1]:
        return "empty job id"
    if not row[2]:
        return "empty corr"
    try:
        if not math.isfinite(float(row[2])):
            return f"non-finite corr {row[2]!r}"
    except ValueError:
        return f"non-numeric corr {row[2]!r}"
    if row[3] not in _EVIDENCE_CODES:
        return f"evidence {row[3]!r} is not a code 1-7"
    return None
