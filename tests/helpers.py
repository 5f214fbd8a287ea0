"""Shared constructors and brute-force oracles used across the test suite."""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from jobgraph.config import EngineConfig
from jobgraph.graph import CoPairs, build_costats
from jobgraph.evaluation import CfIndex, SynthCorpus
from jobgraph.ingest import (
    EventLog,
    JobRecord,
    JobStatus,
    ParseIssue,
    SignalKind,
    UserRecord,
    _Columns,
    _csv_rows,
    dedupe,
    elapsed_days,
    epoch_us,
    format_timestamp,
    parse_timestamp,
    resolve_jobs,
    utc_datetime,
    window_filter,
)
from jobgraph.mf import FactorModel, RatingsMatrix, _implicit_offsets
from jobgraph.recommend import EARTH_RADIUS_KM, PageRankResult, UserProfile, build_profiles
from jobgraph.scoring import (
    EVIDENCE_APPLY,
    EVIDENCE_CLICK,
    EVIDENCE_CONTENT,
    ContentPairs,
    RecDigraph,
    aggregate,
    content_edges,
)

REF = datetime(2017, 6, 1, tzinfo=timezone.utc)


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One behavioral signal as a record: a user applied to / clicked /
    ignored a job; ``query_id`` groups clicks of one search resultset and
    may be ``None``. The record oracles read and return these; the program
    holds events as an :class:`EventLog`."""

    user_id: str
    job_id: str
    kind: SignalKind
    timestamp: datetime
    query_id: str | None = None


class DedupedSignal(NamedTuple):
    """One distinct (user, job, kind) triple of ``dedupe`` as a record: the
    latest timestamp, and for clicks every query id of the merged events."""

    user_id: str
    job_id: str
    kind: SignalKind
    timestamp: datetime
    query_ids: frozenset[str] = frozenset()


def log_of(records: Iterable[InteractionEvent | DedupedSignal]) -> EventLog:
    """The event or signal log of records, in their order; timestamps must
    be timezone-aware."""
    columns = _Columns()
    for r in records:
        queries = sorted(r.query_ids) if isinstance(r, DedupedSignal) else [r.query_id] if r.query_id else []
        columns.add(r.user_id, r.job_id, r.kind.code, epoch_us(r.timestamp), queries)
    return columns.log()


class EdgeScores(NamedTuple):
    """The aggregate score of one directed edge and the components it sums,
    as :func:`reference_edge_scores` computes them; the digraph keeps only
    ``corr`` and :attr:`evidence`.

    Component fields are ``None`` when the corresponding signal contributed
    no evidence.
    """

    corr: float
    p_apps: float | None = None
    p_clicks: float | None = None
    pmi2_apps: float | None = None
    pmi2_clicks: float | None = None
    sim_e: float | None = None

    @property
    def evidence(self) -> int:
        """The evidence code: a bit per signal with a component."""
        return (
            EVIDENCE_APPLY * (self.p_apps is not None)
            | EVIDENCE_CLICK * (self.p_clicks is not None)
            | EVIDENCE_CONTENT * (self.sim_e is not None)
        )


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


def built_pipeline(corpus: SynthCorpus, weights: EngineConfig = EngineConfig()):
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


# ---------------------------------------------------------------------------
# the event log read back as records, and the record pipeline as oracles


def _query_ids(log: EventLog) -> dict[int, set[str]]:
    rows: dict[int, set[str]] = {}
    for row, q in zip(log.query_row.tolist(), log.query.tolist()):
        rows.setdefault(row, set()).add(log.queries[q])
    return rows


def event_records(log: EventLog) -> list[InteractionEvent]:
    """The rows of an event log as records; a row holds at most one query id."""
    queries, kinds = _query_ids(log), list(SignalKind)
    records = []
    for row, (u, j, k, t) in enumerate(zip(log.user.tolist(), log.job.tolist(), log.kind.tolist(), log.time.tolist())):
        (query_id,) = queries.get(row, {None})
        records.append(InteractionEvent(log.users[u], log.jobs[j], kinds[k], utc_datetime(t), query_id))
    return records


def signal_records(log: EventLog) -> list[DedupedSignal]:
    """The rows of a signal log as records."""
    queries, kinds = _query_ids(log), list(SignalKind)
    return [
        DedupedSignal(log.users[u], log.jobs[j], kinds[k], utc_datetime(t), frozenset(queries.get(row, ())))
        for row, (u, j, k, t) in enumerate(
            zip(log.user.tolist(), log.job.tolist(), log.kind.tolist(), log.time.tolist())
        )
    ]


_KIND_TOKENS = {k.value: k for k in SignalKind}


def reference_parse_events(lines: Iterable[str]) -> tuple[list[InteractionEvent], list[ParseIssue]]:
    """``parse_events`` one record per line, as it was before the event log."""
    events: list[InteractionEvent] = []
    issues: list[ParseIssue] = []
    for line_no, row in _csv_rows(lines):
        if len(row) not in (4, 5):
            issues.append(ParseIssue(line_no, f"expected 4 or 5 fields, got {len(row)}"))
            continue
        user_id, job_id, kind_tok, ts_tok = map(str.strip, row[:4])
        query_id = row[4].strip() if len(row) == 5 else ""
        if not user_id or not job_id:
            issues.append(ParseIssue(line_no, "empty user_id or job_id"))
            continue
        kind = _KIND_TOKENS.get(kind_tok.lower())
        if kind is None:
            issues.append(ParseIssue(line_no, f"unknown kind {kind_tok!r}"))
            continue
        try:
            ts = parse_timestamp(ts_tok)
        except ValueError:
            issues.append(ParseIssue(line_no, f"bad timestamp {ts_tok!r}"))
            continue
        events.append(InteractionEvent(user_id, job_id, kind, ts, query_id or None))
    return events, issues


def reference_window_filter(events, reference_date, window_days=180):
    horizon = timedelta(days=window_days)
    return [e for e in events if reference_date - e.timestamp < horizon]


def reference_resolve_jobs(events, jobs):
    kept = [e for e in events if e.job_id in jobs]
    return kept, len(events) - len(kept)


def reference_dedupe(events: Iterable[InteractionEvent]) -> list[DedupedSignal]:
    """``dedupe`` over a dict of records, as it was before the event log."""
    best: dict[tuple[str, str, str], InteractionEvent] = {}
    queries: dict[tuple[str, str, str], set[str]] = {}
    for event in events:
        key = (event.user_id, event.job_id, event.kind.value)
        prev = best.get(key)
        if prev is None or event.timestamp > prev.timestamp:
            best[key] = event
        if event.query_id and event.kind is SignalKind.CLICK:
            queries.setdefault(key, set()).add(event.query_id)
    return [
        DedupedSignal(best[key].user_id, best[key].job_id, best[key].kind, best[key].timestamp,
                      frozenset(queries.get(key, ())))
        for key in sorted(best)
    ]


def reference_holdout_split(events, fraction, seed=0):
    """``holdout_split`` one user at a time, holding out list positions."""
    by_user: dict[str, list[int]] = {}
    for i, e in enumerate(events):
        if e.kind is SignalKind.APPLY:
            by_user.setdefault(e.user_id, []).append(i)
    held: set[int] = set()
    for positions in by_user.values():
        h = math.floor(len(positions) * fraction)
        if h == 0:
            continue

        def order(i: int) -> tuple:
            e = events[i]
            tag = f"{seed}|{e.user_id}|{e.job_id}|{format_timestamp(e.timestamp)}"
            return (e.timestamp, zlib.crc32(tag.encode()), e.job_id)

        held.update(sorted(positions, key=order, reverse=True)[:h])
    train = [e for i, e in enumerate(events) if i not in held]
    test = [e for i, e in enumerate(events) if i in held]
    return train, test


class DictCfIndex(NamedTuple):
    """The apply history as dicts: ``appliers_of`` lists each job's
    distinct appliers newest first as (epoch µs, user), ties by user id;
    ``applied_by`` maps a user to their applied jobs with the latest apply
    time of each."""

    appliers_of: dict[str, list[tuple[int, str]]]
    applied_by: dict[str, list[tuple[str, int]]]


def reference_cf_index(events: Iterable[InteractionEvent]) -> DictCfIndex:
    """``build_cf_index`` over a dict of the latest applies."""
    latest: dict[tuple[str, str], int] = {}
    for e in events:
        if e.kind is not SignalKind.APPLY:
            continue
        key, stamp = (e.user_id, e.job_id), epoch_us(e.timestamp)
        if key not in latest or stamp > latest[key]:
            latest[key] = stamp
    appliers_of: dict[str, list[tuple[int, str]]] = {}
    applied_by: dict[str, list[tuple[str, int]]] = {}
    for (u, j), stamp in latest.items():
        appliers_of.setdefault(j, []).append((stamp, u))
        applied_by.setdefault(u, []).append((j, stamp))
    for entries in appliers_of.values():
        entries.sort(key=lambda p: (-p[0], p[1]))
    return DictCfIndex(appliers_of, applied_by)


def cf_index_dicts(index: CfIndex) -> DictCfIndex:
    """The dict form of an array :class:`CfIndex`."""
    applied_by: dict[str, list[tuple[str, int]]] = {}
    for u, user_id in enumerate(index.users):
        span = slice(index.apply_start[u], index.apply_start[u + 1])
        jobs = [index.jobs[j] for j in index.apply_job[span].tolist()]
        if jobs:
            applied_by[user_id] = list(zip(jobs, index.apply_time[span].tolist()))
    time_of = {(u, j): t for u, applies in applied_by.items() for j, t in applies}
    appliers_of: dict[str, list[tuple[int, str]]] = {}
    for j, job_id in enumerate(index.jobs):
        users = [index.users[u] for u in index.applier[index.applier_start[j] : index.applier_start[j + 1]].tolist()]
        if users:
            appliers_of[job_id] = [(time_of[u, job_id], u) for u in users]
    return DictCfIndex(appliers_of, applied_by)


def reference_cf_recommend(
    index: DictCfIndex,
    user_id: str,
    k: int,
    reference_date: datetime,
    *,
    window_applicants: int = 50,
    decay: float = 0.05,
    exclude: Iterable[str] = (),
    active_jobs: Iterable[str] | None = None,
) -> list[tuple[str, float]]:
    """``cf_recommend`` one user at a time over dicts: each own job's
    window of appliers, then one dict sum per candidate job in neighbour-id
    order, then one sort on (-score, job id)."""
    own = {j for j, _ in index.applied_by.get(user_id, ())}
    if not own:
        return []
    banned = own | set(exclude)
    allowed = None if active_jobs is None else set(active_jobs)
    neighbors: set[str] = set()
    for job_id in own:
        taken = 0
        for _, other in index.appliers_of[job_id]:
            if other == user_id:
                continue
            neighbors.add(other)
            taken += 1
            if taken >= window_applicants:
                break
    now = epoch_us(reference_date)
    scores: dict[str, float] = {}
    for other in sorted(neighbors):
        for job_id, t in index.applied_by.get(other, ()):
            if job_id in banned or (allowed is not None and job_id not in allowed):
                continue
            scores[job_id] = scores.get(job_id, 0.0) + math.exp(-decay * elapsed_days(now, t))
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def reference_build_matrix(signals: Iterable[DedupedSignal]) -> RatingsMatrix:
    """``mf.build_matrix`` over a dict of cells."""
    values: dict[tuple[str, str], float] = {}
    clicks: list[tuple[str, str]] = []
    for s in signals:
        key = (s.user_id, s.job_id)
        if s.kind is SignalKind.APPLY:
            values[key] = 1.0
        elif s.kind is SignalKind.EMAIL_OPEN_NO_CLICK:
            if values.get(key) != 1.0:
                values[key] = -1.0
        else:
            clicks.append(key)
    user_ids = sorted({u for u, _ in values})
    job_ids = sorted({j for _, j in values})
    user_index = {u: i for i, u in enumerate(user_ids)}
    job_index = {j: i for i, j in enumerate(job_ids)}
    entries = sorted((user_index[u], job_index[j], v) for (u, j), v in values.items())
    implicit: dict[int, set[int]] = {}
    for u, j in clicks:
        if u in user_index and j in job_index:
            implicit.setdefault(user_index[u], set()).add(job_index[j])
    return RatingsMatrix(user_ids, job_ids, entries, {u: tuple(sorted(js)) for u, js in implicit.items()})


def reference_build_profiles(
    signals: Sequence[DedupedSignal], users: Mapping[str, UserRecord], taxonomy: Iterable[str]
) -> dict[str, UserProfile]:
    """``build_profiles`` over signal records: each user's latest apply or
    click per job, and every job of any signal kind."""
    tax = set(taxonomy)
    engaged: dict[str, dict[str, datetime]] = {}
    seen: dict[str, set[str]] = {}
    for s in signals:
        seen.setdefault(s.user_id, set()).add(s.job_id)
        latest = engaged.setdefault(s.user_id, {})
        if s.kind is not SignalKind.EMAIL_OPEN_NO_CLICK and (
            s.job_id not in latest or s.timestamp > latest[s.job_id]
        ):
            latest[s.job_id] = s.timestamp
    profiles = {}
    for user_id in sorted(set(seen) | set(users)):
        record = users.get(user_id)
        category = record.resume_category if record else None
        profiles[user_id] = UserProfile(
            user_id,
            tuple((job_id, epoch_us(stamp)) for job_id, stamp in sorted(engaged.get(user_id, {}).items())),
            tuple(sorted(seen.get(user_id, ()))),
            category if category in tax else None,
            record.location if record else None,
        )
    return profiles


def reference_haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """The great-circle distance in km, each point's radians and cosine
    taken anew on every call."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def reference_location_rerank(candidates, user_location, jobs, radius_km, boost):
    """``location_rerank`` one candidate at a time, by
    :func:`reference_haversine_km` from the user."""
    rescored = []
    for job_id, score in candidates:
        record = jobs.get(job_id)
        if (
            record is not None
            and record.location is not None
            and reference_haversine_km(user_location, record.location) <= radius_km
        ):
            score = score * boost if score >= 0 else score / boost
        rescored.append((job_id, score))
    return sorted(rescored, key=lambda kv: (-kv[1], kv[0]))


def random_digraph(rng: random.Random, max_nodes: int = 12, *, edge_prob=0.3, negatives=True, values=None):
    """A random corr-weighted digraph over n0..n{N-1}, all nodes active.
    Each corr is drawn from ``values`` when given (so that scores tie and
    zeros of both signs occur), else uniformly."""
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    corr = {}
    lo = -1.0 if negatives else 0.05
    for src in nodes:
        for dst in nodes:
            if src != dst and rng.random() < edge_prob:
                corr[(src, dst)] = rng.uniform(lo, 2.0) if values is None else rng.choice(values)
    return from_corr(corr, nodes)


def digraph_of(edges: Mapping[tuple[str, str], tuple[float, int]], active_jobs) -> RecDigraph:
    """A digraph holding the given (src, dst) -> (corr, evidence code)."""
    ids = sorted({job_id for pair in edges for job_id in pair})
    index = {job_id: i for i, job_id in enumerate(ids)}
    src = np.array([index[s] for s, _ in edges], dtype=np.intp)
    dst = np.array([index[d] for _, d in edges], dtype=np.intp)
    corr = np.array([c for c, _ in edges.values()], dtype=np.float64)
    evidence = np.array([e for _, e in edges.values()], dtype=np.uint8)
    return RecDigraph(ids, src, dst, corr, evidence, active_jobs)


def from_corr(corr: Mapping[tuple[str, str], float], active_jobs) -> RecDigraph:
    """A digraph of bare (src, dst) -> corr weights, each edge marked as
    co-apply evidence so that its dump loads."""
    return digraph_of({pair: (value, EVIDENCE_APPLY) for pair, value in corr.items()}, active_jobs)


def out_edges(digraph: RecDigraph, src: str) -> list[tuple[str, float, int]]:
    """(dst, corr, evidence) of the outgoing edges of ``src`` in destination
    order, read from the digraph's CSR arrays."""
    i = digraph.index.get(src)
    if i is None:
        return []
    lo, hi = int(digraph.indptr[i]), int(digraph.indptr[i + 1])
    return [
        (digraph.nodes[d], corr, code)
        for d, corr, code in zip(
            digraph.dst[lo:hi].tolist(), digraph.corr[lo:hi].tolist(), digraph.evidence[lo:hi].tolist()
        )
    ]


def edge_map(digraph):
    """Every edge of ``digraph`` as (src, dst) -> (corr, evidence), in
    (src, dst) order."""
    return {(src, dst): (corr, code) for src in digraph.nodes for dst, corr, code in out_edges(digraph, src)}


def corr_of(digraph, src: str, dst: str) -> float | None:
    """The corr of the edge ``src -> dst``, or None without one."""
    return next((corr for d, corr, _ in out_edges(digraph, src) if d == dst), None)


def reference_hop(digraph, starts, k, exclude=()):
    """One propagation hop for one user, one edge at a time into a dict:
    each out-neighbor of a start job is scored ``weight * corr``, merged
    across the starts by max, the first of equal scores kept (so the sign of
    a zero is the one met first); the start jobs and ``exclude`` are never
    candidates. The top ``k`` by (-score, job_id)."""
    banned = set(exclude) | {job_id for job_id, _ in starts}
    candidates = {}
    for job_id, weight in starts:
        for dst, corr, _ in out_edges(digraph, job_id):
            if dst in banned:
                continue
            score = weight * corr
            if dst not in candidates or score > candidates[dst]:
                candidates[dst] = score
    return sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


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
        for dst, corr, _ in out_edges(digraph, src):
            if dst in banned:
                continue
            score = activity * corr
            if dst not in level1 or score > level1[dst]:
                level1[dst] = score
    banned2 = set(exclude) | set(level1)
    level2 = {}
    for mid, path_score in level1.items():
        for dst, corr, _ in out_edges(digraph, mid):
            if dst in banned2:
                continue
            score = path_score * corr
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
            (dst, max(corr, 0.0))
            for dst, corr, _ in out_edges(digraph, src)
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
    restart set, over arrays built here from :func:`out_edges`. The vectors run
    over ``digraph.nodes``; an active job without a positive out-edge is
    dangling. recommend._pagerank must return the same result, bit for
    bit."""
    nodes = digraph.nodes
    n = len(nodes)
    index = {job_id: i for i, job_id in enumerate(nodes)}
    edges = [
        (index[src], index[dst], corr)
        for src in nodes
        for dst, corr, _ in out_edges(digraph, src)
        if corr > 0.0
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


class CoMaps(NamedTuple):
    """The co-stat multigraph as maps: job -> ``(total_apps,
    total_clicks)`` and ``(i, j)``, ``i < j``, -> ``(co_apps, co_clicks)``."""

    nodes: dict[str, tuple[int, int]]
    edges: dict[tuple[str, str], tuple[int, int]]


def co_pairs(nodes: Mapping[str, tuple[int, int]], edges: Mapping[tuple[str, str], tuple[int, int]]) -> CoPairs:
    """The :class:`CoPairs` of the maps of :class:`CoMaps`, laid out as
    ``build_costats`` returns them (pairs of zero counts kept)."""
    ids = sorted(nodes)
    index = {job_id: i for i, job_id in enumerate(ids)}
    rows = sorted((*sorted((index[i], index[j])), *counts) for (i, j), counts in edges.items())
    pairs = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    totals = np.array([nodes[j] for j in ids], dtype=np.int64).reshape(len(ids), 2)
    return CoPairs(ids, *totals.T.copy(), *pairs[:, :2].T.astype(np.int32), *pairs[:, 2:].T.copy())


def co_maps(graph: CoPairs) -> CoMaps:
    """The :class:`CoPairs` as maps."""
    ids = graph.ids
    return CoMaps(
        dict(zip(ids, zip(graph.total_apps.tolist(), graph.total_clicks.tolist()))),
        {
            (ids[a], ids[b]): (co_apps, co_clicks)
            for a, b, co_apps, co_clicks in zip(
                graph.a.tolist(), graph.b.tolist(), graph.co_apps.tolist(), graph.co_clicks.tolist()
            )
        },
    )


def reference_costats(
    signals: Iterable[DedupedSignal], jobs: Mapping[str, JobRecord], session_gap_minutes: float = 30.0
) -> CoMaps:
    """``build_costats`` one user and one pair of clicks at a time, as a
    dict multigraph: the oracle for its nodes, pairs and counts."""
    gap = timedelta(minutes=session_gap_minutes)
    appliers: dict[str, set[str]] = {}
    clickers: dict[str, set[str]] = {}
    user_applies: dict[str, list[str]] = {}
    user_clicks: dict[str, list[DedupedSignal]] = {}
    for s in signals:
        if s.job_id not in jobs:
            raise KeyError(f"signal references unknown job {s.job_id!r}")
        if s.kind is SignalKind.APPLY:
            appliers.setdefault(s.job_id, set()).add(s.user_id)
            user_applies.setdefault(s.user_id, []).append(s.job_id)
        elif s.kind is SignalKind.CLICK:
            clickers.setdefault(s.job_id, set()).add(s.user_id)
            user_clicks.setdefault(s.user_id, []).append(s)

    def cooccur(a: DedupedSignal, b: DedupedSignal) -> bool:
        if a.query_ids and b.query_ids:
            return bool(a.query_ids & b.query_ids)
        if not a.query_ids and not b.query_ids:
            return abs(a.timestamp - b.timestamp) <= gap
        return False

    edges: dict[tuple[str, str], list[int]] = {}
    for jobs_applied in user_applies.values():
        for pair in combinations(sorted(set(jobs_applied)), 2):
            edges.setdefault(pair, [0, 0])[0] += 1
    for clicks in user_clicks.values():
        pairs = {
            (min(a.job_id, b.job_id), max(a.job_id, b.job_id))
            for a, b in combinations(clicks, 2)
            if a.job_id != b.job_id and cooccur(a, b)
        }
        for pair in pairs:
            edges.setdefault(pair, [0, 0])[1] += 1
    nodes = {j: (len(appliers.get(j, ())), len(clickers.get(j, ()))) for j in jobs}
    return CoMaps(nodes, {pair: tuple(counts) for pair, counts in edges.items()})


def _counts(graph: CoMaps, i: str, j: str, signal: str) -> tuple[int, int, int]:
    """``(c(i,j), c(i), c(j))`` of the signal ``"apps"`` or ``"clicks"``."""
    column = {"apps": 0, "clicks": 1}[signal]
    co = graph.edges.get((min(i, j), max(i, j)), (0, 0))
    return co[column], graph.nodes[i][column], graph.nodes[j][column]


def mle(graph: CoMaps, i: str, j: str, signal: str) -> float:
    """Conditional probability estimate of interacting with i given j.

    Returns ``c(i,j) / c(j)`` for the requested signal; a zero denominator
    means no evidence and yields 0.0 rather than an error.
    """
    co, _, total = _counts(graph, i, j, signal)
    return co / total if total else 0.0


def pmi2(graph: CoMaps, i: str, j: str, signal: str) -> float | None:
    """Squared-PMI association ``ln(c(i,j)^2 / (c(i) * c(j)))``, always <= 0.

    Returns ``None`` when any involved count is zero (no evidence for this
    signal on this pair).
    """
    co, ci, cj = _counts(graph, i, j, signal)
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


def reference_edge_scores(graph: CoMaps, content, weights, src, dst):
    """Score the directed edge src -> dst one signal at a time from
    :func:`mle`, :func:`pmi2` and the cosine map; None when no signal
    contributes. The scalar statement of what ``aggregate`` computes."""
    p_apps = p_clicks = pm_apps = pm_clicks = None
    co_apps, co_clicks = graph.edges.get((min(src, dst), max(src, dst)), (0, 0))
    if co_apps > 0:
        p_apps = mle(graph, dst, src, "apps")
        pm_apps = pmi2(graph, dst, src, "apps")
    if co_clicks > 0:
        p_clicks = mle(graph, dst, src, "clicks")
        pm_clicks = pmi2(graph, dst, src, "clicks")
    sim = content.get((min(src, dst), max(src, dst)))
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


def reference_aggregate(graph: CoPairs, content, weights, active):
    """Every (src, dst) -> EdgeScores that ``aggregate`` should produce:
    both directions of each multigraph pair and of each content pair
    between known nodes, into active destinations only."""
    maps = co_maps(graph)
    pairs = set(maps.edges) | {p for p in content if p[0] in maps.nodes and p[1] in maps.nodes}
    edges = {}
    for a, b in pairs:
        for src, dst in ((a, b), (b, a)):
            if dst in active:
                scores = reference_edge_scores(maps, content, weights, src, dst)
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


def reference_uniform_init(rng: random.Random, rows: int, k: int) -> np.ndarray:
    """ALS's initial factors, one value at a time: each 8-byte little-endian
    word of ``rng.randbytes``, cut to its top 53 bits, is a fraction of
    2**53 mapped onto [-0.01, 0.01)."""
    raw = rng.randbytes(8 * rows * k)
    values = []
    for at in range(0, len(raw), 8):
        word = int.from_bytes(raw[at : at + 8], "little")
        values.append(-0.01 + 0.02 * ((word >> 11) / 2**53))
    return np.array(values).reshape(rows, k)


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    m, n = matrix.num_users, matrix.num_jobs
    rng = random.Random(seed)
    U = reference_uniform_init(rng, m, k)
    J = reference_uniform_init(rng, n, k)
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
    (-score, job_id), NaN scores last in job_id order."""
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
    return sorted(candidates.items(), key=lambda kv: (*score_order(kv[1]), kv[0]))[:k]


def score_order(score: float) -> tuple[bool, float]:
    """A sort key that puts a higher score first and NaN last."""
    return (True, 0.0) if math.isnan(score) else (False, -score)
