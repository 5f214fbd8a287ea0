"""Offline evaluation: connectivity analysis, baselines, and synthetic data.

Provides the per-edge-type connectivity report (fraction of active jobs
reachable through each subset of signal types), a classic user-based
collaborative-filtering baseline over recent co-applicants, a per-user
temporal holdout split, precision/recall metrics, and a fully seeded
synthetic corpus generator with planted cluster structure for desk-scale
experiments.
"""

from __future__ import annotations

import logging
import math
import random
import zlib
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import combinations, islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import EngineConfig
from .graph import CoPairs
from .ingest import (
    EventLog,
    JobRecord,
    JobStatus,
    SignalKind,
    UserRecord,
    _Columns,
    _distinct,
    _run_heads,
    _spans,
    active_job_ids,
    dedupe,
    elapsed_days,
    epoch_us,
    format_timestamp,
    resolve_jobs,
    utc_datetime,
    window_filter,
    write_events,
    write_rows,
)
from .mf import als_train, blocks, build_matrix, job_pool, recommend_mf, top_k
from .recommend import build_profiles, recommend_users
from .scoring import ContentPairs, build_digraph

logger = logging.getLogger(__name__)

EDGE_TYPES = ("co_apps", "co_clicks", "content")

DEFAULT_REFERENCE_DATE = datetime(2017, 6, 1, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# connectivity


def _subset_label(subset: frozenset[str]) -> str:
    return "+".join(t for t in EDGE_TYPES if t in subset)


@dataclass(frozen=True)
class ConnectivityReport:
    """Connected fraction of active jobs per nonempty edge-type subset."""

    fractions: dict[frozenset[str], float]
    active_count: int

    def fraction(self, *types: str) -> float:
        """Fraction for the subset given as type names."""
        for t in types:
            if t not in EDGE_TYPES:
                raise ValueError(f"unknown edge type {t!r}")
        return self.fractions[frozenset(types)]

    def labeled(self) -> dict[str, float]:
        """Stable string-keyed view (types joined with '+'), for reports."""
        ordered = sorted(self.fractions, key=lambda s: (len(s), _subset_label(s)))
        return {_subset_label(s): self.fractions[s] for s in ordered}


def connectivity_report(
    graph: CoPairs,
    content: ContentPairs,
    active_set: Iterable[str],
) -> ConnectivityReport:
    """For every nonempty subset S of edge types, the fraction of active
    jobs incident to at least one edge whose type belongs to S.

    Content pairs are only counted when both endpoints are graph nodes.
    Fractions are monotone non-decreasing under subset inclusion because a
    job connected through S is connected through any superset.
    """
    active = set(active_set)
    content_a, content_b, _ = content.between(graph.ids)
    apps, clicks = graph.co_apps > 0, graph.co_clicks > 0
    touched = (graph.a[apps], graph.b[apps]), (graph.a[clicks], graph.b[clicks]), (content_a, content_b)
    # one mask per node, bit b set when an edge of type EDGE_TYPES[b] touches it
    mask = np.zeros(graph.num_nodes, dtype=np.intp)
    for bit, ends in enumerate(touched):
        for end in ends:
            mask[end] |= 1 << bit
    is_active = np.array([j in active for j in graph.ids], dtype=bool)
    jobs_by_mask = np.bincount(mask[is_active], minlength=8).tolist()

    fractions: dict[frozenset[str], float] = {}
    for size in (1, 2, 3):
        for subset in combinations(range(len(EDGE_TYPES)), size):
            connected = sum(n for m, n in enumerate(jobs_by_mask) if m & sum(1 << b for b in subset))
            fractions[frozenset(EDGE_TYPES[b] for b in subset)] = connected / len(active) if active else 0.0
    return ConnectivityReport(fractions, len(active))


# ---------------------------------------------------------------------------
# classic collaborative-filtering baseline


@dataclass(frozen=True, eq=False)
class CfIndex:
    """Prebuilt apply history shared across cf queries, as arrays.

    ``users`` and ``jobs`` are the signals' sorted vocabularies, so code
    order is id order. User ``u``'s applies are the rows
    ``apply_start[u]:apply_start[u + 1]`` of ``apply_job`` and
    ``apply_time`` (epoch microseconds), in job-id order; job ``j``'s
    appliers are ``applier[applier_start[j]:applier_start[j + 1]]``,
    newest first, ties by user id.
    """

    users: list[str]
    jobs: list[str]
    apply_start: np.ndarray
    apply_job: np.ndarray
    apply_time: np.ndarray
    applier_start: np.ndarray
    applier: np.ndarray


def build_cf_index(signals: EventLog) -> CfIndex:
    """The apply history of :func:`~jobgraph.ingest.dedupe`'s signals, whose
    apply rows are distinct and in (user, job) order; other rows raise
    ``ValueError``."""
    rows = np.flatnonzero(signals.kind == SignalKind.APPLY.code)
    user, job, time = signals.user[rows], signals.job[rows], signals.time[rows]
    key = user * len(signals.jobs) + job
    if np.any(key[1:] <= key[:-1]):
        raise ValueError("apply rows must be distinct and in (user, job) order, as dedupe returns them")
    by_job = np.lexsort((user, -time, job))
    return CfIndex(
        signals.users, signals.jobs, np.searchsorted(user, np.arange(len(signals.users) + 1)), job, time,
        np.searchsorted(job[by_job], np.arange(len(signals.jobs) + 1)), user[by_job],
    )


def cf_recommend(
    index: CfIndex,
    user_ids: Sequence[str],
    k: int,
    reference_date: datetime,
    *,
    window_applicants: int = 50,
    decay: float = 0.05,
    exclude: Iterable[Iterable[str]] = (),
    active_jobs: Iterable[str] | None = None,
) -> list[list[tuple[str, float]]]:
    """User-based CF over applications only, for each user of ``user_ids`` in order.

    For each job the user applied to, take that job's most recent
    ``window_applicants`` distinct appliers; candidate jobs are everything
    those appliers applied to, scored by recency-weighted frequency
    ``sum(exp(-decay * age_days))`` over the contributing applies, ages
    taken at ``reference_date``, and summed in neighbour-id order. The
    user's own applied jobs and the ids of the user's entry of ``exclude``
    never appear, nor jobs outside ``active_jobs`` when it is given. A user
    with no applies gets an empty list. Ties break by job id. Users are
    scored a block at a time (:func:`~jobgraph.mf.blocks`), and ``exclude``
    is read a block at a time, so it may be a generator. A bare ``str`` for
    ``user_ids`` raises ``TypeError``.
    """
    if isinstance(user_ids, str):
        raise TypeError(f"user_ids must be a sequence of ids, not the str {user_ids!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if window_applicants < 1:
        raise ValueError(f"window_applicants must be >= 1, got {window_applicants}")
    n, n_users, now = len(index.jobs), len(index.users), epoch_us(reference_date)
    pool = job_pool(index.jobs, active_jobs)
    columns = {job_id: c for c, job_id in enumerate(index.jobs)}
    user_rows = {user_id: i for i, user_id in enumerate(index.users)}
    exclude = iter(exclude)
    ranked: list[list[tuple[str, float]]] = []
    for block in blocks(len(user_ids), n):
        users = np.array([user_rows.get(u, -1) for u in user_ids[block]], dtype=np.int64)
        known = users >= 0  # an unknown user has no applies
        row, at = _spans(np.where(known, index.apply_start[users], 0), np.where(known, index.apply_start[users + 1], 0))
        own = index.apply_job[at]
        allowed = np.tile(pool, (len(users), 1))
        allowed[row, own] = False

        # each own job's newest appliers: the querying user is skipped, not counted
        first = index.applier_start[own]
        pair, at = _spans(first, np.minimum(index.applier_start[own + 1], first + window_applicants + 1))
        who, nth = index.applier[at], at - first[pair]
        me = who == users[row[pair]]
        met_me = np.bincount(pair[me], minlength=len(own)) > 0
        taken = ~me & ((nth < window_applicants) | met_me[pair])
        neighbours = _distinct(row[pair[taken]] * n_users + who[taken])

        # the neighbours' applies, in neighbour-id then job-id order, to active jobs not their own
        span, at = _spans(index.apply_start[neighbours % n_users], index.apply_start[neighbours % n_users + 1])
        cell = neighbours[span] // n_users * n + index.apply_job[at]
        kept = allowed.ravel()[cell]
        cell, at = cell[kept], at[kept]
        # elapsed_days' float division, which is numpy's below 2**53 us (285 years)
        elapsed = now - index.apply_time[at]
        days = np.maximum(elapsed / 10**6 / 86400.0, 0.0)
        far = np.abs(elapsed) >= 2**53
        days[far] = [elapsed_days(e, 0) for e in elapsed[far].tolist()]
        # math.exp: numpy's exp can differ from it in the last bit
        weights = np.fromiter(map(math.exp, (-decay * days).tolist()), float, len(days))
        scores = np.bincount(cell, weights, minlength=allowed.size).reshape(allowed.shape)
        present = np.bincount(cell, minlength=allowed.size).reshape(allowed.shape) > 0  # a sum of 0.0 ranks too
        ranked += top_k(scores, present, k, index.jobs, islice(exclude, len(users)), columns)
    return ranked


# ---------------------------------------------------------------------------
# holdout split and metrics


def holdout_split(events: EventLog, fraction: float, seed: int = 0) -> tuple[EventLog, EventLog]:
    """Per-user temporal split of apply events.

    The latest ``floor(n * fraction)`` of each user's n applies are held
    out; every other event (earlier applies, all clicks and email signals)
    stays in train. Equal timestamps are ordered by a seeded checksum so
    the split is deterministic yet unbiased by input order. The two sides
    partition the events exactly, each in input order.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    rows = np.flatnonzero(events.kind == SignalKind.APPLY.code)
    user, time, job = events.user[rows], events.time[rows], events.job[rows]
    # the checksum orders only the applies of a user that share a timestamp
    checksum = np.zeros(len(rows), dtype=np.int64)
    order = np.lexsort((time, user))
    same = ~_run_heads(user[order], time[order])
    for i in order[same | np.append(same[1:], False)].tolist():
        tag = f"{seed}|{events.users[user[i]]}|{events.jobs[job[i]]}|{format_timestamp(utc_datetime(int(time[i])))}"
        checksum[i] = zlib.crc32(tag.encode())
    # each user's applies by (timestamp, checksum, job id, earlier row): the last are held
    order = np.lexsort((-rows, job, checksum, time, user))
    starts = np.flatnonzero(_run_heads(user[order]))
    counts = np.diff(np.append(starts, len(order)))
    kept = np.repeat(starts + counts - np.floor(counts * fraction).astype(np.int64), counts)
    held = np.zeros(len(events), dtype=bool)
    held[rows[order[np.arange(len(order)) >= kept]]] = True
    return events.take(~held), events.take(held)


def precision_recall_at_k(
    recommendations: Sequence[str], heldout: Iterable[str], k: int
) -> tuple[float, float]:
    """Precision and recall of the top-k recommendation ids.

    Precision divides by k (an engine that returns fewer than k items is
    penalized for the unfilled slots); recall divides by the heldout size.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = set(heldout)
    if not relevant:
        raise ValueError("heldout set is empty; skip such users upstream")
    hits = len(set(recommendations[:k]) & relevant)
    return hits / k, hits / len(relevant)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SynthCorpus:
    """A generated corpus in the ingest model, plus planted ground truth."""

    events: EventLog
    jobs: dict[str, JobRecord]
    embeddings: dict[str, np.ndarray]
    users: dict[str, UserRecord]
    cluster_of_job: dict[str, int] = field(default_factory=dict)
    cluster_of_user: dict[str, int] = field(default_factory=dict)
    cold_jobs: frozenset[str] = frozenset()
    reference_date: datetime = DEFAULT_REFERENCE_DATE
    window_days: int = 180


def synth_corpus(
    num_clusters: int,
    jobs_per_cluster: int,
    users: int,
    noise: float,
    seed: int,
    *,
    events_per_user: int = 8,
    expired_fraction: float = 0.1,
    cold_fraction: float = 0.0,
    embedding_dim: int = 16,
    reference_date: datetime = DEFAULT_REFERENCE_DATE,
    window_days: int = 180,
) -> SynthCorpus:
    """Generate a corpus with planted job clusters.

    Every user has a home cluster; each apply/email event (and each click
    session as a whole) targets the home cluster with probability
    ``1 - noise``, otherwise a uniformly random other cluster. Embeddings
    are per-cluster basis centroids plus small jitter, so within-cluster
    cosine similarity is near 1 and cross-cluster near 0. A ``cold``
    subset of active jobs per cluster receives no interactions at all.
    Fully deterministic under a non-negative ``seed``; timestamps are whole seconds.
    """
    if num_clusters < 1 or jobs_per_cluster < 1 or users < 0:
        raise ValueError("num_clusters, jobs_per_cluster must be >= 1, users >= 0")
    if seed < 0:  # random.Random would take -3 as 3
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must lie in [0, 1), got {noise}")
    if not 0.0 <= expired_fraction < 1.0 or not 0.0 <= cold_fraction < 1.0:
        raise ValueError("expired_fraction and cold_fraction must lie in [0, 1)")
    if embedding_dim < num_clusters:
        raise ValueError(
            f"embedding_dim {embedding_dim} < num_clusters {num_clusters}: "
            "centroids would not be separable"
        )
    if events_per_user < 1:
        raise ValueError(f"events_per_user must be >= 1, got {events_per_user}")
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
    if num_clusters > 1 and noise > 0 and jobs_per_cluster < 2:
        logger.warning("single-job clusters make co-statistics degenerate")

    rng = random.Random(seed)
    window_seconds = window_days * 86400

    jobs: dict[str, JobRecord] = {}
    embeddings: dict[str, np.ndarray] = {}
    cluster_of_job: dict[str, int] = {}
    eligible: list[list[str]] = []
    cold: list[str] = []
    centers = [
        (-50.0 + 100.0 * (c + 0.5) / num_clusters, -150.0 + 300.0 * (c + 0.5) / num_clusters)
        for c in range(num_clusters)
    ]
    for c in range(num_clusters):
        n_expired = int(round(jobs_per_cluster * expired_fraction))
        n_expired = min(n_expired, jobs_per_cluster - 1)
        ids = [f"j{c:02d}_{i:04d}" for i in range(jobs_per_cluster)]
        active_ids = ids[: jobs_per_cluster - n_expired]
        n_cold = int(round(len(active_ids) * cold_fraction))
        n_cold = min(n_cold, len(active_ids) - 1) if len(active_ids) > 1 else 0
        cold_here = set(rng.sample(active_ids, n_cold)) if n_cold else set()
        cold.extend(sorted(cold_here))
        pool = []
        for i, job_id in enumerate(ids):
            expired = i >= len(active_ids)
            if expired:
                posted_age = rng.randrange(window_seconds, 2 * window_seconds)
            else:
                posted_age = rng.randrange(0, int(window_seconds * 0.9) or 1)
            lat = centers[c][0] + rng.uniform(-0.1, 0.1)
            lon = centers[c][1] + rng.uniform(-0.1, 0.1)
            jobs[job_id] = JobRecord(
                job_id,
                f"Job {job_id}",
                f"cat{c:02d}",
                (lat, lon),
                reference_date - timedelta(seconds=posted_age),
                JobStatus.EXPIRED if expired else JobStatus.ACTIVE,
            )
            vec = np.zeros(embedding_dim)
            vec[c] = 1.0
            vec += np.array([rng.uniform(-0.05, 0.05) for _ in range(embedding_dim)])
            embeddings[job_id] = vec
            cluster_of_job[job_id] = c
            if job_id not in cold_here:
                pool.append(job_id)
        if not pool:
            raise ValueError(f"cluster {c} has no jobs eligible for interactions")
        eligible.append(pool)

    def pick_cluster(home: int) -> int:
        if num_clusters == 1 or rng.random() >= noise:
            return home
        other = rng.randrange(num_clusters - 1)
        return other if other < home else other + 1

    now_us = epoch_us(reference_date)

    def event_us() -> int:
        return now_us - rng.randrange(3600, window_seconds) * 10**6

    user_records: dict[str, UserRecord] = {}
    cluster_of_user: dict[str, int] = {}
    events = _Columns()
    apply, click, email = SignalKind.APPLY.code, SignalKind.CLICK.code, SignalKind.EMAIL_OPEN_NO_CLICK.code
    n_applies = max(1, round(events_per_user * 0.45))
    n_emails = round(events_per_user * 0.10)
    n_clicks = max(events_per_user - n_applies - n_emails, 0)

    for u in range(users):
        user_id = f"u{u:05d}"
        home = u % num_clusters
        cluster_of_user[user_id] = home
        lat = centers[home][0] + rng.uniform(-0.1, 0.1)
        lon = centers[home][1] + rng.uniform(-0.1, 0.1)
        user_records[user_id] = UserRecord(user_id, f"cat{home:02d}", (lat, lon), True)

        applied: set[str] = set()
        for _ in range(n_applies):
            pool = eligible[pick_cluster(home)]
            job_id = rng.choice(pool)
            for _ in range(4):
                if job_id not in applied:
                    break
                job_id = rng.choice(pool)
            applied.add(job_id)
            events.add(user_id, job_id, apply, event_us())

        remaining = n_clicks
        session_no = 0
        while remaining > 0:
            size = min(rng.randint(1, 3), remaining)
            pool = eligible[pick_cluster(home)]
            picked = rng.sample(pool, min(size, len(pool)))
            query_id = f"q{u:05d}_{session_no}"
            base = event_us()
            for i, job_id in enumerate(picked):
                events.add(user_id, job_id, click, base + i * rng.randrange(10, 120) * 10**6, [query_id])
            remaining -= size
            session_no += 1

        for _ in range(n_emails):
            pool = eligible[pick_cluster(home)]
            events.add(user_id, rng.choice(pool), email, event_us())

    return SynthCorpus(
        events.log(),
        jobs,
        embeddings,
        user_records,
        cluster_of_job,
        cluster_of_user,
        frozenset(cold),
        reference_date,
        window_days,
    )


def _latlon_fields(location: tuple[float, float] | None) -> tuple[str, str]:
    return (repr(location[0]), repr(location[1])) if location else ("", "")


def write_corpus(corpus: SynthCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write events.csv, jobs.csv, embeddings.txt and users.csv under
    ``out_dir`` in the ingest file formats; returns the paths written.
    A CSV field with leading or trailing whitespace, or a job id that is
    empty or holds whitespace (the embeddings file splits on it), raises
    ``ValueError``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": out / "events.csv",
        "jobs": out / "jobs.csv",
        "embeddings": out / "embeddings.txt",
        "users": out / "users.csv",
    }
    with paths["events"].open("w", encoding="utf-8") as fh:
        write_events(corpus.events, fh)
    with paths["jobs"].open("w", encoding="utf-8") as fh:
        write_rows(
            ((job_id, job.title, job.category, *_latlon_fields(job.location),
              format_timestamp(job.posted_at), job.status.value)
             for job_id, job in corpus.jobs.items()),
            fh,
        )
    with paths["embeddings"].open("w", encoding="utf-8") as fh:
        for job_id, vec in corpus.embeddings.items():
            if job_id.split() != [job_id]:
                raise ValueError(f"embeddings job id {job_id!r} is empty or holds whitespace")
            fh.write(job_id + " " + " ".join(repr(x) for x in vec.tolist()) + "\n")
    with paths["users"].open("w", encoding="utf-8") as fh:
        write_rows(
            ((user_id, u.resume_category or "", *_latlon_fields(u.location),
              "true" if u.registered else "false")
             for user_id, u in corpus.users.items()),
            fh,
        )
    return paths


# ---------------------------------------------------------------------------
# three-system offline comparison


@dataclass(frozen=True)
class SystemScore:
    """Macro-averaged metrics of one system over the evaluated users."""

    precision: float
    recall: float
    users_served: int


@dataclass(frozen=True)
class EvalReport:
    k: int
    num_users: int
    systems: dict[str, SystemScore]


KNOWN_SYSTEMS = ("graph", "cf", "mf")


def evaluate_systems(
    events: EventLog,
    jobs: Mapping[str, JobRecord],
    embeddings: Mapping[str, np.ndarray],
    users: Mapping[str, UserRecord],
    reference_date: datetime,
    *,
    systems: Sequence[str] = KNOWN_SYSTEMS,
    holdout_fraction: float = 0.3,
    k: int = 10,
    config: EngineConfig = EngineConfig(),
) -> EvalReport:
    """Hold out the latest applies per user and compare systems on the
    identical split.

    All systems read the same deduped train signals, the same per-user history
    exclusions, the same active-job candidate pool and the same list length
    ``k``, which overrides ``config.k`` (``min_recs`` is capped at it).
    Everything else (window, graph build, recommender, factorization and
    the split's seed) comes from ``config``. The users with a held-out
    apply are evaluated; a system that cannot serve one scores zero for
    that user (macro averaging). Systems are run one at a time, each
    model dropped before the next is built. An unknown system, or one
    named twice, raises ``ValueError``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for i, name in enumerate(systems):
        if name not in KNOWN_SYSTEMS:
            raise ValueError(f"unknown system {name!r}; expected subset of {KNOWN_SYSTEMS}")
        if name in systems[:i]:
            raise ValueError(f"system {name!r} named twice")
    windowed = window_filter(events, reference_date, config.window_days)
    resolved, _ = resolve_jobs(windowed, jobs)
    train_events, test_events = holdout_split(resolved, holdout_fraction, config.seed)

    heldout: dict[str, set[str]] = {}
    for u, j in zip(test_events.user.tolist(), test_events.job.tolist()):
        heldout.setdefault(test_events.users[u], set()).add(test_events.jobs[j])

    signals = dedupe(train_events)
    del windowed, resolved, train_events, test_events
    taxonomy = {j.category for j in jobs.values()}
    profiles = build_profiles(signals, users, taxonomy)
    active = active_job_ids(jobs)
    min_recs = None if config.min_recs is None else min(config.min_recs, k)
    rec_params = replace(config, k=k, min_recs=min_recs)
    # a fraction below 1 holds out floor(n * fraction) < n of a user's n applies, so every
    # held-out user keeps a train apply: a profile, a cf apply and a matrix row
    evaluated = len(heldout)
    users = sorted(heldout)

    def ranked_by(name: str) -> Iterable[list[str]]:
        """Each evaluated user's list from the model of ``name``, built here."""
        histories = (profiles[u].engaged_jobs() for u in users)
        if name == "graph":
            digraph, _, _ = build_digraph(signals, jobs, embeddings, config)
            lists = recommend_users([profiles[u] for u in users], digraph, jobs, embeddings, reference_date, rec_params)
            return ([r.job_id for r in recs] for recs in lists)
        if name == "cf":
            lists = cf_recommend(build_cf_index(signals), users, k, reference_date, exclude=histories, active_jobs=active)
        else:
            matrix = build_matrix(signals)
            if not matrix.entries:
                logger.warning("no +-1 entries in train split; mf baseline disabled")
                return ()
            model = als_train(
                matrix, config.mf_k, config.mf_reg, config.mf_iterations, seed=config.seed, implicit=config.mf_implicit
            )
            clicks = None
            if config.mf_implicit:  # the clicks als_train fit the implicit term over
                clicks = ([matrix.job_ids[j] for j in matrix.implicit.get(model.user_index[u], ())] for u in users)
            lists = recommend_mf(model, users, k, histories, active, clicks)
        return ([j for j, _ in ranked] for ranked in lists)

    scores = {}
    for name in systems:
        precision = recall = 0.0
        served = 0
        for user_id, ranked in zip(users, ranked_by(name)):
            if ranked:
                p, r = precision_recall_at_k(ranked, heldout[user_id], k)
                precision += p
                recall += r
                served += 1
        scores[name] = SystemScore(
            precision / evaluated if evaluated else 0.0, recall / evaluated if evaluated else 0.0, served
        )
    return EvalReport(k, evaluated, scores)


def format_report(report: EvalReport) -> str:
    """Plain-text rendering of an evaluation report."""
    lines = [f"evaluated users: {report.num_users}   k: {report.k}"]
    for name in sorted(report.systems):
        s = report.systems[name]
        lines.append(
            f"{name:>6}: precision@{report.k} {s.precision:.4f}  "
            f"recall@{report.k} {s.recall:.4f}  served {s.users_served}"
        )
    return "\n".join(lines)
