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
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import EngineConfig
from .graph import CoPairs
from .ingest import (
    InteractionEvent,
    JobRecord,
    JobStatus,
    SignalKind,
    UserRecord,
    active_job_ids,
    dedupe,
    format_timestamp,
    resolve_jobs,
    window_filter,
    write_events,
    write_rows,
)
from .mf import als_train, build_matrix, recommend_mf
from .recommend import build_profiles, recommend
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


@dataclass
class CfIndex:
    """Prebuilt apply-history index shared across cf_recommend queries.

    ``appliers_of`` lists each job's distinct appliers newest-first;
    ``applied_by`` maps a user to their distinct applied jobs with the
    latest apply timestamp of each.
    """

    appliers_of: dict[str, list[tuple[datetime, str]]]
    applied_by: dict[str, list[tuple[str, datetime]]]


def build_cf_index(events: Iterable[InteractionEvent]) -> CfIndex:
    latest: dict[tuple[str, str], datetime] = {}
    for e in events:
        if e.kind is not SignalKind.APPLY:
            continue
        key = (e.user_id, e.job_id)
        if key not in latest or e.timestamp > latest[key]:
            latest[key] = e.timestamp
    appliers_of: dict[str, list[tuple[datetime, str]]] = {}
    applied_by: dict[str, list[tuple[str, datetime]]] = {}
    for (u, j), ts in latest.items():
        appliers_of.setdefault(j, []).append((ts, u))
        applied_by.setdefault(u, []).append((j, ts))
    for entries in appliers_of.values():
        entries.sort(key=lambda p: (-p[0].timestamp(), p[1]))
    return CfIndex(appliers_of, applied_by)


def cf_recommend(
    index: CfIndex,
    user_id: str,
    k: int,
    reference_date: datetime,
    *,
    window_applicants: int = 50,
    decay: float = 0.05,
    exclude: Iterable[str] = (),
    active_jobs: Iterable[str] | None = None,
) -> list[tuple[str, float]]:
    """User-based CF over applications only.

    For each job the user applied to, take that job's most recent
    ``window_applicants`` distinct appliers; candidate jobs are everything
    those appliers applied to, scored by recency-weighted frequency
    ``sum(exp(-decay * age_days))`` over the contributing applies, ages
    taken at ``reference_date``. The user's own applied jobs (and any extra
    ``exclude`` ids) never appear. A user with no applies gets an empty list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    own = {j for j, _ in index.applied_by.get(user_id, ())}
    if not own:
        return []
    banned = own | set(exclude)
    allowed = None
    if active_jobs is not None:
        allowed = active_jobs if isinstance(active_jobs, AbstractSet) else set(active_jobs)

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

    scores: dict[str, float] = {}
    # sorted: a set's order, and so the float sums, follow the string hash seed
    for other in sorted(neighbors):
        for job_id, ts in index.applied_by.get(other, ()):
            if job_id in banned or (allowed is not None and job_id not in allowed):
                continue
            age = max((reference_date - ts).total_seconds() / 86400.0, 0.0)
            scores[job_id] = scores.get(job_id, 0.0) + math.exp(-decay * age)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


# ---------------------------------------------------------------------------
# holdout split and metrics


def holdout_split(
    events: Sequence[InteractionEvent], fraction: float, seed: int = 0
) -> tuple[list[InteractionEvent], list[InteractionEvent]]:
    """Per-user temporal split of apply events.

    The latest ``floor(n * fraction)`` of each user's n applies are held
    out; every other event (earlier applies, all clicks and email signals)
    stays in train. Equal timestamps are ordered by a seeded checksum so
    the split is deterministic yet unbiased by input order. The two sides
    partition the apply events exactly.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    by_user: dict[str, list[InteractionEvent]] = {}
    for e in events:
        if e.kind is SignalKind.APPLY:
            by_user.setdefault(e.user_id, []).append(e)

    held: set[int] = set()
    for user_id, applies in by_user.items():
        h = math.floor(len(applies) * fraction)
        if h == 0:
            continue
        def order(e: InteractionEvent) -> tuple:
            tag = f"{seed}|{e.user_id}|{e.job_id}|{format_timestamp(e.timestamp)}"
            return (e.timestamp, zlib.crc32(tag.encode()), e.job_id)
        ranked = sorted(applies, key=order, reverse=True)
        held.update(id(e) for e in ranked[:h])

    train: list[InteractionEvent] = []
    test: list[InteractionEvent] = []
    for e in events:
        if e.kind is SignalKind.APPLY and id(e) in held:
            test.append(e)
        else:
            train.append(e)
    return train, test


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

    events: list[InteractionEvent]
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
    Fully deterministic under ``seed``; timestamps are whole seconds.
    """
    if num_clusters < 1 or jobs_per_cluster < 1 or users < 0:
        raise ValueError("num_clusters, jobs_per_cluster must be >= 1, users >= 0")
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

    def event_ts() -> datetime:
        return reference_date - timedelta(seconds=rng.randrange(3600, window_seconds))

    user_records: dict[str, UserRecord] = {}
    cluster_of_user: dict[str, int] = {}
    events: list[InteractionEvent] = []
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
            events.append(
                InteractionEvent(user_id, job_id, SignalKind.APPLY, event_ts())
            )

        remaining = n_clicks
        session_no = 0
        while remaining > 0:
            size = min(rng.randint(1, 3), remaining)
            pool = eligible[pick_cluster(home)]
            picked = rng.sample(pool, min(size, len(pool)))
            query_id = f"q{u:05d}_{session_no}"
            base = event_ts()
            for i, job_id in enumerate(picked):
                ts = base + timedelta(seconds=i * rng.randrange(10, 120))
                events.append(
                    InteractionEvent(user_id, job_id, SignalKind.CLICK, ts, query_id)
                )
            remaining -= size
            session_no += 1

        for _ in range(n_emails):
            pool = eligible[pick_cluster(home)]
            events.append(
                InteractionEvent(
                    user_id, rng.choice(pool), SignalKind.EMAIL_OPEN_NO_CLICK, event_ts()
                )
            )

    return SynthCorpus(
        events,
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
    events: Sequence[InteractionEvent],
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

    All systems see the same train events, the same per-user history
    exclusions, the same active-job candidate pool and the same list length
    ``k``, which overrides ``config.k`` (``min_recs`` is capped at it).
    Everything else (window, graph build, recommender, factorization and
    the split's seed) comes from ``config``. Users whose entire holdout is
    empty are skipped; a system that cannot serve an evaluated user scores
    zero for that user (macro averaging).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for name in systems:
        if name not in KNOWN_SYSTEMS:
            raise ValueError(f"unknown system {name!r}; expected subset of {KNOWN_SYSTEMS}")
    windowed = window_filter(events, reference_date, config.window_days)
    resolved, _ = resolve_jobs(windowed, jobs)
    train_events, test_events = holdout_split(resolved, holdout_fraction, config.seed)

    heldout: dict[str, set[str]] = {}
    for e in test_events:
        heldout.setdefault(e.user_id, set()).add(e.job_id)

    signals = dedupe(train_events)
    taxonomy = {j.category for j in jobs.values()}
    profiles = build_profiles(signals, users, taxonomy)
    active = active_job_ids(jobs)
    min_recs = None if config.min_recs is None else min(config.min_recs, k)
    rec_params = replace(config, k=k, min_recs=min_recs)

    digraph = None
    if "graph" in systems:
        digraph, _, _ = build_digraph(signals, jobs, embeddings, config)

    model = None
    if "mf" in systems:
        matrix = build_matrix(signals)
        if matrix.entries:
            model = als_train(
                matrix,
                config.mf_k,
                config.mf_reg,
                config.mf_iterations,
                seed=config.seed,
                implicit=config.mf_implicit,
            )
        else:
            logger.warning("no +-1 entries in train split; mf baseline disabled")

    cf_index = build_cf_index(train_events) if "cf" in systems else None
    totals = {name: [0.0, 0.0, 0] for name in systems}
    evaluated = 0
    for user_id in sorted(heldout):
        relevant = heldout[user_id]
        if not relevant:
            continue
        evaluated += 1
        profile = profiles.get(user_id)
        history = profile.engaged_jobs() if profile else set()
        for name in systems:
            ranked: list[str] = []
            if name == "graph" and profile is not None:
                recs = recommend(
                    profile, digraph, jobs, embeddings, reference_date, rec_params
                )
                ranked = [r.job_id for r in recs]
            elif name == "cf":
                ranked = [
                    j
                    for j, _ in cf_recommend(
                        cf_index,
                        user_id,
                        k,
                        reference_date,
                        exclude=history,
                        active_jobs=active,
                    )
                ]
            elif name == "mf" and model is not None and user_id in model.user_index:
                clicks = None
                if config.mf_implicit:  # the clicks als_train fit the implicit term over
                    clicks = sorted({i.job_id for i in profile.interactions if i.kind is SignalKind.CLICK})
                ranked = [
                    j
                    for j, _ in recommend_mf(
                        model, user_id, k, exclusions=history, active_jobs=active, implicit_items=clicks
                    )
                ]
            if ranked:
                precision, recall = precision_recall_at_k(ranked, relevant, k)
                totals[name][0] += precision
                totals[name][1] += recall
                totals[name][2] += 1

    scores = {
        name: SystemScore(
            totals[name][0] / evaluated if evaluated else 0.0,
            totals[name][1] / evaluated if evaluated else 0.0,
            totals[name][2],
        )
        for name in systems
    }
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
