"""User classification and recommendation strategies over the rec digraph.

Users fall into three types by their windowed behavior: active users (at
least one apply or click) get graph propagation from their source jobs,
first over direct edges and then over two-hop paths with score
multiplication; users known only through a resume category get personalized
PageRank seeded from a preference set; anonymous users get global PageRank
over the active jobs. Candidates near the user's location are boosted
during a final re-rank.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import EngineConfig
from .ingest import DedupedSignal, JobRecord, SignalKind, UserRecord
from .scoring import RecDigraph, Walk

logger = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088


class UserType(Enum):
    ACTIVE = "active"
    PASSIVE_OR_NEW_WITH_PROFILE = "passive_or_new_with_profile"
    ANONYMOUS = "anonymous"


class Provenance(Enum):
    """Which strategy produced a recommendation entry."""

    LEVEL1 = "level1"
    LEVEL2 = "level2"
    PERSONALIZED_PAGERANK = "personalized_pagerank"
    GLOBAL_PAGERANK = "global_pagerank"


@dataclass(frozen=True)
class UserProfile:
    """A user's windowed, deduped signals plus resume category and location."""

    user_id: str
    interactions: tuple[DedupedSignal, ...] = ()
    resume_category: str | None = None
    location: tuple[float, float] | None = None

    def engaged_jobs(self) -> set[str]:
        """Jobs the user applied to or clicked (their interaction history)."""
        return {
            i.job_id
            for i in self.interactions
            if i.kind in (SignalKind.APPLY, SignalKind.CLICK)
        }


@dataclass(frozen=True)
class Recommendation:
    job_id: str
    score: float
    provenance: Provenance


@dataclass
class PageRankResult:
    """Scores per node plus convergence diagnostics."""

    scores: dict[str, float]
    converged: bool
    iterations: int

    @functools.cached_property
    def ranked(self) -> list[tuple[str, float]]:
        """(job_id, score) by (-score, job_id), built on first use."""
        return _top_k(self.scores, len(self.scores))


def build_profiles(
    signals: Sequence[DedupedSignal],
    users: Mapping[str, UserRecord] | None = None,
    taxonomy: Iterable[str] | None = None,
) -> dict[str, UserProfile]:
    """Assemble profiles from windowed deduped signals and the users corpus.

    Users present only in the events still get a profile (no resume, no
    location). A resume category outside the jobs taxonomy is treated as
    absent, with a warning.
    """
    users = users or {}
    tax = set(taxonomy) if taxonomy is not None else None
    interactions: dict[str, list[DedupedSignal]] = {}
    for s in signals:
        interactions.setdefault(s.user_id, []).append(s)
    profiles: dict[str, UserProfile] = {}
    for user_id in sorted(set(interactions) | set(users)):
        record = users.get(user_id)
        category = record.resume_category if record else None
        if category is not None and tax is not None and category not in tax:
            logger.warning(
                "user %s resume category %r not in jobs taxonomy; ignoring", user_id, category
            )
            category = None
        profiles[user_id] = UserProfile(
            user_id,
            tuple(interactions.get(user_id, ())),
            category,
            record.location if record else None,
        )
    return profiles


def classify_user(profile: UserProfile) -> UserType:
    """Type 1 / 2 / 3 classification; ignored-email signals do not make a
    user active."""
    if any(i.kind in (SignalKind.APPLY, SignalKind.CLICK) for i in profile.interactions):
        return UserType.ACTIVE
    if profile.resume_category is not None:
        return UserType.PASSIVE_OR_NEW_WITH_PROFILE
    return UserType.ANONYMOUS


def activity_score(age_days: float, decay: float = 0.05) -> float:
    """Recency weight ``exp(-decay * age_days)``; strictly decreasing in age."""
    if age_days < 0:
        raise ValueError(f"age_days must be non-negative, got {age_days}")
    return math.exp(-decay * age_days)


def sources_with_activity(
    profile: UserProfile, reference_date: datetime, decay: float = 0.05
) -> list[tuple[str, float]]:
    """The user's applied/clicked jobs, each weighted by the recency of the
    most recent interaction with it. Sorted by job_id."""
    best_age: dict[str, float] = {}
    for i in profile.interactions:
        if i.kind not in (SignalKind.APPLY, SignalKind.CLICK):
            continue
        age = max((reference_date - i.timestamp).total_seconds() / 86400.0, 0.0)
        if i.job_id not in best_age or age < best_age[i.job_id]:
            best_age[i.job_id] = age
    return [(job_id, activity_score(age, decay)) for job_id, age in sorted(best_age.items())]


def _top_k(candidates: Mapping[str, float], k: int) -> list[tuple[str, float]]:
    ranked = sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def _hop(
    digraph: RecDigraph,
    starts: Sequence[tuple[str, float]],
    k: int,
    exclude: Iterable[str],
) -> list[tuple[str, float]]:
    """One propagation hop: each out-neighbor of a start job is scored
    ``weight * corr``, merged across start jobs by max; the start jobs and
    ``exclude`` are never candidates. The top ``k`` by (-score, job_id)."""
    banned = set(exclude) | {job_id for job_id, _ in starts}
    candidates: dict[str, float] = {}
    for job_id, weight in starts:
        for dst, corr in digraph.out_corr(job_id):
            if dst in banned:
                continue
            score = weight * corr
            if dst not in candidates or score > candidates[dst]:
                candidates[dst] = score
    return _top_k(candidates, k)


def level1(
    digraph: RecDigraph,
    sources: Sequence[tuple[str, float]],
    k: int,
    exclude: Iterable[str] = (),
) -> list[tuple[str, float]]:
    """Direct propagation: each out-neighbor of a source job is scored
    ``activity * corr``, merged across sources by max. Source jobs are never
    candidates."""
    return _hop(digraph, sources, k, exclude)


def level2(
    digraph: RecDigraph,
    level1_results: Sequence[tuple[str, float]],
    k: int,
    exclude: Iterable[str] = (),
) -> list[tuple[str, float]]:
    """Second propagation hop: the first hop taken again from the level-1
    candidates, so each successor of a level-1 job inherits the path score
    multiplied along the path, max-merged across paths. Jobs already
    recommended at level 1 and jobs in ``exclude`` are skipped."""
    return _hop(digraph, level1_results, k, exclude)


def _span_rows(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge rows of the CSR spans of ``nodes``, span after span, in order,
    and the length of each span."""
    lo = indptr[nodes]
    counts = indptr[nodes + 1] - lo
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(lo - starts, counts), counts


def _reached(walk: Walk, seeds: np.ndarray) -> np.ndarray:
    """Sorted indices of the jobs out-reachable from ``seeds`` over the
    walk's edges, the seeds included."""
    reached = np.zeros(len(walk.indptr) - 1, dtype=bool)
    reached[seeds] = True
    frontier = seeds
    while frontier.size:
        # a mask, not np.unique, which would import numpy.ma
        new = np.zeros_like(reached)
        new[walk.dst[_span_rows(walk.indptr, frontier)[0]]] = True
        new &= ~reached
        frontier = np.flatnonzero(new)
        reached |= new
    return np.flatnonzero(reached)


def _iteration_cap(damping: float, epsilon: float) -> int:
    """Steps that always bring the L1 change of a step below ``epsilon``.

    The first step changes at most 2 (both vectors sum to 1), and each later
    change is at most ``damping`` times the one before, so step
    ``2 + ceil(log(epsilon/2) / log(damping))`` changes less than
    ``epsilon``: 148 steps at damping 0.85 and epsilon 1e-10.
    """
    return 2 + max(0, math.ceil(math.log(epsilon / 2.0) / math.log(damping)))


def _pagerank(
    digraph: RecDigraph,
    restart_jobs: Sequence[str],
    damping: float,
    epsilon: float,
    max_iters: int | None = None,
) -> PageRankResult:
    """Power iteration with restart mass uniform over ``restart_jobs``;
    dangling mass teleports to the restart distribution (so restarting from
    every active job is plain PageRank). Lists the jobs that hold mass,
    which are those out-reachable from the restart jobs over positive edges.

    The walk stops once a step changes less than ``epsilon`` in L1, or
    after ``max_iters`` steps, by default :func:`_iteration_cap`; at that
    cap only floating-point rounding can leave it unconverged.

    Only the edges out of reached jobs are walked. Every other edge moves
    the mass of a job that holds none, so it would add exactly ``+0.0`` to
    the flow; the vectors stay full-length, so every sum, the iteration
    count and the scores are those of a walk over all edges.
    """
    if max_iters is None:
        max_iters = _iteration_cap(damping, epsilon)
    walk = digraph.walk
    n = len(digraph.nodes)
    seeds = np.array([digraph.index[j] for j in restart_jobs], dtype=np.intp)
    restart = np.zeros(n)
    restart[seeds] = 1.0 / len(restart_jobs)
    reached = _reached(walk, seeds)
    rows, counts = _span_rows(walk.indptr, reached)
    src, dst, prob = np.repeat(reached, counts), walk.dst[rows], walk.prob[rows]
    teleport = (1.0 - damping) * restart

    x = restart.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        flow = np.bincount(dst, weights=x[src] * prob, minlength=n)
        dangling_mass = float(x[walk.dangling].sum())
        x_next = damping * (flow + dangling_mass * restart) + teleport
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        if delta < epsilon:
            converged = True
            break
    if not converged:
        logger.warning("pagerank did not converge within %d iterations", max_iters)
    scores = {
        digraph.nodes[i]: score for i, score in zip(reached.tolist(), x[reached].tolist()) if score > 0.0
    }
    return PageRankResult(scores, converged, iterations)


def global_pagerank(
    digraph: RecDigraph,
    damping: float = 0.85,
    epsilon: float = 1e-10,
) -> PageRankResult:
    """Popularity scores over all active jobs; scores sum to 1.

    Computed once per digraph and settings and kept on the digraph; the
    result is shared, so callers must not mutate it.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    if not digraph.active_jobs:
        logger.warning("global pagerank on empty digraph")
        return PageRankResult({}, True, 0)
    results = digraph.global_pagerank_results
    key = (damping, epsilon)
    if key not in results:
        results[key] = _pagerank(digraph, sorted(digraph.active_jobs), damping, epsilon)
    return results[key]


def personalized_pagerank(
    digraph: RecDigraph,
    preference_jobs: Iterable[str],
    damping: float = 0.85,
    epsilon: float = 1e-10,
) -> PageRankResult:
    """PageRank whose restart mass is uniform over the preference jobs.

    Only jobs out-reachable from the preference set hold mass (dangling
    mass also returns to the preference set), so only they are listed.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    prefs = sorted(set(preference_jobs) & digraph.active_jobs)
    if not prefs:
        logger.warning("preference set shares no jobs with the digraph")
        return PageRankResult({}, True, 0)
    return _pagerank(digraph, prefs, damping, epsilon)


def preference_vector(
    profile: UserProfile,
    jobs: Mapping[str, JobRecord],
    embeddings: Mapping[str, np.ndarray],
    m_similar: int = 5,
) -> list[str]:
    """Seed jobs for personalized PageRank.

    The union of (a) the ``m_similar`` active jobs most content-similar to
    each expired job in the user's history and (b) every active job whose
    category matches the user's resume category. Brand-new users (empty
    history) get (b) only; an empty result tells the caller to degrade to
    global recommendations.
    """
    prefs: set[str] = set()

    expired_history = sorted(
        {
            i.job_id
            for i in profile.interactions
            if i.job_id in jobs and not jobs[i.job_id].is_active and i.job_id in embeddings
        }
    )
    embeddable: list[str] = []
    if expired_history:  # only then are the active jobs sorted
        embeddable = sorted(j for j, rec in jobs.items() if rec.is_active and j in embeddings)
    if embeddable:
        # The cosine, one matrix-vector product per expired job. The
        # row sums reduce every row alike (BLAS mat-vec does not), so equal
        # embeddings tie exactly and the stable sort of -sim over the job-id
        # order of embeddable breaks the tie by job_id.
        mat = np.stack([np.asarray(embeddings[j], dtype=np.float64) for j in embeddable])
        norms = np.linalg.norm(mat, axis=1)
        for old_job in expired_history:
            vec = np.asarray(embeddings[old_job], dtype=np.float64)
            if vec.shape != mat.shape[1:]:
                raise ValueError(f"dimension mismatch: {vec.shape} vs {mat.shape[1:]}")
            denom = norms * np.linalg.norm(vec)
            if not denom.all():
                raise ValueError("zero-norm vector")
            sims = (mat * vec).sum(axis=1) / denom
            top = np.argsort(-sims, kind="stable")[:m_similar]
            prefs.update(embeddable[i] for i in top.tolist())

    if profile.resume_category is not None:
        prefs.update(j for j, rec in jobs.items() if rec.category == profile.resume_category and rec.is_active)

    return sorted(prefs)


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance between two (lat, lon) points in kilometers."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def location_rerank(
    candidates: Sequence[tuple[str, float]],
    user_location: tuple[float, float] | None,
    jobs: Mapping[str, JobRecord],
    radius_km: float = 80.0,
    boost: float = 1.25,
) -> list[tuple[str, float]]:
    """Boost candidates within ``radius_km`` of the user, then re-sort.

    Never adds or removes candidates; a no-op without a user location.
    """
    if boost < 1.0:
        raise ValueError(f"boost must be >= 1, got {boost}")
    if user_location is None or boost == 1.0:
        return list(candidates)

    def boosted(job_id: str, score: float) -> float:
        record = jobs.get(job_id)
        if record is None or record.location is None:
            return score
        if haversine_km(user_location, record.location) <= radius_km:
            return score * boost
        return score

    rescored = [(job_id, boosted(job_id, score)) for job_id, score in candidates]
    rescored.sort(key=lambda kv: (-kv[1], kv[0]))
    return rescored


def _pagerank_fill(
    result: PageRankResult, banned: set[str], slots: int
) -> list[tuple[str, float]]:
    """The first ``slots`` jobs of the ranked result outside ``banned``."""
    return list(itertools.islice((kv for kv in result.ranked if kv[0] not in banned), slots))


def recommend(
    profile: UserProfile,
    digraph: RecDigraph,
    jobs: Mapping[str, JobRecord],
    embeddings: Mapping[str, np.ndarray],
    reference_date: datetime,
    params: EngineConfig = EngineConfig(),
) -> list[Recommendation]:
    """Produce the ranked top-k list for one user (any type).

    Output invariants: only active jobs, never jobs from the user's
    apply/click history, no duplicates, scores non-increasing within each
    provenance tier, tiers ordered by strategy precedence.
    """
    k = params.k
    min_recs = params.min_recs if params.min_recs is not None else k
    if not digraph.active_jobs:
        logger.warning("empty digraph: no recommendations possible")
        return []

    history = profile.engaged_jobs()
    tiers: list[tuple[Provenance, list[tuple[str, float]]]] = []
    user_type = classify_user(profile)

    def fill_with_global(banned: set[str], slots: int) -> None:
        gpr = global_pagerank(digraph, params.damping, params.pagerank_epsilon)
        picked = _pagerank_fill(gpr, banned, slots)
        if picked:
            tiers.append((Provenance.GLOBAL_PAGERANK, picked))

    def fill_with_pagerank(taken: set[str], slots: int) -> None:
        """Personalized fill via the preference set, else global."""
        prefs = preference_vector(profile, jobs, embeddings, params.similar_actives_per_expired)
        banned = taken | history
        if prefs:
            ppr = personalized_pagerank(digraph, prefs, params.damping, params.pagerank_epsilon)
            picked = _pagerank_fill(ppr, banned, slots)
            if picked:
                tiers.append((Provenance.PERSONALIZED_PAGERANK, picked))
                return
        fill_with_global(banned, slots)

    if user_type is UserType.ACTIVE:
        sources = sources_with_activity(profile, reference_date, params.activity_decay)
        l1 = level1(digraph, sources, k, exclude=history)
        if l1:
            tiers.append((Provenance.LEVEL1, l1))
        taken = {job_id for job_id, _ in l1}
        if len(taken) < min_recs:
            l2 = level2(digraph, l1, k, exclude=history)
            l2 = l2[: k - len(taken)]
            if l2:
                tiers.append((Provenance.LEVEL2, l2))
            taken |= {job_id for job_id, _ in l2}
        if len(taken) < min_recs:
            fill_with_pagerank(taken, k - len(taken))
    elif user_type is UserType.PASSIVE_OR_NEW_WITH_PROFILE:
        fill_with_pagerank(set(), k)
    else:
        fill_with_global(history, k)

    out: list[Recommendation] = []
    seen: set[str] = set()
    for provenance, entries in tiers:
        reranked = location_rerank(
            entries, profile.location, jobs, params.location_radius_km, params.location_boost
        )
        for job_id, score in reranked:
            if job_id in seen or len(out) >= k:
                continue
            seen.add(job_id)
            out.append(Recommendation(job_id, score, provenance))
    return out
