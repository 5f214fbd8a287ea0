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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import EngineConfig
from .ingest import EventLog, JobRecord, SignalKind, UserRecord
from .ingest import _run_heads, _run_tails, _spans, elapsed_days, epoch_us
from .mf import blocks, top_k
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
    """A user's windowed signals reduced per job, plus resume category and location.

    ``engaged`` is (job_id, epoch microseconds of the latest apply or click) for each job
    applied to or clicked; ``seen`` is every job of any signal kind. Both are in job-id order.
    """

    user_id: str
    engaged: tuple[tuple[str, int], ...] = ()
    seen: tuple[str, ...] = ()
    resume_category: str | None = None
    location: tuple[float, float] | None = None

    def engaged_jobs(self) -> set[str]:
        """Jobs the user applied to or clicked (their interaction history)."""
        return {job_id for job_id, _ in self.engaged}


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
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))


def build_profiles(
    signals: EventLog,
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
    # each (user, job) cell's rows, ignored emails first and the applies and
    # clicks by time: the cell's last row holds its latest engagement, if any
    is_engaged = signals.kind != SignalKind.EMAIL_OPEN_NO_CLICK.code
    key = signals.user * len(signals.jobs) + signals.job
    order = np.lexsort((signals.time, is_engaged, key))
    rows = order[_run_tails(key[order])]
    user = signals.user[rows].tolist()
    job_ids = list(map(signals.jobs.__getitem__, signals.job[rows].tolist()))
    times, flags = signals.time[rows].tolist(), is_engaged[rows].tolist()
    bounds = np.flatnonzero(_run_heads(signals.user[rows])).tolist() + [len(rows)]
    reduced: dict[str, tuple[tuple[tuple[str, int], ...], tuple[str, ...]]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        seen = job_ids[lo:hi]
        reduced[signals.users[user[lo]]] = (
            tuple(itertools.compress(zip(seen, times[lo:hi]), flags[lo:hi])),
            tuple(seen),
        )
    profiles: dict[str, UserProfile] = {}
    for user_id in sorted(set(reduced) | set(users)):
        record = users.get(user_id)
        category = record.resume_category if record else None
        if category is not None and tax is not None and category not in tax:
            logger.warning(
                "user %s resume category %r not in jobs taxonomy; ignoring", user_id, category
            )
            category = None
        profiles[user_id] = UserProfile(
            user_id, *reduced.get(user_id, ((), ())), category, record.location if record else None
        )
    return profiles


def classify_user(profile: UserProfile) -> UserType:
    """Type 1 / 2 / 3 classification; ignored-email signals do not make a
    user active."""
    if profile.engaged:
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
    now = epoch_us(reference_date)
    return [(job_id, activity_score(elapsed_days(now, t), decay)) for job_id, t in profile.engaged]


def _hop(
    digraph: RecDigraph,
    starts: Sequence[Sequence[tuple[str, float]]],
    k: int,
    exclude: Iterable[Iterable[str]],
) -> list[list[tuple[str, float]]]:
    """One propagation hop for each user's (job_id, weight) starts, in order:
    each out-neighbor of a start job is scored ``weight * corr``, merged
    across the user's starts by max (of equal scores, ``0.0`` and ``-0.0``
    too, the first met in start then destination order); the starts and the
    user's entry of ``exclude`` are never candidates. Each user's top ``k``
    by (-score, job_id). Users are hopped a block at a time
    (:func:`~jobgraph.mf.blocks`) into one users x nodes array of scores,
    ranked by :func:`~jobgraph.mf.top_k`; ``exclude`` is read a block at a
    time, so it may be a generator.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    index, n = digraph.index, len(digraph.nodes)
    exclude = iter(exclude)
    ranked: list[list[tuple[str, float]]] = []
    for block in blocks(len(starts), n):
        users = starts[block]
        # the starts in the digraph, user after user, each user's in order
        known = [(b * n, index[j], w) for b, pairs in enumerate(users) for j, w in pairs if j in index]
        base = np.array([row for row, _, _ in known], dtype=np.intp)  # where the start's user's row begins
        node = np.array([i for _, i, _ in known], dtype=np.intp)
        weight = np.array([w for _, _, w in known], dtype=np.float64)
        span, rows = _spans(digraph.indptr[node], digraph.indptr[node + 1])
        cell = base[span] + digraph.dst[rows]
        score = weight[span] * digraph.corr[rows]
        best = np.full(len(users) * n, np.nan)  # NaN: not a candidate
        np.fmax.at(best, cell, score)
        if not score.all():
            # a max of 0.0 takes the first zero met: the head of its cell's run
            # of zeros in a stable sort (repeated-index assignment has no order)
            zero = np.flatnonzero(score == 0.0)
            zero = zero[best[cell[zero]] == 0.0]
            zero = zero[np.argsort(cell[zero], kind="stable")]
            zero = zero[_run_heads(cell[zero])]
            best[cell[zero]] = score[zero]
        best[base + node] = np.nan
        best = best.reshape(len(users), n)
        ranked += top_k(best, ~np.isnan(best), k, digraph.nodes, itertools.islice(exclude, len(users)), index)
    return ranked


def level1(
    digraph: RecDigraph,
    sources: Sequence[Sequence[tuple[str, float]]],
    k: int,
    exclude: Iterable[Iterable[str]] = (),
) -> list[list[tuple[str, float]]]:
    """Direct propagation for each user's sources, in order: each
    out-neighbor of a source job is scored ``activity * corr``, merged
    across the user's sources by max. Source jobs and the user's entry of
    ``exclude`` are never candidates (:func:`_hop`)."""
    return _hop(digraph, sources, k, exclude)


def level2(
    digraph: RecDigraph,
    level1_results: Sequence[Sequence[tuple[str, float]]],
    k: int,
    exclude: Iterable[Iterable[str]] = (),
) -> list[list[tuple[str, float]]]:
    """Second propagation hop for each user's level-1 list, in order: the
    first hop taken again from the level-1 candidates, so each successor of
    a level-1 job inherits the path score multiplied along the path,
    max-merged across paths. Jobs already recommended at level 1 and the
    user's entry of ``exclude`` are skipped (:func:`_hop`)."""
    return _hop(digraph, level1_results, k, exclude)


def _reached(walk: Walk, seeds: np.ndarray) -> np.ndarray:
    """Sorted indices of the jobs out-reachable from ``seeds`` over the
    walk's edges, the seeds included."""
    reached = np.zeros(len(walk.indptr) - 1, dtype=bool)
    reached[seeds] = True
    frontier = seeds
    while frontier.size:
        # a mask, not np.unique, which would import numpy.ma
        new = np.zeros_like(reached)
        new[walk.dst[_spans(walk.indptr[frontier], walk.indptr[frontier + 1])[1]]] = True
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
    span, rows = _spans(walk.indptr[reached], walk.indptr[reached + 1])
    src, dst, prob = reached[span], walk.dst[rows], walk.prob[rows]
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

    Walks on every call; :meth:`Catalogue.walk` keeps the result for
    serving.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    if not digraph.active_jobs:
        logger.warning("global pagerank on empty digraph")
        return PageRankResult({}, True, 0)
    return _pagerank(digraph, sorted(digraph.active_jobs), damping, epsilon)


def personalized_pagerank(
    digraph: RecDigraph,
    preference_jobs: Iterable[str],
    damping: float = 0.85,
    epsilon: float = 1e-10,
) -> PageRankResult:
    """PageRank whose restart mass is uniform over the preference jobs.

    Only jobs out-reachable from the preference set hold mass (dangling
    mass also returns to the preference set), so only they are listed.
    Walks on every call; :meth:`Catalogue.walk` keeps a resume category's
    walk for serving.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    prefs = sorted(set(preference_jobs) & digraph.active_jobs)
    if not prefs:
        logger.warning("preference set shares no jobs with the digraph")
        return PageRankResult({}, True, 0)
    return _pagerank(digraph, prefs, damping, epsilon)


def _point(location: tuple[float, float]) -> tuple[float, float, float]:
    """A (lat, lon) in degrees as its latitude and longitude in radians and
    the cosine of its latitude, the parts :func:`_distance_km` reads."""
    lat, lon = map(math.radians, location)
    return lat, lon, math.cos(lat)


def _distance_km(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """The haversine distance between two :func:`_point` parts, in kilometers."""
    lat1, lon1, cos_lat1 = a
    lat2, lon2, cos_lat2 = b
    h = math.sin((lat2 - lat1) / 2) ** 2 + cos_lat1 * cos_lat2 * math.sin((lon2 - lon1) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance between two (lat, lon) points in kilometers."""
    return _distance_km(_point(a), _point(b))


class Catalogue:
    """What serving reads of one jobs map and one embeddings map alone, each
    part built on first use and then kept: each category's active jobs, the
    active jobs that have an embedding with their stacked matrix and row
    norms, each located job's :func:`_point`, and the walks (:meth:`walk`)
    of the digraph that keeps it.

    It holds the two maps it was built from and reads them as they are then,
    so a caller who changes a job or an embedding passes a new map object
    (see :func:`_catalogue`).
    """

    def __init__(self, jobs: Mapping[str, JobRecord], embeddings: Mapping[str, np.ndarray]):
        self.jobs = jobs
        self.embeddings = embeddings
        self.walks: dict[tuple[str | None, float, float], PageRankResult] = {}

    def walk(self, digraph: RecDigraph, category: str | None, damping: float, epsilon: float) -> PageRankResult:
        """The global walk (``category`` None) or the walk restarting from
        the category's active jobs (topic-sensitive PageRank), run on first
        use and kept in :attr:`walks` under ``(category, damping, epsilon)``;
        the result is shared, so callers must not mutate it."""
        key = (category, damping, epsilon)
        if key not in self.walks:
            self.walks[key] = (
                global_pagerank(digraph, damping, epsilon)
                if category is None
                else personalized_pagerank(digraph, self.categories[category], damping, epsilon)
            )
        return self.walks[key]

    @functools.cached_property
    def categories(self) -> dict[str, frozenset[str]]:
        """Each category's active jobs."""
        members: dict[str, set[str]] = {}
        for job_id, record in self.jobs.items():
            if record.is_active:
                members.setdefault(record.category, set()).add(job_id)
        return {category: frozenset(ids) for category, ids in members.items()}

    @functools.cached_property
    def embeddable(self) -> list[str]:
        """The active jobs that have an embedding, in job-id order."""
        return sorted(j for j, rec in self.jobs.items() if rec.is_active and j in self.embeddings)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The embeddings of :attr:`embeddable`, a row each (ValueError if
        their dimensions differ)."""
        return np.stack([np.asarray(self.embeddings[j], dtype=np.float64) for j in self.embeddable])

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """The L2 norm of each row of :attr:`matrix`."""
        return np.linalg.norm(self.matrix, axis=1)

    @functools.cached_property
    def points(self) -> dict[str, tuple[float, float, float]]:
        """Each located job's :func:`_point`."""
        return {j: _point(rec.location) for j, rec in self.jobs.items() if rec.location is not None}

    def similarities(self, expired: Sequence[str]) -> Iterator[np.ndarray]:
        """The cosine of each of the ``expired`` jobs' embeddings with each
        row of :attr:`matrix`, a block of them (:func:`~jobgraph.mf.blocks`)
        at a time, a row each. The row sums reduce every row alike (BLAS
        mat-vec does not), so equal embeddings tie exactly, and a row's
        bits are those of the job's own ``(matrix * vec).sum(axis=1)``."""
        mat, norms = self.matrix, self.norms
        vecs, denoms = [], []
        for job_id in expired:
            vec = np.asarray(self.embeddings[job_id], dtype=np.float64)
            if vec.shape != mat.shape[1:]:
                raise ValueError(f"dimension mismatch: {vec.shape} vs {mat.shape[1:]}")
            denom = norms * np.linalg.norm(vec)
            if not denom.all():
                raise ValueError("zero-norm vector")
            vecs.append(vec)
            denoms.append(denom)
        for block in blocks(len(vecs), len(norms)):
            yield (mat * np.stack(vecs[block])[:, None, :]).sum(axis=2) / np.stack(denoms[block])

    def preference_parts(self, profile: UserProfile, m_similar: int) -> tuple[set[str], frozenset[str]]:
        """The two parts of :func:`preference_vector`: (a) the active jobs
        similar to the user's expired history and (b) the active jobs of the
        user's resume category."""
        jobs, embeddings = self.jobs, self.embeddings
        in_category = self.categories.get(profile.resume_category, frozenset())
        similar: set[str] = set()
        expired = [j for j in profile.seen if j in jobs and not jobs[j].is_active and j in embeddings]
        if expired and self.embeddable:
            # the stable sort of -sim over the job-id order of embeddable
            # breaks exact ties by job_id
            for sims in self.similarities(expired):
                top = np.argsort(-sims, axis=1, kind="stable")[:, :m_similar]
                similar.update(map(self.embeddable.__getitem__, top.ravel().tolist()))
        return similar, in_category

    def rerank(
        self,
        candidates: Sequence[tuple[str, float]],
        user_location: tuple[float, float] | None,
        radius_km: float,
        boost: float,
    ) -> list[tuple[str, float]]:
        """:func:`location_rerank` over this catalogue's jobs."""
        if boost < 1.0:
            raise ValueError(f"boost must be >= 1, got {boost}")
        if user_location is None or boost == 1.0:
            return list(candidates)
        user, points = _point(user_location), self.points
        rescored = []
        for job_id, score in candidates:
            point = points.get(job_id)
            if point is not None and _distance_km(user, point) <= radius_km:
                score = score * boost if score >= 0 else score / boost
            rescored.append((job_id, score))
        rescored.sort(key=lambda kv: (-kv[1], kv[0]))
        return rescored


def _catalogue(
    digraph: RecDigraph, jobs: Mapping[str, JobRecord], embeddings: Mapping[str, np.ndarray]
) -> Catalogue:
    """The :class:`Catalogue` of ``jobs`` and ``embeddings`` kept on the
    digraph (``digraph.catalogue``), built anew when either map is another
    object than the kept one was built from."""
    kept = digraph.catalogue
    if kept is None or kept.jobs is not jobs or kept.embeddings is not embeddings:
        kept = digraph.catalogue = Catalogue(jobs, embeddings)
    return kept


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
    similar, in_category = Catalogue(jobs, embeddings).preference_parts(profile, m_similar)
    return sorted(similar | in_category)


def location_rerank(
    candidates: Sequence[tuple[str, float]],
    user_location: tuple[float, float] | None,
    jobs: Mapping[str, JobRecord],
    radius_km: float = 80.0,
    boost: float = 1.25,
) -> list[tuple[str, float]]:
    """Boost candidates within ``radius_km`` of the user, then re-sort.

    A boost never lowers a score: a score >= 0 is multiplied by ``boost``,
    a negative one divided by it, so a nearby job never falls below a
    distant one of equal score. Never adds or removes candidates; a no-op without a
    user location.
    """
    located = {job_id: jobs[job_id] for job_id, _ in candidates if job_id in jobs}
    return Catalogue(located, {}).rerank(candidates, user_location, radius_km, boost)


def _pagerank_fill(
    result: PageRankResult, banned: set[str], slots: int
) -> list[tuple[str, float]]:
    """The first ``slots`` jobs of the ranked result outside ``banned``."""
    return list(itertools.islice((kv for kv in result.ranked if kv[0] not in banned), slots))


def recommend_users(
    profiles: Sequence[UserProfile],
    digraph: RecDigraph,
    jobs: Mapping[str, JobRecord],
    embeddings: Mapping[str, np.ndarray],
    reference_date: datetime,
    params: EngineConfig = EngineConfig(),
) -> Iterator[list[Recommendation]]:
    """Yield the ranked top-k list of each user of ``profiles`` (any type), in order.

    Users are taken a block at a time (:func:`~jobgraph.mf.blocks`): level 1
    ranks the block's active users in one call and level 2, in one more, those
    it leaves short; the random-walk fills and the location re-rank are per
    user. Each list is yielded once it is ranked, so a caller can write or
    score it and drop it before the next block.

    The digraph keeps the :class:`Catalogue` of ``jobs`` and ``embeddings``,
    which the preference seeds and the location re-rank read and which keeps
    the walks: a personalized fill whose seeds all lie in the user's resume
    category reads that category's walk, as the global fill reads the global
    walk; any other seed set is walked per request. It is keyed by the
    identity of the two mappings, so a caller who changes a job or an
    embedding passes a new mapping object, and its new catalogue walks again
    (no command changes the maps of a loaded digraph).

    Output invariants: only active jobs, never jobs from the user's
    apply/click history, no duplicates, scores non-increasing within each
    provenance tier, tiers ordered by strategy precedence.
    """
    k = params.k
    min_recs = params.min_recs if params.min_recs is not None else k
    if not digraph.active_jobs:
        logger.warning("empty digraph: no recommendations possible")
        yield from ([] for _ in profiles)
        return

    catalogue = _catalogue(digraph, jobs, embeddings)
    settings = (params.damping, params.pagerank_epsilon)
    for block in blocks(len(profiles), len(digraph.nodes)):
        users = profiles[block]
        histories = [profile.engaged_jobs() for profile in users]
        types = [classify_user(profile) for profile in users]
        active = [i for i, user_type in enumerate(types) if user_type is UserType.ACTIVE]
        sources = [sources_with_activity(users[i], reference_date, params.activity_decay) for i in active]
        # the sources are the history, which level 1 bans as its starts
        l1s = dict(zip(active, level1(digraph, sources, k) if active else ()))
        short = [i for i in active if len(l1s[i]) < min_recs]
        l2s = level2(digraph, [l1s[i] for i in short], k, [histories[i] for i in short]) if short else ()
        l2s = {i: l2[: k - len(l1s[i])] for i, l2 in zip(short, l2s)}
        # the tiers are disjoint and hold at most k jobs together: level 2 bans level 1's
        # jobs and is cut to the slots left, and a fill bans what is taken and fills the rest
        for i, (profile, history, user_type) in enumerate(zip(users, histories, types)):
            tiers = [tier for tier in ((Provenance.LEVEL1, l1s.get(i)), (Provenance.LEVEL2, l2s.get(i))) if tier[1]]
            taken = {job_id for _, entries in tiers for job_id, _ in entries}
            if user_type is not UserType.ACTIVE or len(taken) < min_recs:
                # personalized PageRank over the preference set if it serves any, else global
                banned = taken | history
                slots = k - len(taken)
                picked: list[tuple[str, float]] = []
                if user_type is not UserType.ANONYMOUS:
                    similar, in_category = catalogue.preference_parts(
                        profile, params.similar_actives_per_expired
                    )
                    if similar or in_category:
                        # seeds all in the resume category are that category's
                        # jobs, whose walk is kept; any other seed set is walked
                        ppr = (
                            catalogue.walk(digraph, profile.resume_category, *settings)
                            if in_category and similar <= in_category
                            else personalized_pagerank(digraph, similar | in_category, *settings)
                        )
                        picked = _pagerank_fill(ppr, banned, slots)
                if picked:
                    tiers.append((Provenance.PERSONALIZED_PAGERANK, picked))
                else:
                    gpr = catalogue.walk(digraph, None, *settings)
                    picked = _pagerank_fill(gpr, banned, slots)
                    if picked:
                        tiers.append((Provenance.GLOBAL_PAGERANK, picked))
            recs: list[Recommendation] = []
            for provenance, entries in tiers:
                reranked = catalogue.rerank(
                    entries, profile.location, params.location_radius_km, params.location_boost
                )
                recs.extend(Recommendation(job_id, score, provenance) for job_id, score in reranked)
            yield recs


def recommend(
    profile: UserProfile,
    digraph: RecDigraph,
    jobs: Mapping[str, JobRecord],
    embeddings: Mapping[str, np.ndarray],
    reference_date: datetime,
    params: EngineConfig = EngineConfig(),
) -> list[Recommendation]:
    """The ranked top-k list of one user (any type): :func:`recommend_users`
    of ``[profile]``, with the same invariants. The digraph keeps its
    catalogue index and walks between calls; pass a new ``jobs`` or
    ``embeddings`` mapping object, not a changed one, when either changes."""
    return next(recommend_users([profile], digraph, jobs, embeddings, reference_date, params))
