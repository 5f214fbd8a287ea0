"""Job-job labeled multigraph built from deduplicated interaction signals.

Nodes are jobs labeled with global statistics (distinct appliers and
clickers); undirected multi-edges are labeled with co-statistics (how many
distinct users applied to both jobs, and how many clicked both jobs within
the same query scope). Zero-valued co-statistics pairs are not stored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import timedelta
from typing import Iterable, Mapping, TextIO

import numpy as np

from .ingest import EventLog, JobRecord, SignalKind, _distinct, _run_heads


@dataclass(frozen=True, eq=False)
class CoPairs:
    """The multigraph as arrays: job ``ids[i]`` has ``total_apps[i]``
    distinct appliers and ``total_clicks[i]`` distinct clickers, and jobs
    ``ids[a[k]]`` and ``ids[b[k]]`` have ``co_apps[k]`` and ``co_clicks[k]``.

    ``ids`` are the job ids, sorted; ``a < b`` in every pair, and the pairs
    are sorted by ``(a, b)``, like those of :class:`scoring.ContentPairs`.
    """

    ids: list[str]
    total_apps: np.ndarray
    total_clicks: np.ndarray
    a: np.ndarray
    b: np.ndarray
    co_apps: np.ndarray
    co_clicks: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.a)


_MICROSECOND = timedelta(microseconds=1)


def build_costats(
    signals: EventLog,
    jobs: Mapping[str, JobRecord],
    session_gap_minutes: float = 30.0,
) -> CoPairs:
    """Construct the multigraph from deduplicated, windowed signals.

    Counts are distinct-user counts, so co-counts never exceed either
    endpoint total. Every job in ``jobs`` becomes a node (active and
    expired alike); jobs without signals are isolated nodes. Two clicks of
    a user co-occur when they share a query id; clicks without query ids
    co-occur when at most the session gap apart. A click with query ids
    never pairs with one without, and a job never pairs with itself. A
    signal for a job outside ``jobs`` raises ``KeyError``.
    """
    ids = sorted(jobs)
    n = max(len(ids), 1)  # the base of the (user, job) and (a, b) keys
    index = {job_id: i for i, job_id in enumerate(ids)}
    node = np.array([index.get(job_id, -1) for job_id in signals.jobs], dtype=np.int64)[signals.job]
    if (node < 0).any():
        unknown = signals.jobs[signals.job[np.argmax(node < 0)]]
        raise KeyError(f"signal references unknown job {unknown!r}")
    # (user, job) as user * n + job; scoped clicks as scope * n + job
    user_job = signals.user * n + node
    click = signals.kind == SignalKind.CLICK.code
    applies = _distinct(user_job[signals.kind == SignalKind.APPLY.code])
    clicks = _distinct(user_job[click])

    # co-apps: every two distinct jobs a user applied to, ascending
    i, j = _pairs_within(applies // n)
    app_pairs = applies[i] % n * n + applies[j] % n
    # co-clicks: every two distinct jobs of a (user, query id) scope, and
    # every two unscoped clicks of a user at most the gap apart
    scoped_click = click[signals.query_row]
    rows = signals.query_row[scoped_click]
    queries = max(len(signals.queries), 1)  # the base of the (user, query id) keys
    scope = signals.user[rows] * queries + signals.query[scoped_click]
    scopes = _distinct(scope)
    scoped = _distinct(np.searchsorted(scopes, scope) * n + node[rows])
    i, j = _pairs_within(scoped // n)
    click_user = [scopes[scoped[i] // n] // queries]
    click_a, click_b = [scoped[i] % n], [scoped[j] % n]
    scoped_row = np.zeros(len(signals), dtype=bool)
    scoped_row[signals.query_row] = True
    free = np.flatnonzero(click & ~scoped_row)
    unscoped, t = user_job[free], signals.time[free]
    order = np.lexsort((t, unscoped // n))
    unscoped, t = unscoped[order], t[order]
    i, j = _pairs_in_session(unscoped // n, t, timedelta(minutes=session_gap_minutes) // _MICROSECOND)
    differ = unscoped[i] != unscoped[j]
    i, j = i[differ], j[differ]
    click_user.append(unscoped[i] // n)
    click_a.append(np.minimum(unscoped[i], unscoped[j]) % n)
    click_b.append(np.maximum(unscoped[i], unscoped[j]) % n)
    # each pair once per user
    user, click_pairs = np.concatenate(click_user), np.concatenate(click_a) * n + np.concatenate(click_b)
    order = np.lexsort((click_pairs, user))
    user, click_pairs = user[order], click_pairs[order]
    click_pairs = click_pairs[_run_heads(user, click_pairs)]

    app_pairs, app_counts = _counted(app_pairs)
    click_pairs, click_counts = _counted(click_pairs)
    keys = _distinct(np.concatenate((app_pairs, click_pairs)))
    co_apps, co_clicks = np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=np.int64)
    co_apps[np.searchsorted(keys, app_pairs)] = app_counts
    co_clicks[np.searchsorted(keys, click_pairs)] = click_counts
    return CoPairs(
        ids,
        np.bincount(applies % n, minlength=len(ids)),
        np.bincount(clicks % n, minlength=len(ids)),
        (keys // n).astype(np.int32),
        (keys % n).astype(np.int32),
        co_apps,
        co_clicks,
    )


def _counted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and how often each occurs."""
    keys = np.sort(keys)
    starts = np.flatnonzero(_run_heads(keys))
    return keys[starts], np.diff(np.append(starts, len(keys)))


def _pairs_within(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)``, ``i < j``, of every two rows in one run of the
    sorted ``group``."""
    starts = np.flatnonzero(_run_heads(group))
    ends = np.append(starts, len(group))[1:]
    later = np.repeat(ends, ends - starts) - np.arange(len(group)) - 1  # rows after each in its run
    i = np.repeat(np.arange(len(group)), later)
    return i, i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)


def _pairs_in_session(user: np.ndarray, t: np.ndarray, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)``, ``i < j``, of every two rows of one user at
    most ``gap`` apart, of rows sorted by ``(user, t)``: row ``i`` pairs
    with the rows ``i + 1``, ``i + 2``, ... until the first too far."""
    pairs_i, pairs_j = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    i, step = np.arange(len(user) - 1), 1
    while len(i):
        i = i[(user[i + step] == user[i]) & (t[i + step] - t[i] <= gap)]
        pairs_i.append(i)
        pairs_j.append(i + step)
        step += 1
        i = i[i + step < len(user)]
    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def dump_graph(graph: CoPairs, nodes_fh: TextIO, edges_fh: TextIO) -> None:
    """Write node stats and edge co-stats as CSV, sorted, re-loadable
    bit-exactly; job ids are quoted as ``csv.writer`` quotes them."""
    ids = graph.ids
    nodes = zip(ids, graph.total_apps.tolist(), graph.total_clicks.tolist())
    csv.writer(nodes_fh, lineterminator="\n").writerows(nodes)
    a, b = [ids[i] for i in graph.a.tolist()], [ids[i] for i in graph.b.tolist()]
    edges = zip(a, b, graph.co_apps.tolist(), graph.co_clicks.tolist())
    csv.writer(edges_fh, lineterminator="\n").writerows(edges)


def load_graph(nodes_fh: Iterable[str], edges_fh: Iterable[str]) -> CoPairs:
    """Reload a :func:`dump_graph` dump."""
    nodes = sorted(row for row in csv.reader(nodes_fh) if row)
    index = {row[0]: i for i, row in enumerate(nodes)}
    totals = np.array([(int(apps), int(clicks)) for _, apps, clicks in nodes], dtype=np.int64).reshape(-1, 2)
    edges = sorted(
        (*sorted((index[i], index[j])), int(co_apps), int(co_clicks))
        for i, j, co_apps, co_clicks in filter(None, csv.reader(edges_fh))
    )
    edges = np.array(edges, dtype=np.int64).reshape(-1, 4)
    return CoPairs([row[0] for row in nodes], *totals.T, *edges[:, :2].T.astype(np.int32), *edges[:, 2:].T)
