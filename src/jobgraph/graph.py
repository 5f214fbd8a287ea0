"""Job-job labeled multigraph built from deduplicated interaction signals.

Nodes are jobs labeled with global statistics (distinct appliers and
clickers); undirected multi-edges are labeled with co-statistics (how many
distinct users applied to both jobs, and how many clicked both jobs within
the same query scope). Zero-valued co-statistics pairs are not stored.
"""

from __future__ import annotations

import csv
import logging
from datetime import timedelta
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, TextIO

from .ingest import DedupedSignal, JobRecord, SignalKind

logger = logging.getLogger(__name__)


class NodeStats(NamedTuple):
    """Distinct-user interaction totals for one job."""

    total_apps: int = 0
    total_clicks: int = 0


class CoStats(NamedTuple):
    """Distinct-user co-interaction counts for one unordered job pair."""

    co_apps: int = 0
    co_clicks: int = 0


def _pair(i: str, j: str) -> tuple[str, str]:
    return (i, j) if i <= j else (j, i)


class JobMultiGraph:
    """Sparse multigraph: per-job stats plus co-stats keyed by unordered pair."""

    def __init__(self, nodes: dict[str, NodeStats], edges: dict[tuple[str, str], CoStats]):
        self.nodes = nodes
        self.edges = edges

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def stats(self, job_id: str) -> NodeStats:
        return self.nodes[job_id]

    def costats(self, i: str, j: str) -> CoStats:
        """Co-statistics for (i, j); order-independent, zero pair if absent."""
        return self.edges.get(_pair(i, j), CoStats())


def _clicks_cooccur(a: DedupedSignal, b: DedupedSignal, gap: timedelta) -> bool:
    """Two same-user clicks co-occur when they share a query id; clicks
    without query ids fall back to the session-gap heuristic. A click with
    query ids never pairs with one without."""
    if a.query_ids and b.query_ids:
        return bool(a.query_ids & b.query_ids)
    if not a.query_ids and not b.query_ids:
        return abs(a.timestamp - b.timestamp) <= gap
    return False


def build_costats(
    signals: Iterable[DedupedSignal],
    jobs: Mapping[str, JobRecord],
    session_gap_minutes: float = 30.0,
) -> JobMultiGraph:
    """Construct the multigraph from deduplicated, windowed signals.

    Counts are distinct-user counts, so co-counts never exceed either
    endpoint total. Every job in ``jobs`` becomes a node (active and
    expired alike); jobs without signals are isolated nodes.
    """
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

    co_apps: dict[tuple[str, str], int] = {}
    for jobs_applied in user_applies.values():
        for i, j in combinations(sorted(set(jobs_applied)), 2):
            key = (i, j)
            co_apps[key] = co_apps.get(key, 0) + 1

    co_clicks: dict[tuple[str, str], int] = {}
    for clicks in user_clicks.values():
        seen_pairs: set[tuple[str, str]] = set()
        for a, b in combinations(clicks, 2):
            if a.job_id == b.job_id:
                continue
            key = _pair(a.job_id, b.job_id)
            if key in seen_pairs:
                continue
            if _clicks_cooccur(a, b, gap):
                seen_pairs.add(key)
        for key in seen_pairs:
            co_clicks[key] = co_clicks.get(key, 0) + 1

    nodes = {
        job_id: NodeStats(len(appliers.get(job_id, ())), len(clickers.get(job_id, ())))
        for job_id in jobs
    }
    edges: dict[tuple[str, str], CoStats] = {}
    for key in set(co_apps) | set(co_clicks):
        edges[key] = CoStats(co_apps.get(key, 0), co_clicks.get(key, 0))
    return JobMultiGraph(nodes, edges)


def dump_graph(graph: JobMultiGraph, nodes_fh: TextIO, edges_fh: TextIO) -> None:
    """Write node stats and edge co-stats as CSV, sorted, re-loadable
    bit-exactly; job ids are quoted as ``csv.writer`` quotes them."""
    nodes = csv.writer(nodes_fh, lineterminator="\n")
    for job_id in sorted(graph.nodes):
        ns = graph.nodes[job_id]
        nodes.writerow([job_id, ns.total_apps, ns.total_clicks])
    edges = csv.writer(edges_fh, lineterminator="\n")
    for (i, j) in sorted(graph.edges):
        cs = graph.edges[(i, j)]
        edges.writerow([i, j, cs.co_apps, cs.co_clicks])


def load_graph(nodes_fh: Iterable[str], edges_fh: Iterable[str]) -> JobMultiGraph:
    nodes: dict[str, NodeStats] = {}
    for row in csv.reader(nodes_fh):
        if row:
            job_id, apps, clicks = row
            nodes[job_id] = NodeStats(int(apps), int(clicks))
    edges: dict[tuple[str, str], CoStats] = {}
    for row in csv.reader(edges_fh):
        if row:
            i, j, co_a, co_c = row
            edges[_pair(i, j)] = CoStats(int(co_a), int(co_c))
    return JobMultiGraph(nodes, edges)
