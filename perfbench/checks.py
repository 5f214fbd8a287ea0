"""Output checks made apart from the program.

Raw inputs are read with the csv module alone; edge scores are recomputed
from the definitions in the program's documentation; serving responses are
held to the invariants of the `recommend` docstring. Each check returns a
list of violations (empty when the output is correct).
"""

from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

# Documented engine defaults (README "Configuration").
W1, W2, W3, GAMMA = 0.5, 0.3, 0.2, 0.4
WINDOW_DAYS = 180
SESSION_GAP = timedelta(minutes=30)
TIER_ORDER = ("level1", "level2", "personalized_pagerank", "global_pagerank")
CORR_TOLERANCE = 1e-9


def parse_time(token: str) -> datetime:
    return datetime.strptime(token.strip(), "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def read_jobs(path: Path) -> dict[str, bool]:
    """job_id -> is the job active."""
    with open(path, newline="") as fh:
        return {row[0]: row[6].strip() == "active" for row in csv.reader(fh) if row}


def read_signals(events_path: Path, jobs, reference: datetime):
    """Windowed, job-resolved, distinct (user, job, kind) -> (latest ts, query ids)."""
    horizon = timedelta(days=WINDOW_DAYS)
    signals: dict[tuple[str, str, str], tuple[datetime, set[str]]] = {}
    with open(events_path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            user, job, kind, ts = row[0], row[1], row[2], parse_time(row[3])
            if job not in jobs or reference - ts >= horizon:
                continue
            query = row[4] if len(row) > 4 else ""
            prev_ts, queries = signals.get((user, job, kind), (ts, set()))
            if kind == "click" and query:
                queries.add(query)
            signals[(user, job, kind)] = (max(prev_ts, ts), queries)
    return signals


def histories(signals) -> dict[str, set[str]]:
    """Jobs each user applied to or clicked."""
    out: dict[str, set[str]] = {}
    for (user, job, kind) in signals:
        if kind in ("apply", "click"):
            out.setdefault(user, set()).add(job)
    return out


# ---------------------------------------------------------------------------
# build-content


def expected_out_edges(sources, signals, jobs, embeddings_path: Path) -> dict[str, dict[str, float]]:
    """Full out-edge set with corr for each source, recomputed from raw data:
    distinct-user co-apply and query-scoped co-click counts, per-job totals,
    cosine similarity cut at GAMMA, and the documented weighted sum."""
    appliers: dict[str, set[str]] = {}
    clickers: dict[str, set[str]] = {}
    clicks_of: dict[str, dict[str, tuple[datetime, set[str]]]] = {}
    for (user, job, kind), (ts, queries) in signals.items():
        if kind == "apply":
            appliers.setdefault(job, set()).add(user)
        elif kind == "click":
            clickers.setdefault(job, set()).add(user)
            clicks_of.setdefault(user, {})[job] = (ts, queries)

    def co_clicks(a: str, b: str) -> int:
        count = 0
        for user in clickers.get(a, set()) & clickers.get(b, set()):
            (ta, qa), (tb, qb) = clicks_of[user][a], clicks_of[user][b]
            if qa and qb:
                count += bool(qa & qb)
            elif not qa and not qb:
                count += abs(ta - tb) <= SESSION_GAP
        return count

    ids, vectors = [], []
    if embeddings_path.exists():
        with open(embeddings_path) as fh:
            for line in fh:
                parts = line.split()
                if parts:
                    ids.append(parts[0])
                    vectors.append([float(x) for x in parts[1:]])
    index = {job: i for i, job in enumerate(ids)}
    unit = np.array(vectors, dtype=np.float64) if ids else np.zeros((0, 1))
    if ids:
        unit = unit / np.linalg.norm(unit, axis=1)[:, None]

    out: dict[str, dict[str, float]] = {}
    for src in sources:
        sims = unit @ unit[index[src]] if src in index else None
        edges: dict[str, float] = {}
        for dst, active in jobs.items():
            if dst == src or not active:
                continue
            corr, evidence = 0.0, False
            for co, totals in (
                (len(appliers.get(src, set()) & appliers.get(dst, set())), appliers),
                (co_clicks(src, dst), clickers),
            ):
                if co > 0:
                    c_src, c_dst = len(totals[src]), len(totals[dst])
                    corr += W1 * co / c_src + W2 * math.log(co * co / (c_src * c_dst))
                    evidence = True
            if sims is not None and dst in index and sims[index[dst]] >= GAMMA:
                corr += W3 * float(sims[index[dst]])
                evidence = True
            if evidence:
                edges[dst] = corr
        out[src] = edges
    return out


def read_digraph(path: Path):
    """(destinations of every edge, src -> {dst: corr})."""
    dsts: set[str] = set()
    edges: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                dsts.add(row[1])
                edges.setdefault(row[0], {})[row[1]] = float(row[2])
    return dsts, edges


def check_build(dsts, edges, expected, jobs) -> list[str]:
    """Digraph destinations are active; the sampled sources' out-edge sets
    equal the recomputed ones and every corr agrees within tolerance."""
    problems = [f"destination {d} is not active" for d in sorted(dsts) if not jobs.get(d, False)]
    for src, want in expected.items():
        got = edges.get(src, {})
        if set(got) != set(want):
            extra, missing = sorted(set(got) - set(want)), sorted(set(want) - set(got))
            problems.append(f"{src}: edge set differs (extra {extra[:3]}, missing {missing[:3]})")
            continue
        for dst, corr in want.items():
            if abs(got[dst] - corr) > CORR_TOLERANCE:
                problems.append(f"{src}->{dst}: corr {got[dst]!r} != recomputed {corr!r}")
    return problems


# ---------------------------------------------------------------------------
# serve-mixed


def check_response(recs, k: int, history: set[str], active: set[str]) -> tuple[bool, list[str]]:
    """Hold one response, a list of (job_id, score, provenance), to the
    `recommend` invariants. Returns (serves an expired job, other violations)."""
    problems: list[str] = []
    jobs = [job for job, _, _ in recs]
    if len(recs) > k:
        problems.append(f"{len(recs)} entries > k={k}")
    if len(set(jobs)) != len(jobs):
        problems.append("duplicate entries")
    if set(jobs) & history:
        problems.append(f"history jobs served: {sorted(set(jobs) & history)[:3]}")
    rank = {tier: i for i, tier in enumerate(TIER_ORDER)}
    for (_, s1, p1), (_, s2, p2) in zip(recs, recs[1:]):
        if p1 not in rank or p2 not in rank:
            problems.append(f"unknown provenance {p1 if p1 not in rank else p2}")
        elif rank[p2] < rank[p1]:
            problems.append(f"tier {p2} after {p1}")
        elif p1 == p2 and s2 > s1:
            problems.append(f"scores increase within tier {p1}")
    expired = any(job not in active for job in jobs)
    return expired, problems


# ---------------------------------------------------------------------------
# evaluate-behavior


def evaluated_users(signals_raw_path: Path, jobs, reference: datetime, holdout: float) -> int:
    """Users whose holdout is non-empty: floor(applies * holdout) >= 1 over the
    windowed apply events on known jobs (duplicates included, as split)."""
    horizon = timedelta(days=WINDOW_DAYS)
    applies: dict[str, int] = {}
    with open(signals_raw_path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[2] == "apply" and row[1] in jobs and reference - parse_time(row[3]) < horizon:
                applies[row[0]] = applies.get(row[0], 0) + 1
    return sum(1 for n in applies.values() if math.floor(n * holdout) >= 1)


def check_evaluate(report: dict, expected_users: int, random_recall: float, loss_trace) -> list[str]:
    """Report counts and ranges, ALS monotonicity, and recall above a
    uniformly random list of active jobs for the graph and cf systems."""
    problems = []
    if report["num_users"] != expected_users:
        problems.append(f"evaluated {report['num_users']} users, raw events give {expected_users}")
    for name, s in report["systems"].items():
        for metric in ("precision", "recall"):
            if not 0.0 <= s[metric] <= 1.0:
                problems.append(f"{name} {metric} {s[metric]} outside [0, 1]")
        if s["users_served"] > report["num_users"]:
            problems.append(f"{name} served {s['users_served']} > {report['num_users']} users")
    for name in ("graph", "cf"):
        if report["systems"][name]["recall"] <= random_recall:
            problems.append(f"{name} recall {report['systems'][name]['recall']} <= random {random_recall}")
    values = [v for _, v in loss_trace]
    for i, (a, b) in enumerate(zip(values, values[1:])):
        if b > a + 1e-9 * max(1.0, abs(a)):
            problems.append(f"ALS loss rose at half-step {i + 1}: {a!r} -> {b!r}")
    return problems
