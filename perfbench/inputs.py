"""Seeded input preparation for the three workloads.

Every corpus comes from the program's own `synth_corpus`/`write_corpus`;
the serving pools are appended to its files as extra records. Inputs and
the serving artifacts are cached under `perfbench/.work/`, keyed by the
workload, the seed and the shape, and are made before any timed run.
"""

from __future__ import annotations

import json
import random
import shutil
from datetime import timedelta
from pathlib import Path

from jobgraph.evaluation import DEFAULT_REFERENCE_DATE, synth_corpus, write_corpus
from jobgraph.ingest import format_timestamp

import procs

WORK = procs.BENCH / ".work"
REFERENCE_DATE = format_timestamp(DEFAULT_REFERENCE_DATE)
WINDOW_DAYS = 180

# Content-dominated nightly corpus: every job has an embedding, so most
# digraph edges are same-cluster content pairs. Also the serving corpus.
CONTENT_SHAPE = {
    "num_clusters": 10,
    "jobs_per_cluster": 50,
    "users": 600,
    "noise": 0.1,
    "events_per_user": 8,
    "embedding_dim": 32,
}
# Behaviour-only evaluation corpus: no embeddings file, more events per user.
# Three ALS iterations instead of ten keep the per-user calls, not ALS
# training, the larger share of an evaluation at this small size, as they
# are with thousands of users.
EVALUATE_CONFIG = "mf_iterations = 3\n"
BEHAVIOR_SHAPE = {
    "num_clusters": 10,
    "jobs_per_cluster": 30,
    "users": 300,
    "noise": 0.1,
    "events_per_user": 12,
    "embedding_dim": 16,
}
# One serving pass: these requests per user type plus one per probe user,
# in one seeded shuffle. The pools appended to the content corpus hold
# exactly the users one pass requests. No traffic shares are given for the
# program, so the mix is an assumption: mostly active users, with just
# enough passive and anonymous requests that each serving path (level1,
# personalized PageRank, global PageRank) takes a visible share of a pass.
PASS_MIX = {"active": 192, "passive_resume": 10, "passive_history": 5, "anonymous": 2}
HISTORY_EMAILS = 3
# The serving catalogue (jobs, embeddings, the corpus users and their events)
# is one fixed corpus; --seed draws the requested users, the appended pools
# and the request order. A personalized PageRank costs 12 iterations inside
# one cluster and about 100 across clusters joined by positive cross-cluster
# edges, and corpus seeds 0-20 have 0 to 8 such edges, so with a seeded
# catalogue the pass time followed that draw (up to 1.8x between seeds).
# Seed 2 is the first with the median count, 5.
SERVE_CATALOGUE_SEED = 2

# The stale-artifact slice of the serving traffic: a fixed tiny corpus whose
# artifact was built before a share of its jobs expired. It never depends on
# the workload seed, so the requests that fail on it fail in every run.
PROBE_SEED = 20170601
PROBE_SHAPE = {
    "num_clusters": 4,
    "jobs_per_cluster": 25,
    "users": 200,
    "noise": 0.1,
    "events_per_user": 8,
    "embedding_dim": 16,
}
PROBE_EXPIRED_SHARE = 0.02
# The first users of the probe corpus, asked once per pass: the fewest
# leading users among which one is served an expired job today.
PROBE_USERS = 9


def _cached(name: str, key: dict, make) -> Path:
    """Return `WORK/name`, (re)making it with `make(dir)` unless a complete
    copy for the same key is there. Other seeds of the same workload are
    removed, so the cache holds one corpus per workload."""
    out = WORK / name
    stamp = out / "ready.json"
    if stamp.exists() and json.loads(stamp.read_text()) == key:
        return out
    prefix = name.split("-seed")[0] + "-seed"
    if WORK.exists():
        for old in WORK.iterdir():
            if old.name.startswith(prefix) or old == out:
                shutil.rmtree(old)
    out.mkdir(parents=True)
    make(out)
    stamp.write_text(json.dumps(key))
    return out


def _build_artifact(corpus: Path) -> None:
    _, _, code, _ = procs.Child(
        procs.cli(
            "build", "--quiet",
            "--events", str(corpus / "events.csv"),
            "--jobs", str(corpus / "jobs.csv"),
            "--embeddings", str(corpus / "embeddings.txt"),
            "--reference-date", REFERENCE_DATE,
            "--out-dir", str(corpus / "artifact"),
        ),
        corpus / "prepare.log",
    ).finish()
    if code != 0:
        raise RuntimeError(f"artifact build failed (exit {code}); see {corpus / 'prepare.log'}")


def content_corpus(seed: int) -> Path:
    """events.csv, jobs.csv, embeddings.txt for the nightly build."""

    def make(out: Path) -> None:
        write_corpus(synth_corpus(seed=seed, **CONTENT_SHAPE), out)
        (out / "users.csv").unlink()

    return _cached(f"build-content-seed{seed}", {"seed": seed, **CONTENT_SHAPE}, make)


def behavior_corpus(seed: int) -> Path:
    """events.csv, jobs.csv, users.csv with embeddings omitted, and jobgraph.conf."""

    def make(out: Path) -> None:
        write_corpus(synth_corpus(seed=seed, **BEHAVIOR_SHAPE), out)
        (out / "embeddings.txt").unlink()
        (out / "jobgraph.conf").write_text(EVALUATE_CONFIG)

    key = {"seed": seed, **BEHAVIOR_SHAPE, "config": EVALUATE_CONFIG}
    return _cached(f"evaluate-behavior-seed{seed}", key, make)


def _append_pools(corpus, out: Path, rng: random.Random) -> dict[str, list[str]]:
    """Append passive and anonymous users to users.csv (and the expired
    email-only histories to events.csv); returns the pools by user type."""
    jobs_by_category: dict[str, list] = {}
    for job in corpus.jobs.values():
        jobs_by_category.setdefault(job.category, []).append(job)
    categories = sorted(jobs_by_category)
    expired: dict[str, list[str]] = {}
    for job_id, rec in sorted(corpus.jobs.items()):
        if not rec.is_active:
            expired.setdefault(rec.category, []).append(job_id)
    window_s = WINDOW_DAYS * 86400

    def location() -> str:
        job = rng.choice(jobs_by_category[rng.choice(categories)])
        lat, lon = job.location
        return f"{lat + rng.uniform(-0.2, 0.2)!r},{lon + rng.uniform(-0.2, 0.2)!r}"

    pools: dict[str, list[str]] = {"active": rng.sample(sorted(corpus.users), PASS_MIX["active"])}
    user_lines: list[str] = []
    event_lines: list[str] = []
    for kind, tag in (("passive_resume", "pr"), ("passive_history", "ph"), ("anonymous", "an")):
        ids = [f"{tag}{i:05d}" for i in range(PASS_MIX[kind])]
        pools[kind] = ids
        for i, user_id in enumerate(ids):
            # Resume categories spread evenly over the taxonomy: the cost of
            # a passive request depends on its category's part of the
            # digraph, so a seeded choice of a few would set the pass time.
            category = "" if kind == "anonymous" else categories[i * len(categories) // len(ids)]
            registered = "false" if kind == "anonymous" else "true"
            user_lines.append(f"{user_id},{category},{location()},{registered}\n")
            if kind == "passive_history":
                # Emailed jobs of the user's own field, as a resume-matched
                # alert would send.
                own = expired[category]
                for job_id in rng.sample(own, min(HISTORY_EMAILS, len(own))):
                    ts = DEFAULT_REFERENCE_DATE - timedelta(seconds=rng.randrange(3600, window_s))
                    event_lines.append(
                        f"{user_id},{job_id},email_open_no_click,{format_timestamp(ts)},\n"
                    )
    with (out / "users.csv").open("a") as fh:
        fh.writelines(user_lines)
    with (out / "events.csv").open("a") as fh:
        fh.writelines(event_lines)
    return pools


def _pass_requests(pools: dict[str, list[str]], probe: list[str], seed: int) -> list[list[str]]:
    """The fixed request sequence of one serving pass as [user type, user id]."""
    requests = [["probe", u] for u in probe]
    for kind, users in pools.items():
        requests += [[kind, user_id] for user_id in users]
    random.Random(seed).shuffle(requests)
    return requests


def serve_corpus(seed: int) -> Path:
    """The serving catalogue plus the serving pools of `seed`, with its
    artifact built by `jobgraph build`; requests.json is the request
    sequence of one pass, probe requests included."""
    probe = json.loads((probe_corpus() / "pools.json").read_text())["probe"]

    def make(out: Path) -> None:
        corpus = synth_corpus(seed=SERVE_CATALOGUE_SEED, **CONTENT_SHAPE)
        write_corpus(corpus, out)
        pools = _append_pools(corpus, out, random.Random(seed))
        (out / "requests.json").write_text(json.dumps(_pass_requests(pools, probe, seed)))
        _build_artifact(out)

    key = {"seed": seed, "catalogue": SERVE_CATALOGUE_SEED, **CONTENT_SHAPE, **PASS_MIX,
           "history_emails": HISTORY_EMAILS, "probe": probe}
    return _cached(f"serve-mixed-seed{seed}", key, make)


def probe_corpus() -> Path:
    """Fixed corpus whose artifact predates the expiry of a share of its
    active jobs: jobs_serving.csv is jobs.csv with those jobs expired."""

    def make(out: Path) -> None:
        corpus = synth_corpus(seed=PROBE_SEED, **PROBE_SHAPE)
        write_corpus(corpus, out)
        _build_artifact(out)
        active = sorted(j for j, rec in corpus.jobs.items() if rec.is_active)
        count = max(1, round(PROBE_EXPIRED_SHARE * len(corpus.jobs)))
        gone = set(random.Random(PROBE_SEED).sample(active, count))
        lines = (out / "jobs.csv").read_text().splitlines(keepends=True)
        with (out / "jobs_serving.csv").open("w") as fh:
            for line in lines:
                if line.split(",", 1)[0] in gone:
                    line = line.replace(",active\n", ",expired\n")
                fh.write(line)
        users = sorted(corpus.users)[:PROBE_USERS]
        (out / "pools.json").write_text(json.dumps({"probe": users, "expired_after_build": sorted(gone)}))

    key = {"seed": PROBE_SEED, **PROBE_SHAPE, "share": PROBE_EXPIRED_SHARE, "users": PROBE_USERS}
    return _cached("probe", key, make)
