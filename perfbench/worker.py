"""Measured child processes of the benchmark.

    worker.py serve SPEC.json
        load an artifact as `serve-batch` does, print READY, then serve the
        corpus's request pass repeatedly and print one JSON result
    worker.py cli-loop SECONDS ARGS...
        import the program, print READY, then call `jobgraph ARGS...`
        in-process back to back, timing each call
    worker.py traced-cli time TRACE.json ARGS...
        TRACED_CALLS such calls with every public function traced, each
        after one untraced call, recording self times per traced call and
        the tracing overhead
    worker.py traced-cli memory TRACE.json ARGS...
        one traced call recording the peak memory of the MEMORY_SPANS

Run with the program's `src` on PYTHONPATH (see procs.child_env). Of the
benchmark's own modules only `tracer` (standard library only) is imported
up front, so a cli-loop set-up is the interpreter and the program's imports.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import os
import sys
import time
from pathlib import Path

from tracer import Tracer, per_operation

# Request latencies are kept for the first passes of each serving child
# only, so its memory does not grow with the number of passes it completes.
LATENCY_PASSES = 2
# Traced runs alternate untraced and traced operations in one process, so
# the tracing overhead is read from the fastest of each, on the same heap
# and in the same stretch of host speed.
TRACED_CALLS = 5
TRACED_PASSES = 10


def host_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: how fast this host runs
    Python at the moment. It is timed right after each measured step, and
    run.py divides the step's time by it (see README, "Host speed")."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(100_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - start


def _lines(path: Path) -> list[str]:
    with open(path) as fh:
        return fh.readlines()


class World:
    """What `serve-batch` holds before its first request: parsed inputs,
    the loaded digraph and the user profiles."""

    def __init__(self, corpus: Path, jobs_file: str):
        from inputs import REFERENCE_DATE, WINDOW_DAYS

        ing = importlib.import_module("jobgraph.ingest")
        scoring = importlib.import_module("jobgraph.scoring")
        rec = importlib.import_module("jobgraph.recommend")
        self.reference = ing.parse_timestamp(REFERENCE_DATE)
        events, _ = ing.parse_events(_lines(corpus / "events.csv"))
        self.jobs, _ = ing.parse_jobs(_lines(corpus / jobs_file))
        self.embeddings, _ = ing.parse_embeddings(_lines(corpus / "embeddings.txt"))
        users, _ = ing.parse_users(_lines(corpus / "users.csv"))
        windowed = ing.window_filter(events, self.reference, WINDOW_DAYS)
        signals = ing.dedupe(ing.resolve_jobs(windowed, self.jobs)[0])
        active = frozenset(j for j, r in self.jobs.items() if r.is_active)
        self.digraph = scoring.load_digraph(_lines(corpus / "artifact" / "digraph.csv"), active)
        taxonomy = {j.category for j in self.jobs.values()}
        self.profiles = rec.build_profiles(signals, users, taxonomy)


def serve(spec_path: str) -> None:
    """Closed loop, one client: repeat the fixed request pass of the corpus
    (requests.json) until the run length is over. With a trace path, serve
    TRACED_PASSES pairs of passes instead, the second of each pair traced;
    with `memory` set, trace the set-up for peak memory and stop there."""
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec.get("trace"):
        tracer = Tracer(memory=spec.get("memory", False))
        tracer.install()
    world = World(Path(spec["corpus"]), "jobs.csv")
    print("READY", flush=True)
    setup_loop = host_loop()
    if tracer:
        setup = tracer.summary()
        tracer.enabled = False
        if tracer.memory:
            tracer.write(Path(spec["trace"]), setup)
            print(json.dumps({"attempted": 0, "failed": 0, "problems": [], "problem_count": 0}))
            return

    import checks

    rec = importlib.import_module("jobgraph.recommend")
    config = importlib.import_module("jobgraph.config")
    params = config.EngineConfig().recommender_params()
    probe = World(Path(spec["probe"]), "jobs_serving.csv")
    truths = {
        name: (set(t["active"]), {user: set(jobs) for user, jobs in t["history"].items()})
        for name, t in json.loads(Path(spec["truths"]).read_text()).items()
    }
    requests = json.loads((Path(spec["corpus"]) / "requests.json").read_text())

    latency: dict[str, list[float]] = {kind: [] for kind, _ in requests}
    passes: list[float] = []
    loops: list[float] = []
    traced_passes: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        tracing = tracer is not None and (len(passes) + len(traced_passes)) % 2 == 1
        if tracer:
            tracer.enabled = tracing
        sampled = not tracing and len(passes) < LATENCY_PASSES
        busy = 0.0
        for kind, user_id in requests:
            w = probe if kind == "probe" else world
            profile = w.profiles.get(user_id)
            attempted += 1
            if profile is None:
                problems.append(f"{user_id}: no profile")
                continue
            start = time.perf_counter()
            recs = rec.recommend(profile, w.digraph, w.jobs, w.embeddings, w.reference, params)
            elapsed = time.perf_counter() - start
            busy += elapsed
            if sampled:
                latency[kind].append(elapsed * 1000.0)
            active, history = truths["probe" if kind == "probe" else "seeded"]
            expired, bad = checks.check_response(
                [(r.job_id, r.score, r.provenance.value) for r in recs],
                params.k, history.get(user_id, set()), active,
            )
            failed += expired
            problems += [f"{user_id}: {p}" for p in bad]
        if tracing:
            traced_passes.append(busy)
        else:
            passes.append(busy)
            loops.append(host_loop())
        if tracer:
            if len(traced_passes) >= TRACED_PASSES:
                break
        elif time.perf_counter() >= deadline:
            break

    if tracer:
        tracer.write(
            Path(spec["trace"]),
            per_operation(tracer.summary(), len(traced_passes), setup),
            overhead_s=min(traced_passes) - min(passes),
        )
    print(json.dumps({
        "passes": passes,
        "loops": loops,
        "setup_loop": setup_loop,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "problem_count": len(problems),
        "latency_ms": latency,
        "latency_passes": min(LATENCY_PASSES, len(passes)),
    }), flush=True)


def cli_loop(seconds: str, *args: str) -> None:
    """Import the program and print READY (the set-up: interpreter start and
    imports), then call `jobgraph ARGS...` in-process back to back for
    SECONDS, timing each call and the host loop after it and after READY."""
    cli = importlib.import_module("jobgraph.cli")
    print("READY", flush=True)
    setup_loop = host_loop()
    walls: list[float] = []
    loops: list[float] = []
    codes: list[int] = []
    deadline = time.perf_counter() + float(seconds)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while not walls or time.perf_counter() < deadline:
            gc.collect()  # every call starts from the same heap, as a fresh CLI run does
            start = time.perf_counter()
            codes.append(cli.main(list(args)))
            walls.append(time.perf_counter() - start)
            loops.append(host_loop())
    print(json.dumps({"walls": walls, "loops": loops, "setup_loop": setup_loop, "codes": codes}),
          flush=True)


def traced_cli(kind: str, trace_path: str, *args: str) -> None:
    tracer = Tracer(memory=kind == "memory")
    tracer.install()
    cli = importlib.import_module("jobgraph.cli")
    print("READY", flush=True)
    walls: dict[bool, list[float]] = {False: [], True: []}
    codes: list[int] = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for traced in [True] if tracer.memory else [False, True] * TRACED_CALLS:
            tracer.enabled = traced
            gc.collect()
            start = time.perf_counter()
            codes.append(cli.main(list(args)))
            walls[traced].append(time.perf_counter() - start)
    overhead = min(walls[True]) - min(walls[False]) if walls[False] else 0.0
    tracer.write(Path(trace_path), per_operation(tracer.summary(), len(walls[True])),
                 overhead_s=overhead)
    print(json.dumps({"walls": walls[False] + walls[True], "codes": codes}), flush=True)


def main(argv: list[str]) -> int:
    role, rest = argv[0], argv[1:]
    if role == "serve":
        serve(*rest)
    elif role == "cli-loop":
        cli_loop(*rest)
    elif role == "traced-cli":
        traced_cli(*rest)
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
