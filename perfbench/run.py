"""jobgraph benchmark: nightly build, mixed-user serving, offline evaluation.

    python3 perfbench/run.py --workload build-content --seed 0 --seconds 30 --trace 0

Run from the repository root. Inputs are generated from --seed, every
measured step runs in a child process, outputs are checked, and the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced run. --workload all runs the three workloads one after another.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import procs

if not (procs.SRC / "jobgraph" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {procs.SRC}")
sys.path.insert(0, str(procs.SRC))

import checks  # noqa: E402
import inputs  # noqa: E402
from worker import host_loop  # noqa: E402

REFERENCE = checks.parse_time(inputs.REFERENCE_DATE)
WORKLOADS = ("build-content", "serve-mixed", "evaluate-behavior")
# Each run is split over this many measured children, each given an equal
# share of --seconds; every child's set-up is one sample of setup_s.
CHILDREN = 10
SAMPLED_SOURCES = 40
HOLDOUT = 0.3
EVAL_K = 10

LAYER_TIMES = {
    "ingest.parse_events_s": ["ingest.parse_events"],
    "ingest.parse_jobs_s": ["ingest.parse_jobs"],
    "ingest.parse_embeddings_s": ["ingest.parse_embeddings"],
    "ingest.parse_users_s": ["ingest.parse_users"],
    "ingest.window_dedupe_s": ["ingest.window_filter", "ingest.resolve_jobs", "ingest.dedupe"],
    "graph.build_costats_s": ["graph.build_costats"],
    "graph.dump_s": ["graph.dump_graph"],
    "scoring.content_edges_s": ["scoring.content_edges"],
    "scoring.aggregate_s": ["scoring.aggregate"],
    "scoring.dump_digraph_s": ["scoring.dump_digraph"],
    "scoring.load_digraph_s": ["scoring.load_digraph"],
    "evaluation.connectivity_report_s": ["evaluation.connectivity_report"],
    "evaluation.holdout_split_s": ["evaluation.holdout_split"],
    "evaluation.cf_index_s": ["evaluation.build_cf_index"],
    "evaluation.cf_recommend_s": ["evaluation.cf_recommend"],
    "recommend.build_profiles_s": ["recommend.build_profiles"],
    "recommend.level1_s": ["recommend.level1"],
    "recommend.level2_s": ["recommend.level2"],
    "recommend.preference_vector_s": ["recommend.preference_vector"],
    "recommend.personalized_pagerank_s": ["recommend.personalized_pagerank"],
    "recommend.global_pagerank_s": ["recommend.global_pagerank"],
    "recommend.location_rerank_s": ["recommend.location_rerank"],
    "mf.build_matrix_s": ["mf.build_matrix"],
    "mf.als_train_s": ["mf.als_train"],
    "mf.recommend_mf_s": ["mf.recommend_mf"],
}
LAYER_PEAKS = {
    "scoring.content_edges_peak_mb": "scoring.content_edges",
    "scoring.aggregate_peak_mb": "scoring.aggregate",
    "scoring.load_digraph_peak_mb": "scoring.load_digraph",
}
LAYER_COUNTS = (
    "ingest.events",
    "ingest.signals",
    "graph.edges",
    "scoring.content_pairs",
    "scoring.digraph_edges",
    "recommend.global_pagerank_calls",
    "recommend.pagerank_iterations",
    "recommend.entries_level1",
    "recommend.entries_level2",
    "recommend.entries_personalized_pagerank",
    "recommend.entries_global_pagerank",
    "recommend.short_lists",
    "mf.entries",
)
SERVE_LAYER = {
    "serve.active_p50_ms": ("active", 50),
    "serve.active_p99_ms": ("active", 99),
    "serve.passive_resume_p50_ms": ("passive_resume", 50),
    "serve.passive_history_p50_ms": ("passive_history", 50),
    "serve.anonymous_p50_ms": ("anonymous", 50),
}
SERVE_KINDS = ("active", "passive_resume", "passive_history", "anonymous", "probe")
UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB"}
E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
# What worker.host_loop takes on this machine when it is quiet. A timed step
# is reported as its wall time over the host loop's time right after it,
# times this: the step's time at that host speed (README, "Host speed").
REFERENCE_LOOP_S = 0.0125


def at_reference_speed(pairs: list[tuple[float, float]]) -> float:
    """Median over (seconds, host-loop seconds) pairs of the scaled time."""
    return statistics.median(t / loop for t, loop in pairs) * REFERENCE_LOOP_S


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


class Run:
    """One workload run: its work directory, log and collected results."""

    def __init__(self, seed: int, seconds: int, trace: bool, corpus: Path):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.corpus = corpus
        self.out = corpus / "out"
        self.out.mkdir(exist_ok=True)
        self.log = self.out / "children.log"
        self.log.write_text("")
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        # (seconds, host-loop seconds right after) of each measured set-up
        # and operation, and each measured child's peak RSS
        self.setups: list[tuple[float, float]] = []
        self.ops: list[tuple[float, float]] = []
        self.rss: list[float] = []

    def measured(self, ready: float, rss: float, ops: list[float], result: dict) -> None:
        self.setups.append((ready, result["setup_loop"]))
        self.ops += zip(ops, result["loops"], strict=True)
        self.rss.append(rss)

    def end_to_end(self) -> None:
        """Set-up and operation time as medians at the reference host speed,
        and the largest peak RSS of the measured children."""
        self.e2e = {"setup_s": at_reference_speed(self.setups),
                    "op_s": at_reference_speed(self.ops), "peak_rss_mb": max(self.rss)}

    def raw_line(self) -> str:
        """The measured times before scaling, for reading against host speed."""
        ops = [t for t, _ in self.ops]
        loops = [loop for _, loop in self.setups + self.ops]
        return (f"setup median {statistics.median(t for t, _ in self.setups):.4f} s, "
                f"operation median {statistics.median(ops):.4f} s and best {min(ops):.4f} s "
                f"over {len(ops)}, host loop median {statistics.median(loops) * 1000:.2f} ms")

    def child(self, cmd: list[str]) -> tuple[float, float, dict]:
        """Run one worker that prints READY once set up and one JSON result
        at the end: (seconds until READY, peak RSS MB, result)."""
        child = procs.Child(cmd, self.log, pipe_stdout=True)
        if child.readline().strip() != "READY":
            child.finish()
            raise RuntimeError(f"worker failed during set-up; see {self.log}")
        ready = time.perf_counter() - child.start
        _, rss, code, rest = child.finish()
        if code != 0:
            raise RuntimeError(f"worker exited with {code}; see {self.log}")
        return ready, rss, json.loads(rest.strip().splitlines()[-1])

    def count_calls(self, result: dict) -> None:
        """Count a worker's `jobgraph` calls; a failed call is a wrong output."""
        failed = sum(1 for c in result["codes"] if c != 0)
        self.attempted += len(result["codes"])
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} jobgraph calls failed; see {self.log}")

    def count_requests(self, result: dict) -> None:
        """Count a serving worker's requests and the violations it found."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        if result["problem_count"] > len(result["problems"]):
            self.problems.append(f"... {result['problem_count']} violations in all")

    def cli_jobs(self, args: list[str]) -> None:
        """CHILDREN workers, each calling `jobgraph ARGS` in-process back to
        back for its share of the run; records the e2e metrics."""
        for _ in range(CHILDREN):
            ready, peak, result = self.child(
                procs.worker("cli-loop", str(self.seconds / CHILDREN), *args))
            self.count_calls(result)
            self.measured(ready, peak, result["walls"], result)
        self.end_to_end()

    def traced(self, args_of) -> dict:
        """Trace `jobgraph` calls twice: once for self times per call, counts
        and the overhead, once for peak memory. Returns the merged summary."""
        summaries = {}
        for kind in ("time", "memory"):
            trace_path = self.out / f"trace-{kind}.json"
            _, _, result = self.child(
                procs.worker("traced-cli", kind, str(trace_path), *args_of(kind)))
            self.count_calls(result)
            summaries[kind] = json.loads(trace_path.read_text())
        return {**summaries["time"], "peak_mb": summaries["memory"]["peak_mb"]}


def _build_args(corpus: Path, out_dir: Path) -> list[str]:
    return [
        "build", "--quiet",
        "--events", str(corpus / "events.csv"),
        "--jobs", str(corpus / "jobs.csv"),
        "--embeddings", str(corpus / "embeddings.txt"),
        "--reference-date", inputs.REFERENCE_DATE,
        "--out-dir", str(out_dir),
    ]


def build_content(run: Run) -> None:
    corpus = run.corpus
    digraph = run.out / "build" / "digraph.csv"
    run.cli_jobs(_build_args(corpus, digraph.parent))
    raw_jobs = checks.read_jobs(corpus / "jobs.csv")
    signals = checks.read_signals(corpus / "events.csv", raw_jobs, REFERENCE)
    sources = random.Random(run.seed).sample(sorted(raw_jobs), SAMPLED_SOURCES)
    expected = checks.expected_out_edges(sources, signals, raw_jobs, corpus / "embeddings.txt")
    dsts, edges = checks.read_digraph(digraph)
    run.problems += checks.check_build(dsts, edges, expected, raw_jobs)

    if run.trace:
        summary = run.traced(lambda kind: _build_args(corpus, run.out / f"traced-{kind}"))
        if (run.out / "traced-time" / "digraph.csv").read_bytes() != digraph.read_bytes():
            run.problems.append("traced build wrote a different digraph.csv than the CLI")
        run.layers.update(layer_metrics(summary))
        run.layers["scoring.artifact_mb"] = digraph.stat().st_size / 2**20


def _serve_spec(run: Run, name: str, **fields) -> str:
    spec = {"corpus": str(run.corpus), "probe": str(inputs.probe_corpus()),
            "truths": str(run.out / "truths.json"), "seconds": run.seconds / CHILDREN, **fields}
    path = run.out / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _truths(corpus: Path, jobs_file: str, users: set[str]) -> dict:
    """Active jobs and the requested users' histories, read apart from the
    program and before the serving children start, so their memory is not
    the children's."""
    raw_jobs = checks.read_jobs(corpus / jobs_file)
    history = checks.histories(checks.read_signals(corpus / "events.csv", raw_jobs, REFERENCE))
    return {"active": sorted(j for j, is_active in raw_jobs.items() if is_active),
            "history": {u: sorted(history[u]) for u in sorted(users & set(history))}}


def serve_mixed(run: Run) -> None:
    requests = json.loads((run.corpus / "requests.json").read_text())
    users: dict[str, set[str]] = {"seeded": set(), "probe": set()}
    for kind, user_id in requests:
        users["probe" if kind == "probe" else "seeded"].add(user_id)
    (run.out / "truths.json").write_text(json.dumps({
        "seeded": _truths(run.corpus, "jobs.csv", users["seeded"]),
        "probe": _truths(inputs.probe_corpus(), "jobs_serving.csv", users["probe"]),
    }))

    spec = _serve_spec(run, "loop")
    latency: dict[str, list[float]] = {kind: [] for kind in SERVE_KINDS}
    sampled_passes = 0
    for _ in range(CHILDREN):
        ready, peak, result = run.child(procs.worker("serve", spec))
        run.count_requests(result)
        run.measured(ready, peak, result["passes"], result)
        for kind, values in result["latency_ms"].items():
            latency[kind] += values
        sampled_passes += result["latency_passes"]
    run.end_to_end()

    if run.trace:
        summary = {}
        for kind, memory in (("time", False), ("memory", True)):
            trace_path = run.out / f"trace-{kind}.json"
            _, _, result = run.child(procs.worker("serve", _serve_spec(
                run, f"traced-{kind}", trace=str(trace_path), memory=memory)))
            run.count_requests(result)
            summary[kind] = json.loads(trace_path.read_text())
        run.layers.update(layer_metrics({**summary["time"], "peak_mb": summary["memory"]["peak_mb"]}))
        run.layers["scoring.artifact_mb"] = (run.corpus / "artifact" / "digraph.csv").stat().st_size / 2**20
        for name, (kind, q) in SERVE_LAYER.items():
            run.layers[name] = percentile(latency[kind], q)
        for kind in SERVE_KINDS:
            run.layers[f"serve.{kind}_pass_ms"] = sum(latency[kind]) / sampled_passes
        run.layers["serve.anonymous_requests"] = sum(1 for k, _ in requests if k == "anonymous")


def _evaluate_args(corpus: Path, out: Path) -> list[str]:
    return [
        "evaluate", "--quiet",
        "--config", str(corpus / "jobgraph.conf"),
        "--events", str(corpus / "events.csv"),
        "--jobs", str(corpus / "jobs.csv"),
        "--users", str(corpus / "users.csv"),
        "--reference-date", inputs.REFERENCE_DATE,
        "--systems", "graph,cf,mf",
        "--holdout", str(HOLDOUT),
        "--k", str(EVAL_K),
        "--out", str(out),
    ]


def _als_loss_trace(corpus: Path) -> list:
    """ALS on the same train split the evaluation uses, for the per-half-step
    loss check (the CLI report does not carry the trace)."""
    from jobgraph import config, ingest, mf
    from jobgraph.evaluation import holdout_split

    with open(corpus / "jobgraph.conf") as fh:
        conf = config.load_config(fh)
    with open(corpus / "events.csv") as fh:
        events, _ = ingest.parse_events(fh.readlines())
    with open(corpus / "jobs.csv") as fh:
        jobs, _ = ingest.parse_jobs(fh.readlines())
    windowed = ingest.window_filter(events, REFERENCE, conf.window_days)
    train, _ = holdout_split(ingest.resolve_jobs(windowed, jobs)[0], HOLDOUT, conf.seed)
    matrix = mf.build_matrix(ingest.dedupe(train))
    model = mf.als_train(matrix, conf.mf_k, conf.mf_reg, conf.mf_iterations, seed=conf.seed,
                         implicit=conf.mf_implicit)
    return model.loss_trace


def evaluate_behavior(run: Run) -> None:
    corpus = run.corpus
    report_path = run.out / "report.json"
    run.cli_jobs(_evaluate_args(corpus, report_path))
    report = json.loads(report_path.read_text())
    raw_jobs = checks.read_jobs(corpus / "jobs.csv")
    active = sum(raw_jobs.values())
    signals = checks.read_signals(corpus / "events.csv", raw_jobs, REFERENCE)
    longest_history = max(len(h) for h in checks.histories(signals).values())
    run.problems += checks.check_evaluate(
        report,
        checks.evaluated_users(corpus / "events.csv", raw_jobs, REFERENCE, HOLDOUT),
        EVAL_K / (active - longest_history),
        _als_loss_trace(corpus),
    )

    if run.trace:
        summary = run.traced(lambda kind: _evaluate_args(corpus, run.out / f"traced-{kind}.json"))
        if json.loads((run.out / "traced-time.json").read_text()) != report:
            run.problems.append("traced evaluation reported different results than the CLI")
        run.layers.update(layer_metrics(summary))
        run.layers["scoring.artifact_mb"] = 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    out = {name: sum(summary["self_s"].get(s, 0.0) for s in spans) for name, spans in LAYER_TIMES.items()}
    out.update({name: summary["peak_mb"].get(span, 0.0) for name, span in LAYER_PEAKS.items()})
    out.update({name: summary["counts"].get(name, 0) for name in LAYER_COUNTS})
    out["trace.overhead_s"] = summary["overhead_s"]
    return out


def per_layer_names() -> list[str]:
    return [
        "trace.overhead_s", *LAYER_TIMES, *LAYER_PEAKS, "scoring.artifact_mb",
        *LAYER_COUNTS, *SERVE_LAYER, *(f"serve.{kind}_pass_ms" for kind in SERVE_KINDS),
        "serve.anonymous_requests",
    ]


def git_sha() -> str:
    head = procs.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = procs.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = procs.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    corpus = {
        "build-content": inputs.content_corpus,
        "serve-mixed": inputs.serve_corpus,
        "evaluate-behavior": inputs.behavior_corpus,
    }[workload](seed)
    run = Run(seed, seconds, trace, corpus)
    {"build-content": build_content, "serve-mixed": serve_mixed,
     "evaluate-behavior": evaluate_behavior}[workload](run)

    if trace:
        values = {name: run.layers.get(name, 0) for name in per_layer_names()}
    else:
        values = run.e2e
    metrics = {name: {"value": value, "unit": unit_of(name) if trace else E2E_UNITS[name]}
               for name, value in values.items()}
    for problem in run.problems[:20]:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} measured: {run.raw_line()}")
    print(f"{workload} attempted={run.attempted} failed={run.failed} correct={not run.problems}")
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def host_loop_ms() -> float:
    """Best of five host-loop timings, at the ends of a run."""
    return min(host_loop() for _ in range(5)) * 1000.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must lie in [1, 120] (children are killed after 150 s)")

    import numpy

    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_loop_ms_before": host_loop_ms(),
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    meta["host_loop_ms_after"] = host_loop_ms()
    print("meta " + json.dumps(meta))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
