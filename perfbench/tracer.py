"""In-memory span tracer wrapped around the program's public functions.

Spans carry name, start, end and parent. They are kept in memory and
written as JSON at the end, together with per-name self times (a span's
duration minus the part its child spans cover), call counts, counters read
from return values, and the traced peak memory of selected spans.

Patching replaces a function everywhere the package holds a reference to
it, so calls made inside the program (say `recommend` calling `level1`)
are traced as well as calls from the benchmark.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path


def _recommend_counts(args, kwargs, result) -> dict[str, int]:
    params = kwargs.get("params", args[5] if len(args) > 5 else None)
    k = params.k if params is not None else 15
    counts = Counter(f"recommend.entries_{r.provenance.value}" for r in result)
    counts["recommend.short_lists"] = int(len(result) < k)
    return counts


# Public functions traced per module, with the counters read from their
# results. Helpers called once per element (haversine_km, activity_score,
# embed_sim, mle, pmi2, parse_timestamp, ...) are left inside their
# caller's span: a span of their own would cost more than their work.
TRACED = {
    "ingest": {
        "parse_events": lambda a, k, r: {"ingest.events": len(r[0])},
        "parse_jobs": None,
        "parse_embeddings": None,
        "parse_users": None,
        "window_filter": None,
        "resolve_jobs": None,
        "dedupe": lambda a, k, r: {"ingest.signals": len(r)},
    },
    "graph": {
        "build_costats": lambda a, k, r: {"graph.edges": r.num_edges},
        "dump_graph": None,
        "load_graph": None,
    },
    "scoring": {
        "content_edges": lambda a, k, r: {"scoring.content_pairs": len(r)},
        "aggregate": lambda a, k, r: {"scoring.digraph_edges": r.num_edges},
        "dump_digraph": None,
        "load_digraph": lambda a, k, r: {"scoring.digraph_edges": r.num_edges},
    },
    "evaluation": {
        "connectivity_report": None,
        "holdout_split": None,
        "build_cf_index": None,
        "cf_recommend": None,
        "evaluate_systems": None,
    },
    "recommend": {
        "build_profiles": None,
        "level1": None,
        "level2": None,
        "preference_vector": None,
        "personalized_pagerank": lambda a, k, r: {"recommend.pagerank_iterations": r.iterations},
        "global_pagerank": lambda a, k, r: {
            "recommend.global_pagerank_calls": 1,
            "recommend.pagerank_iterations": r.iterations,
        },
        "location_rerank": None,
        "recommend": _recommend_counts,
    },
    "mf": {
        "build_matrix": lambda a, k, r: {"mf.entries": len(r.entries)},
        "als_train": None,
        "recommend_mf": None,
    },
}
# Spans whose peak allocation is recorded (numpy reports to tracemalloc).
# tracemalloc slows every allocation, so peaks come from a separate pass
# and the timing pass runs without it.
MEMORY_SPANS = {"scoring.content_edges", "scoring.aggregate", "scoring.load_digraph"}


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self.enabled = True

    def wrap(self, name: str, fn, count=None):
        memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            measure = memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
                self._stack.pop()
                self.spans[idx][1] = start - self.origin
                self.spans[idx][2] = end - self.origin
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    def install(self, package: str = "jobgraph") -> None:
        """Wrap every function in TRACED and swap each reference to it held
        by any loaded module of the package."""
        __import__(package + ".cli")
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for short, functions in TRACED.items():
            module = sys.modules[f"{package}.{short}"]
            for fname, count in functions.items():
                original = getattr(module, fname)
                wrapped = self.wrap(f"{short}.{fname}", original, count)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "peak_mb": {n: b / 2**20 for n, b in self.peak_bytes.items()},
        }

    def write(self, path: Path, summary: dict, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **summary, **extra}, fh)


def per_operation(total: dict, n: int, before: dict | None = None) -> dict:
    """Summary per operation of `n` traced operations: what `total` holds
    beyond `before` (a set-up traced once), divided by `n`, plus `before`."""
    before = before or {}
    out = {"peak_mb": total["peak_mb"]}
    for key in ("self_s", "calls", "counts"):
        base = before.get(key, {})
        out[key] = {
            name: base.get(name, 0) + (value - base.get(name, 0)) / n
            for name, value in total[key].items()
        }
    return out
