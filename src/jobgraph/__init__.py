"""Hybrid job recommendation engine.

Builds a labeled multigraph of jobs from user interaction logs (co-apply and
co-click counts plus per-job totals), augments it with content-similarity
edges from job embeddings, aggregates everything into a directed weighted
recommendation digraph restricted to active jobs, and serves top-k
recommendations for active, passive, and anonymous users. Matrix
factorization and a nearest-applicants collaborative filter are included as
offline baselines.
"""

__version__ = "0.1.0"

from .config import ConfigError, EngineConfig, load_config
from .evaluation import build_cf_index, cf_recommend, evaluate_systems, synth_corpus
from .graph import CoPairs, build_costats
from .ingest import (
    EventLog,
    JobRecord,
    SignalKind,
    dedupe,
    parse_events,
    parse_jobs,
    resolve_jobs,
    window_filter,
)
from .mf import als_train, build_matrix, recommend_mf
from .recommend import (
    Recommendation,
    UserProfile,
    build_profiles,
    classify_user,
    global_pagerank,
    personalized_pagerank,
    recommend,
    recommend_users,
)
from .scoring import RecDigraph, aggregate, build_digraph, content_edges

__all__ = [
    "CoPairs",
    "ConfigError",
    "EngineConfig",
    "EventLog",
    "JobRecord",
    "RecDigraph",
    "Recommendation",
    "SignalKind",
    "UserProfile",
    "__version__",
    "aggregate",
    "als_train",
    "build_cf_index",
    "build_costats",
    "build_digraph",
    "build_matrix",
    "build_profiles",
    "cf_recommend",
    "classify_user",
    "content_edges",
    "dedupe",
    "evaluate_systems",
    "global_pagerank",
    "load_config",
    "parse_events",
    "parse_jobs",
    "personalized_pagerank",
    "recommend",
    "recommend_mf",
    "recommend_users",
    "resolve_jobs",
    "synth_corpus",
    "window_filter",
]
