"""Engine configuration: one flat key-value file controls every knob.

Every tunable of the pipeline lives here with its default; unknown keys
are rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable


class ConfigError(Exception):
    """Raised for unknown keys, unparsable values, or out-of-range values."""


@dataclass(frozen=True)
class EngineConfig:
    """All engine parameters with their defaults.

    window_days        lookback horizon for behavioral signals
    w1, w2, w3         weights of the probability, co-information and
                       content terms in the edge score
    gamma              content-similarity cutoff for embedding edges
    normalize_pmi2     map the co-information term through exp() to (0, 1]
    session_gap_minutes  click co-occurrence gap when query ids are absent
    activity_decay     exponential decay rate per day of interaction age
    similar_actives_per_expired  replacement fan-out when building the
                       preference set from expired history jobs
    location_radius_km / location_boost  nearby-job re-ranking
    damping, pagerank_epsilon  random-walk settings; the iteration cap
                       is derived from them
    k                  list length served to a user
    min_recs           threshold that triggers the next fallback strategy
                       (defaults to k when unset)
    seed               seed for all randomized stages
    mf_k, mf_reg, mf_iterations, mf_implicit  factorization baseline;
                       mf_reg must be > 0, or rounding decides the factors
    """

    window_days: int = 180
    w1: float = 0.5
    w2: float = 0.3
    w3: float = 0.2
    gamma: float = 0.4
    normalize_pmi2: bool = False
    session_gap_minutes: float = 30.0
    activity_decay: float = 0.05
    similar_actives_per_expired: int = 5
    location_radius_km: float = 80.0
    location_boost: float = 1.25
    damping: float = 0.85
    pagerank_epsilon: float = 1e-10
    k: int = 15
    min_recs: int | None = None
    seed: int = 0
    mf_k: int = 32
    mf_reg: float = 0.1
    mf_iterations: int = 10
    mf_implicit: bool = False

    def __post_init__(self):
        if self.window_days <= 0:
            raise ConfigError(f"window_days must be positive, got {self.window_days}")
        if min(self.w1, self.w2, self.w3) < 0 or max(self.w1, self.w2, self.w3) <= 0:
            raise ConfigError("weights must be non-negative with at least one positive")
        if not -1.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [-1, 1], got {self.gamma}")
        if self.session_gap_minutes < 0:
            raise ConfigError("session_gap_minutes must be non-negative")
        if self.activity_decay < 0:
            raise ConfigError("activity_decay must be non-negative")
        if self.similar_actives_per_expired < 0:
            raise ConfigError("similar_actives_per_expired must be non-negative")
        if self.location_radius_km < 0:
            raise ConfigError("location_radius_km must be non-negative")
        if self.location_boost < 1.0:
            raise ConfigError(f"location_boost must be >= 1, got {self.location_boost}")
        if not 0.0 < self.damping < 1.0:
            raise ConfigError(f"damping must lie in (0, 1), got {self.damping}")
        if not 0.0 < self.pagerank_epsilon < 2.0:
            # the first step changes the scores by at most 2: at epsilon >= 2
            # every walk would stop there, reported as converged
            raise ConfigError(f"pagerank_epsilon must lie in (0, 2), got {self.pagerank_epsilon}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.min_recs is not None and not 1 <= self.min_recs <= self.k:
            raise ConfigError(f"min_recs must lie in [1, k], got {self.min_recs}")
        if self.mf_k < 1 or self.mf_reg <= 0 or self.mf_iterations < 1:
            raise ConfigError("mf_k/mf_iterations must be >= 1 and mf_reg > 0")

    def recommender_params(self) -> EngineConfig:
        # The benchmark's serving worker (perfbench/worker.py) still calls
        # this; it goes when the benchmark next changes.
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(EngineConfig)}
_BOOL_TOKENS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            token = raw.lower()
            if token not in _BOOL_TOKENS:
                raise ValueError(f"expected a boolean, got {raw!r}")
            return _BOOL_TOKENS[token]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "int | None":
            return None if raw.lower() in ("", "none") else int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    raise ConfigError(f"unhandled field type for {key}")  # pragma: no cover


def load_config(lines: Iterable[str]) -> EngineConfig:
    """Parse a flat ``key = value`` file into an EngineConfig.

    Blank lines and ``#`` comments are ignored; an unknown key or an
    out-of-range value raises ConfigError.
    """
    overrides = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        overrides[key] = _coerce(key, raw)
    return EngineConfig(**overrides)


def dump_config(config: EngineConfig) -> str:
    """Canonical serialization: sorted ``key = value`` lines."""
    parts = []
    for f in sorted(fields(EngineConfig), key=lambda f: f.name):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            token = "true" if value else "false"
        elif value is None:
            token = "none"
        else:
            token = repr(value)
        parts.append(f"{f.name} = {token}")
    return "\n".join(parts) + "\n"


def config_hash(config: EngineConfig) -> str:
    """Stable hash of the effective configuration, for build manifests."""
    # imported here: hashlib loads OpenSSL, about 3.6 MB of every process
    # that imports it, and only build hashes a config
    import hashlib

    return hashlib.sha256(dump_config(config).encode()).hexdigest()


DEFAULT_CONFIG_TEXT = """\
# engine configuration: flat key = value lines, '#' starts a comment.
# unknown keys are rejected; omitted keys keep their defaults.

# behavioral lookback horizon in days
window_days = 180

# edge-score term weights: conditional-probability, co-information, content
w1 = 0.5
w2 = 0.3
w3 = 0.2

# content-similarity cutoff; pairs with cosine >= gamma become edges
gamma = 0.4
# map the co-information term through exp() onto (0, 1]
normalize_pmi2 = false

# click co-occurrence gap (minutes) when query ids are missing
session_gap_minutes = 30.0

# per-day exponential decay of interaction recency
activity_decay = 0.05

# preference-set fan-out: active replacements per expired history job
similar_actives_per_expired = 5

# nearby-job re-ranking
location_radius_km = 80.0
location_boost = 1.25

# random-walk settings; a walk stops once a step changes the scores by less
# than pagerank_epsilon, within 2 + ceil(log(epsilon/2) / log(damping)) steps.
# damping lies in (0, 1) and pagerank_epsilon in (0, 2)
damping = 0.85
pagerank_epsilon = 1e-10

# list length and the fallback trigger threshold (defaults to k)
k = 15
min_recs = none

# seed for all randomized stages
seed = 0

# factorization baseline; mf_reg must be > 0
mf_k = 32
mf_reg = 0.1
mf_iterations = 10
mf_implicit = false
"""
