"""Engine configuration: one flat key-value file controls every knob.

Every tunable of the pipeline lives here with its default; unknown keys
are rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import Iterable


class ConfigError(Exception):
    """Raised for unknown keys, unparsable values, or out-of-range values."""


def _setting(default, doc: str):
    """A config field with its default and its one-line meaning, which
    ``init-config`` writes as the comment above the key."""
    return field(default=default, metadata={"doc": doc})


@dataclass(frozen=True)
class EngineConfig:
    """All engine parameters, each with its default and meaning."""

    window_days: int = _setting(180, "behavioral lookback horizon in days; positive")
    w1: float = _setting(
        0.5, "edge-score weight of the conditional-probability term; the weights are >= 0, one > 0"
    )
    w2: float = _setting(0.3, "edge-score weight of the co-information term; the weights are >= 0, one > 0")
    w3: float = _setting(0.2, "edge-score weight of the content term; the weights are >= 0, one > 0")
    gamma: float = _setting(0.4, "content-similarity cutoff in [-1, 1]; cosine >= gamma makes an edge")
    normalize_pmi2: bool = _setting(False, "map the co-information term through exp() onto (0, 1]")
    session_gap_minutes: float = _setting(
        30.0, "click co-occurrence gap (minutes) when query ids are missing; non-negative"
    )
    activity_decay: float = _setting(0.05, "per-day exponential decay of interaction recency; non-negative")
    similar_actives_per_expired: int = _setting(
        5, "preference-set fan-out: active replacements per expired history job; non-negative"
    )
    location_radius_km: float = _setting(80.0, "nearby-job re-ranking: radius in km; non-negative")
    location_boost: float = _setting(1.25, "nearby-job re-ranking: score factor of a nearby job; >= 1")
    damping: float = _setting(
        0.85,
        "random-walk damping in (0, 1); a walk ends within 2 + ceil(log(epsilon/2) / log(damping)) steps",
    )
    pagerank_epsilon: float = _setting(
        1e-10, "a walk stops once a step changes the scores by less than this; in (0, 2)"
    )
    k: int = _setting(15, "served list length; >= 1")
    min_recs: int | None = _setting(
        None, "shortfall that triggers the next fallback strategy, in [1, k]; none means k"
    )
    seed: int = _setting(0, "seed for all randomized stages; non-negative")
    mf_k: int = _setting(32, "factorization baseline: latent dimension; >= 1")
    mf_reg: float = _setting(
        0.1, "factorization baseline: L2 regularization; > 0, or rounding decides the factors"
    )
    mf_iterations: int = _setting(10, "factorization baseline: alternating least-squares sweeps; >= 1")
    mf_implicit: bool = _setting(False, "factorization baseline: add the implicit-feedback term over clicks")

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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _token(value) -> str:
    """A value as a config file spells it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "none" if value is None else repr(value)


def dump_config(config: EngineConfig) -> str:
    """Canonical serialization: sorted ``key = value`` lines."""
    names = sorted(f.name for f in fields(EngineConfig))
    return "".join(f"{name} = {_token(getattr(config, name))}\n" for name in names)


def config_hash(config: EngineConfig) -> str:
    """Stable hash of the effective configuration, for build manifests: the
    CRC-32 of :func:`dump_config`, as 8 hex digits.

    It tells two configs apart; it is no defence against a crafted one.
    It replaced SHA-256 because ``hashlib`` loads OpenSSL, about 3.5 MB of
    every process that imports it, while zlib is loaded in every process
    already.
    """
    return f"{zlib.crc32(dump_config(config).encode()):08x}"


# the annotated file ``init-config`` writes: each key at its default, under its meaning
DEFAULT_CONFIG_TEXT = (
    "# engine configuration: flat key = value lines, '#' starts a comment.\n"
    "# unknown keys are rejected; omitted keys keep their defaults.\n"
) + "".join(f"\n# {f.metadata['doc']}\n{f.name} = {_token(f.default)}\n" for f in fields(EngineConfig))
