"""Configuration parsing, validation, canonical serialization, hashing."""

import re
from dataclasses import fields

import pytest

from jobgraph.config import (
    DEFAULT_CONFIG_TEXT,
    ConfigError,
    EngineConfig,
    config_hash,
    dump_config,
    load_config,
)


def test_defaults_match_published_knobs():
    cfg = EngineConfig()
    assert cfg.window_days == 180
    assert (cfg.w1, cfg.w2, cfg.w3) == (0.5, 0.3, 0.2)
    assert cfg.gamma == 0.4
    assert cfg.normalize_pmi2 is False
    assert cfg.session_gap_minutes == 30.0
    assert cfg.activity_decay == 0.05
    assert cfg.similar_actives_per_expired == 5
    assert (cfg.location_radius_km, cfg.location_boost) == (80.0, 1.25)
    assert cfg.damping == 0.85
    assert cfg.k == 15 and cfg.min_recs is None
    assert (cfg.mf_k, cfg.mf_reg, cfg.mf_iterations) == (32, 0.1, 10)


def test_load_config_parses_comments_blanks_and_types():
    cfg = load_config(
        [
            "# a comment line",
            "",
            "window_days = 30   # trailing comment",
            "gamma=0.55",
            "normalize_pmi2 = yes",
            "min_recs = 7",
            "mf_implicit = FALSE",
            "pagerank_epsilon = 1e-12",
        ]
    )
    assert cfg.window_days == 30
    assert cfg.gamma == 0.55
    assert cfg.normalize_pmi2 is True
    assert cfg.min_recs == 7
    assert cfg.mf_implicit is False
    assert cfg.pagerank_epsilon == 1e-12


def test_load_config_min_recs_none_token():
    assert load_config(["min_recs = none"]).min_recs is None


@pytest.mark.parametrize(
    "line",
    [
        "mystery_knob = 3",
        "window_days矢 = 3",
        "window_days 30",
        "gamma = fast",
        "normalize_pmi2 = maybe",
        "k = 2.5",
    ],
)
def test_load_config_rejects_malformed_lines(line):
    with pytest.raises(ConfigError):
        load_config([line])


def test_load_config_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(["k = 5", "k = 6"])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_days": 0},
        {"w1": -0.2},
        {"w1": 0.0, "w2": 0.0, "w3": 0.0},
        {"gamma": 1.2},
        {"session_gap_minutes": -1.0},
        {"activity_decay": -0.05},
        {"location_boost": 0.9},
        {"damping": 0.0},
        {"damping": 1.0},
        {"pagerank_epsilon": 0.0},
        {"location_radius_km": -1.0},
        {"k": 0},
        {"min_recs": 0},
        {"min_recs": 16},  # default k is 15
        {"mf_k": 0},
        {"mf_reg": -1.0},
        {"mf_iterations": 0},
        {"mf_reg": 0.0},  # unregularized ALS factors are decided by rounding
        {"similar_actives_per_expired": -1},
        {"pagerank_epsilon": 2.0},  # the first step's change is at most 2
        {"seed": -3},  # random.Random would seed with 3
    ],
)
def test_out_of_range_values_rejected(kwargs):
    with pytest.raises(ConfigError):
        EngineConfig(**kwargs)


def test_dump_then_load_is_identity():
    cfg = EngineConfig(window_days=45, gamma=0.37, min_recs=4, k=9, mf_implicit=True)
    assert load_config(dump_config(cfg).splitlines()) == cfg
    assert load_config(dump_config(EngineConfig()).splitlines()) == EngineConfig()


def test_default_config_text_loads_to_defaults():
    assert load_config(DEFAULT_CONFIG_TEXT.splitlines()) == EngineConfig()


def test_default_config_text_sets_every_field_once():
    # a key left out would still load to its default, so count the keys
    settings = [line.split("#", 1)[0] for line in DEFAULT_CONFIG_TEXT.splitlines()]
    keys = [setting.split("=", 1)[0].strip() for setting in settings if "=" in setting]
    assert sorted(keys) == sorted(f.name for f in fields(EngineConfig))


def test_config_hash_is_stable_and_sensitive():
    base = config_hash(EngineConfig())
    assert base == config_hash(EngineConfig())
    assert re.fullmatch("[0-9a-f]{8}", base)  # CRC-32 as 8 hex digits
    assert config_hash(EngineConfig(k=14)) != base
