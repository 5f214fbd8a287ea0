"""The README's library example runs as written, and its configuration
table names exactly the settings of EngineConfig, with their defaults."""

import re
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

from jobgraph.config import EngineConfig
from jobgraph.evaluation import synth_corpus
from jobgraph.ingest import InteractionEvent, SignalKind

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs_on_a_synth_corpus():
    corpus = synth_corpus(3, 10, 30, 0.1, seed=3)
    user_id = "u00001"
    # an event whose job is missing from the jobs map, as real logs hold
    stray = InteractionEvent(
        user_id, "no_such_job", SignalKind.APPLY, corpus.reference_date - timedelta(days=1)
    )
    namespace = {
        "events": corpus.events + [stray],
        "jobs": corpus.jobs,
        "embeddings": corpus.embeddings,
        "users": corpus.users,
        "reference_date": corpus.reference_date,
        "user_id": user_id,
    }
    exec(library_snippet(), namespace)
    top = namespace["top"]
    assert namespace["digraph"].num_edges > 0
    assert len(top) == namespace["config"].k
    assert len({r.job_id for r in top}) == len(top)
    assert all(corpus.jobs[r.job_id].is_active for r in top)


def config_table_rows() -> list[list[str]]:
    """The cells of each row of the Configuration table."""
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    return [line.split("|") for line in section.splitlines() if line.startswith("| `")]


def config_table_keys() -> list[str]:
    """The backticked names in the key column of the Configuration table."""
    return [key for cells in config_table_rows() for key in re.findall(r"`([^`]+)`", cells[1])]


def test_config_table_names_every_setting_once():
    keys = config_table_keys()
    assert sorted(keys) == sorted(f.name for f in fields(EngineConfig))
    assert len(keys) == len(set(keys))


def test_config_table_defaults_are_engine_config_defaults():
    defaults = {}
    for cells in config_table_rows():
        keys = re.findall(r"`([^`]+)`", cells[1])
        # a default as written, its backticks and any note in brackets dropped
        values = [v.split("(")[0].strip(" `") for v in cells[2].split(",")]
        assert len(keys) == len(values), cells
        defaults.update(zip(keys, values))
    for f in fields(EngineConfig):
        value = getattr(EngineConfig(), f.name)
        if value is None or isinstance(value, bool):
            assert defaults[f.name] == str(value).lower(), f.name
        else:
            assert float(defaults[f.name]) == value, f.name
