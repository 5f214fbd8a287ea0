"""The README's library example runs as written, and its configuration
table names exactly the settings of EngineConfig."""

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


def config_table_keys() -> list[str]:
    """The backticked names in the key column of the Configuration table."""
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_config_table_names_every_setting_once():
    keys = config_table_keys()
    assert sorted(keys) == sorted(f.name for f in fields(EngineConfig))
    assert len(keys) == len(set(keys))
