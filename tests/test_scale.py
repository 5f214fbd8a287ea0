"""Byte-identical outputs on the M corpus: ``synth --clusters 20
--jobs-per-cluster 250 --users 20000 --embedding-dim 32 --seed 0`` (5,000
jobs, 160k events), built and served for the user ids u00000 to u00199,
and evaluated over graph, cf and mf with three ALS iterations.

Marked ``scale`` and deselected by default; run with ``pytest -m scale``
(about a minute and 330 MB). The corpus spans several similarity row blocks in
``scoring.content_edges``, so a numpy or BLAS change can move the last bits
of its similarities, and these digests with them.
"""

import hashlib

import pytest

from jobgraph import cli

REF_ARG = "2017-06-01T00:00:00Z"
M_DIGRAPH_SHA256 = "b56481cdfeefda347be73ea6771f960babe96b2ce0a8e1cc3813d2160d6d4e45"
M_MANIFEST_SHA256 = "f030e47e10b21057a750bd13e5d4971a037261fab383a926a36f232df37492ba"
# the serve-batch --out file and stdout
M_SERVE_SHA256 = {
    "out": "606995501f8f099edbf8845317df75be160dc060cf5c8509324962097da52405",
    "stdout": "d48b2eb1393c457d04c3f9c215fa410583b0b4cb011b9c2e19181344f795de8f",
}
# the evaluate --out report and stdout
M_EVALUATE_SHA256 = {
    "out": "22d9d45dc155730ac9353d568d75e098d82775b1a7848a506716f4d9cdc3b63a",
    "stdout": "44a210933cda1f4277e1ad0728b2f7e8261c7a1b3faed77c9ba7b2245a26f80f",
}


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("m") / "corpus"
    synth = ["--clusters", "20", "--jobs-per-cluster", "250", "--users", "20000", "--embedding-dim", "32"]
    assert cli.main(["synth", *synth, "--seed", "0", "--out-dir", str(corpus), "--quiet"]) == 0
    return corpus


def inputs(corpus):
    return [
        "--events", str(corpus / "events.csv"),
        "--jobs", str(corpus / "jobs.csv"),
        "--embeddings", str(corpus / "embeddings.txt"),
        "--reference-date", REF_ARG,
        "--quiet",
    ]


@pytest.mark.scale
def test_m_corpus_build_and_serve_are_byte_identical(corpus, tmp_path, capsys):
    build = tmp_path / "build"
    assert cli.main(["build", *inputs(corpus), "--out-dir", str(build)]) == 0
    assert sha256_of((build / "digraph.csv").read_bytes()) == M_DIGRAPH_SHA256
    assert sha256_of((build / "manifest.json").read_bytes()) == M_MANIFEST_SHA256

    (tmp_path / "ids.txt").write_text("".join(f"u{i:05d}\n" for i in range(200)), encoding="utf-8")
    capsys.readouterr()
    serve = [
        "serve-batch", *inputs(corpus),
        "--users", str(corpus / "users.csv"),
        "--graph-dir", str(build),
        "--user-ids", str(tmp_path / "ids.txt"),
        "--out", str(tmp_path / "recs.csv"),
    ]
    assert cli.main(serve) == 0
    assert {
        "out": sha256_of((tmp_path / "recs.csv").read_bytes()),
        "stdout": sha256_of(capsys.readouterr().out.encode()),
    } == M_SERVE_SHA256


@pytest.mark.scale
def test_m_corpus_evaluation_is_byte_identical(corpus, tmp_path, capsys):
    (tmp_path / "eval.conf").write_text("mf_iterations = 3\n", encoding="utf-8")
    capsys.readouterr()
    evaluate = [
        "evaluate", *inputs(corpus),
        "--users", str(corpus / "users.csv"),
        "--config", str(tmp_path / "eval.conf"),
        "--systems", "graph,cf,mf",
        "--k", "10",
        "--out", str(tmp_path / "report.json"),
    ]
    assert cli.main(evaluate) == 0
    assert {
        "out": sha256_of((tmp_path / "report.json").read_bytes()),
        "stdout": sha256_of(capsys.readouterr().out.encode()),
    } == M_EVALUATE_SHA256
