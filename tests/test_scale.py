"""Byte-identical outputs on the M corpus: ``synth --clusters 20
--jobs-per-cluster 250 --users 20000 --embedding-dim 32 --seed 0`` (5,000
jobs, 160k events), built and served for the user ids u00000 to u00199.

Marked ``scale`` and deselected by default; run with ``pytest -m scale``
(about 20 s and 300 MB). The corpus spans several similarity row blocks in
``scoring.content_edges``, so a numpy or BLAS change can move the last bits
of its similarities, and these digests with them.
"""

import hashlib

import pytest

from jobgraph import cli

REF_ARG = "2017-06-01T00:00:00Z"
M_DIGRAPH_SHA256 = "b56481cdfeefda347be73ea6771f960babe96b2ce0a8e1cc3813d2160d6d4e45"
M_MANIFEST_SHA256 = "f0252e610327e010ba15fa34e1a210ba39dbdb9dd6c3a4cd0eff1dc8647c7ffd"
# the serve-batch --out file and stdout
M_SERVE_SHA256 = {
    "out": "606995501f8f099edbf8845317df75be160dc060cf5c8509324962097da52405",
    "stdout": "d48b2eb1393c457d04c3f9c215fa410583b0b4cb011b9c2e19181344f795de8f",
}


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.scale
def test_m_corpus_build_and_serve_are_byte_identical(tmp_path, capsys):
    corpus, build = tmp_path / "corpus", tmp_path / "build"
    synth = ["--clusters", "20", "--jobs-per-cluster", "250", "--users", "20000", "--embedding-dim", "32"]
    assert cli.main(["synth", *synth, "--seed", "0", "--out-dir", str(corpus), "--quiet"]) == 0
    inputs = [
        "--events", str(corpus / "events.csv"),
        "--jobs", str(corpus / "jobs.csv"),
        "--embeddings", str(corpus / "embeddings.txt"),
        "--reference-date", REF_ARG,
        "--quiet",
    ]
    assert cli.main(["build", *inputs, "--out-dir", str(build)]) == 0
    assert sha256_of((build / "digraph.csv").read_bytes()) == M_DIGRAPH_SHA256
    assert sha256_of((build / "manifest.json").read_bytes()) == M_MANIFEST_SHA256

    (tmp_path / "ids.txt").write_text("".join(f"u{i:05d}\n" for i in range(200)), encoding="utf-8")
    capsys.readouterr()
    serve = [
        "serve-batch", *inputs,
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
