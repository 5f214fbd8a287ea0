"""Edge-score formula and aggregation tests with frozen hand-computed values."""

import csv
import itertools
import math
import random
import tracemalloc
from array import array
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CoMaps,
    co_maps,
    co_pairs,
    content_map,
    content_pairs,
    corr_of,
    digraph_of,
    edge_map,
    embed_sim,
    mle,
    out_edges,
    pmi2,
    reference_aggregate,
    reference_edge_scores,
)
from jobgraph import scoring
from jobgraph.config import EngineConfig
from jobgraph.evaluation import synth_corpus
from jobgraph.graph import build_costats
from jobgraph.ingest import active_job_ids, dedupe, resolve_jobs, window_filter
from jobgraph.recommend import global_pagerank, personalized_pagerank
from jobgraph.scoring import (
    EVIDENCE_APPLY,
    EVIDENCE_CLICK,
    EVIDENCE_CONTENT,
    RecDigraph,
    aggregate,
    build_digraph,
    content_edges,
    dump_digraph,
    load_digraph,
)


def graph_of(nodes, edges):
    return co_pairs(nodes, edges)


# ---------------------------------------------------------------------------
# conditional probability


def test_mle_hand_value():
    g = CoMaps({"i": (5, 0), "j": (12, 0)}, {("i", "j"): (3, 0)})
    assert mle(g, "i", "j", "apps") == 3 / 12
    assert mle(g, "i", "j", "apps") == 0.25


def test_mle_zero_denominator_is_zero():
    g = CoMaps({"i": (5, 0), "j": (0, 0)}, {})
    assert mle(g, "i", "j", "apps") == 0.0


def test_mle_is_asymmetric():
    g = CoMaps({"i": (4, 0), "j": (8, 0)}, {("i", "j"): (2, 0)})
    assert mle(g, "i", "j", "apps") == 2 / 8
    assert mle(g, "j", "i", "apps") == 2 / 4


def test_mle_bounded_on_random_counts():
    rng = random.Random(1)
    for _ in range(200):
        ci, cj = rng.randint(0, 30), rng.randint(0, 30)
        co = rng.randint(0, min(ci, cj)) if min(ci, cj) else 0
        g = CoMaps({"i": (ci, 0), "j": (cj, 0)}, {("i", "j"): (co, 0)})
        assert 0.0 <= mle(g, "i", "j", "apps") <= 1.0


# ---------------------------------------------------------------------------
# co-information


def test_pmi2_hand_value():
    g = CoMaps({"i": (4, 0), "j": (8, 0)}, {("i", "j"): (2, 0)})
    value = pmi2(g, "i", "j", "apps")
    assert value == pytest.approx(math.log(4 / 32), abs=1e-15)
    assert value == pytest.approx(-2.0794415416798357, abs=1e-15)


def test_pmi2_none_when_any_count_zero():
    g = CoMaps({"i": (4, 0), "j": (0, 0)}, {("i", "j"): (0, 0)})
    assert pmi2(g, "i", "j", "apps") is None
    g2 = CoMaps({"i": (4, 0), "j": (8, 0)}, {})
    assert pmi2(g2, "i", "j", "apps") is None


def test_pmi2_nonpositive_zero_iff_all_equal():
    rng = random.Random(2)
    for _ in range(300):
        ci, cj = rng.randint(1, 40), rng.randint(1, 40)
        co = rng.randint(1, min(ci, cj))
        g = CoMaps({"i": (ci, 0), "j": (cj, 0)}, {("i", "j"): (co, 0)})
        value = pmi2(g, "i", "j", "apps")
        assert value <= 1e-12
        if ci == cj == co:
            assert value == pytest.approx(0.0, abs=1e-12)
        else:
            assert value < 0
        assert value == pmi2(g, "j", "i", "apps")


# ---------------------------------------------------------------------------
# embedding similarity


def test_embed_sim_hand_value():
    value = embed_sim(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert value == pytest.approx(32 / math.sqrt(14 * 77), abs=1e-15)
    assert value == pytest.approx(0.9746318461970762, abs=1e-15)


def test_embed_sim_extremes_and_errors():
    v = np.array([1.0, 0.0])
    assert embed_sim(v, v) == pytest.approx(1.0)
    assert embed_sim(v, np.array([0.0, 3.0])) == pytest.approx(0.0)
    assert embed_sim(v, -2.5 * v) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        embed_sim(v, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        embed_sim(v, np.zeros(2))


def test_embed_sim_bounded_and_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.normal(size=6), rng.normal(size=6)
        s = embed_sim(a, b)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        assert embed_sim(3.7 * a, b) == pytest.approx(s, abs=1e-12)


# ---------------------------------------------------------------------------
# content edges


def test_content_edges_match_all_pairs_oracle():
    rng = np.random.default_rng(4)
    vecs = {f"j{i:03d}": rng.normal(size=8) for i in range(60)}
    gamma = 0.3
    edges = content_map(content_edges(vecs, gamma))
    ids = sorted(vecs)
    expected = {}
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            s = embed_sim(vecs[a], vecs[b])
            if s >= gamma:
                expected[(a, b)] = s
    assert set(edges) == set(expected)
    for pair, s in edges.items():
        assert s == pytest.approx(expected[pair], abs=1e-12)


def test_content_edges_keep_equality_and_nest_by_gamma():
    vecs = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1.0]), "c": np.array([0.0, 1.0])}
    sim_ab = embed_sim(vecs["a"], vecs["b"])
    at_cutoff = content_map(content_edges(vecs, sim_ab))
    assert ("a", "b") in at_cutoff
    loose = content_map(content_edges(vecs, 0.1))
    tight = content_map(content_edges(vecs, 0.9))
    assert set(tight) <= set(loose)


def test_content_edges_category_blocking():
    vecs = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.1]), "c": np.array([1.0, 0.2])}
    cats = {"a": "x", "b": "x", "c": "y"}
    edges = content_map(content_edges(vecs, 0.4, categories=cats))
    assert set(edges) == {("a", "b")}


def all_pairs_oracle(vecs, gamma, categories=None):
    """Every pair (i, j), i < j, of same-category jobs with cosine >= gamma,
    by :func:`embed_sim`."""
    expected = {}
    for a, b in itertools.combinations(sorted(vecs), 2):
        if categories is not None and (a not in categories or categories.get(a) != categories.get(b)):
            continue
        s = embed_sim(vecs[a], vecs[b])
        if s >= gamma:
            expected[(a, b)] = s
    return expected


def assert_pairs_match(pairs, expected):
    assert pairs.ids == sorted(pairs.ids)
    assert (pairs.a < pairs.b).all()
    assert list(zip(pairs.a.tolist(), pairs.b.tolist())) == sorted(zip(pairs.a.tolist(), pairs.b.tolist()))
    got = content_map(pairs)
    assert len(pairs) == len(got) == len(expected)
    assert set(got) == set(expected)
    for pair, s in got.items():
        assert s == pytest.approx(expected[pair], abs=1e-12)


@pytest.mark.parametrize("budget", [1, 7 * 60, 59 * 60])
def test_content_edges_match_all_pairs_oracle_across_row_blocks(monkeypatch, budget):
    # a budget of 1 gives 1-row blocks, 7 * 60 gives 7 rows and 59 * 60 one
    # row short of the whole matrix, so the last block holds a single row
    rng = np.random.default_rng(4)
    vecs = {f"j{i:03d}": rng.normal(size=8) for i in range(60)}
    whole = content_edges(vecs, 0.3)
    monkeypatch.setattr(scoring, "SIM_BLOCK", budget)
    blocked = content_edges(vecs, 0.3)
    assert_pairs_match(blocked, all_pairs_oracle(vecs, 0.3))
    assert np.array_equal(blocked.a, whole.a) and np.array_equal(blocked.b, whole.b)


@pytest.mark.parametrize("budget", [1, 5 * 20, scoring.SIM_BLOCK])
def test_content_edges_category_blocking_across_row_blocks(monkeypatch, budget):
    rng = np.random.default_rng(9)
    vecs = {f"j{i:03d}": rng.normal(size=6) for i in range(60)}
    # three interleaved categories, and four jobs in none
    cats = {j: "xyz"[i % 3] for i, j in enumerate(sorted(vecs)) if i % 15 != 4}
    monkeypatch.setattr(scoring, "SIM_BLOCK", budget)
    pairs = content_edges(vecs, 0.2, categories=cats)
    assert_pairs_match(pairs, all_pairs_oracle(vecs, 0.2, cats))


def test_content_edges_refuse_a_zero_norm_vector():
    vecs = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 0.0]), "c": np.array([1.0, 0.1])}
    with pytest.raises(ValueError, match="^zero-norm vector for job 'b'$"):
        content_edges(vecs, 0.4)


def test_content_edges_of_fewer_than_two_vectors_are_empty():
    for vecs in ({}, {"a": np.array([1.0, 0.0])}):
        pairs = content_edges(vecs, 0.0)
        assert len(pairs) == 0 and pairs.ids == sorted(vecs)
        digraph = aggregate(graph_of({"a": (1, 0)}, {}), pairs, EngineConfig(), ["a"])
        assert digraph.num_edges == 0


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_content_only_hand_value():
    g = graph_of({"i": (0, 0), "j": (0, 0)}, {})
    digraph = aggregate(g, content_pairs({("i", "j"): 0.8}), EngineConfig(), ["i", "j"])
    assert corr_of(digraph, "i", "j") == pytest.approx(0.16, abs=1e-15)
    assert corr_of(digraph, "j", "i") == pytest.approx(0.16, abs=1e-15)
    # content evidence alone: no co-apply or co-click bit
    assert edge_map(digraph)[("i", "j")][1] == EVIDENCE_CONTENT


def test_aggregate_perfect_cooccurrence_hand_value():
    g = graph_of({"i": (2, 2), "j": (2, 2)}, {("i", "j"): (2, 2)})
    digraph = aggregate(g, content_pairs({("i", "j"): 1.0}), EngineConfig(), ["i", "j"])
    # both probabilities 1.0, both co-information terms ln(1) = 0, sim 1.0
    assert corr_of(digraph, "i", "j") == pytest.approx(1.2, abs=1e-12)


def test_aggregate_normalized_pmi2_hand_value():
    g = graph_of({"i": (2, 2), "j": (2, 2)}, {("i", "j"): (2, 2)})
    weights = EngineConfig(normalize_pmi2=True)
    digraph = aggregate(g, content_pairs({("i", "j"): 1.0}), weights, ["i", "j"])
    # exp(0) = 1 for each of the two co-information terms
    assert corr_of(digraph, "i", "j") == pytest.approx(1.8, abs=1e-12)


def test_aggregate_apps_only_hand_value():
    g = graph_of({"i": (4, 0), "j": (8, 0)}, {("i", "j"): (2, 0)})
    digraph = aggregate(g, content_pairs({}), EngineConfig(), ["i", "j"])
    expected = 0.5 * (2 / 8) + 0.3 * math.log(4 / 32)
    assert corr_of(digraph, "j", "i") == pytest.approx(expected, abs=1e-12)
    reverse = 0.5 * (2 / 4) + 0.3 * math.log(4 / 32)
    assert corr_of(digraph, "i", "j") == pytest.approx(reverse, abs=1e-12)
    assert corr_of(digraph, "i", "j") != corr_of(digraph, "j", "i")


def test_aggregate_skips_expired_destinations():
    g = graph_of({"i": (3, 0), "j": (3, 0)}, {("i", "j"): (2, 0)})
    digraph = aggregate(g, content_pairs({}), EngineConfig(), ["i"])
    assert corr_of(digraph, "j", "i") is not None  # expired source feeds active dst
    assert corr_of(digraph, "i", "j") is None


def test_aggregate_requires_some_signal():
    g = graph_of({"i": (3, 0), "j": (5, 0)}, {})
    digraph = aggregate(g, content_pairs({}), EngineConfig(), ["i", "j"])
    assert digraph.num_edges == 0


def test_aggregate_ignores_content_for_unknown_nodes():
    g = graph_of({"i": (0, 0), "j": (0, 0)}, {})
    digraph = aggregate(g, content_pairs({("ghost", "i"): 0.9}), EngineConfig(), ["i", "j", "ghost"])
    assert digraph.num_edges == 0


def test_digraph_dump_reload_is_bit_exact():
    rng = random.Random(11)
    nodes = {f"n{i}": (rng.randint(0, 9), rng.randint(0, 9)) for i in range(8)}
    edges = {}
    ids = sorted(nodes)
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            if rng.random() < 0.4:
                na, nb = nodes[a], nodes[b]
                edges[(a, b)] = (
                    rng.randint(0, min(na[0], nb[0])),
                    rng.randint(0, min(na[1], nb[1])),
                )
    g = graph_of(nodes, edges)
    content = {}
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            if rng.random() < 0.3:
                content[(a, b)] = rng.uniform(0.4, 1.0)
    digraph = aggregate(g, content_pairs(content), EngineConfig(), ids)

    buf = StringIO()
    dump_digraph(digraph, buf)
    reloaded = load_digraph(StringIO(buf.getvalue()), ids)
    assert edge_map(reloaded) == edge_map(digraph)  # corr and evidence code

    rebuf = StringIO()
    dump_digraph(reloaded, rebuf)
    assert rebuf.getvalue() == buf.getvalue()


# ---------------------------------------------------------------------------
# array scoring against the scalar reference


def random_scoring_inputs(rng, num_nodes, pair_prob, content_prob):
    """A multigraph with arbitrary counts (apps-only, clicks-only, both and
    empty co-stats; zero totals included), a content map that also names
    nodes outside the graph, and a random active subset."""
    ids = [f"j{i:03d}" for i in range(num_nodes)]
    # counts wide enough that numpy's log/exp would round some PMI^2 terms
    # differently from math's
    nodes = {j: (rng.choice([0, rng.randint(1, 400)]), rng.choice([0, rng.randint(1, 400)])) for j in ids}
    edges = {}
    for a, b in itertools.combinations(ids, 2):
        if rng.random() < pair_prob:
            kind = rng.choice(["apps", "clicks", "both", "none"])
            co_apps = rng.randint(1, 300) if kind in ("apps", "both") else 0
            co_clicks = rng.randint(1, 300) if kind in ("clicks", "both") else 0
            edges[(a, b)] = (co_apps, co_clicks)
    ghosts = [f"ghost{i}" for i in range(3)]
    content = {}
    for a, b in itertools.combinations(sorted(ids + ghosts), 2):
        if rng.random() < content_prob:
            content[(a, b)] = rng.choice([0.0, 1.0, rng.uniform(-1.0, 1.0)])
    active = {j for j in ids + ghosts if rng.random() < 0.8}
    return graph_of(nodes, edges), content, active


def assert_matches_reference(digraph, graph, content, weights, active):
    want = reference_aggregate(graph, content, weights, active)
    got = edge_map(digraph)
    assert got.keys() == want.keys()
    for key, es in want.items():
        assert got[key] == (es.corr, es.evidence)
        assert repr(got[key][0]) == repr(es.corr)  # bit for bit
    assert list(got) == sorted(got)
    assert digraph.dst.dtype == np.int32 and digraph.corr.dtype == np.float64 and digraph.evidence.dtype == np.uint8


@pytest.mark.parametrize("normalize", [False, True])
def test_aggregate_matches_scalar_reference_on_random_multigraphs(monkeypatch, normalize):
    rng = random.Random(20 + normalize)
    for trial in range(60):
        graph, content, active = random_scoring_inputs(
            rng, rng.randint(2, 14), rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.6)
        )
        weights = EngineConfig(
            w1=rng.choice([0.0, rng.uniform(0.1, 1.0)]),
            w2=rng.choice([0.0, rng.uniform(0.1, 1.0)]),
            w3=rng.uniform(0.1, 1.0),
            normalize_pmi2=normalize,
        )
        # small blocks, so most trials span several of them
        monkeypatch.setattr(scoring, "AGGREGATE_BLOCK", rng.choice([1, 2, 5, 64]))
        digraph = aggregate(graph, content_pairs(content), weights, active)
        assert_matches_reference(digraph, graph, content, weights, active)


def test_aggregate_matches_scalar_reference_across_full_blocks():
    rng = random.Random(5)
    graph, content, active = random_scoring_inputs(rng, 110, 0.3, 0.7)
    nodes, edges = co_maps(graph)
    candidates = set(edges) | {p for p in content if p[0] in nodes and p[1] in nodes}
    assert len(candidates) > scoring.AGGREGATE_BLOCK
    for weights in (EngineConfig(), EngineConfig(normalize_pmi2=True)):
        digraph = aggregate(graph, content_pairs(content), weights, active)
        assert_matches_reference(digraph, graph, content, weights, active)


def test_aggregate_without_candidate_pairs_is_empty():
    g = graph_of({"i": (1, 1)}, {})
    digraph = aggregate(g, content_pairs({}), EngineConfig(), ["i"])
    assert digraph.num_edges == 0 and edge_map(digraph) == {}


@st.composite
def scoring_inputs(draw):
    """A small multigraph whose pairs may have either, both or neither
    co-count (zero totals included), content pairs over its jobs and an
    active subset."""
    ids = [f"j{i}" for i in range(draw(st.integers(2, 6)))]
    nodes = {j: (draw(st.integers(0, 4)), draw(st.integers(0, 4))) for j in ids}
    edges, content = {}, {}
    for pair in itertools.combinations(ids, 2):
        if draw(st.booleans()):
            edges[pair] = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        if draw(st.booleans()):
            content[pair] = draw(st.floats(-1.0, 1.0))
    active = {j for j in ids if draw(st.booleans())}
    return nodes, edges, content, active


@settings(max_examples=200, deadline=None)
@given(scoring_inputs())
def test_each_evidence_bit_is_set_exactly_when_its_component_is_present(inputs):
    nodes, edges, content, active = inputs
    graph = graph_of(nodes, edges)
    weights = EngineConfig()
    digraph = aggregate(graph, content_pairs(content), weights, active)
    maps = co_maps(graph)
    for (src, dst), (_, code) in edge_map(digraph).items():
        es = reference_edge_scores(maps, content, weights, src, dst)
        assert code & ~(EVIDENCE_APPLY | EVIDENCE_CLICK | EVIDENCE_CONTENT) == 0
        assert bool(code & EVIDENCE_APPLY) == (es.p_apps is not None)
        assert bool(code & EVIDENCE_CLICK) == (es.p_clicks is not None)
        assert bool(code & EVIDENCE_CONTENT) == (es.sim_e is not None)


# ---------------------------------------------------------------------------
# artifact format


def test_dump_digraph_quotes_job_ids_as_csv_writer_does():
    ids = ["plain", "with,comma", 'with"quote', '"quoted, both"', "a b"]
    rng = random.Random(3)
    edges = {}
    for src, dst in itertools.permutations(ids, 2):
        edges[(src, dst)] = (rng.choice([rng.uniform(-1.0, 2.0), 1e-300, 0.1 + 0.2]), rng.randint(1, 7))
    digraph = digraph_of(edges, ids)

    buf = StringIO()
    dump_digraph(digraph, buf)
    want = StringIO()
    writer = csv.writer(want, lineterminator="\n")
    for (src, dst), (corr, code) in edge_map(digraph).items():
        writer.writerow([src, dst, repr(corr), code])
    assert buf.getvalue() == want.getvalue()

    reloaded = load_digraph(StringIO(buf.getvalue()), ids)
    assert edge_map(reloaded) == edge_map(digraph)


def _csv_writer_dump(digraph):
    """The dump as csv.writer writes it, one row per edge of the CSR."""
    want = StringIO()
    writer = csv.writer(want, lineterminator="\n")
    for src in digraph.nodes:
        for dst, corr, code in out_edges(digraph, src):
            writer.writerow([src, dst, repr(corr), code])
    return want.getvalue()


@pytest.mark.parametrize("block", [1, 3, scoring.DUMP_BLOCK])
def test_dump_digraph_matches_csv_writer_on_random_scores(monkeypatch, block):
    monkeypatch.setattr(scoring, "DUMP_BLOCK", block)
    rng = random.Random(block)
    other_nan = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(np.float64)
    pool = [-0.0, 0.0, math.nan, *other_nan.tolist(), 5e-324, 2.5e-310, 1e16, 1.0, -1.0, 0.1 + 0.2, 1e-5]
    odd_ids = ["plain", "with,comma", 'with"quote', '"quoted, both"', "", "a b"]
    ids = odd_ids + [f"j{i:02d}" for i in range(64)]
    pairs = list(itertools.permutations(ids, 2))
    index = {job_id: i for i, job_id in enumerate(ids)}
    for trial in range(4):
        # the last trial spans more than one default block
        chosen = pairs if trial == 3 else rng.sample(pairs, rng.randint(0, 40))
        corr = np.array([rng.choice(pool) if rng.random() < 0.7 else rng.uniform(-2, 2) for _ in chosen])
        evidence = np.array([rng.randint(1, 7) for _ in chosen], dtype=np.uint8)
        src = np.array([index[a] for a, _ in chosen], dtype=np.intp)
        dst = np.array([index[b] for _, b in chosen], dtype=np.intp)
        active = ids if trial == 3 else rng.sample(ids, len(ids) * 3 // 4)
        digraph = RecDigraph(ids, src, dst, corr, evidence, active)
        buf = StringIO()
        dump_digraph(digraph, buf)
        assert buf.getvalue() == _csv_writer_dump(digraph)
    assert digraph.num_edges > scoring.DUMP_BLOCK


def _dump_records(text):
    """The physical lines of a dump, grouped by the row they belong to."""
    lines = text.splitlines(keepends=True)
    reader = csv.reader(lines)
    records, start = [], 0
    for _ in reader:
        records.append(lines[start : reader.line_num])
        start = reader.line_num
    return records


@pytest.mark.parametrize("block", [1, 3, scoring.LOAD_BLOCK])
def test_load_digraph_across_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(scoring, "LOAD_BLOCK", block)
    rng = random.Random(block)
    pool = [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, -1e-5]
    # the odd ids of the dump test but the empty one, which no dump loads,
    # and an id whose row spans two lines
    odd_ids = ["plain", "with,comma", 'with"quote', '"quoted, both"', "a b", "line\nbreak"]
    plain_ids = [f"j{i:02d}" for i in range(60)]
    ids = odd_ids + plain_ids
    chosen = rng.sample(list(itertools.permutations(plain_ids, 2)), 4 * block + 2)
    chosen += [("j00", "line\nbreak"), *rng.sample(list(itertools.permutations(ids, 2)), 12)]
    chosen = list(dict.fromkeys(chosen))
    corr = np.array([rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-2, 2) for _ in chosen])
    evidence = np.array([rng.randint(1, 7) for _ in chosen], dtype=np.uint8)
    index = {job_id: i for i, job_id in enumerate(ids)}
    src = np.array([index[a] for a, _ in chosen], dtype=np.intp)
    dst = np.array([index[b] for _, b in chosen], dtype=np.intp)
    digraph = RecDigraph(ids, src, dst, corr, evidence, ids)
    buf = StringIO()
    dump_digraph(digraph, buf)
    # plain rows first, so that the row over two lines, the first row that
    # is not plain, starts on the last line of the fourth block; and a
    # plain row last
    records = _dump_records(buf.getvalue())
    plain = [r for r in records if '"' not in r[0]]
    assert len(plain) > 4 * block
    head, last = plain[: 4 * block - 1], plain[-1]
    split_row = next(r for r in records if len(r) == 2)
    placed = {id(r) for r in (*head, split_row, last)}
    records = [*head, split_row, *(r for r in records if id(r) not in placed), last]
    rows = [line for record in records for line in record]

    reloaded = load_digraph(rows, ids)
    assert reloaded.nodes == digraph.nodes
    assert np.array_equal(reloaded.indptr, digraph.indptr)
    assert np.array_equal(reloaded.dst, digraph.dst)
    assert np.array_equal(reloaded.corr.view(np.int64), digraph.corr.view(np.int64))
    assert np.array_equal(reloaded.evidence, digraph.evidence)

    # a malformed row first and last in the third block and on the last
    # line, alone or with blank lines after the first row, which count as
    # lines but not as rows
    for line_no in (2 * block, 3 * block - 1, len(rows) - 1):
        for blanks in (0, 2):
            lines = rows[:]
            lines[line_no] = "j00,j01,x,1\n"
            lines[1:1] = ["\n"] * blanks
            with pytest.raises(ValueError, match=f"^digraph line {line_no + 1 + blanks}: non-numeric corr 'x'$"):
                load_digraph(lines, ids)


def test_load_digraph_sorts_and_filters_rows_in_any_order():
    rng = random.Random(8)
    graph, content, active = random_scoring_inputs(rng, 40, 0.3, 0.4)
    built = aggregate(graph, content_pairs(content), EngineConfig(), active)
    buf = StringIO()
    dump_digraph(built, buf)
    rows = buf.getvalue().splitlines(keepends=True)
    serving = set(rng.sample(sorted(active), len(active) * 3 // 4))
    kept = [row for row in rows if next(csv.reader([row]))[1] in serving]
    assert 0 < len(kept) < len(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)

    want = load_digraph(kept, serving)
    got = load_digraph(shuffled, serving)
    assert got.nodes == want.nodes
    for src in want.nodes:
        assert out_edges(got, src) == out_edges(want, src)
    again = StringIO()
    dump_digraph(got, again)
    assert again.getvalue() == "".join(kept)


def test_load_digraph_keeps_the_last_of_repeated_rows():
    rows = ["a,b,0.5,1\n", "a,c,0.25,2\n", "a,b,0.75,5\n"]
    digraph = load_digraph(rows, ["b", "c"])
    assert out_edges(digraph, "a") == [("b", 0.75, 5), ("c", 0.25, 2)]


def test_load_digraph_refuses_a_row_of_the_8_field_format():
    rows = ["a,b,0.5,1\n", "a,c,0.25,0.5,,-1.5,,0.8\n"]
    with pytest.raises(ValueError, match="^digraph line 2: expected 4 fields, got 8$"):
        load_digraph(rows, ["b", "c"])


def lexsort_reference(ids, src, dst, corr, evidence, active):
    """``(nodes, indptr, dst, corr, evidence)`` of a :class:`RecDigraph` of
    the edges ``ids[src] -> ids[dst]``, sorted by ``np.lexsort`` of the two
    columns, the last of repeated edges kept; ``dst`` as int32."""
    keep = np.flatnonzero([ids[d] in active for d in dst])
    nodes = sorted(set(active) | {ids[i] for i in src[keep]})
    remap = np.array([nodes.index(j) if j in nodes else -1 for j in ids], dtype=np.intp)
    s, d = remap[src[keep]], remap[dst[keep]]
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    last = np.ones(len(s), dtype=bool)
    last[:-1] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(s[last], minlength=len(nodes)))))
    rows = keep[order[last]]
    return nodes, indptr, d[last].astype(np.int32), corr[rows], evidence[rows]


@pytest.mark.parametrize("seed", range(6))
def test_rec_digraph_order_matches_a_lexsort_reference(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 30)), int(rng.integers(0, 400))
    ids = [f"j{i:02d}" for i in rng.permutation(n)]  # not in id order
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)  # with repeats
    corr = rng.random(m)
    evidence = rng.integers(1, 8, m).astype(np.uint8)
    active = {j for j in ids if rng.random() < 0.7}
    digraph = RecDigraph(ids, src, dst, corr, evidence, active)
    nodes, *want = lexsort_reference(ids, src, dst, corr, evidence, active)
    assert digraph.nodes == nodes
    for got, want in zip((digraph.indptr, digraph.dst, digraph.corr, digraph.evidence), want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    last = {(ids[s], ids[d]): value for s, d, value in zip(src.tolist(), dst.tolist(), corr.tolist())}
    for (s, d), value in last.items():
        assert corr_of(digraph, s, d) == (value if d in active else None)


def test_rec_digraph_keeps_in_order_scores_without_a_copy():
    ids = ["c", "a", "b"]  # in order after the mapping onto sorted nodes
    src, dst = np.array([1, 1, 2, 0]), np.array([2, 0, 0, 1])
    corr = np.arange(4, dtype=float)
    evidence = np.arange(1, 5, dtype=np.uint8)
    digraph = RecDigraph(ids, src, dst, corr, evidence, ids)
    assert digraph.corr is corr and digraph.evidence is evidence
    assert digraph.indptr.tolist() == [0, 2, 3, 4] and digraph.dst.tolist() == [1, 2, 2, 0]


def test_aggregate_peak_memory_stays_near_its_digraph():
    """The traced peak of ``aggregate`` on 1,000 jobs (89,756 edges) is
    4.54 MB, over its 1.17 MB digraph of ``corr``, ``evidence``, ``dst`` and
    ``indptr``. With six float64 score columns a row it was 8.46 MB (1.68
    times that digraph's 5.03 MB), and 2.91 times when it scored the
    candidates in their own order and then sorted the score rows. The bound
    keeps the headroom it had then over its measured peak."""
    corpus = synth_corpus(10, 100, 300, 0.1, 0)
    config = EngineConfig()
    windowed = window_filter(corpus.events, corpus.reference_date, config.window_days)
    graph = build_costats(dedupe(resolve_jobs(windowed, corpus.jobs)[0]), corpus.jobs, config.session_gap_minutes)
    content = content_edges(corpus.embeddings, config.gamma)
    tracemalloc.start()
    try:
        digraph = aggregate(graph, content, config, active_job_ids(corpus.jobs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digraph.num_edges == 89_756
    assert peak < 6_100_000


def test_load_digraph_peak_memory_stays_near_its_digraph():
    """The traced peak of ``load_digraph`` on 1,000 jobs (89,756 edges) is
    3.45 MB, over its 1.17 MB digraph. With six float64 score columns a row
    it was 7.67 MB (1.52 times that digraph's 5.03 MB), and 2.34 times when
    it kept every parsed block and concatenated them, and sorted and copied
    edges that were in order already. The bound keeps the headroom it had
    then over its measured peak."""
    corpus = synth_corpus(10, 100, 300, 0.1, 0)
    config = EngineConfig()
    windowed = window_filter(corpus.events, corpus.reference_date, config.window_days)
    signals = dedupe(resolve_jobs(windowed, corpus.jobs)[0])
    built, _, _ = build_digraph(signals, corpus.jobs, corpus.embeddings, config)
    buf = StringIO()
    dump_digraph(built, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    tracemalloc.start()
    try:
        digraph = load_digraph(iter(lines), active_job_ids(corpus.jobs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digraph.num_edges == built.num_edges == 89_756
    assert peak < 3_960_000


def test_load_digraph_rejects_an_empty_job_id():
    for rows, line_no in (
        ([",b,0.25,1\n"], 1),
        (["a,b,0.5,1\n", "a,,0.25,1\n"], 2),
        # the first bad row of a block is named, whatever the fault after it
        ([",b,0.25,1\n", "a,b,0.25,9\n"], 1),
    ):
        with pytest.raises(ValueError, match=f"digraph line {line_no}: empty job id"):
            load_digraph(rows, {"b"})


LOADABLE_CORR = ["0.5", "-2.25", "1e-300", "-0.0", " 3", "1_0"]


def _dump_row(ids, fields, edits, width):
    """4 fields that load, with ``edits`` applied, cut or padded to ``width``."""
    row = [*ids, *fields]
    for position, field in edits:
        row[position] = field
    return row[:width] + ["1"] * (width - len(row))


dump_rows = st.lists(
    st.builds(
        _dump_row,
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["b", "c"])),
        st.tuples(st.sampled_from(LOADABLE_CORR), st.sampled_from("1234567")),
        # at most one field made empty, non-finite, non-numeric or out of range
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["", "nan", "-inf", "x", "0", "8", "07", " 3"])), max_size=1
        ),
        st.sampled_from([4, 4, 4, 3, 5, 8]),
    ),
    max_size=6,
)


@settings(max_examples=400, deadline=None)
@given(dump_rows)
# an empty job id, then a row of the 8-field format
@example([["", "b", "0.5", "1"], ["a", "b", "0.5", "", "", "", "", "0.5"]])
def test_block_check_agrees_with_the_row_check(rows):
    block = list(enumerate(rows, start=1))
    problems = [(line_no, problem) for line_no, row in block if (problem := scoring._row_problem(row))]
    buffers = array("i"), array("i"), array("d"), array("B")
    if problems:
        with pytest.raises(ValueError) as raised:
            scoring._parse_rows(block, {}, *buffers)
        line_no, problem = problems[0]
        assert str(raised.value) == f"digraph line {line_no}: {problem}"
    else:
        index: dict[str, int] = {}
        scoring._parse_rows(block, index, *buffers)
        src, dst, corr, evidence = buffers
        nodes = list(index)
        assert [[nodes[s], nodes[d]] for s, d in zip(src, dst)] == [row[:2] for row in rows]
        assert corr.tolist() == [float(row[2]) for row in rows]
        assert evidence.tolist() == [int(row[3]) for row in rows]


def reference_load_digraph(lines, active_jobs):
    """``load_digraph`` one ``csv.reader`` row at a time."""
    index, src, dst, corr, evidence = {}, [], [], [], []
    reader = csv.reader(lines)
    for row in reader:
        if not row:
            continue
        if problem := scoring._row_problem(row):
            raise ValueError(f"digraph line {reader.line_num}: {problem}")
        src.append(index.setdefault(row[0], len(index)))
        dst.append(index.setdefault(row[1], len(index)))
        corr.append(float(row[2]))
        evidence.append(int(row[3]))
    return RecDigraph(list(index), np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
                      np.array(corr, dtype=float), np.array(evidence, dtype=np.uint8), active_jobs)


def _dump_lines(row, ending):
    """A row as csv.writer writes it, as the physical lines a file yields."""
    out = StringIO()
    csv.writer(out, lineterminator=ending).writerow(row)
    return out.getvalue().splitlines(keepends=True)


# mostly plain ids, so that whole blocks of rows are plain at block sizes 1 and 3
DUMP_IDS = ["a", "b", "c", "a b", "é"] * 3 + ["with,comma", 'q"uote', "line\nbreak"]
dump_files = st.lists(
    st.one_of(
        st.builds(
            _dump_lines,
            st.builds(
                _dump_row,
                st.tuples(st.sampled_from(DUMP_IDS), st.sampled_from(DUMP_IDS)),
                st.tuples(st.sampled_from(LOADABLE_CORR), st.sampled_from("1234567")),
                # now and then a field made empty, non-numeric, non-finite or out of range
                st.sampled_from([[]] * 40 + [[(0, "")], [(2, "x")], [(2, "nan")], [(3, "8")]]),
                st.sampled_from([4] * 40 + [3, 5]),
            ),
            st.sampled_from(["\n"] * 8 + ["\r\n"]),
        ),
        st.just(["\n"]),
    ),
    max_size=20,
).map(lambda rows: [line for lines in rows for line in lines])


@pytest.mark.parametrize("block", [1, 3, scoring.LOAD_BLOCK])
@given(lines=dump_files)
# plain blocks, then a row over two lines across a block boundary
@example(lines=["a,b,0.5,1\n", "b,c,-0.0,2\n", "c,a,1e-300,3\n", 'a,"line\n', 'break",0.25,4\n', "b,a,1_0,5\n"])
# rows of 3 and 5 fields, 4 on average
@example(lines=["a,b,0.5\n", "b,a,0.25,1,1\n"])
def test_load_digraph_matches_the_csv_reader_oracle(block, lines):
    active = set(DUMP_IDS)
    try:
        want = reference_load_digraph(lines, active)
    except ValueError as exc:
        want = exc
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "LOAD_BLOCK", block)
        try:
            got = load_digraph(iter(lines), active)
        except ValueError as exc:
            assert str(exc) == str(want)
            return
    assert not isinstance(want, ValueError), want
    assert got.nodes == want.nodes
    for column in ("indptr", "dst", "corr", "evidence"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


def test_pagerank_of_a_reloaded_dump_equals_the_built_digraph():
    rng = random.Random(12)
    graph, content, active = random_scoring_inputs(rng, 40, 0.3, 0.4)
    built = aggregate(graph, content_pairs(content), EngineConfig(w2=0.05), active)
    buf = StringIO()
    dump_digraph(built, buf)
    reloaded = load_digraph(StringIO(buf.getvalue()), active)
    assert global_pagerank(reloaded).scores == global_pagerank(built).scores
    known = sorted(active & set(graph.ids))
    for prefs in (known[:1], rng.sample(known, 5)):
        assert personalized_pagerank(reloaded, prefs).scores == personalized_pagerank(built, prefs).scores
