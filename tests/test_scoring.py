"""Edge-score formula and aggregation tests with frozen hand-computed values."""

import csv
import itertools
import math
import random
import tracemalloc
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
    digraph_of_scores,
    edge_map,
    embed_sim,
    mle,
    pmi2,
    reference_aggregate,
)
from jobgraph import scoring
from jobgraph.config import EngineConfig
from jobgraph.evaluation import synth_corpus
from jobgraph.graph import build_costats
from jobgraph.ingest import active_job_ids, dedupe, resolve_jobs, window_filter
from jobgraph.recommend import global_pagerank, personalized_pagerank
from jobgraph.scoring import (
    EdgeScores,
    RecDigraph,
    aggregate,
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
    assert digraph.corr("i", "j") == pytest.approx(0.16, abs=1e-15)
    assert digraph.corr("j", "i") == pytest.approx(0.16, abs=1e-15)
    es = edge_map(digraph)[("i", "j")]
    assert es.p_apps is None and es.p_clicks is None
    assert es.pmi2_apps is None and es.pmi2_clicks is None
    assert es.sim_e == pytest.approx(0.8)


def test_aggregate_perfect_cooccurrence_hand_value():
    g = graph_of({"i": (2, 2), "j": (2, 2)}, {("i", "j"): (2, 2)})
    digraph = aggregate(g, content_pairs({("i", "j"): 1.0}), EngineConfig(), ["i", "j"])
    # both probabilities 1.0, both co-information terms ln(1) = 0, sim 1.0
    assert digraph.corr("i", "j") == pytest.approx(1.2, abs=1e-12)


def test_aggregate_normalized_pmi2_hand_value():
    g = graph_of({"i": (2, 2), "j": (2, 2)}, {("i", "j"): (2, 2)})
    weights = EngineConfig(normalize_pmi2=True)
    digraph = aggregate(g, content_pairs({("i", "j"): 1.0}), weights, ["i", "j"])
    # exp(0) = 1 for each of the two co-information terms
    assert digraph.corr("i", "j") == pytest.approx(1.8, abs=1e-12)


def test_aggregate_apps_only_hand_value():
    g = graph_of({"i": (4, 0), "j": (8, 0)}, {("i", "j"): (2, 0)})
    digraph = aggregate(g, content_pairs({}), EngineConfig(), ["i", "j"])
    expected = 0.5 * (2 / 8) + 0.3 * math.log(4 / 32)
    assert digraph.corr("j", "i") == pytest.approx(expected, abs=1e-12)
    reverse = 0.5 * (2 / 4) + 0.3 * math.log(4 / 32)
    assert digraph.corr("i", "j") == pytest.approx(reverse, abs=1e-12)
    assert digraph.corr("i", "j") != digraph.corr("j", "i")


def test_aggregate_skips_expired_destinations():
    g = graph_of({"i": (3, 0), "j": (3, 0)}, {("i", "j"): (2, 0)})
    digraph = aggregate(g, content_pairs({}), EngineConfig(), ["i"])
    assert digraph.corr("j", "i") is not None  # expired source feeds active dst
    assert digraph.corr("i", "j") is None


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
    assert edge_map(reloaded) == edge_map(digraph)  # including None components

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
        assert got[key] == es  # every field, None components included
        assert repr(got[key]) == repr(es)  # bit for bit
    assert list(got) == sorted(got)


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


# ---------------------------------------------------------------------------
# artifact format


def test_dump_digraph_quotes_job_ids_as_csv_writer_does():
    ids = ["plain", "with,comma", 'with"quote', '"quoted, both"', "a b"]
    components = [None, 0.25, -1.5, 1e-300, 0.1 + 0.2]
    rng = random.Random(3)
    edges = {}
    for src, dst in itertools.permutations(ids, 2):
        fields = [rng.choice(components) for _ in range(5)]
        edges[(src, dst)] = EdgeScores(rng.uniform(-1.0, 2.0), *fields)
    digraph = digraph_of_scores(edges, ids)

    buf = StringIO()
    dump_digraph(digraph, buf)
    want = StringIO()
    writer = csv.writer(want, lineterminator="\n")
    for (src, dst), es in edge_map(digraph).items():
        writer.writerow([src, dst, *("" if v is None else repr(v) for v in es)])
    assert buf.getvalue() == want.getvalue()

    reloaded = load_digraph(StringIO(buf.getvalue()), ids)
    assert edge_map(reloaded) == edge_map(digraph)


def _csv_writer_dump(digraph):
    """The dump as csv.writer writes it, one row per edge of the CSR."""
    want = StringIO()
    writer = csv.writer(want, lineterminator="\n")
    bounds = digraph.indptr.tolist()
    for src, lo, hi in zip(digraph.nodes, bounds, bounds[1:]):
        for dst, row in zip(digraph.dst[lo:hi].tolist(), digraph.scores[lo:hi].tolist()):
            writer.writerow([src, digraph.nodes[dst], *("" if v != v else repr(v) for v in row)])
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
        values = [rng.choice(pool) if rng.random() < 0.7 else rng.uniform(-2, 2) for _ in range(len(chosen) * 6)]
        scores = np.array(values, dtype=np.float64).reshape(len(chosen), 6)
        src = np.array([index[a] for a, _ in chosen], dtype=np.intp)
        dst = np.array([index[b] for _, b in chosen], dtype=np.intp)
        active = ids if trial == 3 else rng.sample(ids, len(ids) * 3 // 4)
        digraph = RecDigraph(ids, src, dst, scores, active)
        buf = StringIO()
        dump_digraph(digraph, buf)
        assert buf.getvalue() == _csv_writer_dump(digraph)
    assert digraph.num_edges > scoring.DUMP_BLOCK


@pytest.mark.parametrize("block", [1, 3, scoring.LOAD_BLOCK])
def test_load_digraph_across_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(scoring, "LOAD_BLOCK", block)
    rng = random.Random(block)
    pool = [-0.0, 0.0, math.nan, 5e-324, 1e16, 0.1 + 0.2, -1e-5]
    ids = [f"j{i:02d}" for i in range(60)]
    chosen = rng.sample(list(itertools.permutations(ids, 2)), 3 * block + 2)
    scores = np.array([rng.choice(pool) for _ in range(len(chosen) * 6)]).reshape(len(chosen), 6)
    scores[:, 0] = [rng.uniform(-2, 2) for _ in chosen]  # corr is never absent
    index = {job_id: i for i, job_id in enumerate(ids)}
    src = np.array([index[a] for a, _ in chosen], dtype=np.intp)
    dst = np.array([index[b] for _, b in chosen], dtype=np.intp)
    digraph = RecDigraph(ids, src, dst, scores, ids)
    buf = StringIO()
    dump_digraph(digraph, buf)
    rows = buf.getvalue().splitlines(keepends=True)
    assert len(rows) > 3 * block

    reloaded = load_digraph(rows, ids)
    assert reloaded.nodes == digraph.nodes
    assert np.array_equal(reloaded.indptr, digraph.indptr)
    assert np.array_equal(reloaded.dst, digraph.dst)
    assert np.array_equal(reloaded.scores.view(np.int64), digraph.scores.view(np.int64))

    # a malformed row first and last in the third block, with blank lines
    # before it that count as lines but not as rows of a block
    for row_no in (2 * block, 3 * block - 1):
        lines = rows[:]
        lines[row_no] = "j00,j01,x,,,,,\n"
        lines[1:1] = ["\n", "\n"]
        with pytest.raises(ValueError, match=f"^digraph line {row_no + 3}: non-numeric corr 'x'$"):
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
        assert got.out_edges(src) == want.out_edges(src)
    again = StringIO()
    dump_digraph(got, again)
    assert again.getvalue() == "".join(kept)


def test_load_digraph_keeps_the_last_of_repeated_rows():
    rows = ["a,b,0.5,,,,,\n", "a,c,0.25,,,,,\n", "a,b,0.75,,,,,0.5\n"]
    digraph = load_digraph(rows, ["b", "c"])
    assert digraph.out_edges("a") == [("b", EdgeScores(0.75, sim_e=0.5)), ("c", EdgeScores(0.25))]


def lexsort_reference(ids, src, dst, scores, active):
    """``(nodes, indptr, dst, scores)`` of a :class:`RecDigraph` of the
    edges ``ids[src] -> ids[dst]``, sorted by ``np.lexsort`` of the two
    columns, the last of repeated edges kept."""
    keep = np.flatnonzero([ids[d] in active for d in dst])
    nodes = sorted(set(active) | {ids[i] for i in src[keep]})
    remap = np.array([nodes.index(j) if j in nodes else -1 for j in ids], dtype=np.intp)
    s, d = remap[src[keep]], remap[dst[keep]]
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    last = np.ones(len(s), dtype=bool)
    last[:-1] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(s[last], minlength=len(nodes)))))
    return nodes, indptr, d[last], scores[keep[order[last]]]


@pytest.mark.parametrize("seed", range(6))
def test_rec_digraph_order_matches_a_lexsort_reference(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 30)), int(rng.integers(0, 400))
    ids = [f"j{i:02d}" for i in rng.permutation(n)]  # not in id order
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)  # with repeats
    scores = rng.random((m, len(EdgeScores._fields)))
    active = {j for j in ids if rng.random() < 0.7}
    digraph = RecDigraph(ids, src, dst, scores, active)
    nodes, indptr, want_dst, want_scores = lexsort_reference(ids, src, dst, scores, active)
    assert digraph.nodes == nodes
    for got, want in ((digraph.indptr, indptr), (digraph.dst, want_dst), (digraph.scores, want_scores)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    last = {(ids[s], ids[d]): row for s, d, row in zip(src.tolist(), dst.tolist(), scores.tolist())}
    for (s, d), row in last.items():
        assert digraph.corr(s, d) == (row[0] if d in active else None)


def test_rec_digraph_keeps_in_order_scores_without_a_copy():
    ids = ["c", "a", "b"]  # in order after the mapping onto sorted nodes
    src, dst = np.array([1, 1, 2, 0]), np.array([2, 0, 0, 1])
    scores = np.arange(4 * len(EdgeScores._fields), dtype=float).reshape(4, -1)
    digraph = RecDigraph(ids, src, dst, scores, ids)
    assert digraph.scores is scores
    assert digraph.indptr.tolist() == [0, 2, 3, 4] and digraph.dst.tolist() == [1, 2, 2, 0]


def test_aggregate_peak_memory_stays_near_its_digraph():
    """The traced peak of ``aggregate`` on 1,000 jobs (89,756 edges) is
    1.78 times the bytes of the digraph's arrays; when it scored the
    candidates in their own order and then sorted the score rows, it was
    2.91 times."""
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
    held = digraph.scores.nbytes + digraph.dst.nbytes + digraph.indptr.nbytes
    assert peak < 2.25 * held


def test_load_digraph_rejects_an_empty_job_id():
    for rows, line_no in (
        ([",b,0.25,,,,,\n"], 1),
        (["a,b,0.5,,,,,\n", "a,,0.25,,,,,\n"], 2),
        # a literal nan elsewhere in the block evens out the count of empty fields
        ([",b,0.25,,,,,\n", "a,b,0.25,,,,,nan\n"], 1),
    ):
        with pytest.raises(ValueError, match=f"digraph line {line_no}: empty job id"):
            load_digraph(rows, {"b"})


LOADABLE_FIELDS = ["0.5", "-2.25", "1e-300", "-0.0", " 3", "1_0", ""]


def _dump_row(ids, scores, edits, width):
    """8 fields that load, with ``edits`` applied, cut or padded to ``width``."""
    row = [*ids, *scores]
    for position, field in edits:
        row[position] = field
    return row[:width] + ["0"] * (width - len(row))


dump_rows = st.lists(
    st.builds(
        _dump_row,
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["b", "c"])),
        st.tuples(st.sampled_from(["0.5", "-1e-9"]), *[st.sampled_from(LOADABLE_FIELDS)] * 5),
        # at most one field made empty, non-finite or non-numeric
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(["", "nan", "-inf", "x"])), max_size=1),
        st.sampled_from([8, 8, 8, 7, 9]),
    ),
    max_size=6,
)


@settings(max_examples=400, deadline=None)
@given(dump_rows)
# an empty job id and a literal nan: as many NaNs as empty fields in the block
@example([["", "b", "0.5", "", "", "", "", ""], ["a", "b", "0.5", "nan", "", "", "", ""]])
def test_block_check_agrees_with_the_row_check(rows):
    block = list(enumerate(rows, start=1))
    problems = [(line_no, problem) for line_no, row in block if (problem := scoring._row_problem(row))]
    if problems:
        with pytest.raises(ValueError) as raised:
            scoring._parse_rows(block, {})
        line_no, problem = problems[0]
        assert str(raised.value) == f"digraph line {line_no}: {problem}"
    else:
        index: dict[str, int] = {}
        src, dst, scores = scoring._parse_rows(block, index)
        nodes = list(index)
        assert [[nodes[s], nodes[d]] for s, d in zip(src, dst)] == [row[:2] for row in rows]
        want = [[float(f) if f else math.nan for f in row[2:]] for row in rows]
        assert np.array_equal(scores, np.array(want).reshape(-1, 6), equal_nan=True)


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
