"""Ratings-matrix construction, ALS training dynamics, prediction, ranking,
and model persistence."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    _solve_row,
    ev,
    reference_als_train,
    reference_recommend_mf,
    reference_uniform_init,
    signal_records,
)
from jobgraph.ingest import SignalKind, dedupe
from jobgraph.mf import (
    ALS_BLOCK,
    FactorModel,
    RatingsMatrix,
    als_train,
    build_matrix,
    predict_biased,
    predict_implicit,
    recommend_mf,
    uniform_init,
    _solve_batch,
)


def signals(*events):
    return signal_records(dedupe(list(events)))


def entry_map(matrix):
    return {
        (matrix.user_ids[u], matrix.job_ids[j]): v for u, j, v in matrix.entries
    }


def random_matrix(rng, m=8, n=6, density=0.5, with_implicit=False):
    entries = [
        (u, j, rng.choice([1.0, -1.0]))
        for u in range(m)
        for j in range(n)
        if rng.random() < density
    ]
    if not entries:
        entries = [(0, 0, 1.0)]
    implicit = {}
    if with_implicit:
        for u in range(m):
            items = tuple(sorted(rng.sample(range(n), rng.randint(1, 3))))
            if rng.random() < 0.7:
                implicit[u] = items
    return RatingsMatrix(
        [f"u{i}" for i in range(m)], [f"j{i}" for i in range(n)], entries, implicit
    )


# ---------------------------------------------------------------------------
# matrix construction


def test_build_matrix_signs():
    m = build_matrix(
        signals(
            ev("u1", "a", SignalKind.APPLY),
            ev("u1", "b", SignalKind.EMAIL_OPEN_NO_CLICK),
            ev("u2", "a", SignalKind.EMAIL_OPEN_NO_CLICK),
        )
    )
    assert entry_map(m) == {("u1", "a"): 1.0, ("u1", "b"): -1.0, ("u2", "a"): -1.0}
    assert m.user_ids == ["u1", "u2"] and m.job_ids == ["a", "b"]


def test_build_matrix_apply_beats_ignored_email_in_both_orders():
    first_apply = build_matrix(
        [
            *signals(ev("u", "a", SignalKind.APPLY, age_days=5)),
            *signals(ev("u", "a", SignalKind.EMAIL_OPEN_NO_CLICK, age_days=1)),
        ]
    )
    first_email = build_matrix(
        [
            *signals(ev("u", "a", SignalKind.EMAIL_OPEN_NO_CLICK, age_days=5)),
            *signals(ev("u", "a", SignalKind.APPLY, age_days=1)),
        ]
    )
    assert entry_map(first_apply) == {("u", "a"): 1.0}
    assert entry_map(first_email) == {("u", "a"): 1.0}


def test_build_matrix_clicks_become_implicit_sets_only():
    m = build_matrix(
        signals(
            ev("u1", "a", SignalKind.APPLY),
            ev("u1", "b", SignalKind.APPLY),
            ev("u1", "b", SignalKind.CLICK),
            ev("u1", "zz", SignalKind.CLICK),  # job never rated by anyone
            ev("u2", "a", SignalKind.CLICK),  # user never rates anything
        )
    )
    assert m.user_ids == ["u1"]
    assert m.job_ids == ["a", "b"]
    assert m.implicit == {0: (1,)}


def test_build_matrix_matches_dict_oracle_on_random_streams():
    rng = random.Random(13)
    kinds = [SignalKind.APPLY, SignalKind.EMAIL_OPEN_NO_CLICK]
    for _ in range(50):
        stream = [
            ev(
                f"u{rng.randint(0, 5)}",
                f"j{rng.randint(0, 7)}",
                rng.choice(kinds),
                age_days=rng.uniform(0, 50),
            )
            for _ in range(rng.randint(1, 60))
        ]
        deduped = signal_records(dedupe(stream))
        matrix = build_matrix(dedupe(stream))
        want = {}
        for s in deduped:
            if s.kind is SignalKind.APPLY:
                want[(s.user_id, s.job_id)] = 1.0
            elif (s.user_id, s.job_id) not in want:
                want[(s.user_id, s.job_id)] = -1.0
        # dedupe orders kinds apply-first per (user, job), so apply wins
        want = {
            key: 1.0 if any(
                t.kind is SignalKind.APPLY and (t.user_id, t.job_id) == key
                for t in deduped
            ) else -1.0
            for key in want
        }
        assert entry_map(matrix) == want


# ---------------------------------------------------------------------------
# training


def test_als_loss_nonincreasing_across_half_steps():
    rng = random.Random(41)
    for trial in range(10):
        matrix = random_matrix(rng, m=7, n=5, density=0.6)
        model = als_train(matrix, k=3, reg=0.1, iterations=6, seed=trial)
        values = [v for _, v in model.loss_trace]
        assert len(values) == 12
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))


def test_als_loss_nonincreasing_with_implicit_term():
    rng = random.Random(43)
    for trial in range(5):
        matrix = random_matrix(rng, m=6, n=5, density=0.7, with_implicit=True)
        model = als_train(matrix, k=2, reg=0.05, iterations=5, seed=trial, implicit=True)
        labels = [label for label, _ in model.loss_trace]
        assert any(label.endswith(":implicit") for label in labels)
        values = [v for _, v in model.loss_trace]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))


def test_als_recovers_rank_one_matrix():
    rng = random.Random(47)
    s = np.array([rng.choice([1.0, -1.0]) for _ in range(8)])
    t = np.array([rng.choice([1.0, -1.0]) for _ in range(6)])
    entries = [(u, j, float(s[u] * t[j])) for u in range(8) for j in range(6)]
    matrix = RatingsMatrix(
        [f"u{i}" for i in range(8)], [f"j{i}" for i in range(6)], entries
    )
    model = als_train(matrix, k=1, reg=0.0, iterations=15, seed=0)
    assert model.mse_trace[-1] < 1e-8


def test_als_regularization_shrinks_parameters():
    rng = random.Random(53)
    matrix = random_matrix(rng, m=10, n=8, density=0.6)
    loose = als_train(matrix, k=2, reg=1e-3, iterations=8, seed=1)
    tight = als_train(matrix, k=2, reg=100.0, iterations=8, seed=1)
    assert np.linalg.norm(tight.user_factors) < np.linalg.norm(loose.user_factors)
    assert np.linalg.norm(tight.job_bias) < np.linalg.norm(loose.job_bias)


def test_als_deterministic_for_fixed_seed():
    rng = random.Random(59)
    matrix = random_matrix(rng, m=6, n=6, density=0.5)
    a = als_train(matrix, k=3, reg=0.1, iterations=4, seed=9)
    b = als_train(matrix, k=3, reg=0.1, iterations=4, seed=9)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.job_factors, b.job_factors)
    assert a.loss_trace == b.loss_trace
    c = als_train(matrix, k=3, reg=0.1, iterations=4, seed=10)
    assert not np.array_equal(a.user_factors, c.user_factors)


def test_als_input_validation():
    empty = RatingsMatrix([], [], [])
    with pytest.raises(ValueError):
        als_train(empty)
    ok = RatingsMatrix(["u"], ["j"], [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        als_train(ok, k=0)
    with pytest.raises(ValueError):
        als_train(ok, reg=-0.5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        als_train(ok, seed=-3)


def test_uniform_init_is_seeded_and_lies_in_its_range():
    a = uniform_init(random.Random(11), 40, 5)
    assert a.shape == (40, 5) and a.dtype == np.float64
    assert np.all((-0.01 <= a) & (a < 0.01))
    assert np.array_equal(a, uniform_init(random.Random(11), 40, 5))
    assert np.array_equal(a, reference_uniform_init(random.Random(11), 40, 5))
    assert not np.any(a == uniform_init(random.Random(12), 40, 5))
    # the end points: all-zero bits give the low end, all-one bits stay below the high
    zeros = SimpleNamespace(randbytes=bytes)
    assert uniform_init(zeros, 2, 3).tolist() == [[-0.01] * 3] * 2
    ones = SimpleNamespace(randbytes=lambda n: b"\xff" * n)
    assert 0.0099 < uniform_init(ones, 1, 1)[0, 0] < 0.01


# ---------------------------------------------------------------------------
# batched training against the per-row reference


def assert_same_training(got, want):
    for a, b in [
        (got.user_factors, want.user_factors),
        (got.job_factors, want.job_factors),
        (got.user_bias, want.user_bias),
        (got.job_bias, want.job_bias),
        (got.implicit_factors, want.implicit_factors),
    ]:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
    assert [label for label, _ in got.loss_trace] == [label for label, _ in want.loss_trace]
    for (_, a), (_, b) in zip(got.loss_trace, want.loss_trace):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    for a, b in zip(got.mse_trace, want.mse_trace):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    assert got.mu == want.mu


def both_trainings(matrix, **kwargs):
    return als_train(matrix, **kwargs), reference_als_train(matrix, **kwargs)


def test_als_matches_per_row_reference_on_random_matrices():
    rng = random.Random(83)
    for trial in range(15):
        matrix = random_matrix(
            rng, m=rng.randint(2, 12), n=rng.randint(2, 10), density=rng.uniform(0.2, 0.9)
        )
        k = rng.randint(1, 4)
        assert_same_training(*both_trainings(matrix, k=k, reg=0.1, iterations=4, seed=trial))


def test_als_matches_reference_without_regularization():
    # reg == 0 on a dense rank-one matrix with k = 1: every row's normal
    # equations are well posed. (On sparse +-1 matrices the unregularized
    # factors grow to 1e3-1e6 and any change of rounding moves them far
    # more than 1e-10, in the per-row reference as much as here.)
    rng = random.Random(89)
    for trial in range(5):
        m, n = rng.randint(4, 12), rng.randint(4, 10)
        s = [rng.choice([1.0, -1.0]) for _ in range(m)]
        t = [rng.choice([1.0, -1.0]) for _ in range(n)]
        matrix = RatingsMatrix(
            [f"u{i}" for i in range(m)],
            [f"j{i}" for i in range(n)],
            [(u, j, s[u] * t[j]) for u in range(m) for j in range(n)],
        )
        assert_same_training(*both_trainings(matrix, k=1, reg=0.0, iterations=6, seed=trial))


def test_unregularized_batched_solve_is_the_minimum_norm_answer():
    # rows with fewer entries than unknowns, zero-padded among longer rows
    rng = np.random.default_rng(97)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        lengths = rng.integers(1, d + 3, size=4)
        design = np.zeros((4, lengths.max(), d))
        target = np.zeros((4, lengths.max()))
        for b, length in enumerate(lengths):
            design[b, :length, :-1] = rng.uniform(-1, 1, size=(length, d - 1))
            design[b, :length, -1] = 1.0
            target[b, :length] = rng.choice([1.0, -1.0], size=length)
        got = _solve_batch(design, target, 0.0)
        for b, length in enumerate(lengths):
            want = _solve_row(design[b, :length], target[b, :length], 0.0)
            np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-10)


def test_als_matches_reference_with_single_entry_rows():
    # every user and every job holds exactly one entry
    entries = [(i, (3 * i) % 7, 1.0 if i % 2 else -1.0) for i in range(7)]
    matrix = RatingsMatrix([f"u{i}" for i in range(7)], [f"j{i}" for i in range(7)], entries)
    assert_same_training(*both_trainings(matrix, k=2, reg=0.1, iterations=4, seed=1))
    # one heavy user beside single-entry users and jobs
    entries = [(0, j, 1.0) for j in range(5)] + [(u, u + 4, -1.0) for u in range(1, 6)]
    matrix = RatingsMatrix([f"u{i}" for i in range(6)], [f"j{i}" for i in range(10)], sorted(entries))
    assert_same_training(*both_trainings(matrix, k=3, reg=0.1, iterations=4, seed=2))


def test_als_matches_reference_with_rows_longer_than_a_block():
    rng = random.Random(101)
    n = ALS_BLOCK + 37
    entries = [(0, j, rng.choice([1.0, -1.0])) for j in range(n)]
    entries += [(u, j, rng.choice([1.0, -1.0])) for u in range(1, 5) for j in range(n) if rng.random() < 0.1]
    matrix = RatingsMatrix([f"u{i}" for i in range(5)], [f"j{i}" for i in range(n)], entries)
    assert_same_training(*both_trainings(matrix, k=3, reg=0.1, iterations=3, seed=3))


def test_als_matches_reference_with_rows_over_several_blocks():
    rng = random.Random(103)
    matrix = random_matrix(rng, m=3 * ALS_BLOCK + 5, n=40, density=0.15)
    assert_same_training(*both_trainings(matrix, k=4, reg=0.1, iterations=3, seed=4))


def test_als_jobs_without_entries_keep_their_seeded_init():
    entries = [(0, 0, 1.0), (0, 2, -1.0), (1, 2, 1.0), (2, 0, -1.0), (2, 4, 1.0)]
    matrix = RatingsMatrix(["a", "b", "c"], ["j0", "j1", "j2", "j3", "j4"], entries)
    got, want = both_trainings(matrix, k=2, reg=0.1, iterations=3, seed=5)
    assert_same_training(got, want)
    init = random.Random(5)
    reference_uniform_init(init, 3, 2)
    job_init = reference_uniform_init(init, 5, 2)
    for j in (1, 3):
        assert np.array_equal(got.job_factors[j], job_init[j])
        assert got.job_bias[j] == 0.0


def test_als_matches_reference_with_implicit_term():
    rng = random.Random(107)
    for trial in range(5):
        matrix = random_matrix(rng, m=8, n=6, density=0.6, with_implicit=True)
        assert_same_training(
            *both_trainings(matrix, k=3, reg=0.05, iterations=4, seed=trial, implicit=True)
        )


# ---------------------------------------------------------------------------
# prediction


def tiny_model():
    return FactorModel(
        user_factors=np.array([[1.0, 2.0]]),
        job_factors=np.array([[3.0, 4.0], [0.5, 0.5]]),
        user_bias=np.array([0.1]),
        job_bias=np.array([0.2, 0.3]),
        implicit_factors=np.array([[0.0, 0.0], [1.0, -1.0]]),
        mu=0.05,
        user_ids=["ua"],
        job_ids=["ja", "jb"],
    )


def test_predict_biased_hand_value_and_unknown_ids():
    model = tiny_model()
    assert predict_biased(model, "ua", "ja") == pytest.approx(
        0.05 + 0.1 + 0.2 + (1 * 3 + 2 * 4)
    )
    with pytest.raises(KeyError):
        predict_biased(model, "ghost", "ja")
    with pytest.raises(KeyError):
        predict_biased(model, "ua", "ghost")


def test_predict_implicit_hand_value():
    model = tiny_model()
    # blended user vector [1,2] + Y[jb] = [2,1]; score 0.05+0.1+0.2+(6+4)
    assert predict_implicit(model, "ua", "ja", ["jb"]) == pytest.approx(10.35)


def test_predict_implicit_empty_set_is_bitwise_plain_prediction():
    model = tiny_model()
    assert predict_implicit(model, "ua", "ja", []) == predict_biased(model, "ua", "ja")
    assert predict_implicit(model, "ua", "jb") == predict_biased(model, "ua", "jb")


def test_predict_implicit_skips_unknown_items(caplog):
    model = tiny_model()
    with caplog.at_level("WARNING"):
        value = predict_implicit(model, "ua", "ja", ["nope"])
    assert value == predict_biased(model, "ua", "ja")
    assert any("nope" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# ranking


def test_recommend_mf_matches_per_job_predictions():
    rng = random.Random(61)
    matrix = random_matrix(rng, m=5, n=7, density=0.7)
    model = als_train(matrix, k=2, reg=0.1, iterations=5, seed=2)
    got = recommend_mf(model, "u2", k=7)
    want = sorted(
        ((j, predict_biased(model, "u2", j)) for j in model.job_ids),
        key=lambda kv: (-kv[1], kv[0]),
    )
    assert [j for j, _ in got] == [j for j, _ in want]
    for (ja, sa), (jb, sb) in zip(got, want):
        assert sa == pytest.approx(sb, abs=1e-12)


def test_recommend_mf_filters_and_truncates():
    rng = random.Random(67)
    matrix = random_matrix(rng, m=4, n=6, density=0.8)
    model = als_train(matrix, k=2, reg=0.1, iterations=4, seed=3)
    full = recommend_mf(model, "u0", k=10)
    assert len(full) == 6
    capped = recommend_mf(model, "u0", k=2)
    assert capped == full[:2]
    pool = {"j1", "j4"}
    restricted = recommend_mf(model, "u0", k=10, active_jobs=pool)
    assert {j for j, _ in restricted} == pool
    banned = recommend_mf(model, "u0", k=10, exclusions=["j1"], active_jobs=pool)
    assert [j for j, _ in banned] == ["j4"]


def test_recommend_mf_applies_implicit_history():
    rng = random.Random(71)
    matrix = random_matrix(rng, m=5, n=6, density=0.7, with_implicit=True)
    model = als_train(matrix, k=2, reg=0.1, iterations=5, seed=4, implicit=True)
    plain = recommend_mf(model, "u1", k=6)
    with_items = recommend_mf(model, "u1", k=6, implicit_items=["j0", "j3"])
    history = dict(with_items)
    for j, _ in plain:
        assert history[j] == pytest.approx(
            predict_implicit(model, "u1", j, ["j0", "j3"]), abs=1e-12
        )


def assert_same_ranking(model, user_id, k, **kwargs):
    got = recommend_mf(model, user_id, k, **kwargs)
    want = reference_recommend_mf(model, user_id, k, **kwargs)
    assert got == want
    # repr tells 0.0 from -0.0 and shows each float exactly
    assert repr(got) == repr(want)


def test_recommend_mf_matches_sort_reference_with_exact_ties():
    rng = np.random.default_rng(109)
    n = 12
    base = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(4, 2))
    model = FactorModel(
        user_factors=rng.choice([-1.0, 1.0], size=(3, 2)),
        job_factors=base[rng.integers(0, 4, size=n)],  # duplicated rows tie exactly
        user_bias=np.zeros(3),
        job_bias=np.zeros(n),
        implicit_factors=np.zeros((n, 2)),
        mu=0.0,
        user_ids=["u0", "u1", "u2"],
        job_ids=[f"j{i:02d}" for i in range(n)],
    )
    for user_id in model.user_ids:
        for k in (1, 3, n, n + 5):
            assert_same_ranking(model, user_id, k)


def test_recommend_mf_matches_sort_reference_on_zero_scores():
    # zero scores by cancellation (their sort keys are -0.0) tie by id,
    # beside the smallest subnormals of either sign, which do not tie
    tiny = 5e-324
    model = FactorModel(
        user_factors=np.array([[1.0]]),
        job_factors=np.array([[0.0], [0.0], [tiny], [0.0], [-tiny], [0.0], [-0.0]]),
        user_bias=np.array([-0.25]),
        job_bias=np.array([0.0, 0.0, 0.0, -1.0, 0.0, 1.0, -0.0]),
        implicit_factors=np.zeros((7, 1)),
        mu=0.25,
        user_ids=["u"],
        job_ids=["g", "f", "e", "d", "c", "b", "a"],
    )
    assert [job_id for job_id, _ in recommend_mf(model, "u", k=7)] == [
        "b", "e", "a", "f", "g", "c", "d"
    ]
    for k in (2, 4, 9):
        assert_same_ranking(model, "u", k)


def test_recommend_mf_matches_sort_reference_after_load_with_unsorted_ids():
    rng = random.Random(113)
    matrix = random_matrix(rng, m=5, n=9, density=0.7, with_implicit=True)
    model = als_train(matrix, k=2, reg=0.1, iterations=3, seed=6, implicit=True)
    # the model's arrays loaded under job ids whose order differs from index order
    shuffled = ["j7", "j2", "j0", "j8", "j5", "j1", "j3", "j6", "j4"]
    clone = FactorModel(
        model.user_factors, model.job_factors.copy(), model.user_bias, model.job_bias.copy(),
        model.implicit_factors, model.mu, model.user_ids, shuffled,
    )
    # a duplicated factor row ties two ids whose order differs from index order
    clone.job_factors[8] = clone.job_factors[0]
    clone.job_bias[8] = clone.job_bias[0]
    for user_id in clone.user_ids:
        assert_same_ranking(clone, user_id, 4)
        assert_same_ranking(clone, user_id, 20)


def test_recommend_mf_matches_sort_reference_with_filters_and_history():
    rng = random.Random(127)
    matrix = random_matrix(rng, m=6, n=10, density=0.6, with_implicit=True)
    model = als_train(matrix, k=3, reg=0.1, iterations=3, seed=7, implicit=True)
    for trial in range(40):
        pool = rng.sample(model.job_ids, rng.randint(0, 10))
        banned = rng.sample(model.job_ids, rng.randint(0, 4)) + ["ghost"]
        history = rng.sample(model.job_ids + ["ghost"], rng.randint(0, 3))
        for exclusions, active in [
            (set(banned), frozenset(pool)),
            (list(banned), list(pool)),
            (tuple(banned), None),
        ]:
            assert_same_ranking(
                model,
                rng.choice(model.user_ids),
                rng.randint(1, 12),
                exclusions=exclusions,
                active_jobs=active,
                implicit_items=history,
            )


def test_recommend_mf_unknown_user_raises():
    model = tiny_model()
    with pytest.raises(KeyError):
        recommend_mf(model, "ghost", k=3)
