"""Matrix-factorization baseline trained with alternating least squares.

The interaction matrix holds +1 for an application and -1 for a job the
user saw in a recommendation email but did not click (the negative signal
prevents the all-positive matrix from collapsing to rank one). Factors and
per-user/per-job biases are fit by exact regularized least squares over the
observed entries only, alternating between the user side and the job side.
An optional implicit-feedback term adds per-job vectors accumulated over
each user's click history.

The factors start from small uniform draws of the stdlib
``random.Random(seed)`` (:func:`uniform_init`), not ``numpy.random``, which
loads OpenSSL through ``secrets``.
"""

from __future__ import annotations

import logging
import random
from collections.abc import Callable, Set as AbstractSet
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .ingest import DedupedSignal, EventLog, SignalKind, _distinct, _run_tails, as_event_log

logger = logging.getLogger(__name__)


@dataclass
class RatingsMatrix:
    """Sparse +-1 interaction matrix with id-index mappings.

    ``implicit`` maps a user index to the (sorted) indexed jobs the user
    clicked; it feeds the optional implicit-feedback term.
    """

    user_ids: list[str]
    job_ids: list[str]
    entries: list[tuple[int, int, float]]
    implicit: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_jobs(self) -> int:
        return len(self.job_ids)


def build_matrix(signals: EventLog | Iterable[DedupedSignal]) -> RatingsMatrix:
    """Build the +-1 matrix from deduped signals.

    Applies map to +1 and ignored emails to -1; an apply wins any conflict
    on the same (user, job) cell. Clicks never become entries, but clicks
    on indexed jobs are collected as the implicit sets.
    """
    log = as_event_log(signals)
    n = max(len(log.jobs), 1)  # the base of the (user, job) keys
    key = log.user * n + log.job
    rated = log.kind != SignalKind.CLICK.code
    value = np.where(log.kind[rated] == SignalKind.APPLY.code, 1.0, -1.0)
    order = np.lexsort((value, key[rated]))  # a cell's largest value last
    cells, values = key[rated][order], value[order]
    last = _run_tails(cells)
    cells, values = cells[last], values[last]
    users, jobs = _distinct(cells // n), _distinct(cells % n)
    # a log code's row or column in the matrix, -1 for none
    user_index = np.full(len(log.users), -1)
    user_index[users] = np.arange(len(users))
    job_index = np.full(len(log.jobs), -1)
    job_index[jobs] = np.arange(len(jobs))
    entries = list(zip(user_index[cells // n].tolist(), job_index[cells % n].tolist(), values.tolist()))

    clicks = ~rated
    u, j = user_index[log.user[clicks]], job_index[log.job[clicks]]
    pairs = _distinct((u * n + j)[(u >= 0) & (j >= 0)])
    implicit: dict[int, list[int]] = {}
    for ui, ji in zip((pairs // n).tolist(), (pairs % n).tolist()):
        implicit.setdefault(ui, []).append(ji)
    return RatingsMatrix(
        [log.users[i] for i in users.tolist()],
        [log.jobs[j] for j in jobs.tolist()],
        entries,
        {ui: tuple(js) for ui, js in implicit.items()},
    )


@dataclass
class FactorModel:
    """Biased latent-factor model with an optional implicit-feedback table."""

    user_factors: np.ndarray  # (m, k)
    job_factors: np.ndarray  # (n, k)
    user_bias: np.ndarray  # (m,)
    job_bias: np.ndarray  # (n,)
    implicit_factors: np.ndarray  # (n, k), zeros unless implicit training ran
    mu: float
    user_ids: list[str]
    job_ids: list[str]
    loss_trace: list[tuple[str, float]] = field(default_factory=list)
    mse_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.user_index = {u: i for i, u in enumerate(self.user_ids)}
        self.job_index = {j: i for i, j in enumerate(self.job_ids)}
        # the indexed jobs in job-id order, for tie-breaking in recommend_mf
        self.job_id_order = np.array(
            [j for _, j in sorted(self.job_index.items())], dtype=np.intp
        )

    @property
    def k(self) -> int:
        return self.user_factors.shape[1]


# Rows solved per batched least-squares call in an ALS half-step: enough
# that one batched Gram product and solve outweigh their per-call cost, few
# enough that a block's padded design (ALS_BLOCK x longest row x k+1 floats)
# and Gram matrices (0.56 MB at k = 32) leave the peak RSS where it is.
ALS_BLOCK = 64


def _solve_batch(design: np.ndarray, target: np.ndarray, reg: float) -> np.ndarray:
    """Exact ridge solutions of a batch of least-squares subproblems.

    ``design`` is (B, L, d) and ``target`` (B, L); all-zero padding rows
    change neither the Gram matrix nor the right-hand side. Without a
    regularizer the minimum-norm solution is taken, with the singular-value
    cutoff of ``lstsq(rcond=None)``.
    """
    design_t = design.transpose(0, 2, 1)
    gram = design_t @ design
    rhs = design_t @ target[..., None]
    if reg > 0.0:
        gram += reg * np.eye(gram.shape[-1])
        return np.linalg.solve(gram, rhs)[..., 0]
    cutoff = gram.shape[-1] * np.finfo(gram.dtype).eps  # lstsq's rcond=None
    return (np.linalg.pinv(gram, rcond=cutoff) @ rhs)[..., 0]


def _group(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entry positions ordered by key (stable), the distinct keys, and the
    start and length of each key's run in that order."""
    order = np.argsort(keys, kind="stable")
    ids, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    return order, ids, starts, counts


def _half_step(
    groups: tuple[np.ndarray, ...],
    features: Callable[[np.ndarray], np.ndarray],
    target: Callable[[np.ndarray], np.ndarray],
    reg: float,
    factors: np.ndarray,
    bias: np.ndarray,
) -> None:
    """Solve every grouped row of one ALS half-step in place.

    Each row's design is ``[features(e), 1]`` over its entries ``e`` with
    ``target(e)`` as the right-hand side. Rows are taken in order of entry
    count and solved :data:`ALS_BLOCK` at a time, each block zero-padded to
    its longest row.
    """
    order, ids, starts, counts = groups
    k = factors.shape[1]
    by_length = np.argsort(counts, kind="stable")
    for lo in range(0, len(by_length), ALS_BLOCK):
        block = by_length[lo : lo + ALS_BLOCK]
        lengths = counts[block]
        present = np.arange(lengths[-1]) < lengths[:, None]
        entries = order[(starts[block, None] + np.arange(lengths[-1]))[present]]
        design = np.zeros((len(block), lengths[-1], k + 1))
        design[present, :k] = features(entries)
        design[present, k] = 1.0
        rhs = np.zeros(present.shape)
        rhs[present] = target(entries)
        beta = _solve_batch(design, rhs, reg)
        rows = ids[block]
        factors[rows] = beta[:, :k]
        bias[rows] = beta[:, k]


def _implicit_offsets(matrix: RatingsMatrix, Y: np.ndarray, k: int) -> np.ndarray:
    """Per-user  |N(u)|^{-1/2} * sum of Y rows over the implicit set."""
    offsets = np.zeros((matrix.num_users, k))
    for u, items in matrix.implicit.items():
        if items:
            offsets[u] = Y[list(items)].sum(axis=0) / np.sqrt(len(items))
    return offsets


def uniform_init(rng: random.Random, rows: int, k: int) -> np.ndarray:
    """A ``rows`` x ``k`` array of draws in [-0.01, 0.01) from ``rng``: each
    is the top 53 bits of a little-endian uint64 of ``rng.randbytes``,
    scaled."""
    bits = np.frombuffer(rng.randbytes(8 * rows * k), dtype="<u8")
    return (-0.01 + 0.02 * ((bits >> 11) * 2.0**-53)).reshape(rows, k)


def als_train(
    matrix: RatingsMatrix,
    k: int = 32,
    reg: float = 0.1,
    iterations: int = 10,
    seed: int = 0,
    implicit: bool = False,
) -> FactorModel:
    """Alternating least squares over the observed entries.

    Each half-step solves its block exactly (with the regularizer), so the
    regularized objective is non-increasing after every half-step; the
    per-half-step objective and per-iteration observed MSE are recorded on
    the returned model. Deterministic for a fixed seed.
    """
    if not matrix.entries:
        raise ValueError("ratings matrix is empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if reg < 0:
        raise ValueError(f"reg must be >= 0, got {reg}")
    if seed < 0:
        # random.Random would take -seed without a word
        raise ValueError(f"seed must be >= 0, got {seed}")

    m, n = matrix.num_users, matrix.num_jobs
    rng = random.Random(seed)
    U = uniform_init(rng, m, k)
    J = uniform_init(rng, n, k)
    b_u = np.zeros(m)
    b_j = np.zeros(n)
    Y = np.zeros((n, k))

    rows = np.array([e[0] for e in matrix.entries], dtype=np.intp)
    cols = np.array([e[1] for e in matrix.entries], dtype=np.intp)
    vals = np.array([e[2] for e in matrix.entries])
    mu = float(vals.mean())

    user_groups = _group(rows)
    job_groups = _group(cols)
    by_user: dict[int, np.ndarray] = {}
    job_users_with: dict[int, list[int]] = {}
    if implicit:
        order, ids, starts, counts = user_groups
        by_user = {
            u: order[s : s + c]
            for u, s, c in zip(ids.tolist(), starts.tolist(), counts.tolist())
        }
        for u, items in matrix.implicit.items():
            for g in items:
                job_users_with.setdefault(g, []).append(u)

    def offsets() -> np.ndarray:
        return (
            _implicit_offsets(matrix, Y, k) if implicit else np.zeros((m, k))
        )

    def predictions(off: np.ndarray) -> np.ndarray:
        return (
            mu
            + b_u[rows]
            + b_j[cols]
            + np.einsum("ij,ij->i", U[rows] + off[rows], J[cols])
        )

    def objective(off: np.ndarray) -> float:
        resid = vals - predictions(off)
        penalty = (
            np.sum(U * U)
            + np.sum(J * J)
            + np.sum(b_u * b_u)
            + np.sum(b_j * b_j)
            + np.sum(Y * Y)
        )
        return float(np.sum(resid * resid) + reg * penalty)

    loss_trace: list[tuple[str, float]] = []
    mse_trace: list[float] = []

    for it in range(1, iterations + 1):
        off = offsets()
        _half_step(
            user_groups,
            lambda e: J[cols[e]],
            lambda e: (
                vals[e] - mu - b_j[cols[e]]
                - np.einsum("ij,ij->i", J[cols[e]], off[rows[e]])
            ),
            reg,
            U,
            b_u,
        )
        loss_trace.append((f"iter{it}:users", objective(off)))

        _half_step(
            job_groups,
            lambda e: U[rows[e]] + off[rows[e]],
            lambda e: vals[e] - mu - b_u[rows[e]],
            reg,
            J,
            b_j,
        )
        off = offsets()
        loss_trace.append((f"iter{it}:jobs", objective(off)))

        if implicit and job_users_with:
            # Cyclic exact solves per implicit-factor row; each observation
            # (u, j) with g in N(u) constrains Y[g] through c_u * J[j].
            for g in sorted(job_users_with):
                design_rows = []
                targets = []
                for u in job_users_with[g]:
                    idx = by_user.get(u)
                    if idx is None:
                        continue
                    c_u = 1.0 / np.sqrt(len(matrix.implicit[u]))
                    partial = off[u] - c_u * Y[g]
                    js = cols[idx]
                    resid = (
                        vals[idx]
                        - mu
                        - b_u[u]
                        - b_j[js]
                        - J[js] @ (U[u] + partial)
                    )
                    design_rows.append(c_u * J[js])
                    targets.append(resid)
                if not design_rows:
                    continue
                design = np.vstack(design_rows)
                target = np.concatenate(targets)
                Y[g] = _solve_batch(design[None], target[None], reg)[0]
                # only the offsets of the users who clicked g change
                for u in job_users_with[g]:
                    items = matrix.implicit[u]
                    off[u] = Y[list(items)].sum(axis=0) / np.sqrt(len(items))
            loss_trace.append((f"iter{it}:implicit", objective(off)))

        if not (
            np.all(np.isfinite(U))
            and np.all(np.isfinite(J))
            and np.all(np.isfinite(b_u))
            and np.all(np.isfinite(b_j))
            and np.all(np.isfinite(Y))
        ):
            raise ArithmeticError(f"non-finite factors after iteration {it}")

        resid = vals - predictions(off)
        mse = float(np.mean(resid * resid))
        mse_trace.append(mse)
        logger.info("als iteration %d: observed MSE %.6g", it, mse)

    return FactorModel(
        U, J, b_u, b_j, Y, mu, list(matrix.user_ids), list(matrix.job_ids),
        loss_trace, mse_trace,
    )


def predict_biased(model: FactorModel, user_id: str, job_id: str) -> float:
    """Mean plus user and job biases plus the factor dot product.

    Raises KeyError for ids the factorization never saw; this is exactly
    the cold-start failure the graph engine avoids.
    """
    u = model.user_index[user_id]
    j = model.job_index[job_id]
    return float(
        model.mu
        + model.user_bias[u]
        + model.job_bias[j]
        + model.job_factors[j] @ model.user_factors[u]
    )


def predict_implicit(
    model: FactorModel, user_id: str, job_id: str, implicit_items: Iterable[str] = ()
) -> float:
    """Prediction with the implicit-feedback term over ``implicit_items``.

    Unknown implicit items are skipped with a warning; an empty implicit
    set reduces exactly to :func:`predict_biased`.
    """
    known: list[int] = []
    for item in implicit_items:
        ji = model.job_index.get(item)
        if ji is None:
            logger.warning("implicit item %r unknown to the model; skipped", item)
        else:
            known.append(ji)
    if not known:
        return predict_biased(model, user_id, job_id)
    u = model.user_index[user_id]
    j = model.job_index[job_id]
    blended = model.user_factors[u] + model.implicit_factors[known].sum(axis=0) / np.sqrt(
        len(known)
    )
    return float(model.mu + model.user_bias[u] + model.job_bias[j] + model.job_factors[j] @ blended)


def recommend_mf(
    model: FactorModel,
    user_id: str,
    k: int,
    exclusions: Iterable[str] = (),
    active_jobs: Iterable[str] | None = None,
    implicit_items: Sequence[str] | None = None,
) -> list[tuple[str, float]]:
    """Top-k jobs by predicted score for a known user.

    Only jobs represented in the factorization can ever be recommended;
    ``active_jobs`` (when given) and ``exclusions`` filter the pool. Ties
    break by job_id.
    """
    if user_id not in model.user_index:
        raise KeyError(f"user {user_id!r} unknown to the model")
    u = model.user_index[user_id]
    user_vec = model.user_factors[u]
    if implicit_items:
        known = [model.job_index[i] for i in implicit_items if i in model.job_index]
        if known:
            user_vec = user_vec + model.implicit_factors[known].sum(axis=0) / np.sqrt(len(known))
    scores = model.mu + model.user_bias[u] + model.job_bias + model.job_factors @ user_vec

    banned = exclusions if isinstance(exclusions, AbstractSet) else set(exclusions)
    allowed = None
    if active_jobs is not None:
        allowed = active_jobs if isinstance(active_jobs, AbstractSet) else set(active_jobs)
    # one stable sort by descending score over job-id order breaks ties by id
    order = model.job_id_order
    ranked: list[tuple[str, float]] = []
    for j in order[np.argsort(-scores[order], kind="stable")].tolist():
        job_id = model.job_ids[j]
        if job_id in banned or (allowed is not None and job_id not in allowed):
            continue
        ranked.append((job_id, float(scores[j])))
        if len(ranked) == k:
            break
    return ranked[:k]
