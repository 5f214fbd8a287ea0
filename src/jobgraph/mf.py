"""Matrix-factorization baseline trained with alternating least squares.

The interaction matrix holds +1 for an application and -1 for a job the
user saw in a recommendation email but did not click (the negative signal
prevents the all-positive matrix from collapsing to rank one). Factors and
per-user/per-job biases are fit by exact regularized least squares over the
observed entries only, alternating between the user side and the job side.
The rows' ridge problems are solved a block at a time, each block in the
smaller of two forms with the same answer: the (k+1) x (k+1) Gram system
over the unknowns or, when the block's longest row has fewer entries than
unknowns, the kernel system over its entries (ridge regression in dual
variables). An optional implicit-feedback term adds per-job vectors
accumulated over each user's click history.

The factors start from small uniform draws of the stdlib
``random.Random(seed)`` (:func:`uniform_init`), not ``numpy.random``, which
loads OpenSSL through ``secrets``.
"""

from __future__ import annotations

import logging
import random
from collections.abc import Callable, Iterator, Set as AbstractSet
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import EventLog, SignalKind, _distinct, _run_tails

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


def build_matrix(signals: EventLog) -> RatingsMatrix:
    """Build the +-1 matrix from deduped signals.

    Applies map to +1 and ignored emails to -1; an apply wins any conflict
    on the same (user, job) cell. Clicks never become entries, but clicks
    on indexed jobs are collected as the implicit sets.
    """
    n = max(len(signals.jobs), 1)  # the base of the (user, job) keys
    key = signals.user * n + signals.job
    rated = signals.kind != SignalKind.CLICK.code
    value = np.where(signals.kind[rated] == SignalKind.APPLY.code, 1.0, -1.0)
    order = np.lexsort((value, key[rated]))  # a cell's largest value last
    cells, values = key[rated][order], value[order]
    last = _run_tails(cells)
    cells, values = cells[last], values[last]
    users, jobs = _distinct(cells // n), _distinct(cells % n)
    # a log code's row or column in the matrix, -1 for none
    user_index = np.full(len(signals.users), -1)
    user_index[users] = np.arange(len(users))
    job_index = np.full(len(signals.jobs), -1)
    job_index[jobs] = np.arange(len(jobs))
    entries = list(zip(user_index[cells // n].tolist(), job_index[cells % n].tolist(), values.tolist()))

    clicks = ~rated
    u, j = user_index[signals.user[clicks]], job_index[signals.job[clicks]]
    pairs = _distinct((u * n + j)[(u >= 0) & (j >= 0)])
    implicit: dict[int, list[int]] = {}
    for ui, ji in zip((pairs // n).tolist(), (pairs % n).tolist()):
        implicit.setdefault(ui, []).append(ji)
    return RatingsMatrix(
        [signals.users[i] for i in users.tolist()],
        [signals.jobs[j] for j in jobs.tolist()],
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
# that one batched product and solve outweigh their per-call cost, few
# enough that a block's padded design (ALS_BLOCK x longest row L x k+1
# floats) and its square systems leave the peak RSS where it is. Those are
# the Gram matrices (0.56 MB at k = 32) when L >= k + 1, and the smaller
# L x L kernel matrices when L < k + 1.
ALS_BLOCK = 64
# Cells of a dense block of work (users x jobs of a score matrix ranked at
# once, entries x k of the factors the objective gathers): enough to
# outweigh the per-call cost of numpy, few enough (64 kB of floats) to
# leave the peak RSS where it is.
BLOCK_CELLS = 8192


def _solve_batch(design: np.ndarray, target: np.ndarray, reg: float) -> np.ndarray:
    """Exact ridge solutions of a batch of least-squares subproblems.

    ``design`` is (B, L, d) and ``target`` (B, L); all-zero padding rows
    change neither the Gram matrix nor the right-hand side. With a
    regularizer and fewer rows than unknowns (L < d), the same solution is
    taken from the L x L kernel system instead, ``x = D^T (D D^T + reg I)^-1
    t``; a padding row's kernel row is ``reg`` on the diagonal with a zero
    target, so it adds nothing. Without a regularizer the minimum-norm
    solution is taken, with the singular-value cutoff of
    ``lstsq(rcond=None)``.
    """
    design_t = design.transpose(0, 2, 1)
    length, d = design.shape[1:]
    if reg > 0.0 and length < d:
        kernel = design @ design_t
        kernel += reg * np.eye(length)
        return (design_t @ np.linalg.solve(kernel, target[..., None]))[..., 0]
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
        out = np.empty(len(vals))
        for block in blocks(len(vals), k):
            r, c = rows[block], cols[block]
            users = U[r] + off[r] if implicit else U[r]
            out[block] = mu + b_u[r] + b_j[c] + np.einsum("ij,ij->i", users, J[c])
        return out

    def objective(off: np.ndarray) -> tuple[float, float]:
        """The regularized objective and the observed MSE."""
        resid = vals - predictions(off)
        squares = np.sum(resid * resid)
        penalty = (
            np.sum(U * U)
            + np.sum(J * J)
            + np.sum(b_u * b_u)
            + np.sum(b_j * b_j)
            + np.sum(Y * Y)
        )
        return float(squares + reg * penalty), float(squares) / len(vals)

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
        loss_trace.append((f"iter{it}:users", objective(off)[0]))

        _half_step(
            job_groups,
            lambda e: U[rows[e]] + off[rows[e]],
            lambda e: vals[e] - mu - b_u[rows[e]],
            reg,
            J,
            b_j,
        )
        off = offsets()
        loss, mse = objective(off)
        loss_trace.append((f"iter{it}:jobs", loss))

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
            loss, mse = objective(off)
            loss_trace.append((f"iter{it}:implicit", loss))

        if not (
            np.all(np.isfinite(U))
            and np.all(np.isfinite(J))
            and np.all(np.isfinite(b_u))
            and np.all(np.isfinite(b_j))
            and np.all(np.isfinite(Y))
        ):
            raise ArithmeticError(f"non-finite factors after iteration {it}")

        # the MSE of the last objective: nothing has changed since
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


def blocks(rows: int, cells_per_row: int) -> Iterator[slice]:
    """Consecutive slices of ``range(rows)``: as many rows of ``cells_per_row``
    cells as :data:`BLOCK_CELLS` holds, and at least one."""
    step = max(1, BLOCK_CELLS // max(cells_per_row, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def job_pool(ids: list[str], active_jobs: Iterable[str] | None) -> np.ndarray:
    """Which of the sorted ``ids`` are in ``active_jobs``, all when it is None."""
    pool = active_jobs if active_jobs is None or isinstance(active_jobs, AbstractSet) else set(active_jobs)
    return np.array([pool is None or job_id in pool for job_id in ids], dtype=bool)


def top_k(
    scores: np.ndarray, allowed: np.ndarray, k: int, ids: list[str], exclusions: Iterable[Iterable[str]],
    columns: Mapping[str, int],
) -> list[list[tuple[str, float]]]:
    """Each row's ``k`` best (id, score) pairs over the columns of the sorted
    ``ids`` that ``allowed`` leaves and the row's entry of ``exclusions``
    does not name; ties (``0.0`` and ``-0.0`` too) rank by id, NaN last.
    ``columns`` maps each id to its column, as ``{id: c for c, id in enumerate(ids)}``.
    Banned entries sort last as NaN, so a row's k-th sorted key is NaN only
    when fewer than ``k`` allowed scores are numbers: all allowed are kept."""
    mask = np.empty(scores.shape, dtype=bool)
    np.copyto(mask, allowed)  # allowed may be one row for all
    for i, row in enumerate(exclusions):
        mask[i, [columns[j] for j in row if j in columns]] = False
    key = np.where(mask, -scores, np.nan)
    n = key.shape[1]
    if k < n:
        # NaN sorts last. A NaN k-th keeps every allowed entry; a NaN key kept
        # beside a number k-th sorts after the k numbers not worse than it
        kth = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
        mask &= ~(key > kth)
    cells = np.flatnonzero(mask)
    cells = cells[np.lexsort((key.ravel()[cells], cells // n))]  # stable: ties keep the column order
    ranked: list[list[tuple[str, float]]] = [[] for _ in range(len(key))]
    for cell, score in zip(cells.tolist(), scores.ravel()[cells].tolist()):
        i, c = divmod(cell, n)
        if len(ranked[i]) < k:  # ties at the k-th and NaN keys may leave more
            ranked[i].append((ids[c], score))
    return ranked


def recommend_mf(
    model: FactorModel,
    user_ids: Sequence[str],
    k: int,
    exclusions: Iterable[Iterable[str]] = (),
    active_jobs: Iterable[str] | None = None,
    implicit_items: Iterable[Sequence[str] | None] | None = None,
) -> list[list[tuple[str, float]]]:
    """Top-k jobs by predicted score for each user of ``user_ids``, in order.

    Only jobs represented in the factorization can ever be recommended;
    ``active_jobs`` (when given) and the user's entry of ``exclusions``
    filter the pool, and the user's entry of ``implicit_items`` (when given)
    feeds the implicit term. Ties break by job_id. Users are scored a block
    at a time (:func:`blocks`), bit for bit as one user: the stacked
    product runs the per-user matrix-vector kernel. ``exclusions`` and
    ``implicit_items`` are read a block at a time, so they may be
    generators. A user unknown to the model raises ``KeyError``, a bare
    ``str`` for ``user_ids`` ``TypeError``.
    """
    if isinstance(user_ids, str):
        raise TypeError(f"user_ids must be a sequence of ids, not the str {user_ids!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = model.job_id_order  # score columns in job-id order
    ids = [model.job_ids[j] for j in order.tolist()]
    pool = job_pool(ids, active_jobs)
    columns = {job_id: c for c, job_id in enumerate(ids)}
    exclusions = iter(exclusions)
    implicit = repeat(None) if implicit_items is None else iter(implicit_items)
    ranked: list[list[tuple[str, float]]] = []
    for block in blocks(len(user_ids), len(ids)):
        rows = [model.user_index.get(u, -1) for u in user_ids[block]]
        if -1 in rows:
            raise KeyError(f"user {user_ids[block][rows.index(-1)]!r} unknown to the model")
        vectors = model.user_factors[rows]
        for i, items in zip(range(len(rows)), implicit):
            known = [model.job_index[j] for j in items or () if j in model.job_index]
            if known:
                vectors[i] = vectors[i] + model.implicit_factors[known].sum(axis=0) / np.sqrt(len(known))
        dots = np.matmul(model.job_factors[None], vectors[:, :, None])[..., 0]
        scores = (model.mu + model.user_bias[rows])[:, None] + model.job_bias + dots
        ranked += top_k(scores[:, order], pool, k, ids, islice(exclusions, len(rows)), columns)
    return ranked
