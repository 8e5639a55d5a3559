"""The Euclidean framing: orthogonal maps, CSLS scoring, and extraction.

The closed-form solution of ``min ||X W - Y||_F`` over orthogonal W is
``W = U V^T`` where ``U S V^T`` is the SVD of ``X^T Y``. Extraction ranks
candidate targets for each mapped source row either by raw cosine or by
CSLS, the hubness-penalized similarity

    csls(x, y) = 2 cos(x, y) - avg_k(x) - avg_k(y)

where ``avg_k(v)`` is v's mean cosine to its k nearest neighbors in the
opposite space (k = 10 unless stated otherwise). Both scores are
symmetric, so the same pass also ranks the sources of each target: when
W is unique, ``W^T`` solves the reverse problem and those columns are
its extraction.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

# Nothing here calls solve_lap; perfbench/tracer.py wraps this name.
from .assignment import solve_lap  # noqa: F401
from .hypotheses import HypothesisSet

SCORERS = ("csls", "cosine")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OrthogonalMap:
    """A d x d orthogonal matrix applied on the right of row vectors.

    ``rank`` is the numerical rank of ``X^T Y`` when the map was fitted by
    :func:`solve_procrustes`, and None otherwise. A fitted map is the
    unique solution exactly when its rank is d; the reverse problem
    (target onto source) is then solved by ``w.T``.
    """

    w: np.ndarray
    rank: int | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("map must be square")
        d = w.shape[0]
        if np.abs(w.T @ w - np.eye(d)).max() > 1e-8:
            raise ValueError("map is not orthogonal within 1e-8")
        if abs(abs(np.linalg.det(w)) - 1.0) > 1e-6:
            raise ValueError("determinant is not +/-1 within 1e-6")

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])

    @property
    def unique(self) -> bool:
        return self.rank == self.dim

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors, dtype=np.float64) @ self.w


def solve_procrustes(src_seed: np.ndarray, tgt_seed: np.ndarray) -> OrthogonalMap:
    """Orthogonal map minimizing ``||src_seed @ W - tgt_seed||_F``.

    Both inputs are s x d matrices whose rows are paired seed vectors.
    No reflection constraint is imposed: det(W) may be -1. The rank of
    ``X^T Y`` counts singular values above numpy's ``matrix_rank``
    tolerance; below d (for instance with fewer seeds than dimensions)
    the map is fixed only on the seeds' span, the rest is whichever basis
    LAPACK returns, and a warning is logged.
    """
    src = np.asarray(src_seed, dtype=np.float64)
    tgt = np.asarray(tgt_seed, dtype=np.float64)
    if src.ndim != 2 or tgt.ndim != 2 or src.shape != tgt.shape:
        raise ValueError(f"seed matrices must share shape, got {src.shape} and {tgt.shape}")
    if src.shape[0] < 1:
        raise ValueError("at least one seed pair is required")
    u, sv, vt = np.linalg.svd(src.T @ tgt)
    d = src.shape[1]
    rank = int((sv > sv.max(initial=0.0) * d * np.finfo(np.float64).eps).sum())
    if rank < d:
        logger.warning(
            "Procrustes map is not unique: X^T Y has rank %d < d = %d "
            "(%d seed pairs); off the seeds' span it is an arbitrary basis",
            rank, d, src.shape[0],
        )
    return OrthogonalMap(u @ vt, rank)


# Bytes of one float64 block of similarities. Extraction holds a few
# such blocks at a time, so its extra memory is O(_BLOCK_BYTES) plus the
# O((n_src + n_tgt) d) inputs, whatever the vocabulary sizes.
_BLOCK_BYTES = 4 << 20

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Most threads that score blocks at once: more have not been measured,
# and each holds a block in flight.
_MAX_WORKERS = 2


def _one_blas_thread() -> bool:
    """Whether the BLAS thread variables cap BLAS at one thread: each one
    set to a positive integer says 1 (others are ignored), and one is.

    Variables that disagree leave the cap unknown, since which one binds
    depends on the BLAS (OpenBLAS reads ``OPENBLAS_NUM_THREADS`` before
    ``OMP_NUM_THREADS`` and ignores ``MKL_NUM_THREADS``). BLAS reads them
    when it loads, so they must be set before Python starts.
    """
    caps = set()
    for name in _BLAS_THREAD_VARS:
        try:
            cap = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if cap > 0:
            caps.add(cap)
    return caps == {1}


def _workers() -> int:
    """Threads that score blocks: with one BLAS thread, up to
    ``_MAX_WORKERS`` of this process's CPUs; otherwise 1.

    An uncapped BLAS already runs each product on every CPU, and its
    threads spin while they wait, so block threads on top only slow it.
    """
    if not _one_blas_thread():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


@contextmanager
def _ordered_map(workers: int):
    """A ``map(work, items)`` whose results come in item order.

    With one worker it is the builtin ``map``, on the calling thread.
    With several, one thread pool serves every map made inside the
    ``with``: up to ``workers`` items are computed ahead of the result
    the caller holds, and each result is the caller's alone once it is
    yielded. Leaving the ``with``, also by an exception or an abandoned
    map, cancels what has not started and joins the pool's threads.
    """
    if workers == 1:
        yield map
        return
    pool = ThreadPoolExecutor(workers)

    def ordered(work, items):
        items = iter(items)
        ahead = deque(pool.submit(work, item) for item in islice(items, workers))
        while ahead:
            done = ahead.popleft().result()
            ahead.extend(pool.submit(work, item) for item in islice(items, 1))
            yield done

    try:
        yield ordered
    finally:
        pool.shutdown(cancel_futures=True)


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices, each about ``_BLOCK_BYTES`` of float64, or
    a quarter of that with one BLAS thread.

    The size follows the BLAS setting, never the number of block threads,
    so a run scores the same blocks on one thread as on two. Two block
    threads hold three blocks at once, and each keeps its freed blocks
    in its own malloc arena; quarter blocks keep that under the peak RSS
    of whole blocks on one thread. An uncapped BLAS keeps whole blocks,
    which it multiplies faster.

    A slice has one row only when ``n_rows == 1``: numpy sends one-row
    products to gemv, which can round differently from gemm.
    """
    budget = _BLOCK_BYTES // 4 if _one_blas_thread() else _BLOCK_BYTES
    size = max(2, budget // (8 * max(n_cols, 1)))
    starts = list(range(0, n_rows, size))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()  # the last block takes the odd row
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


def _top_k_means(sims: np.ndarray, k: int, sequential: bool) -> np.ndarray:
    """Mean of each row's k largest cosines.

    ``sequential`` sums left to right instead of numpy's pairwise row sum.
    Target means use it: numpy reduces a column of the full cosine matrix
    in that order, so the blocked means equal the dense ones bit for bit.
    """
    n_cols = sims.shape[1]
    top = sims if k >= n_cols else np.partition(sims, n_cols - k, axis=1)[:, n_cols - k :]
    means = (np.asfortranarray(top) if sequential else top).mean(axis=1)
    if (np.abs(means) > 1.0 + 1e-9).any():
        raise ValueError(
            "neighborhood averages outside [-1, 1]; "
            "rows must be unit-norm for cosine scoring"
        )
    return means


def _scored_blocks(mapped_src, tgt, scorer, csls_k, then):
    """Yield ``(rows, then(scores))`` over source row blocks in row
    order; ``then`` runs on the thread that scored the block."""
    mapped_src = np.asarray(mapped_src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if tgt.shape[0] == 0:
        raise ValueError("candidate target set is empty")
    if scorer not in SCORERS:
        raise ValueError(f"scorer must be one of {SCORERS}, got {scorer!r}")
    n_src, n_tgt = mapped_src.shape[0], tgt.shape[0]
    if scorer == "csls":
        # Small candidate sets clamp k so desk-scale runs still work.
        k = min(csls_k, n_tgt, n_src)
        if k < 1:
            raise ValueError("k must be positive")

    def target_means(rows):
        return _top_k_means(tgt[rows] @ mapped_src.T, k, sequential=True)

    def score(rows):
        scores = mapped_src[rows] @ tgt.T
        if scorer == "csls":
            # 2 cos - src_avgs - tgt_avgs, evaluated in place in that order
            src_avgs = _top_k_means(scores, k, sequential=False)
            scores *= 2.0
            scores -= src_avgs[:, None]
            scores -= tgt_avgs
        return rows, then(scores)

    with _ordered_map(_workers()) as ordered:
        if scorer == "csls":
            tgt_avgs = np.concatenate(list(ordered(target_means, _row_blocks(n_tgt, n_src))))
        yield from ordered(score, _row_blocks(n_src, n_tgt))


def score_blocks(mapped_src, tgt, scorer: str = "csls", csls_k: int = 10):
    """Yield ``(rows, scores)`` over consecutive blocks of source rows.

    ``scores`` holds the cosine or CSLS score of each source row in the
    slice ``rows`` against every target. CSLS takes two passes: one over
    target blocks for the target neighborhood means, then one over source
    blocks that scores each block. Each pass costs one O(n_src n_tgt d)
    product in total, and no n_src x n_tgt array is ever held.

    When BLAS is capped at one thread and this process has more CPUs,
    two threads score blocks at once (:func:`_workers`). Blocks are the
    same, and are yielded in row order, whatever the number of threads.
    """
    return _scored_blocks(mapped_src, tgt, scorer, csls_k, lambda scores: scores)


class TopK(NamedTuple):
    """The best candidates of each query row, best first.

    ``index[i]`` holds candidate indices by descending ``score[i]``, ties
    toward the smaller index; both arrays are (n_queries, k).
    """

    index: np.ndarray
    score: np.ndarray

    def hypotheses(self, keys=None, labels=None) -> HypothesisSet:
        """Row i keyed by ``keys[i]``, candidate j named ``labels[j]``
        (indices when not given)."""
        index = self.index.tolist()
        if labels is not None:
            index = [[labels[j] for j in row] for row in index]
        keys = range(len(index)) if keys is None else keys
        return HypothesisSet(
            {key: tuple(zip(c, v)) for key, c, v in zip(keys, index, self.score.tolist())}
        )


class _ColumnTopK:
    """Running top-k of every column over row blocks taken in row order.

    A score is a candidate when it is at least its column's floor, a
    value that k scores already seen reach; ties are kept, so no block
    order can lose one. Candidates are merged, by descending score then
    ascending row, only once they outnumber the kept ones.
    """

    def __init__(self, n_cols: int, k: int):
        self.k = k
        self.floor = np.full(n_cols, -np.inf)
        # (rows, cols, scores) of the kept entries, then of the candidates
        self.parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        self.pending = 0

    def add(self, first_row: int, scores: np.ndarray) -> None:
        n_rows = scores.shape[0]
        if first_row == 0 and n_rows >= self.k:
            # The first block's k-th value per column is a floor at once,
            # so that block does not become candidates wholesale.
            self.floor = np.partition(scores, n_rows - self.k, axis=0)[n_rows - self.k].copy()
        flat = np.flatnonzero(scores >= self.floor)
        rows, cols = np.divmod(flat, scores.shape[1])
        self.parts.append((rows + first_row, cols, scores.ravel()[flat]))
        self.pending += flat.size
        if self.pending > self.k * self.floor.size:
            self._merge()

    def _merge(self) -> None:
        rows, cols, vals = (np.concatenate(part) for part in zip(*self.parts))
        # Equal (column, score) entries already appear by ascending row:
        # kept rows precede later blocks' rows, and each block is scanned
        # row-major. The stable sort keeps that order as the tie-break.
        order = np.lexsort((-vals, cols))
        rank = np.arange(order.size) - np.searchsorted(cols[order], cols[order])
        order, rank = order[rank < self.k], rank[rank < self.k]
        rows, cols, vals = rows[order], cols[order], vals[order]
        kth = rank == self.k - 1
        self.floor[cols[kth]] = vals[kth]
        self.parts, self.pending = [(rows, cols, vals)], 0

    def result(self) -> TopK:
        self._merge()
        rows, _, vals = self.parts[0]
        shape = (self.floor.size, self.k)
        return TopK(rows.reshape(shape), vals.reshape(shape))


def _row_top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k best columns and their scores, by descending score
    with ties toward the smaller column."""
    n_cols = scores.shape[1]
    cand = np.argpartition(scores, n_cols - k, axis=1)[:, n_cols - k :]
    vals = np.take_along_axis(scores, cand, axis=1)
    order = np.lexsort((cand, -vals), axis=1)  # descending score, then index
    cand = np.take_along_axis(cand, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    # A score tie across the partition boundary could exclude a smaller
    # index; rank the whole row in that case.
    for r in np.flatnonzero((scores >= vals[:, -1:]).sum(axis=1) > k):
        cand[r] = np.lexsort((np.arange(n_cols), -scores[r]))[:k]
        vals[r] = scores[r, cand[r]]
    return cand, vals


def extract_hypotheses(
    mapped_src: np.ndarray,
    tgt: np.ndarray,
    top_k: int = 5,
    scorer: str = "csls",
    csls_k: int = 10,
) -> tuple[TopK, TopK]:
    """Top ``top_k`` targets per source row and sources per target column.

    Returns ``(rows, columns)``: ``rows`` ranks the targets of each
    source, ``columns`` the sources of each target, both by descending
    score with ties toward the smaller index, from the same scores.
    Several sources may share a target (many-to-one is allowed); lists
    are shorter than ``top_k`` only when the candidate set is. When the
    map is orthogonal and unique, ``columns`` is the reverse direction's
    extraction: CSLS is symmetric in its two arguments.

    Blocks are scored as :func:`score_blocks` scores them, and their row
    top-k is taken on the same thread; the column top-k takes the blocks
    on the calling thread in row order, whatever the number of threads.
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    n_src, n_tgt = len(mapped_src), len(tgt)
    k = min(top_k, n_tgt)
    ranked = TopK(np.empty((n_src, k), dtype=np.intp), np.empty((n_src, k)))
    columns = _ColumnTopK(n_tgt, min(top_k, n_src))
    blocks = _scored_blocks(
        mapped_src, tgt, scorer, csls_k, lambda scores: (scores, *_row_top_k(scores, k))
    )
    for rows, (scores, cand, vals) in blocks:
        ranked.index[rows], ranked.score[rows] = cand, vals
        columns.add(rows.start, scores)
    return ranked, columns.result()
