"""The Euclidean framing: seed-span maps, CSLS scoring, and extraction.

The map of seed matrices X and Y is ``W = U_r V_r^T``, where ``U S V^T``
is the SVD of ``X^T Y`` and r its numerical rank: the orthogonal
Procrustes solution ``U V^T`` when r = d, and otherwise its restriction
to the seeds' span, a partial isometry that maps the rest to zero.
Extraction ranks candidate targets for each mapped source row by CSLS,
the hubness-penalized similarity

    csls(x, y) = 2 cos(x, y) - avg_k(x) - avg_k(y)

where ``avg_k(v)`` is v's mean cosine to its k nearest neighbors in the
opposite space (k = 10 unless stated otherwise); at r < d the cosine of
a mapped row is its inner product with the target. CSLS is symmetric,
and ``W^T`` maps the reverse problem at every rank, since
``Y^T X = (X^T Y)^T``: so the same pass also finds each target's best
source, which is the reverse direction's top-1.

Fitting and applying a map and extraction hold the BLAS pin of
:mod:`bilex._threads`, and extraction scores on its block pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _threads
# Nothing here calls solve_lap; perfbench/tracer.py wraps this name.
from .assignment import solve_lap  # noqa: F401
from .hypotheses import TopK


@dataclass(frozen=True)
class OrthogonalMap:
    """A d x d partial isometry applied on the right of row vectors:
    ``W^T W`` is a projector of rank r, so W is orthogonal when r = d.

    ``rank`` is r, the numerical rank of ``X^T Y`` when the map was
    fitted by :func:`solve_procrustes`; None stands for d.
    """

    w: np.ndarray
    rank: int | None = None

    @_threads._pinned_blas()
    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("map must be square")
        rank = w.shape[0] if self.rank is None else self.rank
        p = w.T @ w
        if np.abs(p @ p - p).max() > 1e-8 or abs(np.trace(p) - rank) > 1e-8:
            raise ValueError(f"map is not a partial isometry: W^T W is not a rank-{rank} projector")

    @_threads._pinned_blas()
    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors, dtype=np.float64) @ self.w


@_threads._pinned_blas()
def solve_procrustes(src_seed: np.ndarray, tgt_seed: np.ndarray) -> OrthogonalMap:
    """The seed-span map ``U_r V_r^T`` of ``X^T Y = U S V^T``, for
    X = src_seed and Y = tgt_seed; when r = d, the orthogonal map that
    minimizes ``||X W - Y||_F``.

    Both inputs are s x d matrices whose rows are paired seed vectors.
    No reflection constraint is imposed: det(W) may be -1. The rank r
    counts singular values above numpy's ``matrix_rank`` tolerance. W
    does not depend on the bases the SVD returns, since it equals
    ``M (M^T M)^{+1/2}`` for ``M = X^T Y``, and ``solve_procrustes(Y, X)``
    is ``W^T`` up to rounding.
    """
    src = np.asarray(src_seed, dtype=np.float64)
    tgt = np.asarray(tgt_seed, dtype=np.float64)
    if src.ndim != 2 or tgt.ndim != 2 or src.shape != tgt.shape:
        raise ValueError(f"seed matrices must share shape, got {src.shape} and {tgt.shape}")
    if src.shape[0] < 1:
        raise ValueError("at least one seed pair is required")
    u, sv, vt = np.linalg.svd(src.T @ tgt)
    rank = int((sv > sv.max(initial=0.0) * src.shape[1] * np.finfo(np.float64).eps).sum())
    return OrthogonalMap(u[:, :rank] @ vt[:rank], rank)


# Bytes of one float64 block of similarities. Each block thread scores
# its blocks in one buffer of this size, allocated once per extraction,
# so extraction's extra memory is O(_BLOCK_BYTES) per thread plus the
# O((n_src + n_tgt) d) inputs, whatever the vocabulary sizes. The size
# does not follow the number of block threads, so a run scores the same
# blocks on any number of them.
_BLOCK_BYTES = 4 << 20

# Bytes of one chunk of a block that a selection copies: the means, the
# row top-k and the column winners take a few rows (or columns) at a
# time, so that no block is held twice.
_CHUNK_BYTES = 256 << 10


def _slices(n_rows: int, n_cols: int, nbytes: int) -> list[slice]:
    """Consecutive row slices, each about ``nbytes`` of float64.

    A slice has one row only when ``n_rows == 1``: numpy sends one-row
    products to gemv, which can round differently from gemm, and reduces
    a one-row mean pairwise where it sums more rows column by column.
    """
    size = max(2, nbytes // (8 * max(n_cols, 1)))
    starts = list(range(0, n_rows, size))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()  # the last slice takes the odd row
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


def _top_k_means(sims: np.ndarray, k: int, sequential: bool, overwrite: bool = False) -> np.ndarray:
    """Mean of each row's k largest cosines, over chunks of a few rows.

    ``sequential`` sums left to right instead of numpy's pairwise row sum.
    Target means use it: numpy reduces a column of the full cosine matrix
    in that order, so the blocked means equal the dense ones bit for bit.
    ``overwrite`` lets it partition the rows of ``sims`` in place, which
    otherwise it partitions in a copy of each chunk.
    """
    n_cols = sims.shape[1]
    means = []
    for rows in _slices(*sims.shape, _CHUNK_BYTES):
        top = sims[rows]
        if k < n_cols:
            if not overwrite:
                top = top.copy()
            top.partition(n_cols - k, axis=1)
            top = top[:, n_cols - k :]
        means.append((np.asfortranarray(top) if sequential else top).mean(axis=1))
    means = np.concatenate(means)
    # Stated so that NaN fails it too: NaN scores would rank as ties.
    if not (np.abs(means) <= 1.0 + 1e-9).all():
        raise ValueError(
            "neighborhood averages outside [-1, 1] or not finite; "
            "rows must be finite and unit-norm for cosine scoring"
        )
    return means


def _column_best(scores: np.ndarray, first_row: int, best: np.ndarray, arg: np.ndarray) -> None:
    """Raise ``best[j]`` to column j's largest score where that is strictly
    higher, and set ``arg[j]`` to its first row counted from ``first_row``.

    Rows are searched only in the columns that rose, a few at a time.
    """
    top = scores.max(axis=0)
    rose = np.flatnonzero(top > best)
    for part in _slices(rose.size, scores.shape[0], _CHUNK_BYTES):
        cols = rose[part]
        arg[cols] = first_row + scores.T[cols].argmax(axis=1)
        best[cols] = top[cols]


def _row_top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k best columns and their scores, by descending score
    with ties toward the smaller column, over chunks of a few rows."""
    n_rows, n_cols = scores.shape
    cand, vals = np.empty((n_rows, k), dtype=np.intp), np.empty((n_rows, k))
    for rows in _slices(n_rows, n_cols, _CHUNK_BYTES):
        chunk = scores[rows]
        best = np.argpartition(chunk, n_cols - k, axis=1)[:, n_cols - k :]
        top = np.take_along_axis(chunk, best, axis=1)
        order = np.lexsort((best, -top), axis=1)  # descending score, then index
        best = np.take_along_axis(best, order, axis=1)
        top = np.take_along_axis(top, order, axis=1)
        # A score tie across the partition boundary could exclude a
        # smaller index; rank the whole row in that case.
        for r in np.flatnonzero((chunk >= top[:, -1:]).sum(axis=1) > k):
            best[r] = np.lexsort((np.arange(n_cols), -chunk[r]))[:k]
            top[r] = chunk[r, best[r]]
        cand[rows], vals[rows] = best, top
    return cand, vals


@_threads._pinned_blas()
def extract_hypotheses(
    mapped_src: np.ndarray,
    tgt: np.ndarray,
    top_k: int = 5,
    csls_k: int = 10,
) -> tuple[TopK, TopK]:
    """Top ``top_k`` targets per source row, and the best source per
    target column.

    Returns ``(rows, columns)``: ``rows`` ranks the targets of each
    source by descending score with ties toward the smaller target;
    ``columns``, an (n_tgt, 1) ``TopK`` from the same scores, holds each
    target's best source, ties toward the smaller source. Several
    sources may share a target (many-to-one is allowed); row lists are
    shorter than ``top_k`` only when the candidate set is. When
    ``mapped_src`` is ``X W`` for a map from :func:`solve_procrustes`,
    ``columns`` is the reverse direction's top-1 at every rank of W,
    since the reverse map is ``W^T``: CSLS is symmetric in its two
    arguments.

    Scores are computed over consecutive blocks of source rows, and no
    n_src x n_tgt array is ever held. Extraction takes two passes: one
    over target blocks for the target neighborhood means, then one over
    source blocks that scores each block; each pass costs one
    O(n_src n_tgt d) product in total. Each block thread allocates one
    buffer per call, for the largest block of either pass; every block
    product it takes is written there, and the selections over a block
    copy a few rows or columns at a time, never the whole block.
    Beyond that, each thread keeps two n_tgt vectors of column winners.

    BLAS runs on one thread. When this process has more CPUs, each pass
    cuts its blocks into runs, one per block thread, the calling thread
    included (``_threads._in_runs``). A run takes the row top-k of its
    blocks and keeps its own column winners; those are merged in row
    order, and a later run's winner replaces an earlier one only when its
    score is strictly higher.
    Blocks, sums and ties are the same whatever the number of threads,
    so the results are equal bit for bit.
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    mapped_src = np.asarray(mapped_src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    for name, rows in (("source", mapped_src), ("candidate target", tgt)):
        if rows.shape[0] == 0:
            raise ValueError(f"{name} set is empty")
    n_src, n_tgt = mapped_src.shape[0], tgt.shape[0]
    # Small candidate sets clamp k so desk-scale runs still work.
    csls_k = min(csls_k, n_tgt, n_src)
    if csls_k < 1:
        raise ValueError("k must be positive")
    src_blocks = _slices(n_src, n_tgt, _BLOCK_BYTES)
    tgt_blocks = _slices(n_tgt, n_src, _BLOCK_BYTES)
    cells = max(
        [(rows.stop - rows.start) * n_tgt for rows in src_blocks]
        + [(rows.stop - rows.start) * n_src for rows in tgt_blocks],
        default=0,
    )
    n_buffers = min(_threads._workers(), max(len(src_blocks), len(tgt_blocks)))
    buffers = [np.empty(cells) for _ in range(n_buffers)]

    def product(a, rows, b, buffer):
        """``a[rows] @ b.T``, written to the front of ``buffer``."""
        out = buffer[: (rows.stop - rows.start) * b.shape[0]].reshape(-1, b.shape[0])
        return np.matmul(a[rows], b.T, out=out)

    def target_means(run, buffer):
        return [
            _top_k_means(
                product(tgt, rows, mapped_src, buffer), csls_k, sequential=True, overwrite=True
            )
            for rows in run
        ]

    tgt_avgs = np.concatenate(sum(_threads._in_runs(target_means, tgt_blocks, buffers), []))

    def score(rows, buffer):
        scores = product(mapped_src, rows, tgt, buffer)
        # 2 cos - src_avgs - tgt_avgs, evaluated in place in that order
        src_avgs = _top_k_means(scores, csls_k, sequential=False)
        scores *= 2.0
        scores -= src_avgs[:, None]
        scores -= tgt_avgs
        return scores

    k = min(top_k, n_tgt)
    ranked = TopK(np.empty((n_src, k), dtype=np.intp), np.empty((n_src, k)))

    def rank(run, buffer):
        best, arg = np.full(n_tgt, -np.inf), np.zeros(n_tgt, dtype=np.intp)
        for rows in run:  # runs write disjoint rows of ranked
            scores = score(rows, buffer)
            ranked.index[rows], ranked.score[rows] = _row_top_k(scores, k)
            _column_best(scores, rows.start, best, arg)
        return best, arg

    (best, arg), *later = _threads._in_runs(rank, src_blocks, buffers)
    for run_best, run_arg in later:  # in row order: a tie keeps the earlier row
        rose = run_best > best
        best[rose], arg[rose] = run_best[rose], run_arg[rose]
    return ranked, TopK(arg[:, None], best[:, None])
