"""The Euclidean framing: orthogonal maps, CSLS scoring, and extraction.

The closed-form solution of ``min ||X W - Y||_F`` over orthogonal W is
``W = U V^T`` where ``U S V^T`` is the SVD of ``X^T Y``. Extraction ranks
candidate targets for each mapped source row either by raw cosine or by
CSLS, the hubness-penalized similarity

    csls(x, y) = 2 cos(x, y) - avg_k(x) - avg_k(y)

where ``avg_k(v)`` is v's mean cosine to its k nearest neighbors in the
opposite space (k = 10 unless stated otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nothing here calls solve_lap; perfbench/tracer.py wraps this name.
from .assignment import solve_lap  # noqa: F401
from .hypotheses import HypothesisSet

SCORERS = ("csls", "cosine")


@dataclass(frozen=True)
class OrthogonalMap:
    """A d x d orthogonal matrix applied on the right of row vectors."""

    w: np.ndarray

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

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors, dtype=np.float64) @ self.w


def solve_procrustes(src_seed: np.ndarray, tgt_seed: np.ndarray) -> OrthogonalMap:
    """Orthogonal map minimizing ``||src_seed @ W - tgt_seed||_F``.

    Both inputs are s x d matrices whose rows are paired seed vectors.
    No reflection constraint is imposed: det(W) may be -1.
    """
    src = np.asarray(src_seed, dtype=np.float64)
    tgt = np.asarray(tgt_seed, dtype=np.float64)
    if src.ndim != 2 or tgt.ndim != 2 or src.shape != tgt.shape:
        raise ValueError(f"seed matrices must share shape, got {src.shape} and {tgt.shape}")
    if src.shape[0] < 1:
        raise ValueError("at least one seed pair is required")
    u, _, vt = np.linalg.svd(src.T @ tgt)
    return OrthogonalMap(u @ vt)


# Bytes of one float64 block of similarities. Extraction holds a few
# such blocks at a time, so its extra memory is O(_BLOCK_BYTES) plus the
# O((n_src + n_tgt) d) inputs, whatever the vocabulary sizes.
_BLOCK_BYTES = 4 << 20


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices, each about ``_BLOCK_BYTES`` of float64.

    A slice has one row only when ``n_rows == 1``: numpy sends one-row
    products to gemv, which can round differently from gemm.
    """
    size = max(2, _BLOCK_BYTES // (8 * max(n_cols, 1)))
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


def score_blocks(mapped_src, tgt, scorer: str = "csls", csls_k: int = 10):
    """Yield ``(rows, scores)`` over consecutive blocks of source rows.

    ``scores`` holds the cosine or CSLS score of each source row in the
    slice ``rows`` against every target. CSLS takes two passes: one over
    target blocks for the target neighborhood means, then one over source
    blocks that scores each block. Each pass costs one O(n_src n_tgt d)
    product in total, and no n_src x n_tgt array is ever held.
    """
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
        tgt_avgs = np.concatenate(
            [
                _top_k_means(tgt[rows] @ mapped_src.T, k, sequential=True)
                for rows in _row_blocks(n_tgt, n_src)
            ]
        )
    for rows in _row_blocks(n_src, n_tgt):
        cosines = mapped_src[rows] @ tgt.T
        if scorer == "cosine":
            yield rows, cosines
            continue
        src_avgs = _top_k_means(cosines, k, sequential=False)
        yield rows, 2.0 * cosines - src_avgs[:, None] - tgt_avgs[None, :]


def extract_hypotheses(
    mapped_src: np.ndarray,
    tgt: np.ndarray,
    top_k: int = 5,
    scorer: str = "csls",
    csls_k: int = 10,
) -> HypothesisSet:
    """Top ``top_k`` targets per source row, descending score.

    Ties break toward the smaller target index. Several sources may share
    a target (many-to-one is allowed); lists are shorter than ``top_k``
    only when the candidate set is.
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    entries = {}
    for rows, scores in score_blocks(mapped_src, tgt, scorer, csls_k):
        n_tgt = scores.shape[1]
        k = min(top_k, n_tgt)
        cand = np.argpartition(scores, n_tgt - k, axis=1)[:, n_tgt - k :]
        vals = np.take_along_axis(scores, cand, axis=1)
        order = np.lexsort((cand, -vals), axis=1)  # descending score, then index
        cand = np.take_along_axis(cand, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        # A score tie across the partition boundary could exclude a smaller
        # index; rank the whole row in that case.
        for r in np.flatnonzero((scores >= vals[:, -1:]).sum(axis=1) > k):
            cand[r] = np.lexsort((np.arange(n_tgt), -scores[r]))[:k]
            vals[r] = scores[r, cand[r]]
        for i, c, v in zip(range(rows.start, rows.stop), cand.tolist(), vals.tolist()):
            entries[i] = tuple(zip(c, v))
    return HypothesisSet(entries)
