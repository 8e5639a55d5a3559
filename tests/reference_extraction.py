"""CSLS extraction as it was before the blocked scorer, and before the
column pass.

The dense ``_score_matrix``, ``build_csls_index``, ``_top_k_row_mean``,
``csls_matrix`` and ``extract_hypotheses`` are kept verbatim as an
oracle for ``bilex.procrustes``: on the same inputs they must give equal
hypothesis entries, scores included. ``blocked_score_blocks`` and
``blocked_extract_hypotheses`` are the row-only blocked extractor that
the column pass replaced, kept verbatim apart from their names and their
slicing; they cut blocks with the package's ``_slices`` and read its
``_BLOCK_BYTES`` at call time, so a patched ``_BLOCK_BYTES`` reaches
both. ``top_k_means`` and ``row_top_k`` are the package's selections as
they were before they took a block a few rows at a time, kept verbatim
apart from their names. The package scores CSLS only; the oracle keeps
its cosine branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bilex import procrustes
from bilex.hypotheses import HypothesisSet

SCORERS = ("csls", "cosine")


@dataclass(frozen=True)
class CslsIndex:
    """Per-point mean cosine to the k nearest cross-space neighbors."""

    k: int
    src_avgs: np.ndarray
    tgt_avgs: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        src_avgs = np.asarray(self.src_avgs, dtype=np.float64)
        tgt_avgs = np.asarray(self.tgt_avgs, dtype=np.float64)
        object.__setattr__(self, "src_avgs", src_avgs)
        object.__setattr__(self, "tgt_avgs", tgt_avgs)
        for avgs in (src_avgs, tgt_avgs):
            if avgs.size and (np.abs(avgs) > 1.0 + 1e-9).any():
                raise ValueError(
                    "neighborhood averages outside [-1, 1]; "
                    "rows must be unit-norm for cosine scoring"
                )


def build_csls_index(mapped_src: np.ndarray, tgt: np.ndarray, k: int = 10) -> CslsIndex:
    """Neighborhood averages for CSLS; rows must be unit-norm.

    ``src_avgs[i]`` is the mean cosine between mapped source row i and its
    k most similar target rows; ``tgt_avgs[j]`` is the symmetric quantity.
    """
    mapped_src = np.asarray(mapped_src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be positive")
    if k > tgt.shape[0] or k > mapped_src.shape[0]:
        raise ValueError(
            f"k={k} exceeds a candidate set size "
            f"({mapped_src.shape[0]} sources, {tgt.shape[0]} targets)"
        )
    cosines = mapped_src @ tgt.T
    return CslsIndex(
        k=k,
        src_avgs=_top_k_row_mean(cosines, k),
        tgt_avgs=_top_k_row_mean(cosines.T, k),
    )


def _top_k_row_mean(matrix: np.ndarray, k: int) -> np.ndarray:
    n_cols = matrix.shape[1]
    if k >= n_cols:
        return matrix.mean(axis=1)
    top = np.partition(matrix, n_cols - k, axis=1)[:, n_cols - k :]
    return top.mean(axis=1)


def csls_matrix(cosines: np.ndarray, index: CslsIndex) -> np.ndarray:
    """CSLS scores for every (source, target) pair at once."""
    return 2.0 * cosines - index.src_avgs[:, None] - index.tgt_avgs[None, :]


def _score_matrix(mapped_src, tgt, scorer: str, csls_k: int) -> np.ndarray:
    mapped_src = np.asarray(mapped_src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if tgt.shape[0] == 0:
        raise ValueError("candidate target set is empty")
    if scorer not in SCORERS:
        raise ValueError(f"scorer must be one of {SCORERS}, got {scorer!r}")
    cosines = mapped_src @ tgt.T
    if scorer == "cosine":
        return cosines
    # Small candidate sets clamp k so desk-scale runs still work.
    k = min(csls_k, tgt.shape[0], mapped_src.shape[0])
    return csls_matrix(cosines, build_csls_index(mapped_src, tgt, k))


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
    scores = _score_matrix(mapped_src, tgt, scorer, csls_k)
    n_src, n_tgt = scores.shape
    k = min(top_k, n_tgt)
    partitioned = k < n_tgt
    if partitioned:
        candidates = np.argpartition(-scores, k - 1, axis=1)
    entries = {}
    full = np.arange(n_tgt)
    for i in range(n_src):
        if partitioned:
            cand = candidates[i, :k]
            # A score tie across the partition boundary could exclude a
            # smaller index; rank the whole row in that case.
            if scores[i, cand].min() <= scores[i, candidates[i, k:]].max():
                cand = full
        else:
            cand = full
        vals = scores[i, cand]
        order = np.lexsort((cand, -vals))[:k]  # descending score, then index
        entries[i] = tuple((int(cand[o]), float(vals[o])) for o in order)
    return HypothesisSet(entries)


def blocked_score_blocks(mapped_src, tgt, scorer: str = "csls", csls_k: int = 10):
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
                top_k_means(tgt[rows] @ mapped_src.T, k, sequential=True)
                for rows in procrustes._slices(n_tgt, n_src, procrustes._BLOCK_BYTES)
            ]
        )
    for rows in procrustes._slices(n_src, n_tgt, procrustes._BLOCK_BYTES):
        cosines = mapped_src[rows] @ tgt.T
        if scorer == "cosine":
            yield rows, cosines
            continue
        src_avgs = top_k_means(cosines, k, sequential=False)
        yield rows, 2.0 * cosines - src_avgs[:, None] - tgt_avgs[None, :]


def blocked_extract_hypotheses(
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
    for rows, scores in blocked_score_blocks(mapped_src, tgt, scorer, csls_k):
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


def top_k_means(sims: np.ndarray, k: int, sequential: bool) -> np.ndarray:
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


def row_top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
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

