"""CSLS extraction as it was before the blocked scorer.

The dense ``_score_matrix``, ``build_csls_index``, ``_top_k_row_mean``,
``csls_matrix`` and ``extract_hypotheses`` are kept verbatim as an
oracle for ``bilex.procrustes``: on the same inputs they must give equal
hypothesis entries, scores included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bilex.hypotheses import HypothesisSet
from bilex.procrustes import SCORERS


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
