"""The embedding loader and ``normalize`` as they were before the loader
parsed value fields a chunk of lines at a time.

``load_embeddings`` is kept verbatim as an oracle for
``bilex.embeddings.load_embeddings``: it splits every line, parses each
row with ``np.array(parts[1:], dtype=np.float64)`` and stacks the rows
at the end. ``normalize`` is kept verbatim as the out-of-place
expression that the in-place ``bilex.embeddings.normalize`` must match
bit for bit.
"""

from __future__ import annotations

import gzip
import logging

import numpy as np

from bilex.embeddings import EmbeddingFormatError, EmbeddingMatrix, NormalizationError

logger = logging.getLogger(__name__)

# Row norms at or below this are treated as zero.
_ZERO_NORM = 1e-12


def load_embeddings(path, max_words: int | None = None) -> EmbeddingMatrix:
    """Read a text vector file, keeping the first ``max_words`` valid rows.

    Tokens are compared as exact byte strings; no case folding or Unicode
    normalization is applied. A duplicate token keeps its first
    occurrence and a row containing non-finite values is dropped; both
    conditions are counted and logged as warnings. A row whose field
    count disagrees with the header dimension is an error.
    """
    if max_words is not None and max_words < 1:
        raise ValueError("max_words must be a positive integer")
    opener = gzip.open if str(path).endswith(".gz") else open

    with opener(path, "rt", encoding="utf-8") as handle:
        header = handle.readline()
        fields = header.split()
        if len(fields) != 2:
            raise EmbeddingFormatError(
                f"{path}: header must be 'count dim', got {header.strip()!r}"
            )
        try:
            count, dim = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise EmbeddingFormatError(
                f"{path}: non-integer header fields {header.strip()!r}"
            ) from exc
        if count < 0 or dim < 1:
            raise EmbeddingFormatError(
                f"{path}: header count/dim out of range ({count}, {dim})"
            )

        limit = count if max_words is None else min(count, max_words)
        vocab: list[str] = []
        rows: list[np.ndarray] = []
        seen: set[str] = set()
        duplicates = 0
        nonfinite = 0
        for lineno, line in enumerate(handle, start=2):
            if len(vocab) >= limit:
                break
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}"
                )
            token = parts[0]
            if token in seen:
                duplicates += 1
                continue
            try:
                values = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: unparseable vector component"
                ) from exc
            if not np.isfinite(values).all():
                nonfinite += 1
                continue
            seen.add(token)
            vocab.append(token)
            rows.append(values)

    if duplicates:
        logger.warning(
            "%s: %d duplicate token(s) ignored (first occurrence kept)",
            path,
            duplicates,
        )
    if nonfinite:
        logger.warning("%s: %d row(s) with non-finite values dropped", path, nonfinite)
    if len(vocab) + duplicates + nonfinite < limit:
        logger.warning(
            "%s: header announced %d rows but the file held fewer",
            path,
            limit,
        )
    vectors = np.vstack(rows) if rows else np.empty((0, dim))
    return EmbeddingMatrix(tuple(vocab), vectors)


def normalize(emb: EmbeddingMatrix, passes: int = 1) -> EmbeddingMatrix:
    """Unit-scale rows, subtract the column mean, then unit-scale again.

    The three steps run in that order, once per pass (one pass by
    default). Raises :class:`NormalizationError` naming the first
    offending row if any row has, or acquires, zero norm.
    """
    if passes < 0:
        raise ValueError("passes must be non-negative")
    vectors = emb.vectors.copy()
    for _ in range(passes):
        vectors = _unit_rows(vectors, "before unit scaling")
        vectors = vectors - vectors.mean(axis=0)
        vectors = _unit_rows(vectors, "after mean-centering")
    return EmbeddingMatrix(emb.vocab, vectors)


def _unit_rows(vectors: np.ndarray, stage: str) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    zero = norms <= _ZERO_NORM
    if zero.any():
        raise NormalizationError(int(np.flatnonzero(zero)[0]), stage)
    return vectors / norms[:, None]
