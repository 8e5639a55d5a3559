"""Loading and normalization of word-embedding matrices.

Handles the plain-text vector format popularized by fastText: a
``count dim`` header line followed by one ``token v1 ... v_dim`` line
per word, most frequent word first. Files ending in ``.gz`` are read
through gzip. Values are parsed as 64-bit floats regardless of how the
file was produced, since downstream SVD and Frank-Wolfe steps are
sensitive to precision. The loader parses the values of a chunk of lines
with one ``np.loadtxt`` call, which takes Python's float syntax in ASCII
without digit-grouping underscores.
"""

from __future__ import annotations

import gzip
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

logger = logging.getLogger(__name__)

# Row norms at or below this are treated as zero.
_ZERO_NORM = 1e-12

# Rows handled at once: lines of a vector file parsed per np.loadtxt
# call, rows checked per block for finiteness, and rows squared per
# block of row norms. A chunk of 300-wide "%.6f" rows holds about 0.8 MB
# of text; see README "Notes on scale".
_CHUNK_ROWS = 256

# What errors="surrogateescape" makes of bytes that do not decode.
_ESCAPED = re.compile("[\udc80-\udcff]")


class EmbeddingFormatError(ValueError):
    """The embedding file does not follow the expected text format."""


class NormalizationError(ValueError):
    """A row cannot be scaled to unit length."""

    def __init__(self, row: int, stage: str):
        self.row = row
        self.stage = stage
        super().__init__(f"zero-norm row {row} {stage}")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """An ordered vocabulary plus one vector per token.

    Row order is frequency order: index 0 is the most frequent token.
    No operation in this module ever permutes rows.
    """

    vocab: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        vocab = tuple(self.vocab)
        vectors = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "vectors", vectors)
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise ValueError("vectors must be a 2-d matrix with at least one column")
        if len(vocab) != vectors.shape[0]:
            raise ValueError(
                f"vocabulary has {len(vocab)} tokens but matrix has "
                f"{vectors.shape[0]} rows"
            )
        if len(set(vocab)) != len(vocab):
            raise ValueError("vocabulary contains duplicate tokens")
        if not all(
            np.isfinite(vectors[start : start + _CHUNK_ROWS]).all()
            for start in range(0, len(vectors), _CHUNK_ROWS)
        ):
            raise ValueError("vectors contain non-finite entries")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.vocab)

    @cached_property
    def index(self) -> dict[str, int]:
        """Token -> row number lookup."""
        return {tok: i for i, tok in enumerate(self.vocab)}


def load_embeddings(path, max_words: int | None = None) -> EmbeddingMatrix:
    """Read a text vector file, keeping the first ``max_words`` valid rows.

    Tokens are compared as exact byte strings; no case folding or Unicode
    normalization is applied. A duplicate token keeps its first
    occurrence and a row containing non-finite values is dropped; both
    conditions are counted and logged as warnings. A row whose field
    count disagrees with the header dimension, a header field that is not
    an optional sign and ASCII digits, a value that is not an ASCII float,
    and text that is not UTF-8 are errors.
    """
    if max_words is not None and max_words < 1:
        raise ValueError("max_words must be a positive integer")
    opener = gzip.open if str(path).endswith(".gz") else open
    with open_text(path, EmbeddingFormatError, opener) as handle:
        header = handle.readline()
        fields = header.split()
        if len(fields) != 2:
            raise EmbeddingFormatError(
                f"{path}: header must be 'count dim', got {header.strip()!r}"
            )
        if not all(re.fullmatch(r"[+-]?[0-9]+", field) for field in fields):
            raise EmbeddingFormatError(
                f"{path}: non-integer header fields {header.strip()!r}"
            )
        count, dim = int(fields[0]), int(fields[1])
        if count < 0 or dim < 1:
            raise EmbeddingFormatError(
                f"{path}: header count/dim out of range ({count}, {dim})"
            )

        limit = count if max_words is None else min(count, max_words)
        # Grown as rows are kept, to one chunk or twice their number at most:
        # no allocation is sized by the header's count.
        vectors = np.empty((min(limit, _CHUNK_ROWS), dim))
        vocab: list[str] = []
        seen: set[str] = set()
        duplicates = 0
        nonfinite = 0
        lineno = 1
        while len(vocab) < limit:
            # A line keeps at most one row, so no line past the cap is read.
            first = lineno
            tokens, texts, linenos = [], [], []
            for lineno, line in enumerate(
                islice(handle, min(_CHUNK_ROWS, limit - len(vocab))), start=lineno + 1
            ):
                parts = line.split(maxsplit=1)
                if parts:
                    tokens.append(parts[0])
                    texts.append(parts[1] if len(parts) == 2 else "")
                    linenos.append(lineno)
            if lineno == first:  # end of file
                break
            block = _parse_values(path, texts, linenos, dim)
            finite = np.isfinite(block).all(axis=1)
            keep = []
            for i, token in enumerate(tokens):
                if token in seen:
                    duplicates += 1
                elif not finite[i]:
                    nonfinite += 1
                else:
                    seen.add(token)
                    vocab.append(token)
                    keep.append(i)
            start = len(vocab) - len(keep)
            if len(vocab) > len(vectors):
                # No view of ``vectors`` outlives a statement, so it may move.
                grown = min(limit, max(len(vocab), 2 * len(vectors)))
                vectors.resize((grown, dim), refcheck=False)
            vectors[start : len(vocab)] = block[keep]

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
            "%s: header announced %d rows but the file held fewer%s",
            path,
            count,
            "" if limit == count else f" than max_words={limit}",
        )
    if len(vocab) < len(vectors):
        vectors.resize((len(vocab), dim), refcheck=False)
    return EmbeddingMatrix(tuple(vocab), vectors)


@contextmanager
def open_text(path, error: type[ValueError], opener=open):
    """``path`` opened as UTF-8 text. Bytes that do not decode raise
    ``error``, naming the path and the first line that holds them."""
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as handle:
            bad = next(
                (n for n, line in enumerate(handle, start=1) if _ESCAPED.search(line)), None
            )
        where = str(path) if bad is None else f"{path}:{bad}"
        raise error(f"{where}: not valid UTF-8 ({exc.reason})") from exc


def _parse_values(path, texts: list[str], linenos: list[int], dim: int) -> np.ndarray:
    """The value fields of a chunk's lines as one (len(texts), dim) block.

    ``np.loadtxt`` parses the whole chunk. It skips empty text, where a
    token-only line would show only as a missing row, and warns on a
    chunk without values, so such chunks go straight to the second
    pass. A chunk that fails is parsed again one line at a time to name
    its first malformed line.
    """
    if texts and all(texts):
        try:
            block = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if block.shape == (len(texts), dim):
                return block
    block = np.empty((len(texts), dim))
    for row, lineno, text in zip(block, linenos, texts):
        found = len(text.split())
        if found != dim:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: expected {dim + 1} fields, got {found + 1}"
            )
        try:
            row[:] = np.loadtxt([text], dtype=np.float64, comments=None, ndmin=2)
        except ValueError as exc:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: unparseable vector component"
            ) from exc
    return block


def normalize(emb: EmbeddingMatrix, passes: int = 1) -> EmbeddingMatrix:
    """Unit-scale rows, subtract the column mean, then unit-scale again.

    The three steps run in that order, once per pass (one pass by
    default). Raises :class:`NormalizationError` naming the first
    offending row if any row has, or acquires, zero norm. A matrix
    without rows, which has no column mean, is returned unchanged.
    """
    if passes < 0:
        raise ValueError("passes must be non-negative")
    if not len(emb.vectors):
        return emb
    vectors = emb.vectors.copy()
    for _ in range(passes):
        _unit_rows(vectors, "before unit scaling")
        vectors -= vectors.mean(axis=0)
        _unit_rows(vectors, "after mean-centering")
    return EmbeddingMatrix(emb.vocab, vectors)


def _unit_rows(vectors: np.ndarray, stage: str) -> None:
    """Scale every row to unit length in place. Norms are taken a block of
    rows at a time, so the squares never need a full-size temporary."""
    norms = np.empty(len(vectors))
    for start in range(0, len(vectors), _CHUNK_ROWS):
        norms[start : start + _CHUNK_ROWS] = np.linalg.norm(
            vectors[start : start + _CHUNK_ROWS], axis=1
        )
    zero = norms <= _ZERO_NORM
    if zero.any():
        raise NormalizationError(int(np.flatnonzero(zero)[0]), stage)
    vectors /= norms[:, None]
