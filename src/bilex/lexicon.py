"""Bilingual dictionaries: parsing, one-to-one filtering, seed/test splits.

Dictionary files follow the MUSE convention: one ``source target`` pair
per line, whitespace-separated, UTF-8, source words in frequency order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .embeddings import open_text

logger = logging.getLogger(__name__)


class DictionaryFormatError(ValueError):
    """A dictionary line does not contain exactly two fields."""


@dataclass(frozen=True)
class Lexicon:
    """An ordered list of (source word, target word) pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((str(s), str(t)) for s, t in self.pairs)
        )

    def __len__(self) -> int:
        return len(self.pairs)

    def sources(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.pairs)

    def targets(self) -> tuple[str, ...]:
        return tuple(t for _, t in self.pairs)

    def is_one_to_one(self) -> bool:
        srcs = self.sources()
        tgts = self.targets()
        return len(set(srcs)) == len(srcs) and len(set(tgts)) == len(tgts)


@dataclass(frozen=True)
class SplitLexicon:
    """A lexicon partitioned into seed pairs and held-out test pairs."""

    seeds: Lexicon
    test: Lexicon

    def __post_init__(self):
        seed_srcs = set(self.seeds.sources())
        seed_tgts = set(self.seeds.targets())
        if seed_srcs & set(self.test.sources()) or seed_tgts & set(self.test.targets()):
            raise ValueError("seed and test sets share words")


def load_dictionary(path) -> Lexicon:
    """Parse a dictionary file, preserving order and dropping duplicate pairs."""
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    with open_text(path, DictionaryFormatError) as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise DictionaryFormatError(
                    f"{path}:{lineno}: expected 2 fields, got {len(fields)}"
                )
            pair = (fields[0], fields[1])
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
    return Lexicon(tuple(pairs))


def filter_one_to_one(lex: Lexicon) -> Lexicon:
    """Keep each pair only if neither of its words has been kept already.

    A single left-to-right pass, so for a polysemous source word the
    first listed target wins; pairs reusing an already-kept target are
    dropped as well so the result is a bijection.
    """
    kept: list[tuple[str, str]] = []
    used_src: set[str] = set()
    used_tgt: set[str] = set()
    for src, tgt in lex.pairs:
        if src in used_src or tgt in used_tgt:
            continue
        used_src.add(src)
        used_tgt.add(tgt)
        kept.append((src, tgt))
    return Lexicon(tuple(kept))


def split(lex: Lexicon, s: int) -> SplitLexicon:
    """First ``s`` pairs (frequency order) become seeds, the rest the test set."""
    if s < 1:
        raise ValueError("seed count must be positive")
    if s >= len(lex):
        raise ValueError(f"seed count {s} must be smaller than lexicon size {len(lex)}")
    return SplitLexicon(seeds=Lexicon(lex.pairs[:s]), test=Lexicon(lex.pairs[s:]))


def drop_missing(lex: Lexicon, src_vocab, tgt_vocab) -> Lexicon:
    """Drop pairs whose source or target has no embedding, logging the count.

    Both framings need a vector for every dictionary word, so pairs with
    out-of-vocabulary words are removed before any experiment runs.
    """
    src_vocab = set(src_vocab)
    tgt_vocab = set(tgt_vocab)
    kept = tuple(
        (s, t) for s, t in lex.pairs if s in src_vocab and t in tgt_vocab
    )
    dropped = len(lex) - len(kept)
    if dropped:
        logger.info("dropped %d pair(s) with out-of-vocabulary words", dropped)
    return Lexicon(kept)
