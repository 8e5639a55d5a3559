"""Shared result containers: one-to-one matchings and ranked hypotheses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np


@dataclass(frozen=True)
class Matching:
    """A bijection between two equal-size index sets.

    ``perm[i]`` is the target index matched to source index ``i``. The
    first ``seed_count`` positions are the fixed seed block, where both
    sides use seeds-first ordering, so ``perm[i] == i`` there. ``unique``
    is true when the solver that produced the matching proved it the only
    optimum; false means not proved. A Frank-Wolfe solve also reports its
    ``iterations``, whether it was ``capped`` at its iteration limit before
    converging, and the trace ``objective`` of the matching; other
    solvers leave them ``None``.
    """

    perm: np.ndarray
    seed_count: int = 0
    unique: bool = False
    iterations: int | None = None
    capped: bool | None = None
    objective: float | None = None

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.intp)
        object.__setattr__(self, "perm", perm)
        n = perm.shape[0]
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        if not 0 <= self.seed_count <= n:
            raise ValueError(f"seed_count {self.seed_count} out of range for n={n}")
        if not np.array_equal(perm[: self.seed_count], np.arange(self.seed_count)):
            raise ValueError("seed block must map index i to index i")

    @property
    def n(self) -> int:
        return int(self.perm.shape[0])

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, int(j)) for i, j in enumerate(self.perm)]


@dataclass(frozen=True)
class HypothesisSet:
    """Per-source ranked translation hypotheses, best first.

    Keys are source identifiers: row indices at the algorithm layer, words
    once the pipelines build the final set of a run. Each value is a tuple
    of (target, score) pairs sorted by descending score with ascending-target
    tie-break, and no target repeats within a list.
    """

    entries: dict[Hashable, tuple[tuple[Hashable, float], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        frozen = {
            key: tuple((tgt, float(score)) for tgt, score in ranked)
            for key, ranked in self.entries.items()
        }
        object.__setattr__(self, "entries", frozen)
        for key, ranked in frozen.items():
            targets = [tgt for tgt, _ in ranked]
            if len(set(targets)) != len(targets):
                raise ValueError(f"duplicate target in hypothesis list for {key!r}")
            scores = [score for _, score in ranked]
            if any(a < b for a, b in zip(scores, scores[1:])):
                raise ValueError(f"hypothesis list for {key!r} not sorted by score")

    def __len__(self) -> int:
        return len(self.entries)

    def top1(self) -> dict:
        """Best target per source, skipping sources with no hypotheses."""
        return {key: ranked[0][0] for key, ranked in self.entries.items() if ranked}
