"""Shared result containers: one-to-one matchings, per-row top-k candidates
and ranked hypotheses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, NamedTuple

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


@dataclass(frozen=True)
class HypothesisSet:
    """Per-source ranked translation hypotheses, best first.

    Keys are source identifiers: row indices at the algorithm layer, words
    once the pipelines build the final set of a run. Each value is a tuple
    of (target, score) pairs sorted by descending score with ascending-target
    tie-break, and no target repeats within a list. The library builds its
    lists that way and this container does not check them; lists read from
    outside the program are checked where they are parsed (``bilex eval``).
    """

    entries: dict[Hashable, tuple[tuple[Hashable, float], ...]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.entries)

    def top1(self) -> dict:
        """Best target per source, skipping sources with no hypotheses."""
        return {key: ranked[0][0] for key, ranked in self.entries.items() if ranked}


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
