"""The graph framing: similarity graphs and seeded Frank-Wolfe matching.

A similarity graph is the Gram graph ``G = X X^T`` of its vertices'
embedding rows X, and it is held as those rows: an (n, d) float64
array, one row per vertex, whose n x n matrix is never formed.

Matching two graphs while holding s known vertex pairs fixed means
minimizing ``||Gx - Q Gy Q^T||_F^2`` over the block permutations
``Q = diag(I_s, P)``, P ranging over permutations of the n-s free
vertices. Expanding the norm shows this equals maximizing the trace
form ``tr(Gx^T Q Gy Q^T)``, which is solved approximately by
Frank-Wolfe over the doubly-stochastic relaxation: each step linearizes
the objective and solves a LAP for the best vertex direction. The
objective is convex in P, so the exact line search moves to that vertex
or stays. After its first move the iterate is a permutation, held as an
index vector, and that is the solve's answer; a solve that never moves
projects its start to a permutation: the barycenter to the identity, a
random start by one more LAP. The solver works on a small dx x dy
summary of the iterate, and a start is released once summarized (a
random one is redrawn when needed), so a solve from either start holds
one m x m array at a time.

Seed pairs occupy indices 0..s-1 of both graphs and always appear in the
output (hard seeding). The solved part is one-to-one by construction.
"""

from __future__ import annotations

import copy
import logging
import operator
import os

import numpy as np

from ._threads import _pinned_blas
from .assignment import solve_lap
from .hypotheses import HypothesisSet, Matching

logger = logging.getLogger(__name__)

INIT_MODES = ("barycenter", "randomized")


class WorkingSetError(MemoryError):
    """A graph solve would need more than physical memory."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def build_graph(vectors: np.ndarray, order=None) -> np.ndarray:
    """Gram graph of the selected embedding rows: g[i][j] = <row_i, row_j>.

    Vertex i is embedding row ``order[i]`` (default: every row in turn);
    an entry that is not an integer, such as a float or a string, raises
    TypeError.
    The graph is returned as those rows, ``vectors[order]`` in float64;
    no n x n matrix is formed.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("embedding rows must form a 2-D array")
    if order is None:
        order = range(vectors.shape[0])
    order = [operator.index(i) for i in order]
    if any(i < 0 or i >= vectors.shape[0] for i in order):
        raise IndexError("order contains out-of-range row indices")
    if len(set(order)) != len(order):
        raise ValueError("order contains repeated row indices")
    return vectors[order]


class _FactoredProblem:
    """The seeded trace objective through a summary of the free block P.

    Split the rows of ``Gx = X X^T`` and ``Gy = Y Y^T`` into seed rows
    (1) and free rows (2). With ``S = X1^T Y1`` and the summary
    ``Z = X2^T P Y2``::

        f(P)      = ||S + Z||_F^2 = <S, S> + <2 S + Z, Z>
        grad f(P) = X2 (2 S + 2 Z) Y2^T

    so a step from Z to Z + dZ changes f by ``gain(Z, dZ) =
    <dZ, 2 (S + Z) + dZ>``, and f(P) itself is ``<S, S> + gain(0, Z)``.
    Z is linear in P and a row gather at a permutation vertex, so a
    Frank-Wolfe step updates it in O(m dx dy); only the gradient costs
    O(m^2 d).
    """

    def __init__(self, gx: np.ndarray, gy: np.ndarray, s: int):
        self.x2, self.y2 = gx[s:], gy[s:]
        self.seed = gx[:s].T @ gy[:s]
        self.fixed = float((self.seed * self.seed).sum())

    def summary(self, p: np.ndarray) -> np.ndarray:
        """Z of a doubly-stochastic P."""
        return self.x2.T @ p @ self.y2

    def vertex_summary(self, cols: np.ndarray) -> np.ndarray:
        """Z of the permutation matrix with a one at (i, cols[i])."""
        return self.x2.T @ self.y2[cols]

    def gain(self, z: np.ndarray | float, dz: np.ndarray) -> float:
        """f at summary z + dz minus f at summary z."""
        return float((dz * (2.0 * (self.seed + z) + dz)).sum())

    def objective(self, z: np.ndarray) -> float:
        return self.fixed + self.gain(0.0, z)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.x2 @ (2.0 * (self.seed + z)) @ self.y2.T


def _random_doubly_stochastic(rng: np.random.Generator, m: int) -> np.ndarray:
    """Sinkhorn-balanced random matrix, averaged with the barycenter.

    Starting Frank-Wolfe at, or too close to, a permutation vertex makes
    the linearization fix that vertex immediately, so randomized starts
    stay well inside the polytope.
    """
    k = rng.uniform(size=(m, m))
    k += 1e-3
    row_sums = k.sum(axis=1, keepdims=True)
    for _ in range(1000):
        k /= row_sums
        k /= k.sum(axis=0, keepdims=True)
        # The sums tested here scale the rows of the next pass.
        row_sums = k.sum(axis=1, keepdims=True)
        if np.abs(row_sums - 1.0).max() < 1e-9:
            break
    k += 1.0 / m
    k /= 2.0
    return k


@_pinned_blas()
def sgm(
    gx: np.ndarray,
    gy: np.ndarray,
    s: int,
    rng: np.random.Generator,
    max_iters: int = 30,
    init: str = "barycenter",
) -> Matching:
    """Seeded graph matching by Frank-Wolfe over doubly-stochastic matrices.

    Seeds must occupy indices 0..s-1 in both graph orders; an ``s`` that
    is not an integer raises TypeError. The non-seed
    rows/columns of ``gy`` are always randomly relabeled before solving
    and the relabeling is inverted on the returned matching. Ties among
    LAP optima break toward the smaller index, so without it a caller
    that puts gold pair i at (i, i), as ``pipelines`` does in the
    restricted vocabulary, would get the gold alignment back wherever a
    LAP ties.
    ``init`` selects the starting point: the flat barycenter (default,
    deterministic) or a random interior point, the barycenter averaged
    with a Sinkhorn-balanced random matrix.

    Iteration stops at the first step that does not move, or after
    ``max_iters`` steps. A step does not move when the exact line search
    stays at the iterate (it gains nothing) or when its direction is the
    vertex the iterate already is. Every move is long: the barycenter's
    first move has ``||Q - P||_F = sqrt(m - 1)``, a random start's first
    at least about ``sqrt((m - 1) / 4)``, and a move between vertices at
    least 2. So for every ``eps`` below 1/2 this is the FAQ stop test
    ``||P_next - P||_F < eps``. The returned matching reports the
    ``iterations`` taken, whether the solve was ``capped`` (stopped at
    ``max_iters`` while still moving, which is also logged as a warning)
    and the trace ``objective`` of the matching itself.
    The returned matching is ``unique`` when every LAP of the solve had a
    unique optimum: the direction LAPs, and the projection of the start
    when the solve never moved. The barycenter's projection is a constant
    cost, which every permutation solves, so it is the identity, unique
    iff m == 1, found without a LAP. A solve that moved ends at a vertex,
    whose projection is itself and unique, so it makes no projection LAP
    either. The objective is unchanged under (gx, gy, P) -> (gy, gx, P^T),
    so the solve with the graphs exchanged then takes the transposed path
    and returns the inverse permutation; a relabeling does not change a
    unique optimum.

    ``gx`` and ``gy`` are the embedding rows of the two graphs (see
    :func:`build_graph`); their widths may differ, their vertex counts
    may not. With m = n - s free vertices and rows of width at most d,
    one iteration costs one O(m^2 d) product for the gradient and the
    O(m^3) LAP for the direction; a move updates the summary in O(m d^2)
    and the iterate, an index vector, in O(m). See
    :class:`_FactoredProblem`. Every LAP maximizes <M, Q> over a row- and
    column-reduced cost made in place over M (:func:`_direction_lap`),
    which keeps its optimum but makes scipy's solver faster. M is the
    gradient for a direction and a random start for the projection. No
    start is alive next to a gradient: the barycenter is summarized
    without forming it, and a random start P is summarized and released
    before the first gradient. It is redrawn, bit for bit, from a copy of
    ``rng`` taken before the draw, only to project a start that never
    moved. ``rng`` itself is consumed by the relabeling and one draw of
    the start. So a solve from either start holds one m x m float64
    array at a time; the LAP's refinement works in row blocks. Before it
    touches ``rng`` or makes any m x m array, a solve whose estimate of
    1.25 such arrays exceeds physical memory raises
    :class:`WorkingSetError`.
    """
    n, s = len(gx), operator.index(s)
    if n != len(gy):
        raise ValueError(f"graph sizes differ: {n} vs {len(gy)}")
    if not 0 <= s < n:
        raise ValueError(f"seed count {s} out of range for n={n}")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if init not in INIT_MODES:
        raise ValueError(f"init must be one of {INIT_MODES}, got {init!r}")

    m = n - s
    # One m x m float64 array at a time, the gradient or a redrawn random
    # start: 1.24 arrays measured at m = 1000 from the barycenter, 1.21
    # from a random start, moving or not.
    arrays = 1.25
    need, have = arrays * 8.0 * m * m, _physical_memory()
    if have is not None and need > have:
        raise WorkingSetError(
            f"a graph solve at m = {m} free vertices needs about {need / 2**30:.1f} GiB "
            f"({arrays} m x m float64 arrays), more than the {have / 2**30:.1f} GiB "
            "of physical memory"
        )
    sigma = rng.permutation(m)
    problem = _FactoredProblem(gx, gy[np.concatenate([np.arange(s), s + sigma])], s)

    # Until its first move the iterate is the start P, which the solve
    # does not hold; from then on it is the permutation vertex with a one
    # at (i, cols[i]). `start` redraws a random P.
    cols = start = None
    if init == "barycenter":
        # Z of the flat P = 1 1^T / m, without forming it.
        z = np.outer(problem.x2.sum(axis=0), problem.y2.sum(axis=0)) / m
    else:
        start = copy.deepcopy(rng)
        z = problem.summary(_random_doubly_stochastic(rng, m))
    unique, capped = True, False

    for iteration in range(1, max_iters + 1):
        lap = _direction_lap(problem.gradient(z))
        direction, unique = lap.perm, unique and lap.unique
        dz = problem.vertex_summary(direction) - z
        # f is convex, so the exact line search on [P, Q] ends at P or at
        # Q: the solve stops when it stays, or when Q is the vertex it is at.
        if problem.gain(z, dz) <= 0.0 or (cols is not None and np.array_equal(cols, direction)):
            break
        cols, z = direction, z + dz
    else:
        capped = True
        logger.warning("sgm stopped at max_iters=%d before converging", max_iters)

    if cols is None:
        # The solve never moved: project its start.
        if start is None:
            cols, unique = np.arange(m), unique and m == 1
        else:
            lap = _direction_lap(_random_doubly_stochastic(start, m))
            cols, unique = lap.perm, unique and lap.unique
    return Matching(
        perm=np.concatenate([np.arange(s), s + sigma[cols]]),
        seed_count=s,
        unique=unique,
        iterations=iteration,
        capped=capped,
        objective=problem.objective(problem.vertex_summary(cols)),
    )


def _direction_lap(gradient: np.ndarray) -> Matching:
    """The vertex maximizing <gradient, Q>, found from a reduced cost.

    The cost ``-gradient`` is row-reduced, then column-reduced (see
    :mod:`bilex.assignment`), in place over ``gradient``, which the
    caller must own; ``sgm`` passes the random start of a solve that never
    moved here too.
    ``max(g row) - g`` is the row-reduced ``-g`` exactly, so one pass
    negates and row-reduces.
    """
    np.subtract(gradient.max(axis=1, keepdims=True), gradient, out=gradient)
    gradient -= gradient.min(axis=0)
    return solve_lap(gradient)


@_pinned_blas()
def soft_sgm(
    gx: np.ndarray,
    gy: np.ndarray,
    s: int,
    rngs: list[np.random.Generator],
    max_iters: int = 30,
) -> np.ndarray:
    """Stack the matchings of one randomized-start SGM solve per generator.

    Row ``r`` of the returned ``(len(rngs), n)`` array is the ``perm`` of
    the solve that draws from ``rngs[r]``, a non-empty sequence of
    generators. Each solve has a stream of its own, so the solves do not
    depend on scheduling and could execute in parallel.
    """
    if not rngs:
        raise ValueError("soft_sgm needs at least one generator")
    return np.stack(
        [sgm(gx, gy, s, rng, max_iters=max_iters, init="randomized").perm for rng in rngs]
    )


def top_k_from_distribution(perms: np.ndarray, k: int = 5, keys=None, labels=None) -> HypothesisSet:
    """Up to ``k`` targets per source by descending empirical probability.

    ``perms`` is a ``(runs, n)`` stack of matchings; a target's probability
    for source i is the share of runs matching i to it. Ties break toward
    the smaller target index; sources that saw fewer than ``k`` distinct
    targets get shorter lists. Source i is keyed by ``keys[i]`` and target
    j named ``labels[j]`` (indices when not given), as in ``TopK.hypotheses``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    perms = np.asarray(perms)
    runs, n = perms.shape
    ranked = np.sort(perms, axis=0).T  # row i: source i's targets, ascending
    new = np.ones(ranked.shape, dtype=bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    # One entry per (source, target) pair seen, counted by its run length.
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, ranked.size))
    sources, targets = starts // runs, ranked.ravel()[starts]
    distinct = new.sum(axis=1)
    first = np.repeat(np.cumsum(distinct) - distinct, distinct)  # of each pair's source
    # Sorting by source first leaves each source's pairs where they were.
    order = np.lexsort((targets, -counts, sources))
    kept = order[np.arange(order.size) - first < k]
    ends = np.cumsum(np.minimum(distinct, k)).tolist()
    top = targets[kept].tolist()
    if labels is not None:
        top = [labels[j] for j in top]
    pairs = list(zip(top, (counts[kept] / runs).tolist()))
    keys = range(n) if keys is None else keys
    return HypothesisSet(
        {key: tuple(pairs[start:end]) for key, start, end in zip(keys, [0, *ends], ends)}
    )
