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
or stays. The final iterate is projected to a permutation by one more
LAP. The solver works on a small dx x dy summary of the iterate.

Seed pairs occupy indices 0..s-1 of both graphs and always appear in the
output (hard seeding). The solved part is one-to-one by construction.
"""

from __future__ import annotations

import logging

import numpy as np

from .assignment import solve_lap
from .hypotheses import HypothesisSet, Matching

logger = logging.getLogger(__name__)

INIT_MODES = ("barycenter", "randomized")


def build_graph(vectors: np.ndarray, order=None) -> np.ndarray:
    """Gram graph of the selected embedding rows: g[i][j] = <row_i, row_j>.

    Vertex i is embedding row ``order[i]`` (default: every row in turn).
    The graph is returned as those rows, ``vectors[order]`` in float64;
    no n x n matrix is formed.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("embedding rows must form a 2-D array")
    if order is None:
        order = range(vectors.shape[0])
    order = [int(i) for i in order]
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
    O(m^2 d). ``relabel`` reorders the rows of Y first.
    """

    def __init__(self, gx: np.ndarray, gy: np.ndarray, s: int, relabel=None):
        if relabel is not None:
            gy = gy[relabel]
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


def trace_objective(gx: np.ndarray, gy: np.ndarray, s: int, p: np.ndarray) -> float:
    """tr(Gx^T Q Gy Q^T) with Q = diag(I_s, P), for a doubly-stochastic P."""
    problem = _FactoredProblem(gx, gy, s)
    return problem.objective(problem.summary(np.asarray(p, dtype=np.float64)))


def trace_gradient(gx: np.ndarray, gy: np.ndarray, s: int, p: np.ndarray) -> np.ndarray:
    """Gradient of :func:`trace_objective` with respect to the free block P."""
    problem = _FactoredProblem(gx, gy, s)
    return problem.gradient(problem.summary(np.asarray(p, dtype=np.float64)))


def _random_doubly_stochastic(rng: np.random.Generator, m: int) -> np.ndarray:
    """Sinkhorn-balanced random matrix, averaged with the barycenter.

    Starting Frank-Wolfe at, or too close to, a permutation vertex makes
    the linearization fix that vertex immediately, so randomized starts
    stay well inside the polytope.
    """
    k = rng.uniform(size=(m, m)) + 1e-3
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


def sgm(
    gx: np.ndarray,
    gy: np.ndarray,
    s: int,
    rng: np.random.Generator,
    max_iters: int = 30,
    eps: float = 0.03,
    shuffle_input: bool = True,
    init: str = "barycenter",
    history: list | None = None,
) -> Matching:
    """Seeded graph matching by Frank-Wolfe over doubly-stochastic matrices.

    Seeds must occupy indices 0..s-1 in both graph orders. When
    ``shuffle_input`` is on, the non-seed rows/columns of ``gy`` are
    randomly relabeled before solving and the relabeling is inverted on
    the returned matching; this removes index-order bias from LAP
    tie-breaking. ``init`` selects the starting point: the flat
    barycenter (default, deterministic) or a random interior point,
    the barycenter averaged with a Sinkhorn-balanced random matrix.

    Iteration stops when ``||P_next - P||_F < eps`` or after
    ``max_iters`` steps. The returned matching reports the ``iterations``
    taken, whether the solve was ``capped`` (stopped at ``max_iters``
    before converging, which is also logged as a warning) and the trace
    ``objective`` of the matching itself. If ``history`` is a list, one
    record per iteration is appended (objective, step size 0.0 or 1.0,
    iterate delta).
    The returned matching is ``unique`` when every LAP of the solve, the
    final projection included, had a unique optimum. The objective is
    unchanged under (gx, gy, P) -> (gy, gx, P^T), so the solve with the
    graphs exchanged then takes the transposed path and returns the
    inverse permutation; a relabeling does not change a unique optimum.

    ``gx`` and ``gy`` are the embedding rows of the two graphs (see
    :func:`build_graph`); their widths may differ, their vertex counts
    may not. With m = n - s free vertices and rows of width at most d,
    one iteration costs one O(m^2 d) product for the gradient, the
    O(m^3) LAP for the direction and O(m^2) work to rewrite P in place;
    see :class:`_FactoredProblem`. Every LAP, the final projection
    included, maximizes <M, Q> over a row- and column-reduced cost made in
    place over M (:func:`_direction_lap`), which keeps its optimum but
    makes scipy's solver faster. M is the gradient for a direction and P
    itself for the projection. At most two m x m float64 arrays are
    alive: P and the gradient; the LAP's refinement works in row blocks.
    """
    n = len(gx)
    if n != len(gy):
        raise ValueError(f"graph sizes differ: {n} vs {len(gy)}")
    if not 0 <= s < n:
        raise ValueError(f"seed count {s} out of range for n={n}")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if init not in INIT_MODES:
        raise ValueError(f"init must be one of {INIT_MODES}, got {init!r}")

    m = n - s
    sigma = relabel = None
    if shuffle_input:
        sigma = rng.permutation(m)
        relabel = np.concatenate([np.arange(s), s + sigma])
    problem = _FactoredProblem(gx, gy, s, relabel)

    if init == "barycenter":
        p = np.full((m, m), 1.0 / m)
    else:
        p = _random_doubly_stochastic(rng, m)
    z = problem.summary(p)
    rows = np.arange(m)
    unique, capped = True, False

    for iteration in range(1, max_iters + 1):
        lap = _direction_lap(problem.gradient(z))
        direction, unique = lap.perm, unique and lap.unique
        dz = problem.vertex_summary(direction) - z
        alpha = delta = 0.0
        # f is convex, so the exact line search on [P, Q] ends at P or
        # at Q. ||Q - P||^2 is m - 2 <P, Q> + ||P||^2.
        if problem.gain(z, dz) > 0.0:
            alpha = 1.0
            delta = float(np.sqrt(m - 2.0 * p[rows, direction].sum() + np.vdot(p, p)))
            p[:] = 0.0
            p[rows, direction] = 1.0
            z = z + dz
        if history is not None:
            history.append(
                {
                    "iteration": iteration,
                    "alpha": alpha,
                    "delta": delta,
                    "objective": problem.objective(z),
                }
            )
        if delta < eps:
            break
    else:
        capped = True
        logger.warning("sgm stopped at max_iters=%d before converging (eps=%g)", max_iters, eps)

    lap = _direction_lap(p)  # P is not used again
    solved = sigma[lap.perm] if sigma is not None else lap.perm
    perm = np.concatenate([np.arange(s), s + solved])
    return Matching(
        perm=perm,
        seed_count=s,
        unique=unique and lap.unique,
        iterations=iteration,
        capped=capped,
        objective=problem.objective(problem.vertex_summary(lap.perm)),
    )


def _direction_lap(gradient: np.ndarray) -> Matching:
    """The vertex maximizing <gradient, Q>, found from a reduced cost.

    The cost ``-gradient`` is row-reduced, then column-reduced (see
    :mod:`bilex.assignment`), in place over ``gradient``, which the
    caller must own; ``sgm`` passes its final iterate here too.
    ``max(g row) - g`` is the row-reduced ``-g`` exactly, so one pass
    negates and row-reduces.
    """
    np.subtract(gradient.max(axis=1, keepdims=True), gradient, out=gradient)
    gradient -= gradient.min(axis=0)
    return solve_lap(gradient)


def soft_sgm(
    gx: np.ndarray,
    gy: np.ndarray,
    s: int,
    runs: int = 10,
    master_seed=0,
    max_iters: int = 30,
    eps: float = 0.03,
    shuffle_input: bool = True,
) -> np.ndarray:
    """Stack the matchings of ``runs`` SGM runs with random initializations.

    Row ``r`` of the returned ``(runs, n)`` array is run ``r``'s ``perm``.
    Run ``r`` draws its generator from child ``r`` of a fresh copy of
    ``master_seed`` (an int or a ``SeedSequence``, which is not consumed):
    the substream of ``master_seed``'s spawn key extended by ``r``. Runs
    therefore do not depend on scheduling and could execute in parallel.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    if not isinstance(master_seed, np.random.SeedSequence):
        master_seed = np.random.SeedSequence(master_seed)
    master = np.random.SeedSequence(master_seed.entropy, spawn_key=master_seed.spawn_key)
    return np.stack(
        [
            sgm(
                gx,
                gy,
                s,
                np.random.default_rng(child),
                max_iters=max_iters,
                eps=eps,
                shuffle_input=shuffle_input,
                init="randomized",
            ).perm
            for child in master.spawn(runs)
        ]
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
    runs = perms.shape[0]
    keys = range(perms.shape[1]) if keys is None else keys
    entries = {}
    for key, column in zip(keys, perms.T):
        targets, counts = np.unique(column, return_counts=True)
        ranked = np.lexsort((targets, -counts))[:k]
        top = targets[ranked].tolist()
        if labels is not None:
            top = [labels[j] for j in top]
        entries[key] = tuple(zip(top, (counts[ranked] / runs).tolist()))
    return HypothesisSet(entries)
