"""The graph framing: similarity graphs and seeded Frank-Wolfe matching.

Matching two weighted graphs while holding s known vertex pairs fixed
means minimizing ``||Gx - Q Gy Q^T||_F^2`` over the block permutations
``Q = diag(I_s, P)``, P ranging over permutations of the n-s free
vertices. Expanding the norm shows this equals maximizing the trace
form ``tr(Gx^T Q Gy Q^T)``, which is solved approximately by
Frank-Wolfe over the doubly-stochastic relaxation: each step linearizes
the objective, solves a LAP for the best vertex direction, takes an
exact line-search step (the objective is quadratic along a segment), and
the final interior point is projected to a permutation by one more LAP.
Graphs are held as factors (the embedding rows of a Gram graph), so the
solver works on small summaries of the iterate and never forms an n x n
similarity matrix.

Seed pairs occupy indices 0..s-1 of both graphs and always appear in the
output (hard seeding). The solved part is one-to-one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import solve_lap
from .hypotheses import HypothesisSet, Matching

INIT_MODES = ("barycenter", "randomized")


@dataclass(frozen=True, init=False)
class SimilarityGraph:
    """Symmetric similarity matrix held as a factor ``g = left @ right.T``.

    ``SimilarityGraph(rows=X)`` is the Gram graph of embedding rows X:
    both factors are X, so it is symmetric by construction and its n x n
    matrix is never formed. ``SimilarityGraph(g)`` stores a hand-built
    matrix exactly, as ``left = g, right = I``, after a symmetry check.
    The diagonal of a Gram graph holds squared row norms (all ones after
    normalization).
    """

    left: np.ndarray
    right: np.ndarray

    def __init__(self, g=None, *, rows=None):
        if (g is None) == (rows is None):
            raise ValueError("give exactly one of a matrix g and embedding rows")
        if rows is not None:
            left = right = np.asarray(rows, dtype=np.float64)
            if left.ndim != 2:
                raise ValueError("embedding rows must form a 2-D array")
        else:
            left = np.asarray(g, dtype=np.float64)
            if left.ndim != 2 or left.shape[0] != left.shape[1]:
                raise ValueError("graph matrix must be square")
            if left.size and np.abs(left - left.T).max() > 1e-9:
                raise ValueError("graph matrix must be symmetric within 1e-9")
            right = np.eye(left.shape[0])
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def n(self) -> int:
        return int(self.left.shape[0])

    @property
    def g(self) -> np.ndarray:
        """The dense n x n matrix, formed on each access."""
        return self.left @ self.right.T


def build_graph(vectors: np.ndarray, order=None) -> SimilarityGraph:
    """Gram graph of the selected embedding rows: g[i][j] = <row_i, row_j>.

    Vertex i is embedding row ``order[i]`` (default: every row in turn).
    Only the selected rows are kept; no n x n matrix is formed.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if order is None:
        order = range(vectors.shape[0])
    order = [int(i) for i in order]
    if any(i < 0 or i >= vectors.shape[0] for i in order):
        raise IndexError("order contains out-of-range row indices")
    if len(set(order)) != len(order):
        raise ValueError("order contains repeated row indices")
    return SimilarityGraph(rows=vectors[order])


class _FactoredProblem:
    """The seeded trace objective through r x r summaries of the free block P.

    Write ``Gx = La Ra^T`` and ``Gy = Lb Rb^T``, and split each factor
    into seed rows (1) and free rows (2). Both graphs are symmetric, so
    with ``S = Ra1^T Rb1``, ``Y = La2^T P Lb2`` and ``Z = Ra2^T P Rb2``::

        f(P)      = <S, La1^T Lb1> + <2 S + Z, Y>
        grad f(P) = La2 (2 S + 2 Z) Lb2^T

    Y and Z are linear in P and are row gathers at a permutation vertex,
    so a Frank-Wolfe step updates them in O(m r^2); only the gradient
    costs O(m^2 r). ``relabel`` reorders the rows of Gy first.
    """

    def __init__(self, gx: SimilarityGraph, gy: SimilarityGraph, s: int, relabel=None):
        lb, rb = gy.left, gy.right
        if relabel is not None:
            lb, rb = lb[relabel], rb[relabel]
        self.la2, self.ra2, self.lb2, self.rb2 = gx.left[s:], gx.right[s:], lb[s:], rb[s:]
        self.seed = gx.right[:s].T @ rb[:s]
        self.fixed = float((self.seed * (gx.left[:s].T @ lb[:s])).sum())

    def summaries(self, p: np.ndarray):
        """(Y, Z) of a doubly-stochastic P."""
        return self.la2.T @ p @ self.lb2, self.ra2.T @ p @ self.rb2

    def vertex_summaries(self, cols: np.ndarray):
        """(Y, Z) of the permutation matrix with a one at (i, cols[i])."""
        return self.la2.T @ self.lb2[cols], self.ra2.T @ self.rb2[cols]

    def objective(self, y: np.ndarray, z: np.ndarray) -> float:
        return self.fixed + float((y * (2.0 * self.seed + z)).sum())

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.la2 @ (2.0 * (self.seed + z)) @ self.lb2.T


def trace_objective(gx: SimilarityGraph, gy: SimilarityGraph, s: int, p: np.ndarray) -> float:
    """tr(Gx^T Q Gy Q^T) with Q = diag(I_s, P), for a doubly-stochastic P."""
    problem = _FactoredProblem(gx, gy, s)
    return problem.objective(*problem.summaries(np.asarray(p, dtype=np.float64)))


def trace_gradient(gx: SimilarityGraph, gy: SimilarityGraph, s: int, p: np.ndarray) -> np.ndarray:
    """Gradient of :func:`trace_objective` with respect to the free block P."""
    problem = _FactoredProblem(gx, gy, s)
    return problem.gradient(problem.summaries(np.asarray(p, dtype=np.float64))[1])


def _best_step(a: float, b: float) -> float:
    """Argmax of a*t^2 + b*t over [0, 1], preferring the smaller optimum."""
    candidates = [0.0, 1.0]
    if a < 0.0:
        critical = -b / (2.0 * a)
        if 0.0 < critical < 1.0:
            candidates.append(critical)
    values = [a * t * t + b * t for t in candidates]
    return candidates[int(np.argmax(values))]


def _random_doubly_stochastic(rng: np.random.Generator, m: int) -> np.ndarray:
    """Sinkhorn-balanced random matrix, averaged with the barycenter.

    Starting Frank-Wolfe at, or too close to, a permutation vertex makes
    the linearization fix that vertex immediately, so randomized starts
    stay well inside the polytope.
    """
    k = rng.uniform(size=(m, m)) + 1e-3
    for _ in range(1000):
        k /= k.sum(axis=1, keepdims=True)
        k /= k.sum(axis=0, keepdims=True)
        if np.abs(k.sum(axis=1) - 1.0).max() < 1e-9:
            break
    return (np.full((m, m), 1.0 / m) + k) / 2.0


def sgm(
    gx: SimilarityGraph,
    gy: SimilarityGraph,
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
    ``max_iters`` steps. If ``history`` is a list, one record per
    iteration is appended (objective, step size, iterate delta).

    With m = n - s free vertices and graph factors of rank r (the
    embedding dimension for Gram graphs), one iteration costs one
    O(m^2 r) product for the gradient, the O(m^3) LAP for the direction
    and O(m^2) elementwise work on P; see :class:`_FactoredProblem`.
    """
    if gx.n != gy.n:
        raise ValueError(f"graph sizes differ: {gx.n} vs {gy.n}")
    if not 0 <= s < gx.n:
        raise ValueError(f"seed count {s} out of range for n={gx.n}")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if init not in INIT_MODES:
        raise ValueError(f"init must be one of {INIT_MODES}, got {init!r}")

    m = gx.n - s
    sigma = relabel = None
    if shuffle_input:
        sigma = rng.permutation(m)
        relabel = np.concatenate([np.arange(s), s + sigma])
    problem = _FactoredProblem(gx, gy, s, relabel)

    if init == "barycenter":
        p = np.full((m, m), 1.0 / m)
    else:
        p = _random_doubly_stochastic(rng, m)
    y, z = problem.summaries(p)
    rows = np.arange(m)

    for iteration in range(1, max_iters + 1):
        grad = problem.gradient(z)
        direction = solve_lap(grad, maximize=True).perm
        yq, zq = problem.vertex_summaries(direction)
        step = -p  # D = Q - P, with Q the direction's permutation matrix
        step[rows, direction] += 1.0
        # f(P + t D) - f(P) = t <grad, D> + t^2 <Y(D), Z(D)>
        alpha = _best_step(float(((yq - y) * (zq - z)).sum()), float(np.vdot(grad, step)))
        delta = alpha * float(np.linalg.norm(step))
        step *= alpha
        p += step
        y, z = y + alpha * (yq - y), z + alpha * (zq - z)
        if history is not None:
            history.append(
                {
                    "iteration": iteration,
                    "alpha": alpha,
                    "delta": delta,
                    "objective": problem.objective(y, z),
                }
            )
        if delta < eps:
            break

    projected = solve_lap(p, maximize=True).perm
    solved = sigma[projected] if sigma is not None else projected
    perm = np.concatenate([np.arange(s), s + solved])
    return Matching(perm=perm, seed_count=s)


def _child_seed(master, index: int) -> np.random.SeedSequence:
    if isinstance(master, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=master.entropy, spawn_key=tuple(master.spawn_key) + (index,)
        )
    return np.random.SeedSequence(entropy=master, spawn_key=(index,))


def soft_sgm(
    gx: SimilarityGraph,
    gy: SimilarityGraph,
    s: int,
    runs: int = 10,
    master_seed=0,
    max_iters: int = 30,
    eps: float = 0.03,
    shuffle_input: bool = True,
) -> np.ndarray:
    """Stack the matchings of ``runs`` SGM runs with random initializations.

    Row ``r`` of the returned ``(runs, n)`` array is run ``r``'s ``perm``.
    Run ``r`` draws its generator from a substream derived deterministically
    from ``master_seed`` and ``r`` alone, so results do not depend on
    scheduling and runs could execute in parallel.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    return np.stack(
        [
            sgm(
                gx,
                gy,
                s,
                np.random.default_rng(_child_seed(master_seed, run)),
                max_iters=max_iters,
                eps=eps,
                shuffle_input=shuffle_input,
                init="randomized",
            ).perm
            for run in range(runs)
        ]
    )


def top_k_from_distribution(perms: np.ndarray, k: int = 5) -> HypothesisSet:
    """Up to ``k`` targets per source by descending empirical probability.

    ``perms`` is a ``(runs, n)`` stack of matchings; a target's probability
    for source i is the share of runs matching i to it. Ties break toward
    the smaller target index; sources that saw fewer than ``k`` distinct
    targets get shorter lists.
    """
    if k < 1:
        raise ValueError("k must be positive")
    perms = np.asarray(perms)
    runs = perms.shape[0]
    entries = {}
    for src in range(perms.shape[1]):
        targets, counts = np.unique(perms[:, src], return_counts=True)
        ranked = np.lexsort((targets, -counts))[:k]
        entries[src] = tuple((int(targets[i]), counts[i] / runs) for i in ranked)
    return HypothesisSet(entries)
