"""Exact linear assignment with deterministic tie-breaking.

The core optimum is found by :func:`scipy.optimize.linear_sum_assignment`
(Jonker-Volgenant style shortest augmenting paths, O(n^3)). Because SGM's
Frank-Wolfe steps and vertex projection are sensitive to which optimum a
degenerate LAP returns, the result is then refined to the lexicographically
smallest optimal permutation:

1. recover optimal dual potentials from the primal solution by
   Bellman-Ford relaxation on the column-exchange graph (no negative
   cycles exist at an optimum, so this converges in at most n passes);
2. mark the "tight" cells, i.e. those with zero reduced cost -- by LP
   complementary slackness the optimal assignments are exactly the
   perfect matchings of the tight bipartite graph;
3. greedily pick the smallest feasible column per row, re-augmenting the
   matching when a swap is needed.

For generic float costs the optimum is unique, the tight graph has
exactly n cells, and steps 2-3 cost one boolean scan.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .hypotheses import Matching

# Reduced costs at or below scale * _TIE_RTOL count as tight.
_TIE_RTOL = 1e-9


def solve_lap(values) -> Matching:
    """Solve the n x n minimum-cost assignment exactly; negate to maximize.

    Among all optimal permutations, the lexicographically smallest one is
    returned, as a ``Matching`` without seeds, which makes every
    downstream pipeline bit-reproducible.
    """
    cost = np.asarray(values, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if cost.shape[0] == 0:
        raise ValueError("cost matrix is empty")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")

    _, cols = linear_sum_assignment(cost)
    return Matching(perm=_lex_min_optimal(cost, cols.astype(np.intp)))


def _lex_min_optimal(cost: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Refine an optimal permutation to the lex-smallest optimal one."""
    n = cost.shape[0]
    if n == 1:
        return perm
    v = _column_duals(cost, perm)
    rows = np.arange(n)
    u = cost[rows, perm] - v[perm]
    reduced = cost - u[:, None] - v[None, :]
    tol = _TIE_RTOL * max(1.0, float(np.abs(cost).max()))
    tight = reduced <= tol
    tight[rows, perm] = True  # guard against rounding in the duals
    if int(tight.sum()) == n:
        return perm  # unique optimum
    return _lex_min_matching(tight, perm)


def _column_duals(cost: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Optimal column potentials for an optimal primal solution.

    Feasibility requires v[j] <= v[perm[i]] + cost[i, j] - cost[i, perm[i]]
    for every row i; iterating that relaxation from v = 0 is Bellman-Ford
    on the exchange graph and reaches a fixpoint in at most n passes (no
    negative cycles exist at an optimum). Row i only needs re-relaxing
    when v[perm[i]] changed, so later passes shrink to a workset.
    """
    n = cost.shape[0]
    base = cost[np.arange(n), perm]
    row_of = np.empty(n, dtype=np.intp)
    row_of[perm] = np.arange(n)
    v = np.zeros(n)
    active = np.arange(n)
    for _ in range(n):
        head = v[perm[active]] - base[active]
        new = np.minimum(v, (head[:, None] + cost[active]).min(axis=0))
        changed = np.flatnonzero(new < v)
        if changed.size == 0:
            break
        v = new
        active = row_of[changed]
    return v


def _lex_min_matching(tight: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the tight graph.

    ``initial`` must be a perfect matching of ``tight``. Rows are fixed in
    index order; for each row, candidate columns below the current
    assignment are tried in ascending order, accepting the first one that
    still admits a perfect matching (checked by searching an alternating
    path that re-homes the displaced row).
    """
    n = tight.shape[0]
    match_col = initial.copy()
    match_row = np.empty(n, dtype=np.intp)
    match_row[initial] = np.arange(n)
    adjacency = [np.flatnonzero(tight[i]) for i in range(n)]
    col_fixed = np.zeros(n, dtype=bool)

    for i in range(n):
        for j in adjacency[i]:
            if j >= match_col[i]:
                break  # the current column is already the best feasible one
            if col_fixed[j]:
                continue
            if _reaugment(adjacency, match_col, match_row, col_fixed, i, int(j)):
                break
        col_fixed[match_col[i]] = True
    return match_col


def _reaugment(adjacency, match_col, match_row, col_fixed, row: int, col: int) -> bool:
    """Try to give ``row`` column ``col`` by re-homing col's current row.

    Searches (BFS) for an alternating path from the displaced row to the
    column freed by ``row``; on success the matching is updated in place.
    """
    freed = int(match_col[row])
    displaced = int(match_row[col])
    blocked = col_fixed.copy()
    blocked[col] = True
    parent = {}  # column -> row that reached it
    queue = [displaced]
    found = False
    while queue and not found:
        next_queue = []
        for r in queue:
            for c in adjacency[r]:
                c = int(c)
                if blocked[c] or c in parent:
                    continue
                parent[c] = r
                if c == freed:
                    found = True
                    break
                next_queue.append(int(match_row[c]))
            if found:
                break
        queue = next_queue
    if not found:
        return False

    # Flip matches along the alternating path, then install (row, col).
    c = freed
    while True:
        r = parent[c]
        previous = int(match_col[r])
        match_col[r] = c
        match_row[c] = r
        if r == displaced:
            break
        c = previous
    match_col[row] = col
    match_row[col] = row
    return True
