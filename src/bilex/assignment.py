"""Exact linear assignment with deterministic tie-breaking.

The first step belongs to the Frank-Wolfe caller: it reduces the cost
of every LAP, each direction and the projection of a start that never
moved, subtracting each row's minimum and then each column's, as Jonker
and Volgenant (1987) begin.
That leaves the optimal set unchanged, and scipy, which does not
reduce, solves the reduced cost faster. :func:`solve_lap` leaves its
argument unchanged, since reducing it here would need an n x n copy;
its tie tolerance scales with the cost it receives.

The core optimum is found by :func:`scipy.optimize.linear_sum_assignment`
(Jonker-Volgenant style shortest augmenting paths, O(n^3)). Because SGM's
Frank-Wolfe steps and vertex projection are sensitive to which optimum a
degenerate LAP returns, the result is then refined to the lexicographically
smallest optimal permutation by LP complementary slackness:

1. recover optimal column potentials from the primal solution by
   Bellman-Ford relaxation on the column-exchange graph, whose edge
   (perm[i], j) weighs cost[i, j] - cost[i, perm[i]]. Rows are relaxed
   in blocks, Gauss-Seidel style: each block sees the potentials that
   earlier blocks lowered, and a row waits until its own column's
   potential falls before it is relaxed again. Every relaxation order
   from v = 0 that reaches a fixpoint reaches the same one, so the
   potentials do not depend on the block size;
2. collect the "tight" cells, those with zero reduced cost, in the same
   row blocks. The optimal assignments are exactly the perfect matchings
   of the tight bipartite graph, so any other optimum differs from
   ``perm`` by alternating cycles: directed cycles of the tight exchange
   graph, from column perm[i] to each tight column j of row i;
3. find the strongly connected components of that graph. When each is a
   single column, ``perm`` is the only optimum, even if many cells beyond
   its own are tight (as they are on Frank-Wolfe gradients, whose duals
   make every shortest-path tree edge tight). Otherwise only the rows
   whose columns share a component with another column can move, and
   only along tight cells inside their component. The greedy search runs
   on those rows alone: it picks the smallest feasible column per row and
   re-augments the matching when a swap is needed.

No n x n temporary is built beyond the caller's cost matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array

from .hypotheses import Matching

# Reduced costs at or below max(1, max |cost|) * _TIE_RTOL count as tight.
_TIE_RTOL = 1e-9
# Rows relaxed or scanned together; each block is _BLOCK_ROWS x n float64.
_BLOCK_ROWS = 64


def solve_lap(values) -> Matching:
    """Solve the n x n minimum-cost assignment exactly; negate to maximize.

    Among all optimal permutations, the lexicographically smallest one is
    returned, as a ``Matching`` without seeds, which makes every
    downstream pipeline bit-reproducible. Its ``unique`` flag says whether
    no other permutation is optimal. On a constant cost, where every
    permutation is, that is the identity, found without scipy or duals.
    """
    cost = np.asarray(values, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if cost.shape[0] == 0:
        raise ValueError("cost matrix is empty")
    low, high = float(cost.min()), float(cost.max())
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("cost matrix contains non-finite entries")
    if low == high:
        return Matching(perm=np.arange(cost.shape[0]), unique=cost.shape[0] == 1)

    _, cols = linear_sum_assignment(cost)
    tol = _TIE_RTOL * max(1.0, high, -low)
    perm, unique = _lex_min_optimal(cost, cols.astype(np.intp), tol)
    return Matching(perm=perm, unique=unique)


def _lex_min_optimal(cost: np.ndarray, perm: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Refine an optimal permutation to the lex-smallest optimal one.

    Reduced costs at or below ``tol`` count as tight. Also returns whether
    ``perm`` is the only optimal permutation.
    """
    n = cost.shape[0]
    rows, cols = _tight_cells(cost, perm, _column_duals(cost, perm), tol)
    # Imported here: loading csgraph adds about 1 MB to every process,
    # including those that never solve a LAP.
    from scipy.sparse.csgraph import connected_components

    heads = perm[rows]
    count, label = connected_components(
        csr_array((np.ones(rows.size, dtype=np.int8), (heads, cols)), shape=(n, n)),
        directed=True,
        connection="strong",
    )
    if count == n:
        return perm, True  # the exchange graph has no cycle
    inside = (label[heads] == label[cols]) & (np.bincount(label)[label[cols]] > 1)
    return _lex_min_matching(perm, rows[inside], cols[inside]), False


def _column_duals(cost: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Optimal column potentials for an optimal primal solution.

    Feasibility requires v[j] <= v[perm[i]] + cost[i, j] - cost[i, perm[i]]
    for every row i. Relaxing those constraints from v = 0 in any order
    lowers v monotonically to the greatest feasible v <= 0, which is
    Bellman-Ford on the exchange graph. No negative cycles exist at an
    optimum, so the sweeps are capped at n; only cycles of rounding-level
    weight among tied costs ever reach the cap.
    """
    n = cost.shape[0]
    base = cost[np.arange(n), perm]
    row_of = np.empty(n, dtype=np.intp)
    row_of[perm] = np.arange(n)
    v = np.zeros(n)
    pending = np.ones(n, dtype=bool)
    buffer = np.empty((min(_BLOCK_ROWS, n), n))  # a fresh sum per block page-faults
    new = np.empty(n)
    for _ in range(n):
        active = np.flatnonzero(pending)
        if active.size == 0:
            break
        for start in range(0, active.size, _BLOCK_ROWS):
            block = active[start : start + _BLOCK_ROWS]
            pending[block] = False
            relaxed = buffer[: block.size]
            np.add(cost[block], (v[perm[block]] - base[block])[:, None], out=relaxed)
            relaxed.min(axis=0, out=new)
            changed = np.flatnonzero(new < v)
            v[changed] = new[changed]
            pending[row_of[changed]] = True
    return v


def _tight_cells(cost: np.ndarray, perm: np.ndarray, v: np.ndarray, tol: float):
    """(rows, cols) of the tight cells in row-major order, perm's included."""
    n = cost.shape[0]
    u = cost[np.arange(n), perm] - v[perm]
    reduced = np.empty((min(_BLOCK_ROWS, n), n))
    rows, cols = [], []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = reduced[: stop - start]
        np.subtract(cost[start:stop], u[start:stop, None], out=block)
        block -= v
        tight = block <= tol
        tight[np.arange(stop - start), perm[start:stop]] = True  # rounding guard
        block_rows, block_cols = np.nonzero(tight)
        rows.append(block_rows + start)
        cols.append(block_cols)
    return np.concatenate(rows), np.concatenate(cols)


def _lex_min_matching(initial: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the tight graph.

    ``initial`` must be a perfect matching of the tight graph. ``rows``
    and ``cols`` are, in row-major order, the tight cells of the rows that
    can change column, each row's own cell included; every other row keeps
    its column. Movable rows are fixed in index order; for each, candidate
    columns below the current assignment are tried in ascending order,
    accepting the first one that still admits a perfect matching (checked
    by searching an alternating path that re-homes the displaced row).
    """
    n = initial.size
    match_col = initial.tolist()
    match_row = [0] * n
    for i, j in enumerate(match_col):
        match_row[j] = i
    movable, starts = np.unique(rows, return_index=True)
    adjacency = {
        row: row_cols.tolist()
        for row, row_cols in zip(movable.tolist(), np.split(cols, starts[1:]))
    }
    col_fixed = [False] * n

    for i in movable.tolist():
        for j in adjacency[i]:
            if j >= match_col[i]:
                break  # the current column is already the best feasible one
            if col_fixed[j]:
                continue
            if _reaugment(adjacency, match_col, match_row, col_fixed, i, j):
                break
        col_fixed[match_col[i]] = True
    return np.array(match_col, dtype=np.intp)


def _reaugment(adjacency, match_col, match_row, col_fixed, row: int, col: int) -> bool:
    """Try to give ``row`` column ``col`` by re-homing col's current row.

    Searches (BFS) for an alternating path from the displaced row to the
    column freed by ``row``; on success the matching is updated in place.
    """
    freed = match_col[row]
    displaced = match_row[col]
    seen = col_fixed.copy()  # fixed columns are never re-homed
    seen[col] = True
    parent = {}  # column -> row that reached it
    queue = [displaced]
    while queue and freed not in parent:
        next_queue = []
        for r in queue:
            for c in adjacency[r]:
                if seen[c]:
                    continue
                seen[c] = True
                parent[c] = r
                if c == freed:
                    break
                next_queue.append(match_row[c])
            if freed in parent:
                break
        queue = next_queue
    if freed not in parent:
        return False

    # Flip matches along the alternating path, then install (row, col).
    c = freed
    while True:
        r = parent[c]
        previous = match_col[r]
        match_col[r] = c
        match_row[c] = r
        if r == displaced:
            break
        c = previous
    match_col[row] = col
    match_row[col] = row
    return True
