"""The LAP refinement against the code it replaced.

``reference_assignment`` keeps the refinement that built dense reduced
costs and relaxed its duals one Jacobi pass at a time. Given the same
cost and the same optimum from scipy, both must return the same
permutation: on Frank-Wolfe gradients at m = 1000, on tie-heavy inputs of
that size, and on the small tied LAPs of other tests whose duals stop at
the n-pass cap without reaching a fixpoint. The row- and column-reduced
costs that Frank-Wolfe hands the LAP must give the permutation and the
uniqueness flag of the raw cost.
"""

import functools

import numpy as np
from scipy.optimize import linear_sum_assignment

import reference_assignment as reference
import test_acceptance
import test_assignment
import test_graph_matching
import test_sgm_factored
from bilex import assignment, build_graph, graph_matching, solve_lap
from bilex.graph_matching import INIT_MODES, trace_gradient


def assert_same_refinement(cost):
    """New and reference refinement agree; returns the uniqueness flag."""
    perm = linear_sum_assignment(cost)[1].astype(np.intp)
    tol = 1e-9 * max(1.0, np.abs(cost).max())
    got, unique = assignment._lex_min_optimal(cost, perm, tol)
    np.testing.assert_array_equal(got, reference._lex_min_optimal(cost, perm))
    return unique


def is_fixpoint(cost, perm, v):
    """Whether one more relaxation of every row leaves the duals unchanged."""
    head = v[perm] - cost[np.arange(len(perm)), perm]
    return not ((head[:, None] + cost).min(axis=0) < v).any()


def vertex(cols):
    p = np.zeros((len(cols), len(cols)))
    p[np.arange(len(cols)), cols] = 1.0
    return p


def frank_wolfe_gradients(gx, gy, s, moves):
    """Costs of the LAPs along Frank-Wolfe moves from the barycenter."""
    m = len(gx) - s
    p = np.full((m, m), 1.0 / m)
    costs = []
    for _ in range(moves + 1):
        costs.append(-trace_gradient(gx, gy, s, p))
        p = vertex(solve_lap(costs[-1]).perm)
    return costs


def test_frank_wolfe_gradients_at_scale():
    x, y = test_sgm_factored.noisy_planted_rows(1100, 50, 100, 1.5, np.random.default_rng(11))
    for cost in frank_wolfe_gradients(build_graph(x), build_graph(y), 100, moves=3):
        # unique, although hundreds of cells beyond the optimum's are tight
        assert assert_same_refinement(cost)


def test_tie_heavy_inputs_at_scale():
    rng = np.random.default_rng(12)
    n = 1000
    assert not assert_same_refinement(rng.integers(0, 20, size=(n, n)).astype(float))
    assert not assert_same_refinement(np.round(rng.normal(size=(n, n)), 1))
    # Repeated embedding rows make whole blocks of the gradient equal.
    distinct = rng.normal(size=(200, 3))
    x = distinct[rng.integers(0, 200, size=n + 100)]
    y = distinct[rng.integers(0, 200, size=n + 100)]
    costs = frank_wolfe_gradients(build_graph(x), build_graph(y), 100, moves=1)
    assert not assert_same_refinement(costs[-1])


def reference_lap(cost):
    """The reference refinement's optimum and whether it is the only one.

    It is exactly when the lex-smallest and the lex-largest optima agree;
    the lex-largest is the lex-smallest of the cost with its columns
    reversed, read back through the reversal.
    """
    def lex_min(c):
        return reference._lex_min_optimal(c, linear_sum_assignment(c)[1].astype(np.intp))

    perm = lex_min(cost)
    return perm, bool(np.array_equal(perm, len(perm) - 1 - lex_min(cost[:, ::-1])))


def assert_reduction_keeps_the_optimum(cost):
    """Frank-Wolfe's direction LAP, which row- and column-reduces its cost,
    gives the permutation and flag of ``solve_lap`` on the raw cost and of
    the reference; returns the flag."""
    lap = graph_matching._direction_lap(-cost)  # the gradient whose direction cost is ``cost``
    raw = solve_lap(cost)
    perm, unique = reference_lap(cost)
    np.testing.assert_array_equal(lap.perm, raw.perm)
    np.testing.assert_array_equal(lap.perm, perm)
    assert lap.unique == raw.unique == unique
    return unique


def test_reduced_cost_on_frank_wolfe_gradients():
    rng = np.random.default_rng(13)
    x, y = test_sgm_factored.noisy_planted_rows(600, 30, 100, 1.5, rng)
    gx, gy = build_graph(x), build_graph(y)
    randomized = -trace_gradient(gx, gy, 100, graph_matching._random_doubly_stochastic(rng, 500))
    for cost in frank_wolfe_gradients(gx, gy, 100, moves=3) + [randomized]:
        assert assert_reduction_keeps_the_optimum(cost)


def test_reduced_cost_on_tie_heavy_inputs():
    rng = np.random.default_rng(14)
    n = 300
    assert not assert_reduction_keeps_the_optimum(rng.integers(0, 20, size=(n, n)).astype(float))
    assert not assert_reduction_keeps_the_optimum(np.round(4.0 * rng.normal(size=(n, n))) / 4.0)
    # Small integers leave some instances with a single optimum.
    flags = [
        assert_reduction_keeps_the_optimum(rng.integers(0, 4, size=(6, 6)).astype(float))
        for _ in range(60)
    ]
    assert any(flags) and not all(flags)


def test_reduced_cost_with_equal_rows():
    # Equal free rows in gx give every row of the barycenter's gradient the
    # same values: every permutation is optimal, so the identity wins.
    rng = np.random.default_rng(15)
    x, y = test_sgm_factored.noisy_planted_rows(220, 10, 20, 1.0, rng)
    x[21:] = x[20]
    cost = -trace_gradient(build_graph(x), build_graph(y), 20, np.full((200, 200), 1.0 / 200))
    assert (cost == cost[0]).all()
    for tied in (cost, np.round(4.0 * cost) / 4.0):
        assert not assert_reduction_keeps_the_optimum(tied)
        np.testing.assert_array_equal(graph_matching._direction_lap(-tied).perm, np.arange(200))


def recorded_laps(monkeypatch, *solves):
    """Every (cost, scipy optimum) that reaches the refinement in ``solves``."""
    laps = []
    refine = assignment._lex_min_optimal

    def recording(cost, perm, tol):
        laps.append((cost.copy(), perm.copy()))
        return refine(cost, perm, tol)

    with monkeypatch.context() as patch:
        patch.setattr(assignment, "_lex_min_optimal", recording)
        for solve in solves:
            solve()
    return laps


def test_duals_stopped_by_the_pass_cap(monkeypatch):
    # These solves meet ties whose exchange cycles have zero exact weight
    # but a rounding-level negative one, so relaxation never settles and
    # only the n-pass cap ends it.
    oracle = test_sgm_factored.TestDenseOracle()
    laps = recorded_laps(monkeypatch, *(
        functools.partial(oracle.test_duplicate_embedding_rows, s, init, forward)
        for s in (0, 3)
        for init in INIT_MODES
        for forward in (True, False)
    ))
    capped = 0
    for cost, perm in laps:
        assert_same_refinement(cost)
        if not is_fixpoint(cost, perm, reference._column_duals(cost, perm)):
            assert not is_fixpoint(cost, perm, assignment._column_duals(cost, perm))
            capped += 1
    assert capped >= 5


def test_duals_needing_every_pass(monkeypatch):
    # The reference relaxation runs all n passes on some of these LAPs.
    laps = recorded_laps(
        monkeypatch,
        test_acceptance.test_criterion_5_small_instance_sgm_optimality,
        test_graph_matching.TestSgm().test_small_instances_near_optimal,
        test_assignment.TestInvariances().test_row_and_column_shifts,
    )
    assert len(laps) > 100
    for cost, _ in laps:
        assert_same_refinement(cost)
