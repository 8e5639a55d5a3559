"""Linear assignment: exactness, tie-breaking, invariances, speed."""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from bilex import Matching, assignment, solve_lap
from bilex.assignment import _lex_min_optimal


def objective(cost, result):
    """Total cost of the permutation ``solve_lap`` returned."""
    cost = np.asarray(cost)
    return cost[np.arange(cost.shape[0]), result.perm].sum()


def brute_force(cost, maximize=False):
    """(best objective, lexicographically smallest optimal permutation)."""
    n = cost.shape[0]
    best_val = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        value = sum(cost[i, perm[i]] for i in range(n))
        if best_val is None:
            best_val, best_perm = value, perm
            continue
        better = value > best_val + 1e-12 if maximize else value < best_val - 1e-12
        tie = abs(value - best_val) <= 1e-12
        if better or (tie and perm < best_perm):
            best_val, best_perm = value, perm
    return best_val, best_perm


class TestExamples:
    def test_two_by_two(self):
        cost = [[1.0, 2.0], [2.0, 1.0]]
        result = solve_lap(cost)
        assert list(result.perm) == [0, 1]
        assert isinstance(result, Matching) and result.seed_count == 0
        assert objective(cost, result) == 2.0

    def test_three_by_three(self):
        cost = np.array([[4.0, 1, 3], [2, 0, 5], [3, 2, 2]])
        result = solve_lap(cost)
        assert list(result.perm) == [1, 0, 2]
        assert objective(cost, result) == 5.0
        value, perm = brute_force(cost)
        assert objective(cost, result) == value
        assert tuple(result.perm) == perm


class TestExactness:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            cost = rng.normal(size=(n, n)) * 10
            result = solve_lap(cost)
            value, _ = brute_force(cost)
            assert objective(cost, result) == pytest.approx(value, abs=1e-9)


class TestTieBreaking:
    def test_lexicographically_smallest_among_optima(self):
        rng = np.random.default_rng(13)
        for trial in range(200):
            n = int(rng.integers(2, 7))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            result = solve_lap(cost)
            value, perm = brute_force(cost)
            assert objective(cost, result) == pytest.approx(value, abs=1e-12)
            assert tuple(result.perm) == perm, cost

    def test_maximize_tie_break(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            result = solve_lap(-cost)  # maximize by negating
            value, perm = brute_force(cost, maximize=True)
            assert objective(cost, result) == pytest.approx(value, abs=1e-12)
            assert tuple(result.perm) == perm

    def test_constant_matrix_yields_identity(self):
        assert np.array_equal(solve_lap(np.ones((40, 40))).perm, np.arange(40))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 300])
    def test_constant_cost_is_the_identity_without_scipy(self, monkeypatch, n):
        # Every permutation is optimal, so only n = 1 leaves no other; the
        # refinement from scipy's optimum agrees.
        cost = np.full((n, n), -2.5)
        perm, unique = _lex_min_optimal(cost, linear_sum_assignment(cost)[1], 2.5e-9)

        def unused(cost):
            raise AssertionError("scipy solved a constant cost")

        monkeypatch.setattr(assignment, "linear_sum_assignment", unused)
        got = solve_lap(cost)
        assert got.perm.tolist() == perm.tolist() == list(range(n))
        assert got.unique == unique == (n == 1)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        cost = rng.integers(0, 2, size=(9, 9)).astype(float)
        first = solve_lap(cost)
        for _ in range(5):
            again = solve_lap(cost)
            assert np.array_equal(first.perm, again.perm)


class TestUniqueness:
    def test_flag_matches_enumeration(self):
        # Small integer costs have many exact ties, so both outcomes occur.
        rng = np.random.default_rng(29)
        unique_count = 0
        for trial in range(150):
            n = int(rng.integers(2, 7))
            cost = rng.integers(0, 4, size=(n, n)).astype(float)
            scipy_perm = linear_sum_assignment(cost)[1].astype(np.intp)
            perm, unique = _lex_min_optimal(cost, scipy_perm, 1e-9 * max(1.0, cost.max()))
            values = {
                p: sum(cost[i, p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            }
            optima = [p for p, value in values.items() if value == min(values.values())]
            assert unique == (len(optima) == 1), cost
            assert tuple(perm) == min(optima)
            assert solve_lap(cost).unique == unique
            unique_count += unique
        assert 20 < unique_count < 130


class TestInput:
    @pytest.mark.parametrize("tied", [False, True])
    def test_cost_is_left_unchanged(self, tied):
        # Callers pass arrays they keep, so a reduction of the cost, like the
        # one Frank-Wolfe makes on its own gradients, must not happen here.
        rng = np.random.default_rng(31)
        cost = rng.normal(size=(200, 200)) + rng.normal(size=(200, 1))
        if tied:
            cost = np.round(cost)
        before = cost.tobytes()
        assert solve_lap(cost).unique != tied  # the tie search ran when tied
        assert cost.tobytes() == before


class TestInvariances:
    def test_row_and_column_shifts(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            cost = rng.normal(size=(n, n))
            base = solve_lap(cost)
            shifted = cost.copy()
            delta_row, delta_col = rng.normal(size=2)
            k = int(rng.integers(n))
            shifted[k, :] += delta_row
            shifted[:, k] += delta_col
            after = solve_lap(shifted)
            assert objective(shifted, after) == pytest.approx(
                objective(cost, base) + delta_row + delta_col, abs=1e-9
            )
            # the returned perm remains optimal under the shifted matrix
            returned_value = shifted[np.arange(n), base.perm].sum()
            assert returned_value == pytest.approx(objective(shifted, after), abs=1e-9)


class TestErrors:
    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve_lap(np.ones((2, 3)))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_lap(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_empty(self):
        with pytest.raises(ValueError):
            solve_lap(np.empty((0, 0)))


class TestMatchingChecks:
    @pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1, 3], [[0, 1], [1, 0]]])
    def test_perm_must_be_a_permutation(self, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            Matching(perm=perm)

    @pytest.mark.parametrize("seed_count", [-1, 4])
    def test_seed_count_must_be_in_range(self, seed_count):
        with pytest.raises(ValueError, match="out of range"):
            Matching(perm=[0, 1, 2], seed_count=seed_count)

    def test_seed_block_must_be_the_identity(self):
        with pytest.raises(ValueError, match="seed block"):
            Matching(perm=[1, 0, 2], seed_count=1)
        assert Matching(perm=[0, 2, 1], seed_count=1).seed_count == 1
        assert Matching(perm=[0, 1, 2], seed_count=3).seed_count == 3


class TestScale:
    def test_n_5000_under_60s(self):
        cost = np.random.default_rng(0).uniform(size=(5000, 5000))
        started = time.perf_counter()
        result = solve_lap(cost)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"n=5000 took {elapsed:.1f}s"
        assert len(set(result.perm.tolist())) == 5000
