"""Similarity graphs and the seeded Frank-Wolfe matcher."""

import dataclasses
import itertools

import numpy as np
import pytest

from bilex import (
    build_graph,
    graph_matching,
    pipelines,
    sgm,
    soft_sgm,
    solve_lap,
    top_k_from_distribution,
)
from conftest import DIAG4_X, DIAG4_Y, correlated_pair, frobenius, gram, sinkhorn, trace_form
from reference_pipelines import top_k_from_distribution as per_source_loop


def brute_force_min(gx, gy, s):
    n = len(gx)
    best = None
    for tail in itertools.permutations(range(s, n)):
        perm = np.array(list(range(s)) + list(tail))
        value = frobenius(gx, gy, perm)
        if best is None or value < best:
            best = value
    return best


class TestBuildGraph:
    def test_orthonormal_rows_give_identity(self):
        g = build_graph(np.eye(5))
        np.testing.assert_allclose(gram(g), np.eye(5), atol=1e-12)

    def test_orthogonal_scaled_vectors_give_diagonal(self):
        # Mutually orthogonal rows with squared norms 2, 2, 3, 4.
        rows = np.diag([np.sqrt(2.0), np.sqrt(2.0), np.sqrt(3.0), 2.0])
        g = build_graph(rows)
        np.testing.assert_allclose(gram(g), np.diag([2.0, 2.0, 3.0, 4.0]), atol=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(7, 5))
        order = [4, 2, 0, 6, 1, 3, 5]
        g = gram(build_graph(rows, order))
        for i in range(7):
            for j in range(7):
                expected = float(np.dot(rows[order[i]], rows[order[j]]))
                assert g[i, j] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_array_equal(g, g.T)

    def test_out_of_range_order_raises(self):
        with pytest.raises(IndexError):
            build_graph(np.eye(3), order=[0, 1, 5])

    def test_repeated_order_raises(self):
        with pytest.raises(ValueError, match="repeated"):
            build_graph(np.eye(3), order=[0, 1, 1])

    def test_returns_exactly_the_selected_rows(self):
        rows = np.arange(12).reshape(4, 3)
        g = build_graph(rows, [2, 0, 3, 1])
        assert g.dtype == np.float64
        np.testing.assert_array_equal(g, rows[[2, 0, 3, 1]])

    def test_rows_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            build_graph(np.ones(3))


class TestSgm:
    def test_diag4_golden_example(self):
        gx = build_graph(DIAG4_X)
        gy = build_graph(DIAG4_Y)
        matching = sgm(gx, gy, 1, np.random.default_rng(0))
        assert matching.perm.tolist() == [0, 3, 1, 2]
        assert frobenius(gx, gy, matching.perm) == pytest.approx(
            brute_force_min(gx, gy, 1)
        )

    def test_identical_graphs_identity(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(8, 5))
        for s in (0, 2, 7):
            matching = sgm(g, g, s, np.random.default_rng(s))
            np.testing.assert_array_equal(matching.perm, np.arange(8))

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="sizes differ"):
            sgm(np.eye(3), np.eye(4), 0, np.random.default_rng(0))

    def test_seed_count_out_of_range_raises(self):
        g = np.eye(3)
        with pytest.raises(ValueError, match="seed count"):
            sgm(g, g, 3, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "option, problem",
        [({"max_iters": 0}, "max_iters must be positive"), ({"init": "x"}, "init must be one of")],
        ids=["max-iters", "init"],
    )
    def test_bad_option_raises(self, option, problem):
        g = np.eye(3)
        with pytest.raises(ValueError, match=problem):
            sgm(g, g, 0, np.random.default_rng(0), **option)

    def test_small_instances_near_optimal(self):
        rng = np.random.default_rng(2)
        hits = 0
        for trial in range(20):
            n = int(rng.integers(4, 8))
            s = int(rng.integers(0, 3))
            gx, gy, _ = correlated_pair(n, s, 0.1, rng)
            matching = sgm(gx, gy, s, np.random.default_rng(trial))
            got = frobenius(gx, gy, matching.perm)
            best = brute_force_min(gx, gy, s)
            assert got >= best - 1e-9  # never beats exhaustive search
            hits += got <= best + 1e-9
        assert hits >= 16

    def test_hard_seeding_and_bijection(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(5, 10))
            s = int(rng.integers(0, 4))
            gx = rng.normal(size=(n, 3))
            gy = rng.normal(size=(n, 3))
            matching = sgm(gx, gy, s, np.random.default_rng(trial), init="randomized")
            assert matching.perm[:s].tolist() == list(range(s))
            assert sorted(matching.perm.tolist()) == list(range(n))
            solved_targets = matching.perm[s:].tolist()
            assert len(set(solved_targets)) == n - s

    def test_objective_monotone_under_line_search(self):
        rng = np.random.default_rng(4)
        for trial in range(8):
            gx, gy, _ = correlated_pair(9, 2, 0.3, rng)
            # A solve stopped after t iterations returns its iterate then.
            solve = sgm(gx, gy, 2, np.random.default_rng(trial), init="randomized",
                        max_iters=40)
            objectives = [
                sgm(gx, gy, 2, np.random.default_rng(trial), init="randomized",
                    max_iters=t).objective
                for t in range(1, solve.iterations + 1)
            ]
            for before, after in zip(objectives, objectives[1:]):
                assert after >= before - 1e-9

    def test_relabeling_equivalence(self):
        # Relabeling the free gy vertices must not change what the solver
        # finds; checked on an exactly isomorphic instance.
        rng = np.random.default_rng(5)
        n, s = 10, 2
        gx, gy, planted = correlated_pair(n, s, 0.0, rng)
        base = sgm(gx, gy, s, np.random.default_rng(9))
        assert (planted != np.arange(n)).any()
        np.testing.assert_array_equal(base.perm, planted)
        rho = np.concatenate([np.arange(s), s + rng.permutation(n - s)])
        inverse = np.empty(n, dtype=int)
        inverse[rho] = np.arange(n)
        relabeled = gy[rho]
        # relabeled[i, j] = gy[rho[i], rho[j]]; a match onto relabeled
        # vertex v corresponds to original vertex rho[v].
        other = sgm(gx, relabeled, s, np.random.default_rng(9))
        np.testing.assert_array_equal(rho[other.perm], base.perm)

    def test_norm_identity_validates_trace_reformulation(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(4, 9))
            s = int(rng.integers(0, 3))
            gx = rng.normal(size=(n, 4))
            gy = rng.normal(size=(n, 4))
            a, b = gram(gx), gram(gy)
            tail = rng.permutation(n - s)
            perm = np.concatenate([np.arange(s), s + tail])
            gy_moved = b[np.ix_(perm, perm)]
            lhs = ((a - gy_moved) ** 2).sum()
            rhs = (
                (a**2).sum()
                + (b**2).sum()
                - 2 * np.trace(a.T @ gy_moved)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))
            # and the block trace form agrees with the full-matrix trace
            p = np.zeros((n - s, n - s))
            p[np.arange(n - s), tail] = 1.0
            assert trace_form(gx, gy, s, p)[0] == pytest.approx(
                float(np.trace(a.T @ gy_moved)), abs=1e-9
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = int(rng.integers(5, 8))
            s = int(rng.integers(0, 3))
            m = n - s
            p = sinkhorn(rng.uniform(size=(m, m)))
            # pairs of rows of equal and of different widths
            x4 = build_graph(rng.normal(size=(n, 4)))
            y3 = build_graph(rng.normal(size=(n, 3)))
            x = rng.normal(size=(n, 4))
            y = rng.normal(size=(n, 4))
            for gx, gy in ((x, y), (x4, y3), (x4, y)):
                grad = trace_form(gx, gy, s, p)[1]
                step = 1e-6
                fd = np.zeros_like(grad)
                for i in range(m):
                    for j in range(m):
                        bump = np.zeros((m, m))
                        bump[i, j] = step
                        fd[i, j] = (
                            trace_form(gx, gy, s, p + bump)[0]
                            - trace_form(gx, gy, s, p - bump)[0]
                        ) / (2 * step)
                rel = np.abs(grad - fd).max() / max(1e-12, np.abs(fd).max())
                assert rel < 1e-6

    def test_direction_invariant_under_gradient_scaling(self):
        rng = np.random.default_rng(8)
        grad = rng.normal(size=(6, 6))
        base = solve_lap(-grad).perm
        for scale in (0.5, 3.0, 1000.0):
            np.testing.assert_array_equal(solve_lap(-scale * grad).perm, base)


class TestUniqueFlag:
    """``sgm`` reports a unique matching only when every LAP of the solve
    had a unique optimum: its directions, and the projection of its start
    when it never moved."""

    S = 3

    def continuous(self):
        gx, gy, _ = correlated_pair(30, self.S, 0.5, np.random.default_rng(20), d=6)
        return gx, gy

    def duplicate_rows(self):
        gx, gy = self.continuous()
        gx[self.S + 1] = gx[self.S]  # two free vertices nothing tells apart
        return gx, gy

    def tie_heavy(self):
        rng = np.random.default_rng(21)
        return rng.integers(0, 2, (12, 3)).astype(float), rng.integers(0, 2, (12, 3)).astype(float)

    @pytest.mark.parametrize(
        "instance,unique", [("continuous", True), ("duplicate_rows", False), ("tie_heavy", False)]
    )
    def test_flag_does_not_depend_on_the_relabeling(self, instance, unique):
        gx, gy = getattr(self, instance)()
        for seed in range(5):
            assert sgm(gx, gy, self.S, np.random.default_rng(seed)).unique == unique

    def test_solve_that_never_leaves_the_barycenter_is_not_unique(self):
        # Equal free rows in gy give every vertex the barycenter's summary,
        # so no step improves and the projection of the barycenter is all ties.
        gx, gy = self.continuous()
        gy[self.S :] = gy[self.S]
        matching = sgm(gx, gy, self.S, np.random.default_rng(0), max_iters=1)
        assert not matching.capped  # a move would not have converged
        assert not matching.unique

    def solve_recording_laps(self, monkeypatch, gx, gy, clear=None, **options):
        """The solve and each LAP's own flag; the flag of LAP ``clear`` is
        cleared before ``sgm`` sees it."""
        flags = []
        original = graph_matching.solve_lap

        def forced(cost):
            lap = original(cost)
            flags.append(lap.unique)
            return dataclasses.replace(lap, unique=lap.unique and len(flags) - 1 != clear)

        monkeypatch.setattr(graph_matching, "solve_lap", forced)
        return sgm(gx, gy, self.S, np.random.default_rng(0), **options), flags

    def test_flag_is_the_and_over_every_lap(self, monkeypatch):
        # A solve that moved ends at a vertex, whose projection is itself
        # and unique, so it makes one LAP per iteration and no more.
        gx, gy = self.continuous()
        matching, flags = self.solve_recording_laps(monkeypatch, gx, gy)
        assert matching.unique and all(flags)
        assert matching.iterations >= 2 and len(flags) == matching.iterations
        for clear in range(len(flags)):
            assert not self.solve_recording_laps(monkeypatch, gx, gy, clear)[0].unique

    @pytest.mark.parametrize("init", graph_matching.INIT_MODES)
    def test_solve_that_never_moves_projects_its_start(self, monkeypatch, init):
        # Zero free rows in gy make every summary zero, so no step
        # improves: one direction, then the projection. A move would not
        # have converged at once. The barycenter's projection is a
        # constant cost: the identity of the relabeled problem, not unique
        # for m > 1, with no LAP.
        gx, gy = self.continuous()
        gy[self.S :] = 0.0
        matching, flags = self.solve_recording_laps(monkeypatch, gx, gy, init=init, max_iters=3)
        assert (matching.iterations, matching.capped) == (1, False)
        if init == "barycenter":
            assert len(flags) == 1
            sigma = np.random.default_rng(0).permutation(len(gx) - self.S)
            np.testing.assert_array_equal(matching.perm[self.S :], self.S + sigma)
            assert not matching.unique
        else:
            assert len(flags) == 2
            assert matching.unique == all(flags)


def first_column_stack(targets, n=8):
    """A permutation stack whose column 0 holds ``targets`` run by run."""
    return np.array([[t] + [j for j in range(n) if j != t] for t in targets])


class TestSoftSgm:
    def test_degenerate_distribution_on_identical_graphs(self):
        # Identical graphs with heterogeneous row norms and dense seed
        # coupling: every randomized run recovers the identity, so the
        # distribution is degenerate.
        rng = np.random.default_rng(300)
        rows = rng.normal(size=(7, 3)) * rng.uniform(0.5, 2.0, size=(7, 1))
        perms = soft_sgm(rows, rows, 2, runs=6, master_seed=0)
        np.testing.assert_array_equal(perms, np.tile(np.arange(7), (6, 1)))
        hyps = top_k_from_distribution(perms, k=5)
        assert hyps.entries == {src: ((src, 1.0),) for src in range(7)}

    def test_single_run_equals_one_sgm(self):
        rng = np.random.default_rng(10)
        gx = rng.normal(size=(6, 3))
        gy = rng.normal(size=(6, 3))
        perms = soft_sgm(gx, gy, 1, runs=1, master_seed=42)
        single = sgm(
            gx, gy, 1,
            np.random.default_rng(np.random.SeedSequence(42, spawn_key=(0,))),
            init="randomized",
        )
        np.testing.assert_array_equal(perms, single.perm[None, :])
        # Restart r of the pipeline's soft master draws _rng(seed, _RNG_SOFT, r).
        master = np.random.SeedSequence(entropy=7, spawn_key=(pipelines._RNG_SOFT,))
        perms = soft_sgm(gx, gy, 1, runs=3, master_seed=master)
        for r, perm in enumerate(perms):
            want = sgm(gx, gy, 1, pipelines._rng(7, pipelines._RNG_SOFT, r), init="randomized")
            np.testing.assert_array_equal(perm, want.perm)
        # The caller's SeedSequence is not consumed: a second call is equal.
        np.testing.assert_array_equal(soft_sgm(gx, gy, 1, runs=3, master_seed=master), perms)

    def test_every_row_is_a_permutation(self):
        rng = np.random.default_rng(11)
        gx = rng.normal(size=(8, 3))
        gy = rng.normal(size=(8, 3))
        perms = soft_sgm(gx, gy, 2, runs=9, master_seed=5)
        assert perms.shape == (9, 8)
        for perm in perms:
            assert sorted(perm.tolist()) == list(range(8))
            assert perm[:2].tolist() == [0, 1]
        hyps = top_k_from_distribution(perms, k=8)
        for src in range(8):
            assert sum(p for _, p in hyps.entries[src]) == pytest.approx(1.0)

    def test_distribution_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be positive"):
            top_k_from_distribution(np.array([[0, 1], [1, 0]]), k=0)

    def test_runs_must_be_positive(self):
        g = np.eye(3)
        with pytest.raises(ValueError):
            soft_sgm(g, g, 1, runs=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 50, 700, 1001])
    def test_randomized_start_equals_the_averaged_expression(self, m):
        # The start is built in place; it must equal, bit for bit, the
        # barycenter averaged with the Sinkhorn matrix as a new array.
        def sinkhorn_then_average(rng):
            k = rng.uniform(size=(m, m)) + 1e-3
            row_sums = k.sum(axis=1, keepdims=True)
            for _ in range(1000):
                k /= row_sums
                k /= k.sum(axis=0, keepdims=True)
                row_sums = k.sum(axis=1, keepdims=True)
                if np.abs(row_sums - 1.0).max() < 1e-9:
                    break
            return (np.full((m, m), 1.0 / m) + k) / 2.0

        for seed in range(5):
            got = graph_matching._random_doubly_stochastic(np.random.default_rng(seed), m)
            want = sinkhorn_then_average(np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


class TestTopKFromDistribution:
    def test_degenerate_gives_single_hypothesis(self):
        hyps = top_k_from_distribution(first_column_stack([4] * 10), k=5)
        assert hyps.entries[0] == ((4, 1.0),)

    def test_tie_break_and_truncation(self):
        perms = first_column_stack([7, 2, 5, 7, 2, 7, 5, 2, 7, 2])
        hyps = top_k_from_distribution(perms, k=5)
        assert [t for t, _ in hyps.entries[0]] == [2, 7, 5]
        assert [p for _, p in hyps.entries[0]] == [0.4, 0.4, 0.2]
        two = top_k_from_distribution(perms, k=2)
        assert [t for t, _ in two.entries[0]] == [2, 7]

    def test_k1_is_argmax(self):
        hyps = top_k_from_distribution(first_column_stack([1, 3, 3, 1, 3, 3, 1, 3, 1, 3]), k=1)
        assert hyps.entries[0] == ((3, 0.6),)
        assert all(len(ranked) == 1 for ranked in hyps.entries.values())

    def test_matches_tally_and_sort_reference(self):
        # The dict-of-counts ranking the stack replaced, on random stacks
        # with many tied counts.
        rng = np.random.default_rng(12)
        for runs, n, k in ((7, 6, 3), (4, 5, 5), (10, 3, 1)):
            perms = np.array([rng.permutation(n) for _ in range(runs)])
            want = {}
            for src in range(n):
                counts = {}
                for tgt in perms[:, src].tolist():
                    counts[tgt] = counts.get(tgt, 0) + 1
                ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
                want[src] = tuple((tgt, count / runs) for tgt, count in ranked[:k])
            assert top_k_from_distribution(perms, k=k).entries == want

    def test_equals_the_per_source_loop(self):
        # The one-sort ranking against the loop over sources it replaced,
        # on permutation stacks, on stacks of a few repeated permutations
        # (every count of a source tied) and on stacks of a few values
        # (ties, and sources with fewer than k targets).
        rng = np.random.default_rng(15)
        ties = short = False
        for runs, n, k in ((1, 1, 1), (1, 6, 5), (7, 6, 3), (10, 40, 5), (12, 9, 9), (3, 2, 1)):
            base = np.array([rng.permutation(n) for _ in range(3)])
            stacks = (
                np.array([rng.permutation(n) for _ in range(runs)]),
                base[np.arange(runs) % 3],
                rng.integers(0, 3, size=(runs, n)),
            )
            for perms in stacks:
                got = top_k_from_distribution(perms, k=k)
                want = per_source_loop(perms, k=k)
                assert got == want and list(got.entries) == list(want.entries)
                for ranked in got.entries.values():
                    ties |= len({p for _, p in ranked}) < len(ranked)
                    short |= len(ranked) < k
        assert ties and short

    def test_word_keys_equal_relabelled_index_keys(self):
        # Labels run against index order, so ranking ties by label instead
        # of by index would reorder them.
        rng = np.random.default_rng(14)
        ties = short = False
        for runs, n, k in ((6, 5, 3), (4, 7, 5), (9, 3, 2), (2, 6, 5)):
            perms = np.array([rng.permutation(n) for _ in range(runs)])
            keys = [f"s{i}" for i in range(n)]
            labels = [f"t{n - 1 - j}" for j in range(n)]
            indexed = top_k_from_distribution(perms, k=k)
            want = {
                keys[i]: tuple((labels[j], p) for j, p in ranked)
                for i, ranked in indexed.entries.items()
            }
            got = top_k_from_distribution(perms, k=k, keys=keys, labels=labels)
            assert list(got.entries.items()) == list(want.items())
            for ranked in indexed.entries.values():
                ties |= len({p for _, p in ranked}) < len(ranked)
                short |= len(ranked) < k
        assert ties and short
