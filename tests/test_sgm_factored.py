"""The factored Frank-Wolfe solver against the dense FAQ loop it replaced,
against scipy's FAQ, across BLAS thread counts and through the benchmark's
driver."""

import importlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import quadratic_assignment

from bilex import build_graph, graph_matching, pipelines, sgm, solve_lap, trace_objective
from bilex.graph_matching import INIT_MODES, _random_doubly_stochastic
from bilex.hypotheses import Matching
from conftest import DIAG4_X, DIAG4_Y, blas_env, gram


def _best_step(a: float, b: float) -> float:
    """Argmax of a*t^2 + b*t over [0, 1], preferring the smaller optimum."""
    candidates = [0.0, 1.0]
    if a < 0.0:
        critical = -b / (2.0 * a)
        if 0.0 < critical < 1.0:
            candidates.append(critical)
    values = [a * t * t + b * t for t in candidates]
    return candidates[int(np.argmax(values))]


def dense_sgm(gx, gy, s, rng, max_iters=30, eps=0.03, shuffle_input=True,
              init="barycenter", history=None):
    """The dense FAQ loop: four m^3 products for the gradient and two for
    the line search per iteration, on the materialized n x n graphs.

    The line search is the general one for a quadratic along the segment.
    The objective is convex there, so every step it picks must be 0 or 1,
    which is what lets ``sgm`` test only the vertex."""
    n = len(gx)
    m = n - s
    a = gram(gx)
    b = gram(gy)

    def blocks(matrix):
        return matrix[:s, :s], matrix[:s, s:], matrix[s:, :s], matrix[s:, s:]

    sigma = None
    if shuffle_input:
        sigma = rng.permutation(m)
        full = np.concatenate([np.arange(s), s + sigma])
        b = b[np.ix_(full, full)]

    a11, a12, a21, a22 = blocks(a)
    b11, b12, b21, b22 = blocks(b)
    constant = a21 @ b21.T + a12.T @ b12
    fixed_term = float((a11 * b11).sum())

    if init == "barycenter":
        p = np.full((m, m), 1.0 / m)
    else:
        p = _random_doubly_stochastic(rng, m)

    for iteration in range(1, max_iters + 1):
        grad = constant + a22 @ p @ b22.T + a22.T @ p @ b22
        direction = solve_lap(-grad).perm
        q = np.zeros((m, m))
        q[np.arange(m), direction] = 1.0
        step_dir = q - p
        quad = float((a22 * (step_dir @ b22 @ step_dir.T)).sum())
        lin = float((grad * step_dir).sum())
        alpha = _best_step(quad, lin)
        assert alpha in (0.0, 1.0)
        p_next = p + alpha * step_dir
        delta = float(np.linalg.norm(p_next - p))
        if history is not None:
            objective = fixed_term + float(
                (p_next * constant).sum() + (a22 * (p_next @ b22 @ p_next.T)).sum()
            )
            history.append({"iteration": iteration, "alpha": alpha,
                            "delta": delta, "objective": objective})
        p = p_next
        if delta < eps:
            break

    projected = solve_lap(-p).perm
    solved = sigma[projected] if sigma is not None else projected
    return Matching(perm=np.concatenate([np.arange(s), s + solved]), seed_count=s)


def assert_same_solve(gx, gy, s, seed, max_iters=30, eps=0.03, **options):
    """The solve stopped after each iteration t against the dense loop
    stopped there: equal permutations, and the iterate's objective once it
    moved; the solve reports t iterations, capped when step t moved by
    eps or more, and its matching's objective."""

    def stopped_after(solver, t, **extra):
        return solver(gx, gy, s, np.random.default_rng(seed), max_iters=t, **options, **extra)

    steps = []
    stopped_after(dense_sgm, max_iters, eps=eps, history=steps)
    moved = False
    for t, step in enumerate(steps, start=1):
        stop = max_iters if t == len(steps) else t  # the last is the whole solve
        fast = stopped_after(sgm, stop)
        np.testing.assert_array_equal(fast.perm, stopped_after(dense_sgm, stop, eps=eps).perm)
        assert (fast.iterations, fast.capped) == (t, step["delta"] >= eps)
        want = trace_objective(gx, gy, s, np.eye(len(gx) - s)[fast.perm[s:] - s])
        assert fast.objective == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
        moved = moved or step["alpha"] == 1.0
        if moved:  # the dense iterate is the vertex the solve returns
            scale = max(1.0, abs(step["objective"]))
            assert fast.objective == pytest.approx(step["objective"], abs=1e-9 * scale)
    return len(steps)


def noisy_planted_rows(n, d, s, noise, rng):
    """Rows X and a noisy copy whose free rows are hidden-permuted."""
    x = rng.normal(size=(n, d))
    hidden = np.concatenate([np.arange(s), s + rng.permutation(n - s)])
    return x, x[hidden] + noise * rng.normal(size=(n, d))


def directed(x, y, forward):
    """The graphs of rows x and y in the order of a forward solve, or
    exchanged, as the reverse direction of a pipeline round solves them."""
    return (build_graph(x), build_graph(y)) if forward else (build_graph(y), build_graph(x))


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("init", INIT_MODES)
@pytest.mark.parametrize("s", [0, 3])
class TestDenseOracle:
    def test_gram_graphs(self, s, init, forward):
        rng = np.random.default_rng(100 + s)
        iterations = 0
        for trial in range(8):
            n = int(rng.integers(s + 4, 40))
            x, y = noisy_planted_rows(n, int(rng.integers(2, 8)), s, 0.5, rng)
            iterations += assert_same_solve(*directed(x, y, forward), s, trial,
                                            init=init, eps=1e-6)
        assert iterations > 16  # the instances make Frank-Wolfe work

    def test_duplicate_embedding_rows(self, s, init, forward):
        # Repeated rows make whole blocks of the gradient equal, so most
        # directions come from the LAP's lex-min tie-breaking.
        rng = np.random.default_rng(400 + s)
        for trial in range(8):
            distinct = rng.normal(size=(int(rng.integers(2, 5)), 3))
            n = int(rng.integers(s + 4, 30))
            x = distinct[rng.integers(0, len(distinct), size=n)]
            y = distinct[rng.integers(0, len(distinct), size=n)]
            assert_same_solve(*directed(x, y, forward), s, trial, init=init)


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("init", INIT_MODES)
@pytest.mark.parametrize("s", [0, 1])
def test_dense_oracle_on_diag4(s, init, forward):
    gx, gy = directed(DIAG4_X, DIAG4_Y, forward)
    for trial in range(5):
        assert_same_solve(gx, gy, s, trial, init=init)


def test_dense_oracle_at_pipeline_scale():
    rng = np.random.default_rng(7)
    x, y = noisy_planted_rows(400, 20, 40, 1.0, rng)
    assert assert_same_solve(build_graph(x), build_graph(y), 40, 0, max_iters=8) >= 5


# The m x m float64 arrays a solve may hold at its peak, from either
# start (measured at m = 1000: 1.21 from a random start, 1.24 from the
# barycenter): the LAP's cost matrix alone. The barycenter is summarized
# without forming it, a random start is summarized and released before
# the first gradient, and after the first move the iterate is an index
# vector. The LAP's refinement works in blocks of rows. A step array, a
# negated copy of the cost, a dense reduced-cost matrix or a start alive
# next to the gradient would add a whole array. A solve that never moves
# measured 1.21 from a random start, whose projection redraws it after
# the gradient is gone, and 1.11 from the barycenter, whose projection
# needs no array. Its gradient is zero, a constant-cost LAP, which skips
# the refinement, whose tight cells would be every cell.
_PEAK_ARRAYS = 1.5


def solve_under_tracemalloc(y_free_rows, init):
    """One solve at m = 1000, d = 50, s = 100 and its peak traced bytes;
    ``y_free_rows`` scales the free rows of y."""
    rng = np.random.default_rng(11)
    x, y = noisy_planted_rows(1100, 50, 100, 1.5, rng)
    y[100:] *= y_free_rows
    gx, gy = build_graph(x), build_graph(y)
    tracemalloc.start()
    try:
        matching = sgm(gx, gy, 100, np.random.default_rng(0), max_iters=6, init=init)
        return matching, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("init", INIT_MODES)
def test_peak_memory_bound(init):
    # tracemalloc sees numpy's buffers but not scipy's C++ ones, so the
    # bound covers the Python-side arrays only.
    matching, peak = solve_under_tracemalloc(1.0, init)
    # FW kept moving: a step that does not move ends the solve.
    assert (matching.iterations, matching.capped) == (6, True)
    assert peak < _PEAK_ARRAYS * 8 * 1000 * 1000


@pytest.mark.parametrize("init", INIT_MODES)
def test_peak_memory_bound_of_a_solve_that_never_moves(init):
    # Zero free rows in gy make every gradient zero: the direction LAP and
    # the barycenter's projection are constant costs, which hold no m x m
    # graph of tight cells.
    matching, peak = solve_under_tracemalloc(0.0, init)
    assert (matching.iterations, matching.capped) == (1, False)
    assert peak < _PEAK_ARRAYS * 8 * 1000 * 1000


def counting_draws(monkeypatch):
    """A list that grows by one with every random start ``sgm`` draws."""
    draws = []
    original = graph_matching._random_doubly_stochastic

    def counted(rng, m):
        draws.append(m)
        return original(rng, m)

    monkeypatch.setattr(graph_matching, "_random_doubly_stochastic", counted)
    return draws


class TestRandomStart:
    """A random start is released before the first gradient and redrawn
    from a copy of the generator only when the solve needs it again."""

    N, S = 10, 2

    def graphs(self, free_scale, forward):
        x, y = noisy_planted_rows(self.N, 3, self.S, 0.5, np.random.default_rng(10))
        y[self.S :] *= free_scale
        return directed(x, y, forward)

    @pytest.mark.parametrize("case", ["moves", "never_moves"])
    @pytest.mark.parametrize("forward", [True, False])
    def test_generator_is_consumed_by_one_draw(self, monkeypatch, case, forward):
        # The caller's generator ends where the relabeling and one start
        # leave it, also when the solve redraws its start.
        gx, gy = self.graphs(0.0 if case == "never_moves" else 1.0, forward)
        draws = counting_draws(monkeypatch)
        rng = np.random.default_rng(0)
        matching = sgm(gx, gy, self.S, rng, init="randomized")
        assert len(draws) == (1 if case == "moves" else 2)
        want = np.random.default_rng(0)
        want.permutation(self.N - self.S)
        _random_doubly_stochastic(want, self.N - self.S)
        assert rng.bit_generator.state == want.bit_generator.state
        dense = dense_sgm(gx, gy, self.S, np.random.default_rng(0), init="randomized")
        np.testing.assert_array_equal(matching.perm, dense.perm)


def stop_rule_instances(rng, count):
    """(gx, gy, s) of random, grid-tied and duplicate-row instances with m
    from 1 to 60 free vertices.

    Where every free row of a graph is the same, every P has the same
    objective: each step gains zero in exact arithmetic, and the dense
    line search and sgm's gain round it to either side. Such instances,
    and one-column grids, which often gain exactly zero, are left out:
    there only rounding would be compared, not stop rules."""
    while count:
        m, s, d = int(rng.integers(1, 61)), int(rng.integers(0, 4)), int(rng.integers(1, 6))
        n = m + s
        if count % 3 == 0:
            x, y = noisy_planted_rows(n, d, s, 0.5, rng)
        elif count % 3 == 1:  # small integer rows tie many gradient entries
            x, y = rng.integers(-1, 2, size=(2, n, max(d, 2))).astype(float)
        else:
            distinct = rng.normal(size=(int(rng.integers(2, 5)), d))
            x, y = distinct[rng.integers(0, len(distinct), size=(2, n))]
        if m == 1 or all(len(np.unique(rows[s:], axis=0)) > 1 for rows in (x, y)):
            count -= 1
            yield build_graph(x), build_graph(y), s


@pytest.mark.parametrize("eps", [1e-12, 0.03, 0.49])
def test_stop_rule_is_the_dense_eps_test_below_one_half(eps):
    # Every move is at least 1/2 long (see sgm), so stopping at the first
    # step that does not move is the dense loop's delta < eps.
    rng = np.random.default_rng(28)
    for trial, (gx, gy, s) in enumerate(stop_rule_instances(rng, 60)):
        options = {"max_iters": int(rng.integers(1, 31)), "init": INIT_MODES[trial % 2]}
        ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
        fast = sgm(gx, gy, s, ours, **options)
        steps = []
        dense = dense_sgm(gx, gy, s, theirs, eps=eps, history=steps, **options)
        np.testing.assert_array_equal(fast.perm, dense.perm)
        assert (fast.iterations, fast.capped) == (len(steps), steps[-1]["delta"] >= eps)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_factored_objective_and_gain_on_random_summaries():
    rng = np.random.default_rng(21)
    problem = graph_matching._FactoredProblem(rng.normal(size=(40, 6)), rng.normal(size=(40, 4)), 5)
    for _ in range(10):
        z, dz = rng.normal(size=(2, 6, 4))
        objective = problem.objective(z)
        assert objective == problem.fixed + problem.gain(0.0, z)
        # and the direct expression, bit for bit: 2 (S + 0) is 2 S
        assert objective == problem.fixed + float((z * (2.0 * problem.seed + z)).sum())
        want = problem.objective(z + dz) - objective
        assert problem.gain(z, dz) == pytest.approx(want, rel=1e-9, abs=1e-9 * abs(objective))


class TestSolveReport:
    def test_capped_solve_logs_one_warning(self, caplog):
        x, y = noisy_planted_rows(300, 10, 30, 1.0, np.random.default_rng(16))
        gx, gy = build_graph(x), build_graph(y)
        with caplog.at_level("WARNING", logger="bilex.graph_matching"):
            capped = sgm(gx, gy, 30, np.random.default_rng(0), max_iters=2)
        assert (capped.iterations, capped.capped) == (2, True)
        assert [(r.name, r.levelname) for r in caplog.records] == [
            ("bilex.graph_matching", "WARNING")
        ]
        assert "max_iters=2" in caplog.records[0].getMessage()

        caplog.clear()
        with caplog.at_level("WARNING", logger="bilex.graph_matching"):
            converged = sgm(gx, gy, 30, np.random.default_rng(0))
        assert not converged.capped and converged.iterations < 30
        assert caplog.records == []

    def test_lap_results_carry_no_solve_report(self):
        lap = solve_lap(np.eye(3))
        assert (lap.iterations, lap.capped, lap.objective) == (None, None, None)

    @pytest.mark.parametrize(
        "name, iterations, capped", [("itersgm-active", 8, 1), ("softsgm-restarts", 32, 8)]
    )
    def test_benchmark_counts_on_seed_1(self, tmp_path, monkeypatch, caplog, name, iterations,
                                        capped):
        # The counts come from the solves' own reports, and this test, not
        # perfbench's tracer, is their authority: the tracer derives
        # fw_iters and fw_capped from LAP calls minus one per solve, which
        # undercounts solves that moved and so make no projection LAP.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        corpus = importlib.import_module("corpus")
        workload = corpus.WORKLOADS[name]
        files = corpus.generate(workload, 1, tmp_path)
        spec = pipelines.ExperimentSpec(
            src_emb=str(files.src_emb), tgt_emb=str(files.tgt_emb),
            dictionary=str(files.dictionary), seeds=workload.seeds, rng_seed=1, **workload.spec,
        )
        solves = []

        def recording(*args, **kwargs):
            solves.append(sgm(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(graph_matching, "sgm", recording)
        monkeypatch.setattr(pipelines, "sgm", recording)
        with caplog.at_level("WARNING", logger="bilex.graph_matching"):
            pipelines.run(spec, pipelines.assemble(spec))
        assert sum(solve.iterations for solve in solves) == iterations
        warnings = [r for r in caplog.records if r.name == "bilex.graph_matching"]
        assert sum(solve.capped for solve in solves) == capped == len(warnings)


@pytest.mark.parametrize("name", ["itersgm-active", "softsgm-restarts"])
def test_benchmark_digest_on_seed_1(name):
    # The benchmark's own driver, run as it is run, reading its files and
    # changing none: every repetition is correct and dumps the hypotheses
    # whose digest perfbench/digests.json records for seed 1.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "0"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    recorded = json.loads((root / "perfbench" / "digests.json").read_text())[name]["1"]
    assert next(line for line in lines if "digests" in line) == {
        "digests": [recorded], "recorded_digest": recorded
    }
    assert lines[-1]["correct"]


class TestScipyFaq:
    @pytest.mark.parametrize("n, d, s", [(12, 3, 2), (30, 5, 4), (60, 8, 0), (80, 6, 10)])
    def test_planted_isomorphic_instances(self, n, d, s):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, d))
        rho = np.concatenate([np.arange(s), s + rng.permutation(n - s)])
        planted = np.empty(n, dtype=int)
        planted[rho] = np.arange(n)  # source vertex i is target vertex planted[i]
        gx, gy = build_graph(x), build_graph(x[rho])

        ours = sgm(gx, gy, s, np.random.default_rng(0))
        seeds = np.column_stack([np.arange(s), np.arange(s)]).astype(int)
        theirs = quadratic_assignment(
            gram(gx), gram(gy), method="faq",
            options={"maximize": True, "partial_match": seeds,
                     "rng": np.random.default_rng(0)},
        )
        np.testing.assert_array_equal(ours.perm, planted)
        np.testing.assert_array_equal(theirs.col_ind, planted)

        p = np.zeros((n - s, n - s))
        p[np.arange(n - s), planted[s:] - s] = 1.0
        assert trace_objective(gx, gy, s, p) == pytest.approx(theirs.fun, rel=1e-9)


_THREADED_SOLVE = """
import hashlib, sys
import numpy as np
from bilex import build_graph, sgm
rng = np.random.default_rng(5)
n, d, s = 750, 50, 50
x = rng.normal(size=(n, d))
hidden = np.concatenate([np.arange(s), s + rng.permutation(n - s)])
y = x[hidden] + 1.5 * rng.normal(size=(n, d))
matching = sgm(build_graph(x), build_graph(y), s, np.random.default_rng(1), max_iters=4)
sys.stdout.write(hashlib.sha256(matching.perm.astype(np.int64).tobytes()).hexdigest())
sys.stdout.write(" %d" % matching.iterations)
"""


def test_permutation_identical_across_blas_threads_at_scale():
    # m = 700 and d = 50 are large enough for BLAS to split the gradient
    # product across threads.
    def solve(threads: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", _THREADED_SOLVE], env=blas_env(threads),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    one, two = solve("1"), solve("2")
    assert one == two
    assert one.endswith(" 4")
