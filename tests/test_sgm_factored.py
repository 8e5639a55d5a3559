"""The factored Frank-Wolfe solver against the dense FAQ loop it replaced,
against scipy's FAQ, and across BLAS thread counts."""

import importlib
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
    """Equal permutations, iteration counts and objective traces; the solve
    reports its iterations, its cap and its matching's objective."""
    fast_history, dense_history = [], []
    fast = sgm(gx, gy, s, np.random.default_rng(seed), max_iters=max_iters, eps=eps,
               history=fast_history, **options)
    dense = dense_sgm(gx, gy, s, np.random.default_rng(seed), max_iters=max_iters, eps=eps,
                      history=dense_history, **options)
    np.testing.assert_array_equal(fast.perm, dense.perm)
    assert len(fast_history) == len(dense_history)
    for got, want in zip(fast_history, dense_history):
        scale = max(1.0, abs(want["objective"]))
        assert got["objective"] == pytest.approx(want["objective"], abs=1e-9 * scale)
        assert got["delta"] == pytest.approx(want["delta"], abs=1e-9)
    assert fast.iterations == len(dense_history)
    assert fast.capped == (len(dense_history) == max_iters and dense_history[-1]["delta"] >= eps)
    want = trace_objective(gx, gy, s, np.eye(len(gx) - s)[fast.perm[s:] - s])
    assert fast.objective == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
    return len(fast_history)


def noisy_planted_rows(n, d, s, noise, rng):
    """Rows X and a noisy copy whose free rows are hidden-permuted."""
    x = rng.normal(size=(n, d))
    hidden = np.concatenate([np.arange(s), s + rng.permutation(n - s)])
    return x, x[hidden] + noise * rng.normal(size=(n, d))


@pytest.mark.parametrize("shuffle_input", [True, False])
@pytest.mark.parametrize("init", INIT_MODES)
@pytest.mark.parametrize("s", [0, 3])
class TestDenseOracle:
    def test_gram_graphs(self, s, init, shuffle_input):
        rng = np.random.default_rng(100 + s)
        iterations = 0
        for trial in range(8):
            n = int(rng.integers(s + 4, 40))
            x, y = noisy_planted_rows(n, int(rng.integers(2, 8)), s, 0.5, rng)
            iterations += assert_same_solve(
                build_graph(x), build_graph(y), s, trial,
                init=init, shuffle_input=shuffle_input, eps=1e-6,
            )
        assert iterations > 16  # the instances make Frank-Wolfe work

    def test_duplicate_embedding_rows(self, s, init, shuffle_input):
        # Repeated rows make whole blocks of the gradient equal, so most
        # directions come from the LAP's lex-min tie-breaking.
        rng = np.random.default_rng(400 + s)
        for trial in range(8):
            distinct = rng.normal(size=(int(rng.integers(2, 5)), 3))
            n = int(rng.integers(s + 4, 30))
            x = distinct[rng.integers(0, len(distinct), size=n)]
            y = distinct[rng.integers(0, len(distinct), size=n)]
            assert_same_solve(build_graph(x), build_graph(y), s, trial,
                              init=init, shuffle_input=shuffle_input)


@pytest.mark.parametrize("shuffle_input", [True, False])
@pytest.mark.parametrize("init", INIT_MODES)
@pytest.mark.parametrize("s", [0, 1])
def test_dense_oracle_on_diag4(s, init, shuffle_input):
    gx, gy = build_graph(DIAG4_X), build_graph(DIAG4_Y)
    for trial in range(5):
        assert_same_solve(gx, gy, s, trial, init=init, shuffle_input=shuffle_input)


def test_dense_oracle_at_pipeline_scale():
    rng = np.random.default_rng(7)
    x, y = noisy_planted_rows(400, 20, 40, 1.0, rng)
    assert assert_same_solve(build_graph(x), build_graph(y), 40, 0, max_iters=8) >= 5


@pytest.mark.parametrize("init", INIT_MODES)
def test_peak_memory_bound(init):
    # The m x m float64 arrays alive at once are the iterate and the LAP's
    # cost matrix; the LAP's refinement works in blocks of rows (2.21
    # measured). A step array, a negated copy of the cost or a dense
    # reduced-cost matrix would push the peak past 2.5. tracemalloc sees
    # numpy's buffers but not scipy's C++ ones, so the bound covers the
    # Python-side arrays only.
    rng = np.random.default_rng(11)
    x, y = noisy_planted_rows(1100, 50, 100, 1.5, rng)
    gx, gy = build_graph(x), build_graph(y)
    m = 1000
    history = []
    tracemalloc.start()
    try:
        sgm(gx, gy, 100, np.random.default_rng(0), max_iters=6, init=init,
            history=history)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [step["alpha"] for step in history] == [1.0] * 6  # FW kept moving
    assert peak < 2.5 * 8 * m * m


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
        # perfbench traces fw_iters and fw_capped from the LAP calls; the
        # solves' own reports must give the same counts.
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
history = []
matching = sgm(build_graph(x), build_graph(y), s, np.random.default_rng(1),
               max_iters=4, history=history)
sys.stdout.write(hashlib.sha256(matching.perm.astype(np.int64).tobytes()).hexdigest())
sys.stdout.write(" %d" % len(history))
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
