"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria needing downloaded MUSE/fastText data are optional and
skip unless the corresponding environment variables point at local files.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bilex import (
    build_dataset,
    evaluation,
    extract_hypotheses,
    filter_one_to_one,
    load_dictionary,
    run,
    sgm,
    solve_lap,
    solve_procrustes,
    trace_gradient,
    trace_objective,
)
from conftest import (
    DIAG4_X,
    DIAG4_Y,
    blas_env,
    correlated_pair,
    frobenius,
    gram,
    make_planted,
    make_spec,
    random_orthogonal,
    sinkhorn,
    write_pairs,
    write_vec,
)


def report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_diag4_golden():
    started = time.perf_counter()
    gx, gy = DIAG4_X, DIAG4_Y
    assert np.array_equal(gram(gx), np.diag([2.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(gram(gy), np.diag([1.0, 3.0, 4.0, 2.0]))
    matching = sgm(gx, gy, 1, np.random.default_rng(0))
    assert matching.perm.tolist() == [0, 3, 1, 2]

    best_perm, best_val = None, None
    for tail in itertools.permutations(range(1, 4)):
        perm = np.array([0, *tail])
        value = frobenius(gx, gy, perm)
        if best_val is None or value < best_val:
            best_perm, best_val = perm, value
    assert np.array_equal(matching.perm, best_perm)
    assert frobenius(gx, gy, matching.perm) == best_val
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"diag4 matching equals 3! brute force ({elapsed * 1000:.0f} ms)")


def test_criterion_2_lap_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        cost = rng.normal(size=(n, n)) * 10
        got = cost[np.arange(n), solve_lap(cost).perm].sum()
        best = min(
            sum(cost[i, perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n))
        )
        assert got == pytest.approx(best, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"200/200 LAPs match enumeration ({elapsed:.1f} s)")


def test_criterion_3_procrustes_recovery():
    rng = np.random.default_rng(3)
    trials = 0
    for d in range(2, 9):
        for _ in range(15 if d < 8 else 10):
            r = random_orthogonal(d, rng)
            x = rng.normal(size=(20, d))
            w = solve_procrustes(x, x @ r).w
            assert np.linalg.norm(w - r) < 1e-6
            assert np.abs(w.T @ w - np.eye(d)).max() < 1e-8
            trials += 1
    assert trials == 100
    report(3, "100/100 random rotations recovered below 1e-6")


def test_criterion_4_planted_permutation_bli():
    # Noiseless: single SGM exact, single Procrustes >= 95%.
    src, tgt, lexicon = make_planted(n=60, d=10, noise=0.0, seed=0)
    ds = build_dataset(src, tgt, lexicon, 15)
    hyps_sgm = run(make_spec(method="sgm"), ds).hypotheses
    hyps_pro = run(make_spec(method="procrustes"), ds).hypotheses
    assert evaluation.p_at_1(hyps_sgm, ds.gold_test) == 100.0
    assert evaluation.p_at_1(hyps_pro, ds.gold_test) >= 95.0

    # Gaussian noise sigma = 0.05: both >= 80%, and Add-All iteration never
    # ends more than 2 points below its first iteration, across 10 seeds.
    for method in ("iterproc", "itersgm"):
        for rs in range(10):
            src, tgt, lexicon = make_planted(n=60, d=10, noise=0.05, seed=100 + rs)
            noisy = build_dataset(src, tgt, lexicon, 15)
            records = run(make_spec(method=method, rng_seed=rs), noisy).iterations
            assert records[0]["forward_p1"] >= 80.0
            assert records[-1]["forward_p1"] >= records[0]["forward_p1"] - 2.0
    report(4, "planted recovery and Add-All stability hold for 10 rng seeds")


def test_criterion_5_small_instance_sgm_optimality():
    rng = np.random.default_rng(5)
    hits = 0
    for trial in range(50):
        n = int(rng.integers(4, 8))
        s = int(rng.integers(0, 3))
        gx, gy, _ = correlated_pair(n, s, 0.1, rng)
        matching = sgm(gx, gy, s, np.random.default_rng(trial))
        got = frobenius(gx, gy, matching.perm)
        best = min(
            frobenius(gx, gy, np.array(list(range(s)) + list(tail)))
            for tail in itertools.permutations(range(s, n))
        )
        assert got >= best - 1e-9, "projected objective beat exhaustive search"
        hits += got <= best + 1e-9
    assert hits >= 40, f"only {hits}/50 reached the brute-force optimum"
    report(5, f"{hits}/50 optimal, never better than brute force")


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(6)
    worst = 0.0
    for point in range(20):
        n = int(rng.integers(5, 9))
        s = int(rng.integers(0, 3))
        gx = rng.normal(size=(n, 4))
        gy = rng.normal(size=(n, 4))
        m = n - s
        p = sinkhorn(rng.uniform(size=(m, m)), iters=300)
        grad = trace_gradient(gx, gy, s, p)
        step = 1e-6
        fd = np.zeros_like(grad)
        for i in range(m):
            for j in range(m):
                bump = np.zeros((m, m))
                bump[i, j] = step
                fd[i, j] = (
                    trace_objective(gx, gy, s, p + bump)
                    - trace_objective(gx, gy, s, p - bump)
                ) / (2 * step)
        rel = np.abs(grad - fd).max() / max(1e-12, np.abs(fd).max())
        worst = max(worst, rel)
        assert rel < 1e-6
    report(6, f"20/20 points match finite differences (worst rel err {worst:.1e})")


def test_criterion_7_behavioral_contracts():
    # (a) every SGM output is a bijection containing all seed pairs
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(5, 10))
        s = int(rng.integers(1, 4))
        ax = rng.normal(size=(n, 3))
        ay = rng.normal(size=(n, 3))
        matching = sgm(
            ax, ay, s,
            np.random.default_rng(trial), init="randomized",
        )
        assert sorted(matching.perm.tolist()) == list(range(n))
        assert matching.perm[:s].tolist() == list(range(s))

    # (b) a Procrustes-style extraction can be many-to-one
    def unit(rows):
        rows = np.asarray(rows, dtype=float)
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    sources = unit([[1.0, 0.05, 0.0], [1.0, -0.05, 0.0]])
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    shared = extract_hypotheses(sources, targets, top_k=1, csls_k=1)[0].hypotheses()
    assert shared.top1() == {0: 0, 1: 0}

    # (c) a corrupted seed pair is absent from Procrustes top-1 output
    x = unit(np.random.default_rng(12).normal(size=(12, 4)))
    y = x @ random_orthogonal(4, np.random.default_rng(13))
    claimed = np.arange(12)
    claimed[[0, 1]] = [1, 0]
    w = solve_procrustes(x, y[claimed])
    top1 = extract_hypotheses(w.apply(x), y, top_k=1)[0].hypotheses().top1()
    assert top1[0] != 1
    report(7, "hard seeding, many-to-one, and soft seeding all exhibited")


def test_criterion_8_metric_consistency():
    gold = [(f"s{i}", f"t{i}") for i in range(4803)]
    entries = {}
    for i, (src, tgt) in enumerate(gold):
        ranked = [(f"x{i}_{r}", 1.0 - 0.1 * r) for r in range(5)]
        if i < 538:
            ranked[3] = (tgt, 0.65)
        entries[src] = tuple(ranked)
    from bilex import HypothesisSet, Lexicon

    reportobj = evaluation.metrics_report(
        HypothesisSet(entries), Lexicon(tuple(gold))
    )
    assert reportobj.total_hyps == 24015
    assert reportobj.correct_hyps == 538
    assert reportobj.precision_at_5 == pytest.approx(2.2, abs=0.05)
    assert reportobj.recall_at_5 == pytest.approx(11.2, abs=0.05)
    assert reportobj.f1_at_5 == pytest.approx(3.7, abs=0.05)
    report(8, "24015 hypotheses with 538 hits give P 2.2 / R 11.2 / F1 3.7")


def test_criterion_9_determinism_across_thread_counts(tmp_path):
    rng = np.random.default_rng(9)
    n, d = 30, 6
    base = rng.normal(size=(n, d))
    rho = rng.permutation(n)
    inverse = np.empty(n, dtype=int)
    inverse[rho] = np.arange(n)
    write_vec(tmp_path / "s.vec", [f"s{i:02d}" for i in range(n)], base)
    write_vec(
        tmp_path / "t.vec", [f"t{k:02d}" for k in range(n)],
        base[rho] + 0.1 * rng.normal(size=(n, d)),
    )
    write_pairs(
        tmp_path / "d.tsv", [(f"s{i:02d}", f"t{inverse[i]:02d}") for i in range(n)]
    )

    def run_cli(tag: str, threads: str) -> bytes:
        hyps = tmp_path / f"h_{tag}.tsv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "bilex.cli", "run",
                "--method", "itersgm", "--seeds", "8", "--iters", "2",
                "--src-emb", str(tmp_path / "s.vec"),
                "--tgt-emb", str(tmp_path / "t.vec"),
                "--dict", str(tmp_path / "d.tsv"),
                "--rng-seed", "11", "--hyps", str(hyps),
            ],
            env=blas_env(threads),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return hyps.read_bytes()

    first = run_cli("a", "1")
    second = run_cli("b", "1")
    third = run_cli("c", "4")
    assert first == second == third
    report(9, "byte-identical hypothesis dumps across runs and thread counts")


@pytest.mark.skipif(
    "BILEX_MUSE_EN_DE" not in os.environ or "BILEX_MUSE_RU_EN" not in os.environ,
    reason="optional full-data check; set BILEX_MUSE_EN_DE / BILEX_MUSE_RU_EN",
)
def test_criterion_10_optional_muse_counts():
    en_de = filter_one_to_one(load_dictionary(os.environ["BILEX_MUSE_EN_DE"]))
    ru_en = filter_one_to_one(load_dictionary(os.environ["BILEX_MUSE_RU_EN"]))
    assert len(en_de) == 4903
    assert len(ru_en) == 4084
    report(10, "MUSE one-to-one counts reproduce 4903 (En-De) and 4084 (Ru-En)")
