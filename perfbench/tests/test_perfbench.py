"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = corpus.Workload(
    name="tiny-planted",
    vocab=40,
    dim=8,
    noise=0.0,
    dict_pairs=30,
    seeds=10,
    spec={"method": "sgm"},
    min_p_at_1=100.0,
)


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    workload = corpus.WORKLOADS["softsgm-restarts"]
    first = corpus.generate(workload, 3, tmp_path / "a")
    again = corpus.generate(workload, 3, tmp_path / "b")
    other = corpus.generate(workload, 4, tmp_path / "c")
    for name in ("src_emb", "tgt_emb", "dictionary"):
        data = getattr(first, name).read_bytes()
        assert data == getattr(again, name).read_bytes()
        assert data != getattr(other, name).read_bytes()
    assert first.gold_test == again.gold_test
    assert len(first.gold_test) == workload.dict_pairs - workload.seeds


def test_noiseless_planted_instance_is_solved_through_run_py():
    reps = run.measure(TINY, seed=5, seconds=0, trace=True)
    assert [r["problems"] for r in reps] == [[]] * len(reps)
    assert sum(r["traced"] for r in reps) == run.MIN_TRACED_REPS
    assert len({r["digest"] for r in reps}) == 1

    plain = run.summarize(reps, False, run.declared_metrics(ROOT, False))
    assert plain["correct"] and plain["failed"] == 0
    assert plain["metrics"]["p_at_1"] == {"value": 100.0, "unit": "%"}
    layers = run.summarize(reps, True, run.declared_metrics(ROOT, True))
    assert layers["correct"]
    assert set(layers["metrics"]) == set(run.declared_metrics(ROOT, True))
    assert layers["metrics"]["graph_matching.sgm_calls"]["value"] == 1
    assert layers["metrics"]["procrustes.extract_calls"]["value"] == 0


def _targets():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracer.TARGETS
    }


def test_tracer_wraps_and_restores_every_name():
    originals = _targets()
    t = tracer.Tracer()
    t.install()
    try:
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr) is not fn
        importlib.import_module("bilex.graph_matching").solve_lap(np.eye(3))
    finally:
        assert t.restore()
    assert _targets() == originals
    assert [s.name for s in t.spans] == ["assignment.solve_lap", "assignment.scipy_lap"]
    assert t.spans[1].parent == 0


def test_layer_metrics_self_time_and_counts():
    spans = [
        tracer.Span("pipelines.run", -1, 0.0, 10.0),
        tracer.Span("graph_matching.sgm", 0, 1.0, 5.0, {"max_iters": 1}),
        tracer.Span("assignment.solve_lap", 1, 2.0, 3.0),
        tracer.Span("assignment.scipy_lap", 2, 2.0, 2.25),
        tracer.Span("assignment.solve_lap", 1, 3.5, 4.0),
        tracer.Span("evaluation", 0, 6.0, 7.0),
        tracer.Span("evaluation", 5, 6.0, 6.5),
    ]
    m = tracer.layer_metrics(spans)
    assert m["graph_matching.sgm_s"] == 4.0
    assert m["graph_matching.sgm_self_s"] == 2.5
    assert (m["graph_matching.fw_iters"], m["graph_matching.fw_capped"]) == (1, 1)
    assert (m["assignment.lap_calls"], m["assignment.lap_s"]) == (2, 1.5)
    assert m["assignment.refine_s"] == 1.25
    assert m["evaluation.s"] == 1.0
    assert m["pipelines.self_s"] == 5.0
    assert m["pipelines.engine_runs"] == 1


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_run_py_rejects_unknown_workload():
    done = _bench(ROOT, "--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_run_py_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    done = _bench(tmp_path, "--workload", "softsgm-restarts", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
