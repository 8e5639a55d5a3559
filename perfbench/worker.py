"""One timed repetition in a fresh process: assemble, run, check.

Usage: ``python3 perfbench/worker.py JOB.json TRACE`` with ``src`` on
``PYTHONPATH`` and TRACE 0 or 1. Prints one JSON line: timings, peak
RSS, the digest of the hypothesis dump, the problems the output check
found and, when traced, the per-layer figures of the run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import bilex
from bilex import evaluation, pipelines
from bilex.hypotheses import HypothesisSet
from tracer import Tracer, layer_metrics


def render_dump(hyps) -> str:
    """The hypotheses in the ``bilex run --hyps`` format."""
    return "".join(
        f"{src}\t{tgt}\t{rank}\t{score:.10g}\n"
        for src, ranked in hyps.entries.items()
        for rank, (tgt, score) in enumerate(ranked, start=1)
    )


def parse_dump(text: str) -> dict[str, list[tuple[str, float]]]:
    ranked: dict[str, list[tuple[str, float]]] = {}
    for line in text.splitlines():
        src, tgt, rank, score = line.split("\t")
        entries = ranked.setdefault(src, [])
        if int(rank) != len(entries) + 1:
            raise ValueError(f"rank {rank} out of sequence for {src!r}")
        entries.append((tgt, float(score)))
    return ranked


def planted_metrics(ranked, gold_test) -> tuple[float, float]:
    """(p@1, F1@5) of a parsed dump against the generator's planted pairs."""
    hits1 = emitted = correct = 0
    for src, tgt in gold_test:
        top = [t for t, _ in ranked.get(src, ())[:5]]
        hits1 += bool(top) and top[0] == tgt
        emitted += len(top)
        correct += tgt in top
    precision = 100.0 * correct / emitted if emitted else 0.0
    recall = 100.0 * correct / len(gold_test)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return 100.0 * hits1 / len(gold_test), f1


def check_output(result, dataset, dump: str, job: dict) -> list[str]:
    """Everything wrong with one run's output; empty when it is correct."""
    problems = []
    gold = [tuple(pair) for pair in job["gold_test"]]
    if list(dataset.gold_test.pairs) != gold:
        problems.append("test split differs from the planted test pairs")
    ranked = parse_dump(dump)
    reparsed = HypothesisSet({src: tuple(r) for src, r in ranked.items()})
    if evaluation.metrics_report(reparsed, dataset.gold_test) != result.metrics:
        problems.append("metrics recomputed from the dump differ from the run's")
    p1, f1 = planted_metrics(ranked, gold)
    if abs(p1 - result.metrics.p_at_1) > 1e-9 or abs(f1 - result.metrics.f1_at_5) > 1e-9:
        problems.append(
            f"planted p@1/F1@5 {p1:.4f}/{f1:.4f} differ from reported "
            f"{result.metrics.p_at_1:.4f}/{result.metrics.f1_at_5:.4f}"
        )
    if p1 < job["min_p_at_1"]:
        problems.append(f"p@1 {p1:.2f} below the planted floor {job['min_p_at_1']}")
    return problems


def repetition(job: dict, trace: bool) -> dict:
    src_dir = Path(job["src_dir"]).resolve()
    if src_dir not in Path(bilex.__file__).resolve().parents:
        raise RuntimeError(f"bilex imported from {bilex.__file__}, not from {src_dir}")
    spec = pipelines.ExperimentSpec(**job["spec"])
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup = []
        dataset = None
        for _ in range(job["setup_repeats"]):
            dataset = None  # release the previous copy before loading the next
            if tracer is not None:
                tracer.spans.clear()  # layer figures cover the last set-up only
            started = time.perf_counter()
            dataset = pipelines.assemble(spec)
            setup.append(time.perf_counter() - started)
        started = time.perf_counter()
        result = pipelines.run(spec, dataset)
        run_s = time.perf_counter() - started
    finally:
        restored = tracer.restore() if tracer is not None else True

    dump = render_dump(result.hypotheses)
    problems = check_output(result, dataset, dump, job)
    if not restored:
        problems.append("tracer left a wrapped name in place")
    out = {
        "run_s": run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "p_at_1": result.metrics.p_at_1,
        "f1_at_5": result.metrics.f1_at_5,
        "digest": hashlib.sha256(dump.encode("utf-8")).hexdigest(),
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
    return out


if __name__ == "__main__":
    job = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(repetition(job, trace=sys.argv[2] == "1")))
