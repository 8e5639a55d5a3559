"""The bilex benchmark: one workload, one seed, a fixed measuring time.

Usage::

    python3 perfbench/run.py --workload itersgm-active --seed 1 --seconds 20 --trace 0

The corpus for (workload, seed) is generated under ``perfbench/.work``
and removed afterwards; generating it is not timed. Each repetition is
a fresh process (``worker.py``) that calls ``pipelines.assemble`` and
then ``pipelines.run`` on the library in ``src/``, so every run pays for
loading and for the Dataset's lazily built Gram matrices. Repetitions
start until ``--seconds`` have passed and at least the minimum count has
run; figures are medians over them. Every repetition's output is checked
and must produce the same hypothesis digest.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
listed in BENCHMARK.json; with ``--trace 1`` untraced and traced
repetitions alternate and it carries the per-layer metrics. Earlier
lines record the host and the per-repetition results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread. Two threads were faster but no steadier on a 2-core
# host (perfbench/README.md), and one leaves the other core to the
# concurrent solves planned in ROADMAP item 4 without oversubscription.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # assemble() calls per repetition; setup_s is their median
MIN_REPS = 3  # untraced repetitions per run, also with --trace 1
MIN_TRACED_REPS = 2  # so that traced counts can be compared between two runs
STOP_STARTING_AFTER_S = 100.0  # keeps a slow host within the 180 s limit
WORKER_TIMEOUT_S = 150.0


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # an exported checkout; never report an enclosing repository's commit
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_info(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {var: BLAS_THREADS for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(root),
    }


def _worker(job_path: Path, traced: bool) -> dict:
    """Run one repetition; a crash or a bad reply becomes a listed problem."""
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(int(traced))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "problems": [f"worker exit {done.returncode}: {tail[0]}"]}
    return {"traced": traced, **json.loads(lines[-1])}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> list[dict]:
    """All repetitions of one run, each checked; returns their replies."""
    work = HERE / ".work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        corpus = generate(workload, seed, work)
        job_path = work / "job.json"
        job_path.write_text(
            json.dumps(
                {
                    "spec": {
                        "src_emb": str(corpus.src_emb),
                        "tgt_emb": str(corpus.tgt_emb),
                        "dictionary": str(corpus.dictionary),
                        "seeds": workload.seeds,
                        "rng_seed": seed,
                        **workload.spec,
                    },
                    "gold_test": corpus.gold_test,
                    "min_p_at_1": workload.min_p_at_1,
                    "setup_repeats": SETUP_REPEATS,
                    "src_dir": str(ROOT / "src"),
                }
            )
        )
        reps: list[dict] = []
        started = time.monotonic()
        while True:
            untraced = sum(not r["traced"] for r in reps)
            traced = len(reps) - untraced
            enough = untraced >= MIN_REPS and (not trace or traced >= MIN_TRACED_REPS)
            elapsed = time.monotonic() - started
            if (enough and elapsed >= seconds) or (reps and elapsed >= STOP_STARTING_AFTER_S):
                break
            reps.append(_worker(job_path, traced=trace and traced < untraced))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _cross_check(reps)
    return reps


def _cross_check(reps: list[dict]) -> None:
    """Flag repetitions whose outputs or counts differ from the first good one.

    Counts are the integer-valued layer figures; they must repeat exactly.
    """
    good = [r for r in reps if not r["problems"]]
    if not good:
        return
    ref = good[0]
    ref_traced = next((r for r in good if r["traced"]), None)
    for rep in good[1:]:
        for key in ("digest", "p_at_1", "f1_at_5"):
            if rep[key] != ref[key]:
                rep["problems"].append(f"{key} differs between repetitions")
        if rep["traced"] and rep is not ref_traced:
            for key, value in rep["layers"].items():
                if isinstance(value, int) and value != ref_traced["layers"][key]:
                    rep["problems"].append(f"{key} differs between traced repetitions")


def summarize(reps: list[dict], trace: bool, declared: dict[str, str]) -> dict:
    """The result line: every declared metric as a median over good repetitions."""
    good = [r for r in reps if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    values: dict[str, float] = {}
    if plain and (traced or not trace):
        if trace:
            for key, first in traced[0]["layers"].items():
                # Counts repeat exactly (checked above); times are medians.
                values[key] = first if isinstance(first, int) else statistics.median(
                    r["layers"][key] for r in traced
                )
            values["trace.overhead_share"] = (
                statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in plain)
                - 1.0
            )
        else:
            for key in declared.keys() & plain[0].keys():
                values[key] = statistics.median(r[key] for r in plain)
    failed = len(reps) - len(good)
    return {
        "correct": failed == 0 and bool(values),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()
            if name in values
        },
    }


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "bilex" / "__init__.py").is_file():
        print(f"error: no bilex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(ROOT, bool(args.trace))

    print(json.dumps({"host": host_info(ROOT)}))
    reps = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for i, rep in enumerate(reps):
        print(json.dumps({"repetition": i, **rep}))
    recorded = json.loads((HERE / "digests.json").read_text())
    expected = recorded.get(args.workload, {}).get(str(args.seed))
    digests = sorted({r["digest"] for r in reps if "digest" in r})
    print(json.dumps({"digests": digests, "recorded_digest": expected}))
    result = summarize(reps, bool(args.trace), declared)
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
