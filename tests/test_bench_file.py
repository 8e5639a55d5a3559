"""README's "Notes on scale" table quotes the latest committed BENCH file.

A ``BENCH_<n>.json`` at the repository root holds, per workload, every
line of one ``perfbench/run.py --seed 1 --seconds 30 --trace 1`` run.
The table's ``run_s``, ``setup_s`` and ``peak_rss_mb`` are the medians
of that run's untraced repetitions, at the precision the table prints.
"""

import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def latest_bench() -> Path:
    return max(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def notes_on_scale() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Notes on scale")[1].split("\n## ")[0]


def untraced_medians(lines) -> dict[str, float]:
    reps = [
        line
        for line in lines
        if "repetition" in line and not line["traced"] and not line["problems"]
    ]
    return {
        key: statistics.median(rep[key] for rep in reps)
        for key in ("run_s", "setup_s", "peak_rss_mb")
    }


def test_notes_on_scale_table_quotes_the_latest_bench_file():
    bench = latest_bench()
    notes = notes_on_scale()
    assert bench.name in notes
    table = {
        workload: figures
        for workload, *figures in re.findall(
            r"^\| `([\w-]+)` \([^|]*\) \| ([\d.]+) s \| ([\d.]+) s \| ([\d.]+) MB \|",
            notes,
            flags=re.MULTILINE,
        )
    }
    runs = json.loads(bench.read_text(encoding="utf-8"))["runs"]
    assert sorted(table) == sorted(runs)
    for workload, lines in runs.items():
        medians = untraced_medians(lines)
        assert table[workload] == [
            f"{medians['run_s']:.3f}",
            f"{medians['setup_s']:.3f}",
            f"{medians['peak_rss_mb']:.1f}",
        ], workload


def test_every_run_in_the_bench_file_was_correct_and_kept_its_digest():
    runs = json.loads(latest_bench().read_text(encoding="utf-8"))["runs"]
    for workload, lines in runs.items():
        (digests,) = [line for line in lines if "digests" in line]
        assert digests["digests"] == [digests["recorded_digest"]], workload
        assert lines[-1]["correct"] and lines[-1]["failed"] == 0, workload
