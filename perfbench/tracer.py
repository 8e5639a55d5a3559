"""Per-layer spans recorded from outside the library.

The tracer replaces module attributes with timing wrappers. Because
``from .x import y`` binds ``y`` at import time, each function is
wrapped under the name its caller looks up: ``bilex.pipelines.sgm`` for
the pipeline's solves and ``bilex.graph_matching.sgm`` for the restarts
inside ``soft_sgm``. Spans stay in memory; :func:`layer_metrics` turns
them into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _max_iters(call, result):
    return {"max_iters": call.arguments["max_iters"]}


def _rows(call, result):
    return {"rows": len(result)}


def _cells(call, result):
    src, tgt = call.arguments["mapped_src"], call.arguments["tgt"]
    return {"cells": int(src.shape[0]) * int(tgt.shape[0])}


# (module, attribute looked up by the caller, span name, info from the call)
TARGETS = (
    ("bilex.pipelines", "run", "pipelines.run", None),
    ("bilex.pipelines", "assemble", "pipelines.assemble", None),
    ("bilex.pipelines", "load_embeddings", "embeddings.load", _rows),
    ("bilex.pipelines", "normalize", "embeddings.normalize", None),
    ("bilex.pipelines", "load_dictionary", "lexicon.load", None),
    ("bilex.pipelines", "build_graph", "graph_matching.build_graph", None),
    ("bilex.pipelines", "sgm", "graph_matching.sgm", _max_iters),
    ("bilex.pipelines", "soft_sgm", "graph_matching.soft_sgm", None),
    ("bilex.pipelines", "top_k_from_distribution", "graph_matching.topk", None),
    ("bilex.graph_matching", "sgm", "graph_matching.sgm", _max_iters),
    ("bilex.graph_matching", "solve_lap", "assignment.solve_lap", None),
    ("bilex.procrustes", "solve_lap", "assignment.solve_lap", None),
    ("bilex.assignment", "linear_sum_assignment", "assignment.scipy_lap", None),
    ("bilex.pipelines", "solve_procrustes", "procrustes.solve", None),
    ("bilex.pipelines", "extract_hypotheses", "procrustes.extract", _cells),
    ("bilex.evaluation", "p_at_1", "evaluation", None),
    ("bilex.evaluation", "prf_at_5", "evaluation", None),
    ("bilex.evaluation", "metrics_report", "evaluation", None),
)

# Spans directly under pipelines.run that start one engine run.
_ENGINE_SPANS = ("graph_matching.sgm", "graph_matching.soft_sgm", "procrustes.solve")


class Tracer:
    """Installs timing wrappers over :data:`TARGETS` and restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, describe):
        signature = inspect.signature(fn) if describe is not None else None

        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                span.info = describe(call, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, describe in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, describe))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._saved)
        self._saved.clear()
        return restored


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times, counts and self times from one traced run.

    Self time is a span's duration minus that of its direct children; a
    span nested in one of the same name (``metrics_report`` calling
    ``p_at_1``) is covered by the outer one and not counted again.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)

    def of(name):
        return [
            i
            for i, s in enumerate(spans)
            if s.name == name and (s.parent < 0 or spans[s.parent].name != name)
        ]

    def total(name):
        return sum(spans[i].duration for i in of(name))

    def self_time(name):
        return sum(
            spans[i].duration - sum(spans[c].duration for c in children.get(i, ()))
            for i in of(name)
        )

    def laps_under(i):
        return sum(1 for c in children.get(i, ()) if spans[c].name == "assignment.solve_lap")

    sgm_spans = of("graph_matching.sgm")
    fw_iters = [laps_under(i) - 1 for i in sgm_spans]
    run_spans = set(of("pipelines.run"))
    lap_s = total("assignment.solve_lap")
    scipy_lap_s = total("assignment.scipy_lap")
    return {
        "graph_matching.sgm_s": total("graph_matching.sgm"),
        "graph_matching.sgm_self_s": self_time("graph_matching.sgm"),
        "graph_matching.sgm_calls": len(sgm_spans),
        "graph_matching.fw_iters": sum(fw_iters),
        "graph_matching.fw_capped": sum(
            1 for i, k in zip(sgm_spans, fw_iters) if k >= spans[i].info["max_iters"]
        ),
        "graph_matching.build_graph_s": total("graph_matching.build_graph"),
        "graph_matching.soft_self_s": self_time("graph_matching.soft_sgm"),
        "graph_matching.topk_s": total("graph_matching.topk"),
        "assignment.lap_calls": len(of("assignment.solve_lap")),
        "assignment.lap_s": lap_s,
        "assignment.scipy_lap_s": scipy_lap_s,
        "assignment.refine_s": lap_s - scipy_lap_s,
        "procrustes.solve_calls": len(of("procrustes.solve")),
        "procrustes.solve_s": total("procrustes.solve"),
        "procrustes.extract_calls": len(of("procrustes.extract")),
        "procrustes.extract_s": total("procrustes.extract"),
        "procrustes.extract_cells": sum(
            spans[i].info["cells"] for i in of("procrustes.extract")
        ),
        "embeddings.load_s": total("embeddings.load"),
        "embeddings.rows_loaded": sum(spans[i].info["rows"] for i in of("embeddings.load")),
        "embeddings.normalize_s": total("embeddings.normalize"),
        "lexicon.load_s": total("lexicon.load"),
        "pipelines.self_s": self_time("pipelines.run"),
        "pipelines.engine_runs": sum(
            1 for s in spans if s.parent in run_spans and s.name in _ENGINE_SPANS
        ),
        "evaluation.s": total("evaluation"),
    }
