"""Bilingual lexicon induction toolkit.

Two framings of the same problem: the Euclidean one (orthogonal
Procrustes alignment with CSLS nearest-neighbor extraction) and the
graph one (seeded graph matching over cosine-similarity graphs solved by
Frank-Wolfe), plus iterative bootstrapping strategies, a combined cyclic
system, evaluation metrics, and a CLI experiment runner.
"""

__version__ = "0.1.0"

from .assignment import Assignment, solve_lap
from .embeddings import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    NormalizationError,
    load_embeddings,
    normalize,
)
from .evaluation import MetricsReport, metrics_report, p_at_1, prf_at_5
from .graph_matching import (
    SimilarityGraph,
    build_graph,
    sgm,
    soft_sgm,
    top_k_from_distribution,
    trace_gradient,
    trace_objective,
)
from .hypotheses import HypothesisSet, Matching
from .lexicon import (
    DictionaryFormatError,
    Lexicon,
    SplitLexicon,
    drop_missing,
    filter_one_to_one,
    load_dictionary,
    split,
)
from .pipelines import (
    Dataset,
    ExperimentSpec,
    RunResult,
    assemble,
    build_dataset,
    intersect_hypotheses,
    iterate,
    oracle_judge,
    resolve_seed_conflicts,
    run,
    run_combined,
    run_single,
    union_hypotheses,
)
from .procrustes import (
    OrthogonalMap,
    TopK,
    extract_hypotheses,
    score_blocks,
    solve_procrustes,
)

__all__ = [
    "Assignment",
    "Dataset",
    "DictionaryFormatError",
    "EmbeddingFormatError",
    "EmbeddingMatrix",
    "ExperimentSpec",
    "HypothesisSet",
    "Lexicon",
    "Matching",
    "MetricsReport",
    "NormalizationError",
    "OrthogonalMap",
    "RunResult",
    "SimilarityGraph",
    "SplitLexicon",
    "TopK",
    "assemble",
    "build_dataset",
    "build_graph",
    "drop_missing",
    "extract_hypotheses",
    "filter_one_to_one",
    "intersect_hypotheses",
    "iterate",
    "load_dictionary",
    "load_embeddings",
    "metrics_report",
    "normalize",
    "oracle_judge",
    "p_at_1",
    "prf_at_5",
    "resolve_seed_conflicts",
    "run",
    "run_combined",
    "run_single",
    "score_blocks",
    "sgm",
    "soft_sgm",
    "solve_lap",
    "solve_procrustes",
    "split",
    "top_k_from_distribution",
    "trace_gradient",
    "trace_objective",
    "union_hypotheses",
]
