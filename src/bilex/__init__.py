"""Bilingual lexicon induction toolkit.

Two framings of the same problem: the Euclidean one (orthogonal
Procrustes alignment with CSLS nearest-neighbor extraction) and the
graph one (seeded graph matching over cosine-similarity graphs solved by
Frank-Wolfe), plus iterative bootstrapping strategies, a combined cyclic
system, evaluation metrics, and a CLI experiment runner.
"""

__version__ = "0.1.0"

from .assignment import solve_lap
from .embeddings import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    NormalizationError,
    load_embeddings,
    normalize,
)
from .evaluation import MetricsReport, metrics_report, p_at_1, prf_at_5
from .graph_matching import build_graph, sgm, soft_sgm, top_k_from_distribution
from .hypotheses import HypothesisSet, Matching, TopK
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
    WorkingSetError,
    assemble,
    build_dataset,
    run,
)
from .procrustes import OrthogonalMap, extract_hypotheses, solve_procrustes

__all__ = [
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
    "SplitLexicon",
    "TopK",
    "WorkingSetError",
    "assemble",
    "build_dataset",
    "build_graph",
    "drop_missing",
    "extract_hypotheses",
    "filter_one_to_one",
    "load_dictionary",
    "load_embeddings",
    "metrics_report",
    "normalize",
    "p_at_1",
    "prf_at_5",
    "run",
    "sgm",
    "soft_sgm",
    "solve_lap",
    "solve_procrustes",
    "split",
    "top_k_from_distribution",
]
