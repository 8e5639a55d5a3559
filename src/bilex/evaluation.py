"""Lexicon-induction metrics: p@1 and precision/recall/F1 at 5.

All metrics are computed over test words only; seed words never enter
numerator or denominator. Percentages are kept at full precision here
and rounded to one decimal only for display.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .hypotheses import HypothesisSet
from .lexicon import Lexicon


@dataclass(frozen=True)
class MetricsReport:
    p_at_1: float
    precision_at_5: float
    recall_at_5: float
    f1_at_5: float
    total_hyps: int
    test_size: int
    correct_hyps: int

    def rounded(self) -> dict:
        """Percentages to one decimal, matching tabular reporting."""
        return {
            key: round(value, 1) if isinstance(value, float) else value
            for key, value in asdict(self).items()
        }


def metrics_report(hyps: HypothesisSet, gold_test: Lexicon) -> MetricsReport:
    """Every metric in one pass over the test words, each reading the first
    5 hypotheses of a test word's list."""
    if len(gold_test) == 0:
        raise ValueError("test set is empty")
    if not gold_test.is_one_to_one():
        raise ValueError("gold test lexicon must be one-to-one")
    hits = total = covered = 0
    for src, tgt in gold_test.pairs:
        top = [cand for cand, _ in hyps.entries.get(src, ())[:5]]
        hits += bool(top) and top[0] == tgt
        total += len(top)
        covered += tgt in top
    # Lists never repeat a target, so with one-to-one gold each covered
    # word contributes exactly one correct pair.
    precision = 100.0 * covered / total if total else 0.0
    recall = 100.0 * covered / len(gold_test)
    return MetricsReport(
        p_at_1=100.0 * hits / len(gold_test),
        precision_at_5=precision,
        recall_at_5=recall,
        f1_at_5=2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        total_hyps=total,
        test_size=len(gold_test),
        correct_hyps=covered,
    )


def p_at_1(hyps: HypothesisSet, gold_test: Lexicon) -> float:
    """Percentage of test words whose top hypothesis is the gold target.

    Test words with no hypothesis count as wrong.
    """
    return metrics_report(hyps, gold_test).p_at_1


def prf_at_5(hyps: HypothesisSet, gold_test: Lexicon):
    """(precision, recall, f1, total_hyps) over test-word hypothesis lists
    truncated to 5, as in :func:`metrics_report`.

    Precision counts correct (source, target) pairs over all emitted
    pairs; recall counts test words whose gold target appears anywhere
    in their list; F1 is the harmonic mean (zero when both are zero).
    """
    report = metrics_report(hyps, gold_test)
    return report.precision_at_5, report.recall_at_5, report.f1_at_5, report.total_hyps

