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


def _gold_map(gold_test: Lexicon) -> dict:
    if len(gold_test) == 0:
        raise ValueError("test set is empty")
    if not gold_test.is_one_to_one():
        raise ValueError("gold test lexicon must be one-to-one")
    return dict(gold_test.pairs)


def _tally(entries: dict, gold: dict):
    """(total emitted pairs, correct pairs, covered test words)."""
    total = 0
    correct_pairs = 0
    covered = 0
    for src, tgt in gold.items():
        ranked = entries.get(src, ())
        if len(ranked) > 5:
            raise ValueError(f"hypothesis list for {src!r} longer than 5")
        total += len(ranked)
        matches = sum(1 for cand, _ in ranked if cand == tgt)
        correct_pairs += matches
        if matches:
            covered += 1
    # Lists never repeat a target, so with one-to-one gold each covered
    # word contributes exactly one correct pair.
    assert correct_pairs == covered, "duplicate gold hit inside one list"
    return total, correct_pairs, covered


def _p_at_1(hyps: HypothesisSet, gold: dict) -> float:
    top = hyps.top1()
    hits = sum(1 for src, tgt in gold.items() if top.get(src) == tgt)
    return 100.0 * hits / len(gold)


def _prf(total: int, correct_pairs: int, covered: int, test_size: int):
    """(precision, recall, f1) percentages from a tally."""
    precision = 100.0 * correct_pairs / total if total else 0.0
    recall = 100.0 * covered / test_size
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def p_at_1(hyps: HypothesisSet, gold_test: Lexicon) -> float:
    """Percentage of test words whose top hypothesis is the gold target.

    Test words with no hypothesis count as wrong.
    """
    return _p_at_1(hyps, _gold_map(gold_test))


def prf_at_5(hyps: HypothesisSet, gold_test: Lexicon):
    """(precision, recall, f1, total_hyps) over test-word hypothesis lists.

    Precision counts correct (source, target) pairs over all emitted
    pairs; recall counts test words whose gold target appears anywhere
    in their list; F1 is the harmonic mean (zero when both are zero).
    """
    gold = _gold_map(gold_test)
    total, correct_pairs, covered = _tally(hyps.entries, gold)
    return (*_prf(total, correct_pairs, covered, len(gold)), total)


def metrics_report(hyps: HypothesisSet, gold_test: Lexicon) -> MetricsReport:
    """Full report; hypothesis lists are truncated to 5 for the @5 metrics."""
    gold = _gold_map(gold_test)
    truncated = {src: ranked[:5] for src, ranked in hyps.entries.items()}
    total, correct_pairs, covered = _tally(truncated, gold)
    precision, recall, f1 = _prf(total, correct_pairs, covered, len(gold))
    return MetricsReport(
        p_at_1=_p_at_1(hyps, gold),
        precision_at_5=precision,
        recall_at_5=recall,
        f1_at_5=f1,
        total_hyps=total,
        test_size=len(gold),
        correct_hyps=correct_pairs,
    )
