"""Metric computations against hand-counted and recount oracles."""

from dataclasses import asdict

import numpy as np
import pytest

from bilex import HypothesisSet, Lexicon, metrics_report, p_at_1, prf_at_5


def lex(*pairs):
    return Lexicon(tuple(pairs))


def hyp(mapping):
    return HypothesisSet(
        {src: tuple((t, 1.0 - 0.1 * r) for r, t in enumerate(tgts)) for src, tgts in mapping.items()}
    )


class TestPAt1:
    def test_all_correct(self):
        gold = lex(("a", "1"), ("b", "2"))
        assert p_at_1(hyp({"a": ["1"], "b": ["2"]}), gold) == 100.0

    def test_none_correct(self):
        gold = lex(("a", "1"), ("b", "2"))
        assert p_at_1(hyp({"a": ["2"], "b": ["1"]}), gold) == 0.0

    def test_three_of_four(self):
        gold = lex(("a", "1"), ("b", "2"), ("c", "3"), ("d", "4"))
        hyps = hyp({"a": ["1"], "b": ["2"], "c": ["3"], "d": ["x"]})
        assert p_at_1(hyps, gold) == 75.0

    def test_missing_hypothesis_counts_as_wrong(self):
        gold = lex(("a", "1"), ("b", "2"))
        assert p_at_1(hyp({"a": ["1"]}), gold) == 50.0

    def test_empty_test_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            p_at_1(hyp({}), Lexicon(()))

    def test_non_one_to_one_gold_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            p_at_1(hyp({}), lex(("a", "1"), ("b", "1")))


class TestPrfAt5:
    def test_table_shaped_consistency(self):
        # 4803 test words, 5 hypotheses each, 538 correct pairs covering
        # 538 distinct sources.
        gold_pairs = [(f"s{i}", f"t{i}") for i in range(4803)]
        entries = {}
        for i, (src, tgt) in enumerate(gold_pairs):
            ranked = [f"x{i}_{r}" for r in range(5)]
            if i < 538:
                ranked[2] = tgt
            entries[src] = ranked
        hyps = hyp(entries)
        precision, recall, f1, total = prf_at_5(hyps, Lexicon(tuple(gold_pairs)))
        assert total == 24015
        assert precision == pytest.approx(2.2, abs=0.05)
        assert recall == pytest.approx(11.2, abs=0.05)
        assert f1 == pytest.approx(3.7, abs=0.05)

    def test_recount_oracle_on_random_instance(self):
        rng = np.random.default_rng(0)
        gold_pairs = [(f"s{i}", f"t{i}") for i in range(40)]
        entries = {}
        for src, _ in gold_pairs:
            count = int(rng.integers(0, 6))
            entries[src] = [f"t{rng.integers(50)}_{r}" for r in range(count)]
        for i in range(0, 40, 3):  # plant some hits at random ranks
            src, tgt = gold_pairs[i]
            if entries[src]:
                entries[src][int(rng.integers(len(entries[src])))] = tgt
            else:
                entries[src] = [tgt]
        hyps = hyp(entries)
        precision, recall, f1, total = prf_at_5(hyps, Lexicon(tuple(gold_pairs)))
        # independent recount
        want_total = sum(len(v) for v in entries.values())
        want_correct = sum(
            1 for src, tgt in gold_pairs if tgt in entries.get(src, [])
        )
        assert total == want_total
        assert precision == pytest.approx(100 * want_correct / want_total, abs=1e-9)
        assert recall == pytest.approx(100 * want_correct / 40, abs=1e-9)

    def test_list_longer_than_five_rejected(self):
        gold = lex(("a", "1"))
        with pytest.raises(ValueError, match="longer than 5"):
            prf_at_5(hyp({"a": ["1", "2", "3", "4", "5", "6"]}), gold)

    def test_precision_recall_identity(self):
        # With one-to-one gold: precision == recall * |test| / total_hyps.
        rng = np.random.default_rng(1)
        gold_pairs = [(f"s{i}", f"t{i}") for i in range(25)]
        entries = {
            f"s{i}": [f"t{i}" if rng.random() < 0.4 else f"z{i}_{r}" for r in range(3)]
            for i in range(25)
        }
        entries = {k: list(dict.fromkeys(v)) for k, v in entries.items()}
        precision, recall, _, total = prf_at_5(hyp(entries), Lexicon(tuple(gold_pairs)))
        if total:
            assert precision == pytest.approx(recall * 25 / total, abs=1e-9)

    def test_p1_equals_truncated_recall(self):
        gold = lex(("a", "1"), ("b", "2"), ("c", "3"))
        lists = {"a": ["1", "9"], "b": ["9", "2"], "c": ["3"]}
        truncated = hyp({k: v[:1] for k, v in lists.items()})
        _, recall, _, _ = prf_at_5(truncated, gold)
        assert p_at_1(hyp(lists), gold) == pytest.approx(recall, abs=1e-12)


class TestMetricsReport:
    def test_report_fields_and_rounding(self):
        gold = lex(("a", "1"), ("b", "2"), ("c", "3"))
        hyps = hyp({"a": ["1", "x"], "b": ["y", "2"], "c": ["z"]})
        report = metrics_report(hyps, gold)
        assert report.test_size == 3
        assert report.total_hyps == 5
        assert report.correct_hyps == 2
        assert report.p_at_1 == pytest.approx(100 / 3)
        rounded = report.rounded()
        assert rounded["p_at_1"] == 33.3
        assert asdict(report)["p_at_1"] == report.p_at_1
        assert rounded.keys() == asdict(report).keys()
        assert rounded["total_hyps"] == 5

    def test_truncates_long_lists_to_five(self):
        gold = lex(("a", "1"))
        hyps = hyp({"a": ["x1", "x2", "x3", "x4", "x5", "1"]})
        report = metrics_report(hyps, gold)
        assert report.total_hyps == 5
        assert report.correct_hyps == 0  # the hit sat at rank 6
