"""Experiment orchestration: single runs, iteration strategies, combination."""

import pytest

from bilex import (
    HypothesisSet,
    Lexicon,
    build_dataset,
    evaluation,
    intersect_hypotheses,
    iterate,
    oracle_judge,
    resolve_seed_conflicts,
    run,
    run_combined,
    run_single,
    union_hypotheses,
)
from conftest import make_planted, make_spec


def planted_dataset(n=60, d=10, noise=0.0, seed=0, seeds=15):
    src, tgt, lexicon = make_planted(n=n, d=d, noise=noise, seed=seed)
    return build_dataset(src, tgt, lexicon, seeds)


class TestCombiners:
    def test_intersect_basic(self):
        fwd = {"a": "1", "b": "2"}
        rev = {"1": "a", "2": "c"}
        assert intersect_hypotheses(fwd, rev) == [("a", "1")]

    def test_intersect_full_inverse(self):
        fwd = {"a": "1", "b": "2"}
        rev = {"1": "a", "2": "b"}
        assert intersect_hypotheses(fwd, rev) == [("a", "1"), ("b", "2")]

    def test_intersect_disjoint(self):
        assert intersect_hypotheses({"a": "1"}, {"2": "a"}) == []

    def test_union_mirrors_intersect_fixtures(self):
        fwd = {"a": "1", "b": "2"}
        rev = {"1": "a", "2": "c"}
        assert union_hypotheses(fwd, rev) == [("a", "1"), ("b", "2"), ("c", "2")]
        assert union_hypotheses({"a": "1"}, {"1": "a"}) == [("a", "1")]
        assert union_hypotheses({}, {}) == []

    def test_oracle_judge(self):
        gold = Lexicon((("a", "1"), ("b", "2")))
        assert oracle_judge([("a", "1"), ("a", "2"), ("b", "2")], gold) == [
            ("a", "1"),
            ("b", "2"),
        ]
        assert oracle_judge([], gold) == []

    def test_resolve_seed_conflicts_gold_wins(self):
        gold = [("a", "1"), ("b", "2")]
        extra = [("a", "9"), ("c", "2"), ("d", "3"), ("e", "3")]
        assert resolve_seed_conflicts(gold, extra) == [
            ("a", "1"),
            ("b", "2"),
            ("d", "3"),
        ]


class TestRunSingle:
    def test_planted_recovery_both_methods(self):
        ds = planted_dataset()
        hyps_sgm, matching = run_single(make_spec(method="sgm"), ds)
        hyps_pro, none = run_single(make_spec(method="procrustes"), ds)
        assert none is None
        assert matching is not None and matching.seed_count == 15
        assert evaluation.p_at_1(hyps_sgm, ds.gold_test) == 100.0
        assert evaluation.p_at_1(hyps_pro, ds.gold_test) >= 95.0

    def test_single_test_word_exact_isomorphism(self):
        ds = planted_dataset(n=20, seeds=19)
        for method in ("procrustes", "sgm"):
            hyps, _ = run_single(make_spec(method=method, seeds=19), ds)
            assert evaluation.p_at_1(hyps, ds.gold_test) == 100.0

    def test_noisy_outputs_are_valid_hypothesis_sets(self):
        ds = planted_dataset(noise=0.4, seed=3)
        for method in ("procrustes", "sgm", "softsgm"):
            hyps, _ = run_single(make_spec(method=method, soft_runs=3), ds)
            assert isinstance(hyps, HypothesisSet)
            assert set(hyps.entries) == set(ds.src_words)

    def test_softsgm_probabilities(self):
        ds = planted_dataset(n=30, seeds=8)
        hyps, _ = run_single(make_spec(method="softsgm", seeds=8, soft_runs=4), ds)
        for ranked in hyps.entries.values():
            assert 1 <= len(ranked) <= 5
            for _, prob in ranked:
                assert 0.0 < prob <= 1.0
        # exact isomorphism: every run agrees, so all probabilities are 1
        assert all(r[0][1] == 1.0 for r in hyps.entries.values())


class TestIterate:
    def test_add_all_never_degrades_on_planted(self):
        ds = planted_dataset(noise=0.05, seed=1)
        for engine, method in (("proc", "iterproc"), ("sgm", "itersgm")):
            records, final = iterate(
                make_spec(method=method, iters=4, rng_seed=1), engine, ds
            )
            assert len(records) == 4
            first, last = records[0]["forward_p1"], records[-1]["forward_p1"]
            assert last >= first - 2.0
            assert evaluation.p_at_1(final, ds.gold_test) == last

    def test_record_fields(self):
        ds = planted_dataset(n=30, seeds=8)
        records, _ = iterate(make_spec(iters=2, seeds=8), "proc", ds)
        for record in records:
            assert {"iteration", "forward_p1", "intersection_size",
                    "intersection_precision", "seeds_forward",
                    "seeds_reverse", "forward_hypotheses"} <= set(record)

    def test_active_learning_reaches_oracle_fixed_point(self):
        ds = planted_dataset(n=40, seeds=10)
        for engine in ("proc", "sgm"):
            log = []
            records, final = iterate(
                make_spec(strategy="active", iters=3, seeds=10),
                engine, ds, seed_log=log,
            )
            assert evaluation.p_at_1(final, ds.gold_test) == 100.0
            # a perfect engine grows the seeds to cover every pair
            assert len(log[-1][0]) == 40

    def test_stochastic_with_huge_h_matches_add_all_seed_sets(self):
        ds = planted_dataset(n=40, seeds=10)
        for engine in ("proc", "sgm"):
            log_stoch, log_add = [], []
            iterate(
                make_spec(strategy="stochastic", h=10_000, iters=3, seeds=10),
                engine, ds, seed_log=log_stoch,
            )
            iterate(
                make_spec(strategy="add_all", iters=3, seeds=10),
                engine, ds, seed_log=log_add,
            )
            assert len(log_stoch) == len(log_add)
            for (sf, sr), (af, ar) in zip(log_stoch, log_add):
                assert set(sf) == set(af)
                assert set(sr) == set(ar)

    def test_stochastic_runs_past_n_until_pool_covered(self):
        # Small H forces extra iterations beyond N before the growing
        # sample covers the intersection.
        ds = planted_dataset(n=40, seeds=10)
        records, _ = iterate(
            make_spec(strategy="stochastic", h=5, iters=2, seeds=10), "proc", ds
        )
        assert len(records) > 2
        assert len(records) <= 50
        # sample size for iteration t is min((t-1) * H, pool)
        assert records[1]["seeds_forward"] <= 10 + 5

    def test_stochastic_directions_sample_independently(self):
        ds = planted_dataset(n=40, seeds=10, noise=0.05)
        log = []
        iterate(
            make_spec(strategy="stochastic", h=5, iters=3, seeds=10),
            "proc", ds, seed_log=log,
        )
        forward_sets = [set(f) for f, _ in log[1:]]
        reverse_sets = [set(r) for _, r in log[1:]]
        assert any(f != r for f, r in zip(forward_sets, reverse_sets))

    def test_gold_seeds_never_dropped_for_proc_engine(self):
        ds = planted_dataset(n=40, seeds=10, noise=0.3, seed=5)
        gold = set(ds.gold_seeds.pairs)
        for strategy in ("add_all", "stochastic", "active"):
            log = []
            iterate(
                make_spec(strategy=strategy, iters=3, seeds=10, h=5),
                "proc", ds, seed_log=log,
            )
            for fwd_seeds, rev_seeds in log:
                assert gold <= set(fwd_seeds)
                assert gold <= set(rev_seeds)

    def test_sgm_seed_sets_always_one_to_one(self):
        ds = planted_dataset(n=40, seeds=10, noise=0.3, seed=6)
        log = []
        iterate(make_spec(iters=3, seeds=10), "sgm", ds, seed_log=log)
        for fwd_seeds, _ in log:
            srcs = [s for s, _ in fwd_seeds]
            tgts = [t for _, t in fwd_seeds]
            assert len(set(srcs)) == len(srcs)
            assert len(set(tgts)) == len(tgts)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            iterate(make_spec(), "unknown", planted_dataset(n=20, seeds=5))


class TestRunCombined:
    def test_beats_or_matches_singles_on_planted(self):
        ds = planted_dataset(noise=0.05, seed=2)
        single_best = max(
            evaluation.p_at_1(run_single(make_spec(method=m), ds)[0], ds.gold_test)
            for m in ("procrustes", "sgm")
        )
        records, hyps = run_combined(
            make_spec(method="combined", iters=3, proc_inner=2), ds
        )
        assert evaluation.p_at_1(hyps, ds.gold_test) >= single_best - 2.0
        assert len(records) == 3

    def test_degenerate_config_reduces_to_single_sgm_pass(self):
        ds = planted_dataset(seed=4)
        _, combined = run_combined(
            make_spec(method="combined", iters=1, proc_inner=0,
                      start="sgm", pull="sgm", rng_seed=5), ds,
        )
        single, _ = run_single(make_spec(method="sgm", rng_seed=5), ds)
        assert combined.top1() == single.top1()

    def test_start_variants_differ_only_marginally(self):
        ds = planted_dataset(noise=0.05, seed=8)
        scores = {}
        for start in ("iterproc", "sgm"):
            _, hyps = run_combined(
                make_spec(method="combined", start=start, pull="proc",
                          iters=2, proc_inner=2), ds,
            )
            scores[start] = evaluation.p_at_1(hyps, ds.gold_test)
        assert abs(scores["iterproc"] - scores["sgm"]) <= 2.0

    def test_cycle_records_structure(self):
        ds = planted_dataset(n=30, seeds=8)
        records, _ = run_combined(
            make_spec(method="combined", iters=2, proc_inner=1, seeds=8), ds
        )
        assert [r["iteration"] for r in records] == [1, 2]
        for record in records:
            names = [c["component"] for c in record["components"]]
            assert names == ["proc", "sgm"]  # default start is iterproc
            assert record["forward_p1"] == record["components"][-1]["forward_p1"]

    def test_pull_component_fresh_run_when_never_executed(self):
        ds = planted_dataset(n=30, seeds=8)
        _, hyps = run_combined(
            make_spec(method="combined", iters=1, proc_inner=0,
                      start="sgm", pull="proc", seeds=8), ds,
        )
        # proc never ran inside the cycle; the pull still produces
        # Euclidean-style top-k lists
        assert all(len(r) == 5 for r in hyps.entries.values())


class TestBehavioralContrast:
    def test_graph_engine_leads_on_hard_instances_and_iteration_recovers(self):
        # On a noisy instance the two engines genuinely disagree: the graph
        # matcher stays exact while one-shot Euclidean extraction drops
        # points, and iterating the Euclidean engine wins most of them back.
        ds = planted_dataset(n=120, d=12, noise=0.55, seed=40, seeds=30)
        single_pro = evaluation.p_at_1(
            run_single(make_spec(method="procrustes", seeds=30), ds)[0],
            ds.gold_test,
        )
        single_sgm = evaluation.p_at_1(
            run_single(make_spec(method="sgm", seeds=30), ds)[0], ds.gold_test
        )
        records, _ = iterate(
            make_spec(method="iterproc", seeds=30, iters=4), "proc", ds
        )
        assert single_sgm > single_pro
        assert records[-1]["forward_p1"] >= single_pro + 2.0


class TestRunDispatch:
    def test_run_validates_spec(self):
        with pytest.raises(ValueError, match="method"):
            run(make_spec(method="nonsense"), planted_dataset(n=20, seeds=5))

    def test_top_n_rejected_for_graph_methods(self):
        for method in ("sgm", "softsgm", "itersgm", "combined"):
            spec = make_spec(method=method, vocab_mode="top_n")
            assert any("top_n" in p for p in spec.validate())

    def test_run_returns_consistent_result(self):
        ds = planted_dataset(n=30, seeds=8)
        result = run(make_spec(method="sgm", seeds=8), ds)
        assert result.metrics.p_at_1 == evaluation.p_at_1(
            result.hypotheses, ds.gold_test
        )
        assert result.matching is not None
        assert result.iterations[0]["iteration"] == 1
        assert set(result.timings) == {"prepare_s", "solve_s"}

    def test_run_deterministic_in_memory(self):
        ds = planted_dataset(n=30, seeds=8, noise=0.2)
        first = run(make_spec(method="itersgm", iters=2, seeds=8, rng_seed=9), ds)
        second = run(make_spec(method="itersgm", iters=2, seeds=8, rng_seed=9), ds)
        assert first.hypotheses.entries == second.hypotheses.entries
        assert first.metrics == second.metrics

    def test_top_n_mode_searches_full_vocabulary(self):
        # Extra target words outside the dictionary become candidates.
        src, tgt, lexicon = make_planted(n=20, d=6, seed=11)
        ds_full = build_dataset(src, tgt, lexicon, 5)
        trimmed = Lexicon(lexicon.pairs[:12])  # words 12.. exist only in vocab
        ds_trim = build_dataset(src, tgt, trimmed, 5)
        spec = make_spec(method="procrustes", seeds=5, vocab_mode="top_n")
        hyps, _ = run_single(spec, ds_trim)
        candidates = {t for r in hyps.entries.values() for t, _ in r}
        assert candidates - set(ds_trim.tgt_words)  # non-dictionary words reachable
        assert len(hyps.entries) == len(src.vocab)  # every loaded word is mapped
        assert len(ds_full.tgt_words) == 20  # the restricted layout, whatever the mode
        assert len(ds_trim.tgt_words) == 12

    @pytest.mark.parametrize("method", ["procrustes", "iterproc"])
    def test_top_n_spec_maps_every_loaded_word(self, method):
        # The spec alone chooses the vocabulary: a top_n spec run on a
        # dataset from build_dataset searches and maps every loaded word.
        src, tgt, lexicon = make_planted(n=80, d=6, seed=12)
        ds = build_dataset(src, tgt, Lexicon(lexicon.pairs[:40]), 10)
        spec = make_spec(method=method, seeds=10, iters=2, vocab_mode="top_n")
        result = run(spec, ds)
        assert len(ds.src_words) == 40
        assert len(result.hypotheses.entries) == len(src.vocab) == 80
