"""Experiment orchestration: single runs, iteration strategies, combination."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import reference_pipelines as reference
from bilex import (
    EmbeddingMatrix,
    HypothesisSet,
    Lexicon,
    TopK,
    build_dataset,
    evaluation,
    graph_matching,
    normalize,
    pipelines,
    run,
)
from bilex.pipelines import _admit, _intersect, _member, _union
from conftest import make_planted, make_spec


def planted_dataset(n=60, d=10, noise=0.0, seed=0, seeds=15):
    src, tgt, lexicon = make_planted(n=n, d=d, noise=noise, seed=seed)
    return build_dataset(src, tgt, lexicon, seeds)


def pipelines_reached(method, monkeypatch):
    """The private pipelines that ``run`` calls for ``method``, in call order.

    The pipelines do not check the method they are given, and a stray one
    runs another flow (softsgm's engine None would make ``_iterate`` solve
    graphs): ``run``'s dispatch by ``METHODS`` is what keeps it out.
    """
    reached = []
    for name in ("_single", "_iterate", "_combined"):

        def recorded(spec, ds, _name=name, _original=getattr(pipelines, name)):
            reached.append(_name)
            return _original(spec, ds)

        monkeypatch.setattr(pipelines, name, recorded)
    spec = make_spec(method=method, seeds=5, iters=1, proc_inner=1, soft_runs=2)
    run(spec, planted_dataset(n=20, seeds=5))
    return reached


def test_readme_example_prints_100(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"A minimal in-memory experiment:\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(example.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "100.0\n"


def pairs(*rows):
    return np.array(rows, dtype=np.intp).reshape(-1, 2)


class TestCombiners:
    """The index-pair combiners. Words a, b, c, d, e are indices 0-4 and
    targets "1", "2", "3", "9" indices 1, 2, 3, 9: the fixtures of the
    word-level combiners they replace."""

    def test_intersect_basic(self):
        fwd = pairs((0, 1), (1, 2))
        rev = pairs((1, 0), (2, 2))
        assert _intersect(fwd, rev).tolist() == [[0, 1]]

    def test_intersect_full_inverse(self):
        fwd = pairs((0, 1), (1, 2))
        rev = pairs((1, 0), (2, 1))
        assert _intersect(fwd, rev).tolist() == [[0, 1], [1, 2]]

    def test_intersect_disjoint(self):
        assert _intersect(pairs((0, 1)), pairs((2, 0))).tolist() == []

    def test_union_mirrors_intersect_fixtures(self):
        fwd = pairs((0, 1), (1, 2))
        rev = pairs((1, 0), (2, 2))
        assert _union(fwd, rev).tolist() == [[0, 1], [1, 2], [2, 2]]
        assert _union(pairs((0, 1)), pairs((1, 0))).tolist() == [[0, 1]]
        assert _union(pairs(), pairs()).tolist() == []

    def test_oracle_judge(self):
        gold = pairs((0, 1), (1, 2))
        union = pairs((0, 1), (0, 2), (1, 2))
        assert union[_member(union, gold)].tolist() == [[0, 1], [1, 2]]
        assert _member(pairs(), gold).tolist() == []

    def test_resolve_seed_conflicts_gold_wins(self):
        gold = pairs((0, 1), (1, 2))
        extra = pairs((0, 9), (2, 2), (3, 3))
        assert _admit(gold, extra).tolist() == [[0, 1], [1, 2], [3, 3]]

    @pytest.mark.parametrize("extra", [
        # (d, 3) and (e, 3) share a target.
        ((0, 9), (2, 2), (3, 3), (4, 3)),
        # A sequential pass drops (a, 2) and then keeps (b, 2), which
        # first-occurrence masks would drop: the input must be one-to-one.
        ((0, 1), (0, 2), (1, 2)),
    ])
    def test_resolve_seed_conflicts_rejects_many_to_many(self, extra):
        with pytest.raises(AssertionError):
            _admit(pairs((0, 1), (1, 2)), pairs(*extra))
        with pytest.raises(AssertionError):
            _admit(pairs(*extra), pairs())


def words(index_pairs, src, tgt):
    return [(src[a], tgt[b]) for a, b in index_pairs.tolist()]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("engine", ["proc", "sgm"])
def test_index_combiners_match_word_level(engine, seed):
    """Random rounds through the index combiners and the word-level ones
    kept in ``reference_pipelines``: the same pairs in the same order.

    Graph rounds key the forward top-1 seeds-first, the reverse in the
    reverse solve's order, and map one-to-one; Procrustes rounds key rows
    in order and may map many-to-one, onto a candidate set of another size.
    """
    rng = np.random.default_rng(seed)
    n_src = int(rng.integers(1, 30))
    n_tgt = n_src if engine == "sgm" else int(rng.integers(1, 30))
    src = tuple(f"s{i}" for i in range(n_src))
    tgt = tuple(f"t{j}" for j in range(n_tgt))
    m = min(n_src, n_tgt)
    gold_full = np.column_stack((rng.permutation(n_src)[:m], rng.permutation(n_tgt)[:m]))
    s = int(rng.integers(0, m + 1))
    gold = gold_full[:s]
    if engine == "sgm":
        keys_f = pipelines._seed_order(n_src, gold[:, 0])
        keys_r = pipelines._seed_order(n_tgt, gold[:, 1])
        perm = rng.permutation(n_src)
        fwd = np.column_stack((keys_f, keys_r[perm]))
        # The reverse agrees with the inverse on a random share of its keys.
        inverse = dict(zip(fwd[:, 1].tolist(), fwd[:, 0].tolist()))
        agree = rng.random(n_tgt) < rng.random()
        rev = np.array([
            (t, inverse[t] if agree[i] else int(rng.integers(n_src)))
            for i, t in enumerate(keys_r.tolist())
        ], dtype=np.intp).reshape(-1, 2)
    else:
        fwd = np.column_stack((np.arange(n_src), rng.integers(0, n_tgt, n_src)))
        rev = np.column_stack((np.arange(n_tgt), rng.integers(0, n_src, n_tgt)))
        hit = rng.random(n_tgt) < rng.random()
        owner = {t: x for x, t in fwd.tolist()}
        for t in np.flatnonzero(hit):
            rev[t, 1] = owner.get(int(t), rev[t, 1])
    fwd_top1 = dict(words(fwd, src, tgt))
    rev_top1 = dict(words(rev, tgt, src))
    lexicon = Lexicon(tuple(words(gold_full, src, tgt)))
    want_gold = words(gold, src, tgt)

    inter = _intersect(fwd, rev)
    want_inter = reference.intersect_hypotheses(fwd_top1, rev_top1)
    assert words(inter, src, tgt) == want_inter
    union = _union(fwd, rev)
    assert words(union, src, tgt) == reference.union_hypotheses(fwd_top1, rev_top1)
    verified = union[_member(union, gold_full)]
    want_verified = reference.oracle_judge(reference.union_hypotheses(fwd_top1, rev_top1), lexicon)
    assert words(verified, src, tgt) == want_verified
    assert np.count_nonzero(_member(inter, gold_full)) == len(
        reference.oracle_judge(want_inter, lexicon)
    )
    for base in (gold, gold[:0]):
        want_base = words(base, src, tgt)
        assert words(_admit(base, inter), src, tgt) == reference.resolve_seed_conflicts(
            want_base, want_inter
        )
        assert words(_admit(base, verified), src, tgt) == reference.resolve_seed_conflicts(
            want_base, want_verified
        )
    pool = inter[~_member(inter, gold)]
    want_pool = [pair for pair in want_inter if pair not in set(want_gold)]
    assert words(pool, src, tgt) == want_pool
    take = int(rng.integers(0, len(pool) + 1))
    sample = pipelines._sample(pool, take, np.random.default_rng(seed))
    want_sample = reference._sample(want_pool, take, np.random.default_rng(seed))
    assert words(sample, src, tgt) == want_sample
    assert words(_admit(gold, sample), src, tgt) == reference.resolve_seed_conflicts(
        want_gold, want_sample
    )


@pytest.mark.parametrize("method,strategy", [
    ("procrustes", None), ("sgm", None), ("iterproc", "add_all"), ("itersgm", "active"),
    ("combined", "proc"), ("combined", "sgm"),
])
def test_word_keyed_hypotheses_built_once_per_run(method, strategy, monkeypatch):
    built = []
    original = TopK.hypotheses

    def counted(self, *args, **kwargs):
        built.append(len(self.index))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TopK, "hypotheses", counted)
    ds = planted_dataset(n=40, seeds=10, noise=0.3, seed=7)
    if method == "combined":
        spec = make_spec(method=method, seeds=10, iters=2, proc_inner=1, pull=strategy)
    elif strategy is not None:
        spec = make_spec(method=method, strategy=strategy, seeds=10, iters=3)
    else:
        spec = make_spec(method=method, seeds=10)
    result = run(spec, ds)
    assert len(result.iterations) > 1 or strategy is None
    assert built == [len(result.hypotheses)]


class TestRunSingle:
    def test_planted_recovery_both_methods(self):
        ds = planted_dataset()
        hyps_sgm = run(make_spec(method="sgm"), ds).hypotheses
        hyps_pro = run(make_spec(method="procrustes"), ds).hypotheses
        assert evaluation.p_at_1(hyps_sgm, ds.gold_test) == 100.0
        assert evaluation.p_at_1(hyps_pro, ds.gold_test) >= 95.0

    def test_single_test_word_exact_isomorphism(self):
        ds = planted_dataset(n=20, seeds=19)
        for method in ("procrustes", "sgm"):
            hyps = run(make_spec(method=method, seeds=19), ds).hypotheses
            assert evaluation.p_at_1(hyps, ds.gold_test) == 100.0

    def test_noisy_outputs_are_valid_hypothesis_sets(self):
        # HypothesisSet does not check its lists, so the engines must build
        # them ranked, repeat-free and at most five long. At this noise
        # softsgm's restarts disagree, so some of its lists are longer than one.
        ds = planted_dataset(noise=1.2, seed=3)
        for method in ("procrustes", "sgm", "softsgm", "iterproc", "itersgm", "combined"):
            spec = make_spec(method=method, soft_runs=6, iters=2, proc_inner=2)
            hyps = run(spec, ds).hypotheses
            assert isinstance(hyps, HypothesisSet)
            assert set(hyps.entries) == set(ds.gold_seeds.sources() + ds.gold_test.sources())
            for ranked in hyps.entries.values():
                targets = [tgt for tgt, _ in ranked]
                scores = [score for _, score in ranked]
                assert 1 <= len(ranked) <= 5
                assert len(set(targets)) == len(targets), method
                assert scores == sorted(scores, reverse=True), method

    def test_softsgm_probabilities(self):
        ds = planted_dataset(n=30, seeds=8)
        hyps = run(make_spec(method="softsgm", seeds=8, soft_runs=4), ds).hypotheses
        for ranked in hyps.entries.values():
            assert 1 <= len(ranked) <= 5
            for _, prob in ranked:
                assert 0.0 < prob <= 1.0
        # exact isomorphism: every run agrees, so all probabilities are 1
        assert all(r[0][1] == 1.0 for r in hyps.entries.values())

    @pytest.mark.parametrize("method", ["iterproc", "itersgm", "combined"])
    def test_rejects_methods_it_does_not_run(self, method, monkeypatch):
        assert "_single" not in pipelines_reached(method, monkeypatch)


class TestIterate:
    def test_add_all_never_degrades_on_planted(self):
        ds = planted_dataset(noise=0.05, seed=1)
        for method in ("iterproc", "itersgm"):
            result = run(make_spec(method=method, iters=4, rng_seed=1), ds)
            records, final = result.iterations, result.hypotheses
            assert len(records) == 4
            first, last = records[0]["forward_p1"], records[-1]["forward_p1"]
            assert last >= first - 2.0
            assert evaluation.p_at_1(final, ds.gold_test) == last

    def test_record_fields(self):
        ds = planted_dataset(n=30, seeds=8)
        records = run(make_spec(method="iterproc", iters=2, seeds=8), ds).iterations
        for record in records:
            assert {"iteration", "forward_p1", "intersection_size",
                    "intersection_precision", "seeds_forward",
                    "seeds_reverse", "forward_hypotheses"} <= set(record)
            # Plain Python numbers, as JSON reports and the oracle records hold.
            assert {type(value) for value in record.values()} <= {int, float}

    def test_active_learning_reaches_oracle_fixed_point(self, seed_log):
        ds = planted_dataset(n=40, seeds=10)
        for method in ("iterproc", "itersgm"):
            seed_log.clear()
            final = run(
                make_spec(method=method, strategy="active", iters=3, seeds=10), ds
            ).hypotheses
            assert evaluation.p_at_1(final, ds.gold_test) == 100.0
            # a perfect engine grows the seeds to cover every pair
            assert len(seed_log[-1][0]) == 40

    def test_stochastic_with_huge_h_matches_add_all_seed_sets(self, seed_log):
        ds = planted_dataset(n=40, seeds=10)
        for method in ("iterproc", "itersgm"):
            seed_log.clear()
            run(make_spec(method=method, strategy="stochastic", h=10_000, iters=3, seeds=10), ds)
            log_stoch = seed_log[:]
            seed_log.clear()
            run(make_spec(method=method, strategy="add_all", iters=3, seeds=10), ds)
            log_add = seed_log[:]
            assert len(log_stoch) == len(log_add)
            for (sf, sr), (af, ar) in zip(log_stoch, log_add):
                assert set(sf) == set(af)
                assert set(sr) == set(ar)

    def test_stochastic_runs_past_n_until_pool_covered(self):
        # Small H forces extra iterations beyond N before the growing
        # sample covers the intersection.
        ds = planted_dataset(n=40, seeds=10)
        records = run(
            make_spec(method="iterproc", strategy="stochastic", h=5, iters=2, seeds=10), ds
        ).iterations
        assert len(records) > 2
        assert len(records) <= 50
        # sample size for iteration t is min((t-1) * H, pool)
        assert records[1]["seeds_forward"] <= 10 + 5

    def test_stochastic_directions_sample_independently(self, seed_log):
        ds = planted_dataset(n=40, seeds=10, noise=0.05)
        run(make_spec(method="iterproc", strategy="stochastic", h=5, iters=3, seeds=10), ds)
        forward_sets = [set(f) for f, _ in seed_log[1:]]
        reverse_sets = [set(r) for _, r in seed_log[1:]]
        assert any(f != r for f, r in zip(forward_sets, reverse_sets))

    def test_every_round_seed_set_begins_with_gold(self, seed_log, monkeypatch):
        # Both engines admit their pairs after gold (``_admit``); the
        # reference adds gold for Procrustes alone, since hard graph seeds
        # make a graph round's pairs begin with gold. On the tie-heavy
        # corpus the graph solves are not unique, so their reverses are
        # fresh solves, and records, seed logs and dumps must still equal
        # the reference's.
        unique, solve = [], pipelines.sgm

        def recorded(*args, **kwargs):
            matching = solve(*args, **kwargs)
            unique.append(matching.unique)
            return matching

        monkeypatch.setattr(pipelines, "sgm", recorded)
        iterative = [
            {"method": method, "strategy": strategy}
            for method in ("iterproc", "itersgm")
            for strategy in ("add_all", "stochastic", "active")
        ]
        combined = [{"method": "combined", "start": start} for start in ("iterproc", "sgm")]
        planted = planted_dataset(n=40, seeds=10, noise=0.3, seed=5)
        tied = tied_dataset(1, n=60)
        graph = [case for case in iterative if case["method"] == "itersgm"] + combined
        for ds, cases in ((planted, iterative + combined), (tied, graph)):
            gold = list(ds.gold_seeds.pairs)
            for case in cases:
                spec = make_spec(iters=3, seeds=10, h=5, proc_inner=1, **case)
                seed_log.clear()
                result = run(spec, ds)
                assert len(seed_log) >= 3
                for fwd_seeds, rev_seeds in seed_log:
                    assert fwd_seeds[: len(gold)] == gold
                    assert rev_seeds[: len(gold)] == gold
                if ds is not tied:
                    continue
                want_log = []
                if case["method"] == "itersgm":
                    want = reference.iterate(spec, "sgm", ds, seed_log=want_log)
                    assert seed_log == want_log
                else:
                    want = reference.run_combined(spec, ds)
                assert result.iterations == want[0]
                assert list(result.hypotheses.entries.items()) == list(want[1].entries.items())
        assert not all(unique)

    def test_sgm_seed_sets_always_one_to_one(self, seed_log):
        ds = planted_dataset(n=40, seeds=10, noise=0.3, seed=6)
        run(make_spec(method="itersgm", iters=3, seeds=10), ds)
        for fwd_seeds, _ in seed_log:
            srcs = [s for s, _ in fwd_seeds]
            tgts = [t for _, t in fwd_seeds]
            assert len(set(srcs)) == len(srcs)
            assert len(set(tgts)) == len(tgts)

    def test_only_an_uncovered_stochastic_run_stops_at_max_iterations(self, monkeypatch):
        monkeypatch.setattr(pipelines, "MAX_ITERATIONS", 3)
        ds = planted_dataset(n=40, seeds=10)
        for method in ("iterproc", "itersgm"):
            for strategy in ("add_all", "active"):
                spec = make_spec(method=method, strategy=strategy, iters=5, seeds=10)
                assert [r["iteration"] for r in run(spec, ds).iterations] == [1, 2, 3, 4, 5]
        spec = make_spec(method="iterproc", strategy="stochastic", h=1, iters=1, seeds=10)
        records = run(spec, ds).iterations
        assert len(records) == 3
        # 10 gold and a sample of 2 leave most of the intersection unsampled
        assert records[-1]["seeds_forward"] == 12 < records[-1]["intersection_size"] - 10

    @pytest.mark.parametrize("method", ["procrustes", "softsgm", "combined"])
    def test_rejects_methods_it_does_not_run(self, method, monkeypatch):
        assert "_iterate" not in pipelines_reached(method, monkeypatch)


class TestRunCombined:
    @pytest.mark.parametrize("method", ["procrustes", "itersgm"])
    def test_rejects_methods_it_does_not_run(self, method, monkeypatch):
        assert "_combined" not in pipelines_reached(method, monkeypatch)

    def test_beats_or_matches_singles_on_planted(self):
        ds = planted_dataset(noise=0.05, seed=2)
        single_best = max(
            run(make_spec(method=m), ds).metrics.p_at_1 for m in ("procrustes", "sgm")
        )
        result = run(make_spec(method="combined", iters=3, proc_inner=2), ds)
        assert evaluation.p_at_1(result.hypotheses, ds.gold_test) >= single_best - 2.0
        assert len(result.iterations) == 3

    def test_degenerate_config_reduces_to_single_sgm_pass(self):
        # One cycle from sgm pulls its first round: an SGM pass on gold alone.
        ds = planted_dataset(seed=4)
        combined = run(
            make_spec(method="combined", iters=1, proc_inner=1,
                      start="sgm", pull="sgm", rng_seed=5), ds,
        ).hypotheses
        single = run(make_spec(method="sgm", rng_seed=5), ds).hypotheses
        assert combined.top1() == single.top1()

    def test_start_variants_differ_only_marginally(self):
        ds = planted_dataset(noise=0.05, seed=8)
        scores = {}
        for start in ("iterproc", "sgm"):
            hyps = run(
                make_spec(method="combined", start=start, pull="proc",
                          iters=2, proc_inner=2), ds,
            ).hypotheses
            scores[start] = evaluation.p_at_1(hyps, ds.gold_test)
        assert abs(scores["iterproc"] - scores["sgm"]) <= 2.0

    def test_cycle_records_structure(self):
        ds = planted_dataset(n=30, seeds=8)
        records = run(
            make_spec(method="combined", iters=2, proc_inner=1, seeds=8), ds
        ).iterations
        assert [r["iteration"] for r in records] == [1, 2]
        for record in records:
            names = [c["component"] for c in record["components"]]
            assert names == ["proc", "sgm"]  # default start is iterproc
            assert record["forward_p1"] == record["components"][-1]["forward_p1"]


class TestBehavioralContrast:
    def test_graph_engine_leads_on_hard_instances_and_iteration_recovers(self):
        # On a noisy instance the two engines genuinely disagree: the graph
        # matcher stays exact while one-shot Euclidean extraction drops
        # points, and iterating the Euclidean engine wins most of them back.
        ds = planted_dataset(n=120, d=12, noise=0.55, seed=40, seeds=30)
        single_pro = evaluation.p_at_1(
            run(make_spec(method="procrustes", seeds=30), ds).hypotheses,
            ds.gold_test,
        )
        single_sgm = evaluation.p_at_1(
            run(make_spec(method="sgm", seeds=30), ds).hypotheses, ds.gold_test
        )
        records = run(make_spec(method="iterproc", seeds=30, iters=4), ds).iterations
        assert single_sgm > single_pro
        assert records[-1]["forward_p1"] >= single_pro + 2.0


def tied_dataset(seed, n=200, d=10, distinct=5, seeds=10):
    """A noise-free planted corpus whose rows repeat ``distinct`` Gaussian
    vectors, so that most LAPs of a graph solve have many optima."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(distinct, d))[rng.integers(0, distinct, size=n)]
    rho = rng.permutation(n)
    src = normalize(EmbeddingMatrix(tuple(f"s{i:03d}" for i in range(n)), rows))
    tgt = normalize(EmbeddingMatrix(tuple(f"t{k:03d}" for k in range(n)), rows[rho]))
    inverse = np.argsort(rho)
    lexicon = Lexicon(tuple((f"s{i:03d}", f"t{inverse[i]:03d}") for i in range(n)))
    return build_dataset(src, tgt, lexicon, seeds)


@pytest.mark.parametrize(
    "method, options",
    [("sgm", {}), ("itersgm", {"iters": 3}), ("softsgm", {"soft_runs": 4})],
    ids=["sgm", "itersgm", "softsgm"],
)
def test_graph_runs_get_no_hint_from_the_gold_order(method, options):
    # Restricted gold pair i is (i, i) and LAP ties break toward the
    # smaller index, so a solve that did not relabel its free vertices
    # would return the gold alignment: every run here read 100.0 that
    # way. With the relabeling they read 1.6 to 4.7, about the chance of
    # one guess in a tie class of some 40 words; 20 leaves room both ways.
    for seed in (1, 2, 3):
        spec = make_spec(method=method, seeds=10, **options)
        assert run(spec, tied_dataset(seed)).metrics.p_at_1 < 20.0


class TestRunDispatch:
    def test_spec_with_unknown_method_refuses_itself(self):
        with pytest.raises(ValueError, match="method"):
            make_spec(method="nonsense")

    def test_negative_rng_seed_rejected(self):
        with pytest.raises(ValueError, match="^rng_seed must be a non-negative integer, got -1$"):
            make_spec(rng_seed=-1)
        assert make_spec(rng_seed=0).rng_seed == 0

    def test_zero_max_words_rejected(self):
        with pytest.raises(ValueError, match="^max_words must be a positive integer, got 0$"):
            make_spec(max_words=0)
        assert make_spec(max_words=None).max_words is None

    @pytest.mark.parametrize(
        "method, bad",
        [
            ("iterproc", {"iters": 2.5}),
            ("iterproc", {"iters": True}),
            ("itersgm", {"h": 2.5}),
            ("procrustes", {"seeds": "10"}),
            ("softsgm", {"soft_runs": 4.0}),
            ("combined", {"proc_inner": False}),
            ("sgm", {"rng_seed": "3"}),
            ("procrustes", {"max_words": 1e3}),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_non_integer_in_an_integer_field_refuses_at_construction(self, method, bad):
        # iters=2.5 once ran 3 rounds of iterproc, h=2.5 failed after
        # round 1, and seeds="10" failed comparing a str with an int.
        ((name, value),) = bad.items()
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a ")) as err:
            make_spec(method=method, **bad)
        assert str(err.value).endswith(f"integer, got {value!r}")

    def test_integral_values_of_any_integer_type_are_kept(self):
        spec = make_spec(method="iterproc", iters=np.int64(2), seeds=np.intp(15))
        assert (spec.iters, spec.seeds) == (2, 15)

    def test_every_problem_is_named_in_one_error(self):
        with pytest.raises(ValueError) as err:
            make_spec(method="sgm", vocab_mode="top_n", iters=0, rng_seed=-1, h=2.5)
        problems = str(err.value).split("; ")
        assert len(problems) == 4
        assert [p.split()[0] for p in problems] == ["vocab_mode", "h", "iters", "rng_seed"]

    def test_spec_types_follow_the_field_annotations(self):
        assert pipelines.SPEC_TYPES["max_words"] is int
        assert {name for name, kind in pipelines.SPEC_TYPES.items() if kind is str} == {
            "src_emb", "tgt_emb", "dictionary", *pipelines.CHOICES
        }

    @pytest.mark.parametrize("method", list(pipelines.METHODS))
    def test_a_dataset_without_gold_seeds_is_refused_before_any_engine(self, method, monkeypatch):
        # softsgm once ran unseeded on a dataset without seeds, and the
        # other methods refused only inside an engine run. Without test
        # pairs, iterproc, itersgm and combined divided by zero, softsgm
        # refused its seed count, and procrustes and sgm refused an empty
        # test set after solving; a gold word without a row was a KeyError.
        def fail(*args, **kwargs):
            raise AssertionError("an engine ran")

        for name in ("_engine_run", "sgm", "soft_sgm", "solve_procrustes"):
            monkeypatch.setattr(pipelines, name, fail)
        ds = planted_dataset(n=20, seeds=5)
        spec = make_spec(method=method, seeds=5, iters=1, proc_inner=1, soft_runs=2)
        for bad, problem in (
            ({"gold_seeds": Lexicon(())}, "the dataset has no gold seed pairs"),
            ({"gold_test": Lexicon(())}, "the dataset has no gold test pairs"),
            ({"gold_test": Lexicon((*ds.gold_test.pairs, ("s-new", "t-new")))},
             "gold word 's-new' has no embedding row"),
        ):
            with pytest.raises(ValueError, match=f"^{problem}$") as err:
                run(spec, dataclasses.replace(ds, **bad))
            assert err.traceback[-1].name == "_index_space"

    @pytest.mark.parametrize("method", list(pipelines.METHODS))
    def test_each_method_reaches_only_its_pipeline(self, method, monkeypatch):
        assert pipelines_reached(method, monkeypatch) == ["_" + pipelines.METHODS[method][0]]

    def test_top_n_rejected_for_graph_methods(self):
        # Graph seeds index restricted rows, so no such spec can be built.
        for method in ("sgm", "softsgm", "itersgm", "combined"):
            with pytest.raises(ValueError, match="top_n"):
                make_spec(method=method, vocab_mode="top_n")
        assert make_spec(method="iterproc", vocab_mode="top_n").vocab_mode == "top_n"
        # Neither can any other refused spec, replaced fields included: a
        # bogus strategy would run a Stochastic-Add variant, a bogus pull
        # the SGM result, iters=0 one round, and proc_inner=0 a cycle
        # without a Procrustes round.
        for method, bad in (
            ("procrustes", {"strategy": "bogus"}),
            ("itersgm", {"strategy": "bogus"}),
            ("iterproc", {"iters": 0}),
            ("combined", {"pull": "bogus"}),
            ("combined", {"iters": 0}),
            ("combined", {"proc_inner": 0}),
        ):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be "):
                dataclasses.replace(make_spec(method=method, seeds=5), **bad)

    def test_run_returns_consistent_result(self):
        ds = planted_dataset(n=30, seeds=8)
        result = run(make_spec(method="sgm", seeds=8), ds)
        assert result.metrics.p_at_1 == evaluation.p_at_1(
            result.hypotheses, ds.gold_test
        )
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
        hyps = run(spec, ds_trim).hypotheses
        candidates = {t for r in hyps.entries.values() for t, _ in r}
        # non-dictionary words reachable
        assert candidates - set(ds_trim.gold_seeds.targets() + ds_trim.gold_test.targets())
        assert len(hyps.entries) == len(src.vocab)  # every loaded word is mapped
        # the restricted layout, whatever the mode
        assert len(ds_full.gold_seeds.targets() + ds_full.gold_test.targets()) == 20
        assert len(ds_trim.gold_seeds.targets() + ds_trim.gold_test.targets()) == 12

    def test_restricted_words_are_the_gold_words_seeds_first(self):
        # The dictionary lists its pairs out of vocabulary order on both sides.
        src, tgt, lexicon = make_planted(n=30, d=6, seed=13)
        order = np.random.default_rng(0).permutation(30)
        listed = Lexicon(tuple(lexicon.pairs[i] for i in order))
        ds = build_dataset(src, tgt, listed, 8)
        (x, y), src_words, tgt_words, gold = pipelines._index_space(ds, make_spec(seeds=8))
        assert list(zip(src_words, tgt_words)) == list(ds.gold_seeds.pairs + ds.gold_test.pairs)
        assert list(zip(src_words, tgt_words))[:8] == list(ds.gold_seeds.pairs)
        assert list(src_words) != list(src.vocab) and sorted(src_words) == list(src.vocab)
        np.testing.assert_array_equal(x, src.vectors[[src.index[w] for w in src_words]])
        np.testing.assert_array_equal(y, tgt.vectors[[tgt.index[w] for w in tgt_words]])
        assert gold.tolist() == [[i, i] for i in range(30)]

    @pytest.mark.parametrize("method", ["procrustes", "iterproc"])
    def test_top_n_spec_maps_every_loaded_word(self, method):
        # The spec alone chooses the vocabulary: a top_n spec run on a
        # dataset from build_dataset searches and maps every loaded word.
        src, tgt, lexicon = make_planted(n=80, d=6, seed=12)
        ds = build_dataset(src, tgt, Lexicon(lexicon.pairs[:40]), 10)
        spec = make_spec(method=method, seeds=10, iters=2, vocab_mode="top_n")
        result = run(spec, ds)
        assert len(ds.gold_seeds.sources() + ds.gold_test.sources()) == 40
        assert len(result.hypotheses.entries) == len(src.vocab) == 80


class TestWorkingSetGuard:
    """Each graph solve of a run refuses to start when its m x m float64
    arrays would not fit in physical memory (``graph_matching.sgm``). The
    memory figure is patched; nothing large is allocated."""

    @staticmethod
    def no_graph_work(patched):
        """Make any Frank-Wolfe gradient, graph LAP or random start fail."""

        def fail(*args, **kwargs):
            raise AssertionError("a graph solve started")

        patched.setattr(graph_matching._FactoredProblem, "gradient", fail)
        for name in ("_direction_lap", "_random_doubly_stochastic"):
            patched.setattr(graph_matching, name, fail)

    @pytest.mark.parametrize(
        "method, arrays", [("sgm", 1.25), ("itersgm", 1.25), ("combined", 1.25), ("softsgm", 1.25)]
    )
    def test_refused_before_any_solve_when_it_would_not_fit(self, monkeypatch, method, arrays):
        # combined starts with its graph component here; from iterproc, see below.
        ds = planted_dataset()
        spec = make_spec(method=method, iters=1, soft_runs=2, start="sgm")
        need = arrays * 8 * len(ds.gold_test) ** 2  # m = 45 free vertices
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: math.floor(need) - 1)
        with monkeypatch.context() as patched:
            self.no_graph_work(patched)
            patched.setattr(pipelines, "solve_procrustes", None)  # nor a Procrustes round
            with pytest.raises(graph_matching.WorkingSetError, match="physical memory"):
                run(spec, ds)
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: math.ceil(need))
        assert run(spec, ds).metrics.p_at_1 == 100.0

    def test_combined_from_iterproc_is_refused_at_its_first_graph_solve(self, monkeypatch):
        # Five seeds under ten dimensions: the Procrustes round leaves free
        # vertices, and the cycle's one graph solve comes after it.
        ds = planted_dataset(seeds=5)
        spec = make_spec(method="combined", seeds=5, iters=1, proc_inner=1)
        free, solve = [], pipelines.sgm

        def recorded(gx, gy, s, *args, **kwargs):
            free.append(len(gx) - s)
            return solve(gx, gy, s, *args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(graph_matching, "_physical_memory", lambda: None)
            patched.setattr(pipelines, "sgm", recorded)
            unguarded = run(spec, ds)
        assert 0 < free[0] < len(ds.gold_test)
        need = 1.25 * 8 * free[0] ** 2

        fits, fit = [], pipelines.solve_procrustes
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: math.floor(need) - 1)
        with monkeypatch.context() as patched:
            self.no_graph_work(patched)
            patched.setattr(pipelines, "solve_procrustes", lambda *a: fits.append(1) or fit(*a))
            with pytest.raises(graph_matching.WorkingSetError, match="physical memory"):
                run(spec, ds)
        assert fits == [1]
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: math.ceil(need))
        guarded = run(spec, ds)
        assert guarded.hypotheses == unguarded.hypotheses
        assert guarded.iterations == unguarded.iterations

    @pytest.mark.parametrize("method", ["procrustes", "iterproc"])
    def test_euclidean_runs_are_not_checked(self, monkeypatch, method):
        reads = []
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: reads.append(1) or 0)
        assert run(make_spec(method=method, iters=1), planted_dataset()).metrics.p_at_1 == 100.0
        assert reads == []

    def test_unknown_memory_is_not_checked(self, monkeypatch):
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: None)
        assert run(make_spec(method="sgm"), planted_dataset()).metrics.p_at_1 == 100.0

    def test_physical_memory_is_a_positive_byte_count_or_unknown(self):
        have = graph_matching._physical_memory()
        assert have is None or (isinstance(have, int) and have > 0)
