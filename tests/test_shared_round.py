"""When a round solves once.

A Procrustes round takes its reverse top-1 from the columns of the
forward scores wherever both directions hold the same seed pairs:
``W^T`` is the reverse problem's map at every rank of ``X^T Y``. A graph
round takes the inverse of the forward matching only where both
directions hold the same seed pairs and every LAP of the forward solve
had a unique optimum. Elsewhere the round keeps the fresh reverse solve
of ``reference_pipelines``.
"""

import numpy as np
import pytest

import reference_pipelines as reference
from bilex import EmbeddingMatrix, Lexicon, build_dataset, graph_matching, pipelines, run
from conftest import make_planted, make_spec

D = 20  # embedding dimension; the planted vocabulary has 80 words


def dataset(seeds, noise=0.3, seed=4):
    src, tgt, lexicon = make_planted(n=80, d=D, noise=noise, seed=seed)
    return build_dataset(src, tgt, lexicon, seeds)


def rows(ds, spec):
    """The (source rows, target rows) a run of ``spec`` works on."""
    return pipelines._index_space(ds, spec)[0]


def words(ds, spec, result, direction=pipelines._FORWARD):
    """An engine result as the word-keyed hypotheses it stands for."""
    _, src, tgt, _ = pipelines._index_space(ds, spec)
    if direction == pipelines._REVERSE:
        src, tgt = tgt, src
    return pipelines._hypotheses(src, tgt, result)


def word_pairs(ds, spec, pairs) -> list:
    _, src, tgt, _ = pipelines._index_space(ds, spec)
    return [(src[a], tgt[b]) for a, b in pairs.tolist()]


def gold_seeds(ds, spec):
    """The gold seeds as the pipeline's index pairs, seeds first."""
    return pipelines._index_space(ds, spec)[3][: len(ds.gold_seeds)]


def dump(hyps) -> str:
    return "".join(
        f"{src}\t{tgt}\t{rank}\t{score!r}\n"
        for src, ranked in hyps.entries.items()
        for rank, (tgt, score) in enumerate(ranked, start=1)
    )


@pytest.fixture
def calls(monkeypatch):
    """Calls made through the names the pipeline looks up."""
    counts = {"solve_procrustes": 0, "extract_hypotheses": 0}
    for name in counts:
        original = getattr(pipelines, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipelines, name, counted)
    return counts


@pytest.mark.parametrize("vocab_mode", ["restricted", "top_n"])
def test_fewer_seeds_than_dimensions_share_the_reverse(vocab_mode, calls, seed_log):
    # With 10 seeds in d = 20 the seed-span map has rank 10, and its
    # transpose is the reverse problem's map all the same.
    spec = make_spec(method="iterproc", seeds=10, iters=3, vocab_mode=vocab_mode)
    ds = dataset(10)
    want_log = []
    result = run(spec, ds)
    want_records, want_hyps = reference.iterate(spec, "proc", ds, seed_log=want_log)
    assert result.iterations == want_records
    assert seed_log == want_log
    assert dump(result.hypotheses) == dump(want_hyps)
    # Every round solved once, below d seeds (round 1) as past them.
    assert len(seed_log[0][0]) < D <= len(seed_log[1][0])
    assert calls == {"solve_procrustes": 3, "extract_hypotheses": 3}


@pytest.mark.parametrize("vocab_mode", ["restricted", "top_n"])
@pytest.mark.parametrize("seeds", [D // 2, D, D + 1, 2 * D])
def test_shared_reverse_equals_independent_solve(seeds, vocab_mode, calls):
    spec = make_spec(method="iterproc", seeds=seeds, vocab_mode=vocab_mode)
    ds = dataset(seeds, noise=0.5)
    gold, index_seeds = list(ds.gold_seeds.pairs), gold_seeds(ds, spec)
    forward, reverse, inter = pipelines._round(
        rows(ds, spec), spec, "proc", index_seeds, index_seeds, (3, 0, 1)
    )
    assert calls == {"solve_procrustes": 1, "extract_hypotheses": 1}
    assert reverse[1].index.shape == reverse[1].score.shape == (len(reverse[0]), 1)
    forward = words(ds, spec, forward)
    reverse = words(ds, spec, reverse, pipelines._REVERSE)
    want_forward = reference._proc_run(ds, spec, gold, reverse=False)
    want_reverse = reference._proc_run(ds, spec, gold, reverse=True)
    assert dump(forward) == dump(want_forward)
    assert reverse.top1() == want_reverse.top1()
    assert word_pairs(ds, spec, inter) == reference.intersect_hypotheses(
        want_forward.top1(), want_reverse.top1()
    )
    assert list(reverse.entries) == list(want_reverse.entries)
    for word, ranked in want_reverse.entries.items():
        ((target, score),) = reverse.entries[word]
        assert target == ranked[0][0]
        assert score == pytest.approx(ranked[0][1], rel=0, abs=1e-14)


def test_add_all_round_with_unique_map_scores_once(calls):
    spec = make_spec(seeds=30)
    ds = dataset(30)
    gold = gold_seeds(ds, spec)
    pipelines._round(rows(ds, spec), spec, "proc", gold, gold, (3, 0, 1))
    assert calls == {"solve_procrustes": 1, "extract_hypotheses": 1}


def test_round_with_fewer_seeds_than_dimensions_scores_once(calls):
    spec = make_spec(seeds=10)
    ds = dataset(10)
    gold = gold_seeds(ds, spec)
    pipelines._round(rows(ds, spec), spec, "proc", gold, gold, (3, 0, 1))
    assert calls == {"solve_procrustes": 1, "extract_hypotheses": 1}


def test_stochastic_rounds_with_different_samples_score_twice(calls, seed_log):
    spec = make_spec(method="iterproc", strategy="stochastic", seeds=30, iters=3, h=4)
    run(spec, dataset(30, noise=0.5))
    per_round = [1 if set(fwd) == set(rev) else 2 for fwd, rev in seed_log]
    assert per_round[0] == 1 and 2 in per_round  # gold alone, then two samples
    assert calls == {"solve_procrustes": sum(per_round), "extract_hypotheses": sum(per_round)}


# Graph rounds. Planted data at this noise keeps Active's and the combined
# cycle's seed sets short of the vocabulary for several rounds.
SGM_SEEDS, SGM_NOISE = 20, 1.2
KEY = (pipelines._RNG_ITER, 1, 1)


@pytest.fixture
def solves(monkeypatch):
    """The matchings returned through ``pipelines.sgm``, in call order."""
    got = []
    original = pipelines.sgm

    def recorded(*args, **kwargs):
        got.append(original(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(pipelines, "sgm", recorded)
    return got


def fresh_sgm(ds, spec, seeds, direction, key=KEY):
    """The reference's own solve of one direction, on its own substream."""
    rng = pipelines._rng(spec.rng_seed, *key, direction)
    return reference._sgm_run(ds, spec, seeds, rng, reverse=direction == pipelines._REVERSE)[0]


def tie_heavy(seed):
    """12 words with 0/1 rows in d = 3 and 3 seeds: LAPs with many optima."""
    rng = np.random.default_rng(seed)
    src, tgt = (
        EmbeddingMatrix(tuple(f"{side}{i:02d}" for i in range(12)), rng.integers(0, 2, (12, 3)))
        for side in "st"
    )
    return build_dataset(src, tgt, Lexicon(tuple((f"s{i:02d}", f"t{i:02d}") for i in range(12))), 3)


@pytest.mark.parametrize("seed_order", ["frequency", "shuffled"])
def test_shared_sgm_reverse_equals_independent_solve(seed_order, solves):
    # A shuffled seed list stands for Active's union order; the reverse keys
    # must follow the reverse solve's vertex order all the same.
    spec = make_spec(method="itersgm", seeds=SGM_SEEDS)
    ds = dataset(SGM_SEEDS, noise=SGM_NOISE)
    seeds = gold_seeds(ds, spec)
    if seed_order == "shuffled":
        seeds = seeds[np.random.default_rng(0).permutation(len(seeds))]
    forward, reverse, inter = pipelines._round(rows(ds, spec), spec, "sgm", seeds, seeds, KEY)
    assert len(solves) == 1 and solves[0].unique
    seed_words = word_pairs(ds, spec, seeds)
    want_forward = fresh_sgm(ds, spec, seed_words, pipelines._FORWARD)
    want_reverse = fresh_sgm(ds, spec, seed_words, pipelines._REVERSE)
    assert dump(words(ds, spec, forward)) == dump(want_forward)
    assert dump(words(ds, spec, reverse, pipelines._REVERSE)) == dump(want_reverse)
    assert word_pairs(ds, spec, inter) == reference.intersect_hypotheses(
        want_forward.top1(), want_reverse.top1()
    )


@pytest.mark.parametrize("strategy,per_round", [("add_all", [1, 0, 0]), ("active", [1, 1, 1])])
def test_sgm_rounds_with_shared_seeds_solve_once(strategy, per_round, solves, seed_log):
    # A bijection meets its inverse everywhere, so Add-All's second seed
    # set is the whole vocabulary and its later rounds solve nothing.
    spec = make_spec(method="itersgm", strategy=strategy, seeds=SGM_SEEDS, iters=3)
    ds = dataset(SGM_SEEDS, noise=SGM_NOISE)
    want_log = []
    result = run(spec, ds)
    want_records, want_hyps = reference.iterate(spec, "sgm", ds, seed_log=want_log)
    assert result.iterations == want_records
    assert seed_log == want_log
    assert dump(result.hypotheses) == dump(want_hyps)
    n = len(ds.gold_seeds) + len(ds.gold_test)
    assert [int(len(fwd) < n) for fwd, _ in seed_log] == per_round
    assert len(solves) == sum(per_round)
    assert all(matching.unique for matching in solves)


def test_combined_sgm_rounds_solve_once(solves):
    spec = make_spec(method="combined", seeds=SGM_SEEDS, iters=2, proc_inner=1)
    ds = dataset(SGM_SEEDS, noise=SGM_NOISE)
    result = run(spec, ds)
    records, hyps = result.iterations, result.hypotheses
    want_records, want_hyps = reference.run_combined(spec, ds)
    assert records == want_records
    assert dump(hyps) == dump(want_hyps)
    # The SGM component of each cycle starts from the Procrustes seeds.
    components = [c for record in records for c in record["components"]]
    entering = [c["seeds_after"] for c in components if c["component"] == "proc"]
    n = len(ds.gold_seeds) + len(ds.gold_test)
    assert len(solves) == sum(size < n for size in entering) > 0
    assert all(matching.unique for matching in solves)
    # A unique matching meets its inverse everywhere, so every SGM
    # component saturates the seed set.
    assert all(
        c["intersection_size"] == c["seeds_after"] == n
        for c in components
        if c["component"] == "sgm"
    )


def test_tie_heavy_sgm_round_keeps_the_fresh_reverse(solves):
    spec = make_spec(method="itersgm", seeds=3)
    inverse_differs = 0
    for seed in range(4):
        ds = tie_heavy(seed)
        gold = list(ds.gold_seeds.pairs)
        solves.clear()
        seeds = gold_seeds(ds, spec)
        forward, reverse, _ = pipelines._round(rows(ds, spec), spec, "sgm", seeds, seeds, KEY)
        forward = words(ds, spec, forward)
        reverse = words(ds, spec, reverse, pipelines._REVERSE)
        assert len(solves) == 2 and not solves[0].unique
        assert dump(forward) == dump(fresh_sgm(ds, spec, gold, pipelines._FORWARD))
        assert dump(reverse) == dump(fresh_sgm(ds, spec, gold, pipelines._REVERSE))
        inverse = {tgt: src for src, tgt in forward.top1().items()}
        inverse_differs += reverse.top1() != inverse
    assert inverse_differs  # taking the inverse here would change results


def test_stochastic_sgm_rounds_with_different_samples_solve_twice(solves, seed_log):
    spec = make_spec(method="itersgm", strategy="stochastic", seeds=SGM_SEEDS, iters=3, h=4)
    ds = dataset(SGM_SEEDS, noise=SGM_NOISE)
    want_log = []
    result = run(spec, ds)
    want_records, want_hyps = reference.iterate(spec, "sgm", ds, seed_log=want_log)
    assert result.iterations == want_records
    assert seed_log == want_log
    assert dump(result.hypotheses) == dump(want_hyps)
    # A direction whose seeds cover the vocabulary solves nothing.
    n = len(ds.gold_seeds) + len(ds.gold_test)
    per_round = [
        int(len(fwd) < n) if set(fwd) == set(rev) else (len(fwd) < n) + (len(rev) < n)
        for fwd, rev in seed_log
    ]
    assert per_round[0] == 1 and 2 in per_round
    assert len(solves) == sum(per_round)
    assert all(matching.unique for matching in solves)


def test_saturated_sgm_round_solves_nothing_and_returns_the_reverse(solves):
    spec = make_spec(method="itersgm", seeds=10)
    ds = dataset(10)
    n = len(ds.gold_seeds) + len(ds.gold_test)
    seeds = pipelines._index_space(ds, spec)[3][np.random.default_rng(1).permutation(n)]
    forward, reverse, inter = pipelines._round(rows(ds, spec), spec, "sgm", seeds, seeds, KEY)
    assert solves == []
    pairs = word_pairs(ds, spec, seeds)
    assert dump(words(ds, spec, forward)) == dump(fresh_sgm(ds, spec, pairs, pipelines._FORWARD))
    assert dump(words(ds, spec, reverse, pipelines._REVERSE)) == dump(
        fresh_sgm(ds, spec, pairs, pipelines._REVERSE)
    )
    assert len(inter) == n


@pytest.mark.parametrize(
    "method, strategy",
    [("sgm", "add_all"), ("softsgm", "add_all"), ("itersgm", "add_all"),
     ("itersgm", "stochastic"), ("itersgm", "active"), ("combined", "add_all")],
)
def test_no_graph_solve_has_fewer_seeds_than_the_gold_seeds(method, strategy, monkeypatch):
    # No graph solve has more free vertices than the run has test pairs,
    # so each solve's working-set check in ``sgm`` passes whenever one at
    # the test-pair count would. Tie-heavy graphs keep Add-All's later
    # rounds solving; the combined cycle's Procrustes component needs the
    # unit rows they lack.
    seed_counts = []
    original = graph_matching.sgm

    def recorded(*args, **kwargs):
        matching = original(*args, **kwargs)
        seed_counts.append(matching.seed_count)
        return matching

    monkeypatch.setattr(graph_matching, "sgm", recorded)  # soft_sgm's restarts
    monkeypatch.setattr(pipelines, "sgm", recorded)
    datasets = [dataset(SGM_SEEDS, noise=SGM_NOISE)]
    if method != "combined":
        datasets += [tie_heavy(seed) for seed in range(4)]
    later = 0
    for ds in datasets:
        seed_counts.clear()
        spec = make_spec(method=method, strategy=strategy, seeds=len(ds.gold_seeds), iters=3,
                         h=4, soft_runs=2, proc_inner=1)
        run(spec, ds)
        assert seed_counts and min(seed_counts) >= len(ds.gold_seeds)
        later += len(seed_counts) > 2
    assert later or method in ("sgm", "softsgm")  # a later round solved


@pytest.mark.parametrize("method", ["procrustes", "sgm"])
def test_forward_only_runs_solve_each_direction_once(method, monkeypatch):
    directions = []
    original = pipelines._engine_run

    def recorded(rows, spec, engine, seeds, direction, key):
        directions.append(direction)
        return original(rows, spec, engine, seeds, direction, key)

    monkeypatch.setattr(pipelines, "_engine_run", recorded)
    spec = make_spec(method=method, seeds=30)
    ds = dataset(30)
    run(spec, ds)
    assert directions == [pipelines._FORWARD]
    # A round whose directions hold different seeds solves the reverse afresh,
    # even when the forward solution is unique.
    gold = gold_seeds(ds, spec)
    engine = pipelines.METHODS[method][1]
    _, reverse = original(rows(ds, spec), spec, engine, gold, pipelines._FORWARD, KEY)
    assert reverse is not None
    _, got, _ = pipelines._round(rows(ds, spec), spec, engine, gold, gold[1:], KEY)
    assert directions == [pipelines._FORWARD, pipelines._FORWARD, pipelines._REVERSE]
    want = original(rows(ds, spec), spec, engine, gold[1:], pipelines._REVERSE, KEY)[0]
    assert dump(words(ds, spec, got, pipelines._REVERSE)) == dump(
        words(ds, spec, want, pipelines._REVERSE)
    )
