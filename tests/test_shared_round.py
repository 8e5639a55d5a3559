"""When a Procrustes round scores once.

The reverse hypotheses come from the columns of the forward scores only
where ``W^T`` solves the reverse problem: both directions hold the same
seed pairs and ``X^T Y`` has rank d. Elsewhere the round keeps the fresh
reverse solve of ``reference_pipelines``.
"""

import pytest

import reference_pipelines as reference
from bilex import build_dataset, iterate, pipelines
from conftest import make_planted, make_spec

D = 20  # embedding dimension; the planted vocabulary has 80 words


def dataset(seeds, noise=0.3, seed=4):
    src, tgt, lexicon = make_planted(n=80, d=D, noise=noise, seed=seed)
    return build_dataset(src, tgt, lexicon, seeds)


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
def test_fewer_seeds_than_dimensions_keeps_the_fresh_reverse(vocab_mode, calls):
    # With 10 seeds in d = 20 the map is not unique, and W^T changes the
    # reverse top-1 of about 40 of the 70 free words on this data.
    spec = make_spec(method="iterproc", seeds=10, iters=3, vocab_mode=vocab_mode)
    ds = dataset(10)
    log, want_log = [], []
    records, hyps = iterate(spec, ds, seed_log=log)
    want_records, want_hyps = reference.iterate(spec, "proc", ds, seed_log=want_log)
    assert records == want_records
    assert log == want_log
    assert dump(hyps) == dump(want_hyps)
    # Round 1 solved twice; the later rounds, past d seeds, once each.
    assert len(log[1][0]) >= D
    assert calls == {"solve_procrustes": 4, "extract_hypotheses": 4}


@pytest.mark.parametrize("vocab_mode", ["restricted", "top_n"])
@pytest.mark.parametrize("seeds", [D, D + 1, 2 * D])
def test_shared_reverse_equals_independent_solve(seeds, vocab_mode, calls):
    spec = make_spec(method="iterproc", seeds=seeds, vocab_mode=vocab_mode)
    ds = dataset(seeds, noise=0.5)
    gold = list(ds.gold_seeds.pairs)
    forward, reverse, inter = pipelines._round(ds, spec, "proc", gold, gold, (3, 0, 1))
    assert calls == {"solve_procrustes": 1, "extract_hypotheses": 1}
    want_forward = reference._proc_run(ds, spec, gold, reverse=False)
    want_reverse = reference._proc_run(ds, spec, gold, reverse=True)
    assert dump(forward) == dump(want_forward)
    assert reverse.top1() == want_reverse.top1()
    assert inter == pipelines.intersect_hypotheses(want_forward.top1(), want_reverse.top1())
    assert list(reverse.entries) == list(want_reverse.entries)
    for word, ranked in want_reverse.entries.items():
        assert [t for t, _ in reverse.entries[word]] == [t for t, _ in ranked]
        got = [score for _, score in reverse.entries[word]]
        assert got == pytest.approx([score for _, score in ranked], rel=0, abs=1e-14)


def test_add_all_round_with_unique_map_scores_once(calls):
    gold = list(dataset(30).gold_seeds.pairs)
    pipelines._round(dataset(30), make_spec(seeds=30), "proc", gold, gold, (3, 0, 1))
    assert calls == {"solve_procrustes": 1, "extract_hypotheses": 1}


def test_round_with_fewer_seeds_than_dimensions_scores_twice(calls):
    gold = list(dataset(10).gold_seeds.pairs)
    pipelines._round(dataset(10), make_spec(seeds=10), "proc", gold, gold, (3, 0, 1))
    assert calls == {"solve_procrustes": 2, "extract_hypotheses": 2}


def test_stochastic_rounds_with_different_samples_score_twice(calls):
    spec = make_spec(method="iterproc", strategy="stochastic", seeds=30, iters=3, h=4)
    log = []
    iterate(spec, dataset(30, noise=0.5), seed_log=log)
    per_round = [1 if set(fwd) == set(rev) else 2 for fwd, rev in log]
    assert per_round[0] == 1 and 2 in per_round  # gold alone, then two samples
    assert calls == {"solve_procrustes": sum(per_round), "extract_hypotheses": sum(per_round)}
