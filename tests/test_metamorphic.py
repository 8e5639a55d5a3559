"""Metamorphic relations of whole runs: changes to the input whose effect
on the output follows from the mathematics, so that checking them needs
no earlier copy of the code (ROADMAP item 26).

1. An orthogonal rotation of either language's vectors leaves the Gram
   graphs unchanged, and the Procrustes map absorbs it, so every method
   gives the same rankings and records, and scores within 1e-12.
3. Swapping the languages (the two embedding sets and the dictionary's
   columns) inverts an ``sgm`` matching whose every LAP had a unique
   optimum (see ``graph_matching.sgm``).

Relations 2 (row order of a ``.vec`` file) and 4 (consistent renaming)
are not checked here.
"""

import numpy as np
import pytest

from bilex import EmbeddingMatrix, Lexicon, build_dataset, graph_matching, pipelines, run
from conftest import make_planted, make_spec

N, D, SEEDS, NOISE = 120, 12, 20, 0.8

# One spec per pipeline and engine; the iterative ones cover every strategy.
SPECS = {
    "procrustes": {},
    "sgm": {},
    "softsgm": {"soft_runs": 3},
    "iterproc": {"iters": 3},
    "iterproc-stochastic": {"method": "iterproc", "strategy": "stochastic", "iters": 2, "h": 5},
    "itersgm-active": {"method": "itersgm", "strategy": "active", "iters": 3},
    "combined": {"iters": 2, "proc_inner": 2},
}


def spec_of(name, **options):
    return make_spec(**{"method": name, "seeds": SEEDS, **SPECS[name], **options})


def rotated(emb: EmbeddingMatrix, seed: int) -> EmbeddingMatrix:
    """``emb`` with its rows turned by a random orthogonal matrix."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(emb.dim, emb.dim)))
    return EmbeddingMatrix(emb.vocab, emb.vectors @ q)


def assert_same_run(got, want):
    assert got.iterations == want.iterations
    assert got.metrics == want.metrics
    assert list(got.hypotheses.entries) == list(want.hypotheses.entries)
    for src, ranked in want.hypotheses.entries.items():
        other = got.hypotheses.entries[src]
        assert [tgt for tgt, _ in other] == [tgt for tgt, _ in ranked]
        np.testing.assert_allclose(
            [score for _, score in other], [score for _, score in ranked], rtol=0, atol=1e-12
        )


@pytest.fixture(scope="module")
def corpus():
    return make_planted(n=N, d=D, noise=NOISE, seed=3)


@pytest.mark.parametrize("name", list(SPECS))
def test_rotating_either_language_changes_no_ranking(corpus, name):
    src, tgt, lexicon = corpus
    spec = spec_of(name)
    want = run(spec, build_dataset(src, tgt, lexicon, SEEDS))
    assert 0.0 < want.metrics.p_at_1 < 100.0  # neither trivial nor hopeless
    for turned in (
        (rotated(src, 1), tgt),
        (src, rotated(tgt, 2)),
        (rotated(src, 3), rotated(tgt, 4)),
    ):
        assert_same_run(run(spec, build_dataset(*turned, lexicon, SEEDS)), want)


@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_swapping_the_languages_inverts_a_unique_sgm_matching(corpus, monkeypatch, rng_seed):
    src, tgt, lexicon = corpus
    matchings = []

    def recorded(*args, **kwargs):
        matchings.append(graph_matching.sgm(*args, **kwargs))
        return matchings[-1]

    monkeypatch.setattr(pipelines, "sgm", recorded)
    spec = spec_of("sgm", rng_seed=rng_seed)
    forward = run(spec, build_dataset(src, tgt, lexicon, SEEDS))
    swapped = Lexicon(tuple((b, a) for a, b in lexicon.pairs))
    backward = run(spec, build_dataset(tgt, src, swapped, SEEDS))
    assert [m.unique for m in matchings] == [True, True]
    top1 = {a: ranked[0][0] for a, ranked in forward.hypotheses.entries.items()}
    assert {b: ranked[0][0] for b, ranked in backward.hypotheses.entries.items()} == {
        b: a for a, b in top1.items()
    }
    # The matching is far from the gold one, so its inverse says something.
    assert 30.0 < forward.metrics.p_at_1 < 90.0
