"""Metamorphic relations of whole runs: changes to the input whose effect
on the output follows from the mathematics, so that checking them needs
no earlier copy of the code (ROADMAP item 26).

1. An orthogonal rotation of either language's vectors leaves the Gram
   graphs unchanged, and the Procrustes map absorbs it, so every method
   gives the same rankings and records, and scores within 1e-12.
2. The row order of a ``.vec`` file does not reach a restricted run,
   whose rows follow the dictionary: every method gives the same
   rankings and records, a graph method the same dump byte for byte,
   and Procrustes scores within 1e-12. They are not exact because
   centering sums the rows in file order.
3. Swapping the languages (the two embedding sets and the dictionary's
   columns) inverts an ``sgm`` matching whose every LAP had a unique
   optimum (see ``graph_matching.sgm``).
4. Renaming the words consistently in both vocabularies and in the
   dictionary only renames the dump, byte for byte.
"""

import numpy as np
import pytest

from bilex import EmbeddingMatrix, Lexicon, build_dataset, graph_matching, pipelines, run
from bilex.cli import _write_hypotheses
from conftest import make_planted, make_spec, write_pairs, write_vec

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


# The methods whose scores are shares of graph matchings, not Procrustes scores.
GRAPH = ("sgm", "softsgm", "itersgm-active")


def spec_of(name, **options):
    return make_spec(**{"method": name, "seeds": SEEDS, **SPECS[name], **options})


def dump(path, hyps) -> bytes:
    """The TSV hypothesis dump ``bilex run --hyps`` writes for ``hyps``."""
    _write_hypotheses(path, hyps)
    return path.read_bytes()


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


@pytest.fixture(scope="module")
def vec_files(corpus, tmp_path_factory):
    """The corpus as ``.vec`` files in vocabulary order and in one random
    row order, with its dictionary: {(order, side): path}."""
    src, tgt, lexicon = corpus
    folder = tmp_path_factory.mktemp("orders")
    write_pairs(folder / "d.tsv", lexicon.pairs)
    rng = np.random.default_rng(5)
    files = {}
    for order in ("vocab", "shuffled"):
        for side, emb in (("src", src), ("tgt", tgt)):
            rows = rng.permutation(N) if order == "shuffled" else np.arange(N)
            files[order, side] = folder / f"{side}_{order}.vec"
            write_vec(files[order, side], [emb.vocab[i] for i in rows], emb.vectors[rows])
    files["dictionary"] = folder / "d.tsv"
    return files


@pytest.mark.parametrize("name", list(SPECS))
def test_vec_row_order_changes_no_ranking(vec_files, tmp_path, name):
    want, got = (
        run(spec_of(name, src_emb=str(vec_files[order, "src"]),
                    tgt_emb=str(vec_files[order, "tgt"]), dictionary=str(vec_files["dictionary"])))
        for order in ("vocab", "shuffled")
    )
    assert 0.0 < want.metrics.p_at_1 < 100.0
    assert_same_run(got, want)
    if name in GRAPH:
        assert dump(tmp_path / "got.tsv", got.hypotheses) == dump(
            tmp_path / "want.tsv", want.hypotheses
        )


@pytest.mark.parametrize("name", list(SPECS))
def test_renaming_the_words_only_renames_the_dump(corpus, tmp_path, name):
    # Both languages take their new names from one set, each in its own
    # random order, so a word's new name sorts apart from its old one and
    # names alone do not tell the languages apart.
    src, tgt, lexicon = corpus
    rng = np.random.default_rng(6)
    names = [f"w{j:03d}" for j in range(N)]
    renames = [dict(zip(emb.vocab, rng.permutation(names).tolist())) for emb in (src, tgt)]
    renamed = build_dataset(
        *(EmbeddingMatrix(tuple(map(new.get, emb.vocab)), emb.vectors)
          for emb, new in zip((src, tgt), renames)),
        Lexicon(tuple((renames[0][a], renames[1][b]) for a, b in lexicon.pairs)),
        SEEDS,
    )
    want = dump(tmp_path / "want.tsv", run(spec_of(name), build_dataset(*corpus, SEEDS)).hypotheses)
    got = dump(tmp_path / "got.tsv", run(spec_of(name), renamed).hypotheses)
    assert got == b"".join(
        b"\t".join((renames[0][a.decode()].encode(), renames[1][b.decode()].encode(), *rest))
        for a, b, *rest in (line.split(b"\t") for line in want.splitlines(keepends=True))
    )
