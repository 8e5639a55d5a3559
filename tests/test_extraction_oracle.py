"""Blocked CSLS extraction against the dense code kept in
``reference_extraction``: equal hypothesis entries, scores bit for bit;
plus its memory bound and its determinism across BLAS thread counts."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import reference_extraction as reference
from bilex import extract_hypotheses, procrustes
from conftest import blas_env

B = 4  # rows per source block in the small-budget grid
SIZES = (1, 2, 3, B - 1, B + 1, 2 * B + 1)


def unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def scalar_rows(rng, n):
    """d = 1 rows in [-1, 1]: each cosine is one rounded product, so every
    BLAS kernel returns the same bits for it whatever the block shape,
    while the CSLS means still round and depend on summation order."""
    return rng.uniform(-1.0, 1.0, size=(n, 1))


def grid_rows(rng, n):
    """Rows on a 1/4 grid with norm at most 1: every product and sum is
    exact, and equal scores are common."""
    return rng.integers(-2, 3, size=(n, 4)) / 4.0


def assert_same(src, tgt, **kwargs):
    got = extract_hypotheses(src, tgt, **kwargs)
    want = reference.extract_hypotheses(src, tgt, **kwargs)
    assert list(got.entries.items()) == list(want.entries.items())


@pytest.mark.parametrize("scorer", ["csls", "cosine"])
@pytest.mark.parametrize("rows", [scalar_rows, grid_rows], ids=["scalar", "grid"])
def test_small_blocks_match_dense(monkeypatch, rows, scorer):
    # Every (n_src, n_tgt) pair from SIZES with B-row source blocks; the
    # target pass then runs with other block sizes, one-row remainders
    # included.
    rng = np.random.default_rng(30)
    for n_src in SIZES:
        for n_tgt in SIZES:
            monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * B * n_tgt)
            src, tgt = rows(rng, n_src), rows(rng, n_tgt)
            for top_k in (1, 3, 20):
                for csls_k in (2, 10):
                    assert_same(src, tgt, top_k=top_k, scorer=scorer, csls_k=csls_k)


@pytest.mark.parametrize("scorer", ["csls", "cosine"])
def test_random_inputs_match_dense(scorer):
    rng = np.random.default_rng(31)
    for n_src, n_tgt in ((40, 57), (57, 40), (64, 64)):
        assert_same(scalar_rows(rng, n_src), scalar_rows(rng, n_tgt), top_k=5, scorer=scorer)


def test_cosine_scores_in_one_block_match_dense():
    # One source block is the dense product itself, whatever the values.
    rng = np.random.default_rng(32)
    src = unit_rows(rng.normal(size=(90, 24)))
    tgt = unit_rows(rng.normal(size=(75, 24)))
    assert_same(src, tgt, top_k=5, scorer="cosine")


@pytest.mark.parametrize("scorer", ["csls", "cosine"])
def test_duplicate_targets_and_ties_match_dense(monkeypatch, scorer):
    rng = np.random.default_rng(33)
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 3 * 40)
    for rows in (scalar_rows, grid_rows):
        src = rows(rng, 40)
        base = rows(rng, 12)
        tgt = base[rng.integers(0, 12, size=40)]  # every target repeats
        for top_k in (1, 4, 7):
            assert_same(src, tgt, top_k=top_k, scorer=scorer, csls_k=5)
            assert_same(tgt, src, top_k=top_k, scorer=scorer, csls_k=5)


@pytest.mark.parametrize("scorer", ["csls", "cosine"])
def test_tie_at_top_k_boundary_matches_dense(scorer):
    src = np.array([[1.0, 0.0]])
    half = np.array([0.5, np.sqrt(0.75)])
    tgt = np.vstack([[1.0, 0.0], half, half, [0.0, 1.0]])
    for top_k in (1, 2, 3, 4):
        assert_same(src, tgt, top_k=top_k, scorer=scorer, csls_k=1)


def test_clamped_k_matches_dense():
    rng = np.random.default_rng(34)
    src, tgt = scalar_rows(rng, 6), scalar_rows(rng, 4)
    for scorer in ("csls", "cosine"):
        assert_same(src, tgt, top_k=9, scorer=scorer, csls_k=10)  # both clamped
        assert_same(tgt, src, top_k=5, scorer=scorer, csls_k=7)


def test_float_inputs_over_many_blocks_agree_with_dense(monkeypatch):
    # With general float inputs BLAS may round an entry of a block product
    # differently from the same entry of the full product (edge tiles,
    # the small-matrix kernel), as the dense product itself does between
    # BLAS thread counts; scores agree to the last bits and rank alike.
    rng = np.random.default_rng(35)
    src = unit_rows(rng.normal(size=(130, 16)))
    tgt = unit_rows(rng.normal(size=(101, 16)))
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 7 * 101)
    got = extract_hypotheses(src, tgt, top_k=5).entries
    want = reference.extract_hypotheses(src, tgt, top_k=5).entries
    assert list(got) == list(want)
    for i in want:
        assert [t for t, _ in got[i]] == [t for t, _ in want[i]]
        np.testing.assert_allclose(
            [s for _, s in got[i]], [s for _, s in want[i]], rtol=0, atol=1e-14
        )


@pytest.mark.parametrize("n_cols", [1, 3, 1000])
def test_row_blocks_cover_rows_without_single_row_blocks(monkeypatch, n_cols):
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 3 * n_cols)
    for n_rows in range(0, 30):
        blocks = procrustes._row_blocks(n_rows, n_cols)
        covered = [i for rows in blocks for i in range(rows.start, rows.stop)]
        assert covered == list(range(n_rows))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(size >= 2 for size in sizes) or n_rows == 1
        assert all(size <= 4 for size in sizes)  # 3 rows, or 4 with the odd row


def test_peak_memory_is_a_few_blocks():
    # The dense scorer held several 3000 x 3000 float64 matrices (72 MB
    # each); the blocked one holds a few blocks plus O(n d) inputs and
    # O(n top_k) results.
    rng = np.random.default_rng(36)
    n, d = 3000, 32
    src = unit_rows(rng.normal(size=(n, d)))
    tgt = unit_rows(rng.normal(size=(n, d)))
    tracemalloc.start()
    try:
        extract_hypotheses(src, tgt, top_k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 5 * procrustes._BLOCK_BYTES + 4 * (src.nbytes + tgt.nbytes)
    assert bound < n * n * 8 / 2
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


_THREADED_ITERPROC = """
import hashlib, sys
import numpy as np
from bilex import EmbeddingMatrix, ExperimentSpec, Lexicon, build_dataset, normalize, run
rng = np.random.default_rng(7)
n, d = 1500, 300
base = rng.normal(size=(n, d))
rho = rng.permutation(n)
inverse = np.empty(n, dtype=int)
inverse[rho] = np.arange(n)
src = normalize(EmbeddingMatrix(tuple("s%04d" % i for i in range(n)), base))
tgt = normalize(EmbeddingMatrix(tuple("t%04d" % k for k in range(n)),
                                base[rho] + 1.2 * rng.normal(size=(n, d))))
lexicon = Lexicon(tuple(("s%04d" % i, "t%04d" % inverse[i]) for i in range(n)))
spec = ExperimentSpec(src_emb="-", tgt_emb="-", dictionary="-", seeds=400,
                      method="iterproc", vocab_mode="top_n", iters=2, rng_seed=3)
result = run(spec, build_dataset(src, tgt, lexicon, spec.seeds))
dump = "".join(
    "%s\\t%s\\t%d\\t%.10g\\n" % (s, t, rank, score)
    for s, ranked in result.hypotheses.entries.items()
    for rank, (t, score) in enumerate(ranked, start=1)
)
sys.stdout.write(hashlib.sha256(dump.encode()).hexdigest())
sys.stdout.write(" %d" % len(result.hypotheses))
"""


@pytest.mark.xfail(
    reason="BLAS rounds some entries differently on 1 and 2 threads (the "
    "Procrustes SVD, and products whose column count is not a multiple of 8 "
    "on OpenBLAS SkylakeX kernels); one of 7500 dumped scores changes in its "
    "10th digit here, with the dense extraction as with the blocked one",
    strict=False,
)
def test_iterproc_dump_identical_across_blas_threads_at_scale():
    # 1500 x 1500 products with d = 300 are split across BLAS threads.
    def dump_digest(threads: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", _THREADED_ITERPROC], env=blas_env(threads),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    one, two = dump_digest("1"), dump_digest("2")
    assert one == two
    assert one.endswith(" 1500")
