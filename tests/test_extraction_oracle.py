"""Blocked CSLS extraction against the dense code kept in
``reference_extraction``: equal hypothesis entries, scores bit for bit;
its column winners against the first of the dense code's rankings on
the transposed problem; its row rankings against the row-only blocked
extractor they replaced; plus its memory bound, its determinism across
BLAS thread counts and block workers, and its worker threads'
lifecycle. The package scores CSLS only; ``scorer`` names the
reference's scoring it must equal."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference_extraction as reference
from bilex import _threads, extract_hypotheses, procrustes
from conftest import blas_env

B = 4  # rows per source block in the small-budget grid
SIZES = (1, 2, 3, B - 1, B + 1, 2 * B + 1)


@pytest.fixture(autouse=True)
def one_block_thread(monkeypatch):
    """Every test here that does not set the number of block threads
    itself scores on one thread, and the references compute on the one
    BLAS thread that extraction pins, whatever this host has."""
    monkeypatch.setattr(_threads, "_workers", lambda: 1)
    with _threads._pinned_blas():
        yield


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


def extract(src, tgt, **kwargs):
    """``extract_hypotheses`` with its blocks scored by 1, 2 and 3 threads,
    whatever this host has; the three results must be equal bit for bit,
    rows and columns, index and score."""
    results = []
    with pytest.MonkeyPatch.context() as patch:
        for workers in (1, 2, 3):
            patch.setattr(_threads, "_workers", lambda: workers)
            results.append(extract_hypotheses(src, tgt, **kwargs))
    first = results[0]
    for other in results[1:]:
        for got, want in zip(other, first):  # rows, columns
            assert got.index.tobytes() == want.index.tobytes()
            assert got.score.tobytes() == want.score.tobytes()
    return first


def assert_same(src, tgt, scorer="csls", **kwargs):
    got = extract(src, tgt, **kwargs)[0].hypotheses()
    want = reference.extract_hypotheses(src, tgt, scorer=scorer, **kwargs)
    assert list(got.entries.items()) == list(want.entries.items())


@pytest.mark.parametrize("scorer", ["csls"])
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


@pytest.mark.parametrize("scorer", ["csls"])
def test_random_inputs_match_dense(scorer):
    rng = np.random.default_rng(31)
    for n_src, n_tgt in ((40, 57), (57, 40), (64, 64)):
        assert_same(scalar_rows(rng, n_src), scalar_rows(rng, n_tgt), top_k=5, scorer=scorer)


@pytest.mark.parametrize("scorer", ["csls"])
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


@pytest.mark.parametrize("scorer", ["csls"])
def test_tie_at_top_k_boundary_matches_dense(scorer):
    src = np.array([[1.0, 0.0]])
    half = np.array([0.5, np.sqrt(0.75)])
    tgt = np.vstack([[1.0, 0.0], half, half, [0.0, 1.0]])
    for top_k in (1, 2, 3, 4):
        assert_same(src, tgt, top_k=top_k, scorer=scorer, csls_k=1)


def test_clamped_k_matches_dense():
    rng = np.random.default_rng(34)
    src, tgt = scalar_rows(rng, 6), scalar_rows(rng, 4)
    assert_same(src, tgt, top_k=9, csls_k=10)  # both clamped
    assert_same(tgt, src, top_k=5, csls_k=7)


def test_float_inputs_over_many_blocks_agree_with_dense(monkeypatch):
    # With general float inputs BLAS may round an entry of a block product
    # differently from the same entry of the full product (edge tiles,
    # the small-matrix kernel), as the dense product itself does between
    # BLAS thread counts; scores agree to the last bits and rank alike.
    rng = np.random.default_rng(35)
    src = unit_rows(rng.normal(size=(130, 16)))
    tgt = unit_rows(rng.normal(size=(101, 16)))
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 7 * 101)
    got = extract_hypotheses(src, tgt, top_k=5)[0].hypotheses().entries
    want = reference.extract_hypotheses(src, tgt, top_k=5).entries
    assert list(got) == list(want)
    for i in want:
        assert [t for t, _ in got[i]] == [t for t, _ in want[i]]
        np.testing.assert_allclose(
            [s for _, s in got[i]], [s for _, s in want[i]], rtol=0, atol=1e-14
        )


def column_entries(src, tgt, **kwargs):
    """Each target's one (best source, score) entry; the columns are one wide."""
    columns = extract(src, tgt, **kwargs)[1]
    assert columns.index.shape == columns.score.shape == (len(tgt), 1)
    return columns.hypotheses().entries


def assert_columns_solve_transposed(src, tgt, scorer="csls", **kwargs):
    """Column j holds the best source of target j as the transposed
    problem (targets mapped onto sources) ranks them first, score
    included."""
    want = reference.extract_hypotheses(tgt, src, scorer=scorer, **kwargs).entries
    want = {j: ranked[:1] for j, ranked in want.items()}
    assert list(column_entries(src, tgt, **kwargs).items()) == list(want.items())


def assert_columns_of_dense_scores(src, tgt, top_k, scorer, csls_k):
    """Column j holds the first source of column j of the dense score
    matrix ranked by descending score, then ascending source."""
    scores = reference._score_matrix(src, tgt, scorer, csls_k)
    rows = np.arange(scores.shape[0])
    want = {}
    for j, column in enumerate(scores.T):
        best = np.lexsort((rows, -column))[:1]
        want[j] = tuple((int(i), float(column[i])) for i in best)
    got = column_entries(src, tgt, top_k=top_k, csls_k=csls_k)
    assert list(got.items()) == list(want.items())


def tied_winners(src, tgt, csls_k, part_of_row):
    """How many columns of the dense scores hold their largest score in
    rows of more than one part (block or run), ``part_of_row`` giving
    each row's part."""
    scores = reference._score_matrix(src, tgt, "csls", csls_k)
    return sum(
        len(set(part_of_row[np.flatnonzero(column == column.max())])) > 1
        for column in scores.T
    )


@pytest.mark.parametrize("scorer", ["csls"])
def test_columns_solve_transposed_problem_on_grid(monkeypatch, scorer):
    # Grid rows make every score exact in both directions when the
    # clamped csls_k is a power of two. Otherwise the neighborhood means
    # round, and the two directions round 2 cos - r(x) - r(y) in opposite
    # orders, so equal scores can differ in the last bit and break their
    # tie differently; test_columns_rank_the_forward_scores covers those
    # sizes exactly.
    rng = np.random.default_rng(37)
    for n_src in SIZES:
        for n_tgt in SIZES:
            monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * B * n_tgt)
            src, tgt = grid_rows(rng, n_src), grid_rows(rng, n_tgt)
            for csls_k in (1, 2, 4):
                k = min(csls_k, n_src, n_tgt)
                if k & (k - 1):
                    continue
                for top_k in (1, 3, 20):
                    assert_columns_solve_transposed(
                        src, tgt, top_k=top_k, scorer=scorer, csls_k=csls_k
                    )


@pytest.mark.parametrize("scorer", ["csls"])
@pytest.mark.parametrize("rows", [scalar_rows, grid_rows], ids=["scalar", "grid"])
def test_columns_rank_the_forward_scores(monkeypatch, rows, scorer):
    rng = np.random.default_rng(38)
    for n_src in SIZES:
        for n_tgt in SIZES:
            monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * B * n_tgt)
            src, tgt = rows(rng, n_src), rows(rng, n_tgt)
            for top_k in (1, 3, 20):
                for csls_k in (2, 10):
                    assert_columns_of_dense_scores(src, tgt, top_k, scorer, csls_k)


@pytest.mark.parametrize("scorer", ["csls"])
def test_column_ties_across_blocks_solve_transposed_problem(monkeypatch, scorer):
    # Every source repeats, so each column holds equal scores in rows of
    # different 3-row blocks, and the column pass must keep the first.
    rng = np.random.default_rng(39)
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 3 * 40)
    tgt = grid_rows(rng, 40)
    src = grid_rows(rng, 12)[rng.integers(0, 12, size=40)]
    straddling = 0
    for top_k in (1, 4, 7):
        for csls_k in (2, 4):
            kwargs = dict(top_k=top_k, csls_k=csls_k)
            assert_columns_solve_transposed(src, tgt, scorer, **kwargs)
            straddling += tied_winners(src, tgt, csls_k, np.minimum(np.arange(40) // 3, 12))
    assert straddling > 0


def run_of_row(n_rows, n_cols, workers):
    """The run that scores each row when ``workers`` threads score blocks."""
    blocks = procrustes._slices(n_rows, n_cols, procrustes._BLOCK_BYTES)
    runs = _threads._in_runs(lambda run, buffer: run, blocks, [None] * workers)
    return np.repeat(np.arange(len(runs)), [run[-1].stop - run[0].start for run in runs])


@pytest.mark.parametrize("scorer", ["csls"])
def test_column_ties_across_runs_solve_transposed_problem(monkeypatch, scorer):
    # Source i repeats source i % 6, so each column holds equal scores in
    # rows 6 apart; with 13 blocks of 3 rows, some of them sit in
    # different runs of 2 and of 3 threads, and merging the runs' column
    # winners must keep the first.
    rng = np.random.default_rng(47)
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 3 * 40)
    tgt = grid_rows(rng, 40)
    src = grid_rows(rng, 6)[np.arange(40) % 6]
    runs = {workers: run_of_row(40, 40, workers) for workers in (2, 3)}
    straddling = dict.fromkeys(runs, 0)
    for top_k in (1, 4, 7):
        for csls_k in (2, 4):
            kwargs = dict(top_k=top_k, csls_k=csls_k)
            assert_columns_solve_transposed(src, tgt, scorer, **kwargs)
            for workers, run in runs.items():
                straddling[workers] += tied_winners(src, tgt, csls_k, run)
    assert all(straddling.values()), straddling


def test_clamped_k_columns_solve_transposed_problem():
    # top_k beyond the sources leaves every column one wide; csls_k
    # beyond either side clamps to 2 or 4 here, which keeps grid scores
    # exact.
    rng = np.random.default_rng(40)
    for n_src, n_tgt in ((4, 6), (6, 4), (4, 4), (2, 9), (9, 2)):
        src, tgt = grid_rows(rng, n_src), grid_rows(rng, n_tgt)
        assert_columns_solve_transposed(src, tgt, top_k=9, csls_k=10)


@pytest.mark.parametrize("budget_rows", [7, None])
def test_float_columns_agree_with_transposed_problem(monkeypatch, budget_rows):
    rng = np.random.default_rng(41)
    src = unit_rows(rng.normal(size=(130, 16)))
    tgt = unit_rows(rng.normal(size=(101, 16)))
    if budget_rows is not None:
        monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * budget_rows * 101)
    got = column_entries(src, tgt, top_k=5)
    want = reference.extract_hypotheses(tgt, src, top_k=5).entries
    assert list(got) == list(want)
    for j in want:
        assert [i for i, _ in got[j]] == [i for i, _ in want[j][:1]]
        np.testing.assert_allclose(
            [s for _, s in got[j]], [s for _, s in want[j][:1]], rtol=0, atol=1e-14
        )


@pytest.mark.parametrize("budget_rows", [2, 7, None])
@pytest.mark.parametrize("scorer", ["csls"])
def test_rows_equal_row_only_extractor_bit_for_bit(monkeypatch, budget_rows, scorer):
    # The column pass must not touch the forward half: same targets and
    # the same score bits as the extractor it replaced, on float inputs.
    rng = np.random.default_rng(42)
    src = unit_rows(rng.normal(size=(230, 24)))
    tgt = unit_rows(rng.normal(size=(187, 24)))
    if budget_rows is not None:
        monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * budget_rows * 187)
    for top_k, csls_k in ((1, 10), (5, 10), (9, 3)):
        got = extract_hypotheses(src, tgt, top_k=top_k, csls_k=csls_k)
        want = reference.blocked_extract_hypotheses(
            src, tgt, top_k=top_k, scorer=scorer, csls_k=csls_k
        )
        assert list(got[0].hypotheses().entries.items()) == list(want.entries.items())


@pytest.mark.parametrize("n_cols", [1, 3, 1000])
def test_row_blocks_cover_rows_without_single_row_blocks(monkeypatch, n_cols):
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 3 * n_cols)
    for n_rows in range(0, 30):
        blocks = procrustes._slices(n_rows, n_cols, procrustes._BLOCK_BYTES)
        covered = [i for rows in blocks for i in range(rows.start, rows.stop)]
        assert covered == list(range(n_rows))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(size >= 2 for size in sizes) or n_rows == 1
        assert all(size <= 4 for size in sizes)  # 3 rows, or 4 with the odd row


def edges_with_equal_neighbours(lines, pieces):
    """How many edges between consecutive pieces have an equal line (row
    of ``lines``) on each side."""
    return sum(
        any((a == b).all() for a in lines[: piece.start] for b in lines[piece.start :])
        for piece in pieces[1:]
    )


def column_best(scores, blocks):
    """``_column_best`` over the row ``blocks`` in order: the bytes of each
    column's best score and of its first row."""
    best, arg = np.full(scores.shape[1], -np.inf), np.zeros(scores.shape[1], dtype=np.intp)
    for rows in blocks:
        procrustes._column_best(scores[rows], rows.start, best, arg)
    return best.tobytes(), arg.tobytes()


@pytest.mark.parametrize("chunk", [2, 3])
def test_chunked_selections_equal_unchunked_bit_for_bit(monkeypatch, chunk):
    # Heights 1 .. 3 chunk + 1 leave every remainder, a one-row one
    # included, which joins the chunk before it. Uniform scores make the
    # means round; grid scores of repeated sources and targets put equal
    # rows and equal columns on both sides of chunk edges.
    rng = np.random.default_rng(49)
    straddling = {"rows": 0, "columns": 0}
    for n_rows in range(1, 3 * chunk + 2):
        for n_cols in (1, 2, 9, 17):
            src = grid_rows(rng, 3)[np.arange(n_rows) % 3]
            tgt = grid_rows(rng, 4)[np.arange(n_cols) % 4]
            grid = src @ tgt.T
            for scores in (rng.uniform(-1.0, 1.0, size=(n_rows, n_cols)), grid):
                monkeypatch.setattr(procrustes, "_CHUNK_BYTES", 8 * chunk * n_cols)
                row_chunks = procrustes._slices(n_rows, n_cols, procrustes._CHUNK_BYTES)
                for k in range(1, n_cols + 1):
                    for sequential in (False, True):
                        want = reference.top_k_means(scores, k, sequential).tobytes()
                        got = procrustes._top_k_means(scores, k, sequential)
                        assert got.tobytes() == want
                        got = procrustes._top_k_means(scores.copy(), k, sequential, overwrite=True)
                        assert got.tobytes() == want
                    got, want = procrustes._row_top_k(scores, k), reference.row_top_k(scores, k)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                monkeypatch.setattr(procrustes, "_CHUNK_BYTES", 8 * chunk * n_rows)
                column_chunks = procrustes._slices(n_cols, n_rows, procrustes._CHUNK_BYTES)
                # The column pass over all rows as one block, then as two,
                # where only some columns rise in the second, against the
                # unchunked column max and its first row.
                want = scores.max(axis=0).tobytes(), scores.argmax(axis=0).tobytes()
                for cut in range(n_rows):
                    blocks = [slice(0, cut), slice(cut, n_rows)] if cut else [slice(0, n_rows)]
                    assert column_best(scores, blocks) == want
            straddling["rows"] += edges_with_equal_neighbours(grid, row_chunks)
            straddling["columns"] += edges_with_equal_neighbours(grid.T, column_chunks)
    assert all(straddling.values()), straddling


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_runs_cover_blocks_in_order_with_near_equal_counts(workers):
    buffers = [object() for _ in range(workers)]
    for n_blocks in range(8):
        blocks = [slice(2 * i, 2 * i + 2) for i in range(n_blocks)]
        runs = _threads._in_runs(lambda run, buffer: (run, buffer), blocks, buffers)
        assert [buffer for _, buffer in runs] == buffers[: len(runs)]
        runs = [run for run, _ in runs]
        assert len(runs) == min(workers, n_blocks)
        assert [rows for run in runs for rows in run] == blocks
        counts = [len(run) for run in runs]
        assert all(counts) and max(counts, default=0) - min(counts, default=0) <= 1


def test_row_blocks_do_not_follow_the_blas_setting(monkeypatch):
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 48 * 10)
    want = [slice(0, 48), slice(48, 96), slice(96, 100)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(_threads, "_workers", lambda: workers)
        assert procrustes._slices(100, 10, procrustes._BLOCK_BYTES) == want
    monkeypatch.setattr(_threads, "_BLAS_THREADS", None)  # BLAS cannot be pinned
    assert procrustes._slices(100, 10, procrustes._BLOCK_BYTES) == want
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert procrustes._slices(100, 10, procrustes._BLOCK_BYTES) == want


def test_peak_memory_is_a_few_blocks(monkeypatch):
    # The dense scorer held several 3000 x 3000 float64 matrices (72 MB
    # each); the blocked one holds one block buffer per block thread, a
    # few rows or columns of a block at a time for its selections, two
    # n_tgt vectors of column winners per thread, and the results. Here
    # each thread's chunks and winners take less than one more block:
    # with numpy 2.4 the peak was 4.8 MB on one thread and 9.3 MB on two,
    # so a thread that held a second copy of its block would fail.
    rng = np.random.default_rng(36)
    n, d = 3000, 32
    src = unit_rows(rng.normal(size=(n, d)))
    tgt = unit_rows(rng.normal(size=(n, d)))
    for workers in (1, 2):
        bound = 2 * workers * procrustes._BLOCK_BYTES
        assert bound < n * n * 8 / 2
        monkeypatch.setattr(_threads, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            extract_hypotheses(src, tgt, top_k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{workers} workers: peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


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


# The corpus above, then three runs: that `iterproc` over the top_n
# vocabulary at 400 seeds, and `procrustes` and `iterproc` at 100 seeds,
# fewer than d = 300. Each run's dump, scores included, is hashed with
# its line count, metrics and round records.
_THREADED_RUNS = _THREADED_ITERPROC[: _THREADED_ITERPROC.index("spec = ")] + """
import dataclasses, json
out = {}
for method, seeds, extra in (("iterproc", 400, dict(vocab_mode="top_n", iters=2)),
                             ("procrustes", 100, dict(iters=3)),
                             ("iterproc", 100, dict(iters=3))):
    spec = ExperimentSpec(src_emb="-", tgt_emb="-", dictionary="-", seeds=seeds,
                          method=method, rng_seed=3, **extra)
    result = run(spec, build_dataset(src, tgt, lexicon, spec.seeds))
    dump = "".join(
        "%s\\t%s\\t%d\\t%.10g\\n" % (s, t, rank, score)
        for s, ranked in result.hypotheses.entries.items()
        for rank, (t, score) in enumerate(ranked, start=1)
    )
    out["%s s=%d" % (method, seeds)] = [
        hashlib.sha256(dump.encode()).hexdigest(), dump.count("\\n"),
        dataclasses.asdict(result.metrics), result.iterations,
    ]
sys.stdout.write(json.dumps(out))
"""


def test_iterproc_dump_identical_across_blas_threads_at_scale():
    # 1500 x 1500 products with d = 300, which BLAS would split across its
    # threads: `run` pins it to one, so the thread variables at 1, at 2 and
    # unset give the same dumps, scores included. Below d seeds the map is
    # U_r V_r^T, which does not depend on the null-space basis LAPACK
    # returns either.
    def runs(threads: str) -> dict:
        done = subprocess.run(
            [sys.executable, "-c", _THREADED_RUNS], env=blas_env(threads),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    one = runs("1")
    assert runs("2") == one
    assert runs("unset") == one
    assert [lines for _, lines, _, _ in one.values()] == [7500, 7500, 7500]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs this process may run on",
)
def test_iterproc_dump_identical_on_one_and_two_block_workers():
    # One BLAS thread: the run scores the same 4 MiB blocks on 1 thread
    # when bound to one CPU and on 2 when bound to two.
    def dump_digest(cpus) -> str:
        script = (
            f"import os\nos.sched_setaffinity(0, {set(cpus)!r})\n"
            "from bilex import _threads\n"
            "print(_threads._workers(), end=' ')\n"
        ) + _THREADED_ITERPROC
        done = subprocess.run(
            [sys.executable, "-c", script], env=blas_env("1"),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    cpus = sorted(os.sched_getaffinity(0))[:2]
    one, two = dump_digest(cpus[:1]), dump_digest(cpus)
    assert one.startswith("1 ") and two.startswith("2 ")
    assert one[2:] == two[2:]
    assert one.endswith(" 1500")


def test_two_workers_score_on_the_calling_thread_and_one_more(monkeypatch):
    scoring_threads = set()
    top_k_means = procrustes._top_k_means

    def recording(*args, **kwargs):
        scoring_threads.add(threading.get_ident())
        return top_k_means(*args, **kwargs)

    monkeypatch.setattr(procrustes, "_top_k_means", recording)
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * B * 40)
    rng = np.random.default_rng(44)
    src, tgt = scalar_rows(rng, 40), scalar_rows(rng, 40)
    monkeypatch.setattr(_threads, "_workers", lambda: 2)
    got = extract_hypotheses(src, tgt, top_k=3)[0].hypotheses()
    assert len(scoring_threads) == 2 and threading.get_ident() in scoring_threads
    want = reference.extract_hypotheses(src, tgt, top_k=3)
    assert list(got.entries.items()) == list(want.entries.items())


def test_worker_error_reaches_the_caller_and_no_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(_threads, "_workers", lambda: 2)
    monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * B * 20)
    rng = np.random.default_rng(45)
    src, tgt = 3.0 * unit_rows(rng.normal(size=(20, 4))), unit_rows(rng.normal(size=(20, 4)))
    threads = threading.active_count()
    with pytest.raises(ValueError) as raised:
        extract_hypotheses(src, tgt, top_k=2)
    assert type(raised.value) is ValueError
    assert str(raised.value) == (
        "neighborhood averages outside [-1, 1] or not finite; "
        "rows must be finite and unit-norm for cosine scoring"
    )
    assert threading.active_count() == threads
    # Only the last targets are off the unit sphere: only the pool's run raises.
    with pytest.raises(ValueError, match="unit-norm"):
        extract_hypotheses(unit_rows(src), np.vstack([tgt[:16], 3.0 * tgt[16:]]), top_k=2)
    assert threading.active_count() == threads
    extract_hypotheses(unit_rows(src), tgt, top_k=2)
    assert threading.active_count() == threads
