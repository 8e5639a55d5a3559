"""Embedding loader and normalization pipeline."""

import gzip
import logging
import tracemalloc

import numpy as np
import pytest

import reference_embeddings as reference
from bilex import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    NormalizationError,
    load_embeddings,
    normalize,
)

ROOT2 = np.sqrt(2.0)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_minimal_file(self, tmp_path):
        path = _write(tmp_path / "a.vec", "2 3\na 1 0 0\nb 0 1 0\n")
        emb = load_embeddings(path)
        assert emb.vocab == ("a", "b")
        assert emb.vectors.shape == (2, 3)
        assert emb.dim == 3
        np.testing.assert_array_equal(emb.vectors, [[1, 0, 0], [0, 1, 0]])

    def test_max_words_truncates(self, tmp_path):
        path = _write(tmp_path / "a.vec", "2 3\na 1 0 0\nb 0 1 0\n")
        assert load_embeddings(path, max_words=1).vocab == ("a",)

    def test_non_positive_max_words_raises_before_reading(self, tmp_path):
        with pytest.raises(ValueError, match="max_words must be a positive integer"):
            load_embeddings(tmp_path / "missing.vec", max_words=0)

    def test_truncation_is_a_prefix(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = "\n".join(
            f"w{i} " + " ".join(str(v) for v in rng.normal(size=4)) for i in range(9)
        )
        path = _write(tmp_path / "a.vec", f"9 4\n{rows}\n")
        for k in (1, 3, 7):
            for k2 in (k, 8, 9):
                small = load_embeddings(path, max_words=k)
                big = load_embeddings(path, max_words=k2)
                assert big.vocab[: len(small.vocab)] == small.vocab

    def test_duplicate_token_keeps_first_and_warns(self, tmp_path, caplog):
        path = _write(
            tmp_path / "a.vec", "4 2\na 1 0\nb 0 1\na 9 9\nc 1 1\n"
        )
        with caplog.at_level(logging.WARNING):
            emb = load_embeddings(path)
        assert emb.vocab == ("a", "b", "c")
        np.testing.assert_array_equal(emb.vectors[0], [1, 0])
        warnings = [r for r in caplog.records if "token(s) ignored" in r.getMessage()]
        assert len(warnings) == 1
        assert "1 duplicate" in warnings[0].getMessage()
        # the duplicate fully explains the shortfall; no header-count warning
        assert not any("announced" in r.getMessage() for r in caplog.records)

    def test_nonfinite_row_dropped_with_warning(self, tmp_path, caplog):
        path = _write(tmp_path / "a.vec", "3 2\na 1 0\nb nan 1\nc 0 1\n")
        with caplog.at_level(logging.WARNING):
            emb = load_embeddings(path)
        assert emb.vocab == ("a", "c")
        assert any("non-finite" in r.getMessage() for r in caplog.records)

    def test_wrong_field_count_raises(self, tmp_path):
        path = _write(tmp_path / "a.vec", "2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="expected 4 fields"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", ["", "2", "2 3 4", "x 3", "2 y"])
    def test_malformed_header_raises(self, tmp_path, header):
        path = _write(tmp_path / "a.vec", f"{header}\na 1 0 0\n")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)

    def test_unparseable_value_raises(self, tmp_path):
        path = _write(tmp_path / "a.vec", "1 2\na 1 oops\n")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)

    def test_gzip_and_crlf(self, tmp_path):
        path = tmp_path / "a.vec.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("2 2\r\na 1 0\r\nb 0 1\r\n")
        emb = load_embeddings(path)
        assert emb.vocab == ("a", "b")
        np.testing.assert_array_equal(emb.vectors, [[1, 0], [0, 1]])

    def test_values_are_float64(self, tmp_path):
        path = _write(tmp_path / "a.vec", "1 2\na 0.100000001490116 1\n")
        assert load_embeddings(path).vectors.dtype == np.float64

    def test_short_file_warning_names_header_count_and_cap(self, tmp_path, caplog):
        path = _write(tmp_path / "a.vec", "1000 2\na 1 0\nb 0 1\n")
        with caplog.at_level(logging.WARNING):
            load_embeddings(path, max_words=500)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: header announced 1000 rows but the file held fewer than max_words=500"
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            load_embeddings(path)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: header announced 1000 rows but the file held fewer"
        ]

    def test_header_count_is_not_trusted_with_an_allocation(self, tmp_path, caplog):
        path = _write(tmp_path / "a.vec", f"{10**15} 300\na {' 1' * 300}\n")
        tracemalloc.start()
        try:
            with caplog.at_level(logging.WARNING):
                emb = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.vocab == ("a",)
        assert any("announced 1000000000000000 rows" in r.getMessage() for r in caplog.records)
        assert peak < 4 << 20  # one chunk of rows, not 10**15 of them

    def test_load_peak_at_most_twice_the_matrix(self, tmp_path):
        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(3000, 64))
        path = tmp_path / "a.vec"
        path.write_text(
            "3000 64\n"
            + "".join(
                f"w{i} " + " ".join(repr(float(v)) for v in row) + " \n"
                for i, row in enumerate(vectors)
            ),
            encoding="utf-8",
        )
        tracemalloc.start()
        try:
            emb = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.vectors.tobytes() == vectors.tobytes()
        assert peak <= 2.0 * emb.vectors.nbytes

    def test_undecodable_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "a.vec"
        path.write_bytes(b"2 2\na 1 0\nb\xff 3.0 4.0\n")
        with pytest.raises(EmbeddingFormatError, match=r"a\.vec:3: not valid UTF-8"):
            load_embeddings(path)
        gz = tmp_path / "a.vec.gz"
        gz.write_bytes(gzip.compress(path.read_bytes()))
        with pytest.raises(EmbeddingFormatError, match=r"a\.vec\.gz:3: not valid UTF-8"):
            load_embeddings(gz)


class TestStricterThanBefore:
    """Inputs the line-at-a-time loader accepted and the chunked one rejects."""

    def test_repeated_token_with_unparseable_values_raises(self, tmp_path):
        path = _write(tmp_path / "a.vec", "2 2\na 1 0\na 1 oops\nb 0 1\n")
        assert reference.load_embeddings(path).vocab == ("a", "b")
        with pytest.raises(EmbeddingFormatError, match=r"a\.vec:3: unparseable vector component"):
            load_embeddings(path)

    @pytest.mark.parametrize("value", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-digit"])
    def test_python_only_float_syntax_raises(self, tmp_path, value):
        path = _write(tmp_path / "a.vec", f"1 2\na 1 {value}\n")
        assert np.isfinite(reference.load_embeddings(path).vectors).all()
        with pytest.raises(EmbeddingFormatError, match=r"a\.vec:2: unparseable vector component"):
            load_embeddings(path)

    @pytest.mark.parametrize("count", ["1_0", "\u0662"], ids=["underscore", "arabic-indic-digit"])
    def test_python_only_int_syntax_in_header_raises(self, tmp_path, count):
        path = _write(tmp_path / "a.vec", f"{count} 2\na 1 0\nb 0 1\n")
        assert reference.load_embeddings(path).vocab == ("a", "b")
        with pytest.raises(EmbeddingFormatError, match="non-integer header fields"):
            load_embeddings(path)

    def test_signed_header_fields_keep_their_rules(self, tmp_path):
        path = _write(tmp_path / "a.vec", "+2 +2\na 1 0\nb 0 1\n")
        assert load_embeddings(path).vocab == ("a", "b")
        with pytest.raises(EmbeddingFormatError, match="out of range"):
            load_embeddings(_write(tmp_path / "b.vec", "-1 2\na 1 0\n"))


class TestNormalize:
    def test_hand_example(self):
        emb = EmbeddingMatrix(("a", "b"), np.array([[2.0, 0.0], [0.0, 3.0]]))
        out = normalize(emb)
        # unit: (1,0), (0,1); mean (0.5, 0.5); center + renorm gives +/-45 degrees
        expected = np.array([[1 / ROOT2, -1 / ROOT2], [-1 / ROOT2, 1 / ROOT2]])
        np.testing.assert_allclose(out.vectors, expected, atol=1e-12)

    def test_fixed_point(self):
        # Unit rows with zero column mean: +/-v pairs.
        rng = np.random.default_rng(1)
        v = rng.normal(size=(2, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        rows = np.vstack([v, -v])
        emb = EmbeddingMatrix(tuple("abcd"), rows)
        np.testing.assert_allclose(normalize(emb).vectors, rows, atol=1e-12)

    def test_single_row_errors_after_centering(self):
        emb = EmbeddingMatrix(("a",), np.array([[3.0, 4.0]]))
        with pytest.raises(NormalizationError) as err:
            normalize(emb)
        assert err.value.row == 0
        assert "after mean-centering" in str(err.value)

    def test_zero_row_errors_before_scaling(self):
        emb = EmbeddingMatrix(("a", "b"), np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(NormalizationError) as err:
            normalize(emb)
        assert err.value.row == 0
        assert "before unit scaling" in str(err.value)

    def test_negative_pass_count_raises(self):
        with pytest.raises(ValueError, match="passes must be non-negative"):
            normalize(EmbeddingMatrix(("a",), np.array([[1.0, 0.0]])), passes=-1)

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(2)
        emb = EmbeddingMatrix(
            tuple(f"w{i}" for i in range(30)), rng.normal(size=(30, 6)) * 3
        )
        out = normalize(emb)
        np.testing.assert_allclose(np.linalg.norm(out.vectors, axis=1), 1.0, atol=1e-9)

    def test_idempotent_on_unit_zero_mean_inputs(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            v = rng.normal(size=(5, 7))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            rows = np.vstack([v, -v])  # zero column mean by symmetry
            emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(10)), rows)
            once = normalize(emb)
            twice = normalize(once)
            assert np.abs(twice.vectors - once.vectors).max() < 1e-9

    def test_pass_count_knob(self):
        rng = np.random.default_rng(4)
        emb = EmbeddingMatrix(
            tuple(f"w{i}" for i in range(12)), rng.normal(size=(12, 5))
        )
        manual = normalize(normalize(emb))
        np.testing.assert_allclose(
            normalize(emb, passes=2).vectors, manual.vectors, atol=1e-15
        )
        np.testing.assert_array_equal(normalize(emb, passes=0).vectors, emb.vectors)

    def test_row_order_never_permuted(self, tmp_path):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(20)]
        vectors = rng.normal(size=(20, 4))
        path = tmp_path / "a.vec"
        path.write_text(
            "20 4\n"
            + "\n".join(
                w + " " + " ".join(format(v, ".12g") for v in row)
                for w, row in zip(vocab, vectors)
            )
            + "\n",
            encoding="utf-8",
        )
        emb = load_embeddings(path)
        assert emb.vocab == tuple(vocab)
        out = normalize(emb)
        assert out.vocab == tuple(vocab)
        # row i still corresponds to token i: centering is order-independent,
        # so check alignment through a recomputation
        manual = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        manual = manual - manual.mean(axis=0)
        manual /= np.linalg.norm(manual, axis=1, keepdims=True)
        np.testing.assert_allclose(out.vectors, manual, atol=1e-12)

    def test_extra_peak_about_one_copy(self):
        rng = np.random.default_rng(7)
        emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(3000)), rng.normal(size=(3000, 64)))
        peaks = {}
        for name, norm in (("new", normalize), ("reference", reference.normalize)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                norm(emb)
                peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / emb.vectors.nbytes
            finally:
                tracemalloc.stop()
        assert peaks["reference"] > 2.0
        assert peaks["new"] <= 1.25

    def test_finiteness_check_adds_no_full_size_temporary(self):
        # One copy, and the check on the returned matrix takes a few rows
        # at a time: a boolean mask of every entry at once would add 0.125.
        rng = np.random.default_rng(8)
        emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(4000)), rng.normal(size=(4000, 300)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            normalize(emb)
            peak = (tracemalloc.get_traced_memory()[1] - base) / emb.vectors.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= 1.1


class TestMatrixInvariants:
    def test_duplicate_vocab_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingMatrix(("a", "a"), np.eye(2))

    def test_one_dimensional_vectors_rejected(self):
        with pytest.raises(ValueError, match="2-d matrix"):
            EmbeddingMatrix(("a", "b"), np.ones(2))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(("a",), np.eye(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(("a", "b"), np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_index_lookup(self):
        emb = EmbeddingMatrix(("a", "b"), np.eye(2))
        assert emb.index == {"a": 0, "b": 1}
        assert len(emb) == 2
