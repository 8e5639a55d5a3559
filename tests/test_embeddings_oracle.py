"""The chunked ``.vec`` loader and in-place ``normalize`` against the code
they replaced.

``reference_embeddings`` keeps the loader that parsed one line at a time
and the out-of-place ``normalize``. On generated files the loader must
return the same vocabulary, bit-equal vectors and the same warnings, or
raise the same exception naming the same ``path:line``, for every chunk
size: one, two and three lines, where every chunk boundary falls next to
a blank, repeated, non-finite or malformed line, and the default.

Three inputs are read more strictly than before and are pinned in
``test_embeddings.py``: a repeated token whose values do not parse,
digit-grouping underscores and non-ASCII digits. The generated files
hold none of them. The short-file warning now names the header's count
and the ``max_words`` cap, so ``expected_warning`` rewrites the
reference's message when the cap binds.
"""

import gzip
import logging

import numpy as np
import pytest

import reference_embeddings as reference
from bilex import EmbeddingMatrix, embeddings, load_embeddings, normalize

CHUNKS = (1, 2, 3, embeddings._CHUNK_ROWS)
FORMATS = {"repr": repr, "fixed": "{:.6f}".format, "sci": "{:.4e}".format}
NON_FINITE = ("nan", "inf", "-inf", "NaN", "-Infinity")


def vec_text(rng, rows, dim, fmt, header_delta, newline="\n"):
    """A messy but valid ``.vec`` text and the number of its row lines.

    Rows are joined by tabs or runs of spaces, some end in fastText's
    trailing space, blank and whitespace-only lines sit between them,
    tokens repeat (also tokens whose first row was non-finite), and some
    rows hold a non-finite value. The header announces ``rows +
    header_delta`` rows.
    """
    render = FORMATS[fmt]
    tokens: list[str] = []
    lines = [f"{rows + header_delta} {dim}"]
    for i in range(rows):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "   ", "\t"])))
        if tokens and rng.random() < 0.15:
            token = tokens[rng.integers(len(tokens))]
        else:
            token = f"w{i}é"
        tokens.append(token)
        values = [render(float(v)) for v in rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4)]
        if rng.random() < 0.1:
            values[rng.integers(dim)] = str(rng.choice(NON_FINITE))
        sep = str(rng.choice([" ", "\t", "  ", " \t "]))
        trail = str(rng.choice(["", " ", "\t"]))
        lines.append(token + sep + sep.join(values) + trail)
    return newline.join(lines) + newline, rows


def write(path, text):
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8", newline="")
    return path


def outcome(load, path, max_words, caplog):
    """What one load returns or raises, with the warnings it logs."""
    caplog.clear()
    try:
        emb = load(path, max_words)
    except ValueError as exc:
        return ("raises", type(exc), str(exc))
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    return (emb.vocab, emb.vectors.shape, emb.vectors.tobytes(), warnings)


def expected_warning(message, path, count, max_words):
    old = f"{path}: header announced {max_words} rows but the file held fewer"
    if max_words is not None and max_words < count and message == old:
        return f"{path}: header announced {count} rows but the file held fewer than max_words={max_words}"
    return message


def assert_same_load(path, count, max_words, caplog):
    want = outcome(reference.load_embeddings, path, max_words, caplog)
    got = outcome(load_embeddings, path, max_words, caplog)
    if want[0] != "raises":
        want = want[:3] + ([expected_warning(m, path, count, max_words) for m in want[3]],)
    assert got == want


@pytest.fixture(autouse=True)
def _warnings(caplog):
    caplog.set_level(logging.WARNING)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("header_delta", [-4, 0, 3])
@pytest.mark.parametrize("suffix", [".vec", ".vec.gz"])
def test_same_load_as_reference(tmp_path, monkeypatch, caplog, chunk, fmt, header_delta, suffix):
    monkeypatch.setattr(embeddings, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng([chunk, header_delta + 10, len(fmt), len(suffix)])
    for trial, newline in enumerate(["\n", "\r\n"]):
        text, rows = vec_text(rng, 30, 1 + trial * 4, fmt, header_delta, newline)
        path = write(tmp_path / f"a{trial}{suffix}", text)
        for max_words in (None, 1, 2, 7, 20, rows + 10):
            assert_same_load(path, rows + header_delta, max_words, caplog)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize(
    "bad",
    ["{token}", "{token} {values} 1.5", "{token} 1.0 oops"],
    ids=["token-only", "extra-field", "unparseable"],
)
def test_malformed_line_named_as_by_reference(tmp_path, monkeypatch, caplog, chunk, bad):
    """One bad line among good ones, before, at and after the cap."""
    monkeypatch.setattr(embeddings, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(chunk)
    text, rows = vec_text(rng, 12, 2, "fixed", 0)
    lines = text.splitlines(keepends=True)
    for at in (1, 2, 5, 7, len(lines)):
        # A fresh token: a repeat with unparseable values now raises
        # where the reference skipped it.
        line = bad.format(token=f"bad{at}", values="0.5 0.25") + "\n"
        path = write(tmp_path / f"b{at}.vec", "".join(lines[:at] + [line] + lines[at:]))
        for max_words in (None, 1, 3, 5, 6, 11):
            assert_same_load(path, rows, max_words, caplog)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize(
    "text",
    [
        "3 2\na nan 1\na 1 2\nb 3 4\n",
        "5 2\na inf 0\nb 1 1\nc -inf 2\nb 5 5\nd 0 1\n",
        "4 2\n\n\na 1 2\n\nb 3 4\n",
        "0 3\na 1 2 3\n",
        "2 2\n",
    ],
    ids=["repeat-of-non-finite", "non-finite-before-cap", "blank-runs", "zero-count", "no-rows"],
)
def test_edge_files_load_as_by_reference(tmp_path, monkeypatch, caplog, chunk, text):
    monkeypatch.setattr(embeddings, "_CHUNK_ROWS", chunk)
    path = write(tmp_path / "a.vec", text)
    count = int(text.split()[0])
    for max_words in (None, 1, 2, 3):
        assert_same_load(path, count, max_words, caplog)


@pytest.mark.filterwarnings("error")  # np.loadtxt warns on a chunk without values
def test_only_token_lines_raise_in_a_chunk_of_their_own(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings, "_CHUNK_ROWS", 2)
    path = write(tmp_path / "a.vec", "3 2\na\nb\nc 1 2\n")
    with pytest.raises(embeddings.EmbeddingFormatError, match=r"a\.vec:2: expected 3 fields, got 1"):
        load_embeddings(path)


@pytest.mark.parametrize("passes", [0, 1, 2])
@pytest.mark.parametrize("shape", [(2, 3), (7, 1), (300, 64), (1000, 5)])
def test_normalize_matches_reference_bit_for_bit(monkeypatch, passes, shape):
    rng = np.random.default_rng(shape)
    vectors = rng.normal(size=shape) * 3 + 0.25
    emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(shape[0])), vectors)
    before = vectors.copy()
    for chunk in (3, embeddings._CHUNK_ROWS):
        monkeypatch.setattr(embeddings, "_CHUNK_ROWS", chunk)
        got = normalize(emb, passes).vectors
        assert got.tobytes() == reference.normalize(emb, passes).vectors.tobytes()
        assert emb.vectors.tobytes() == before.tobytes()


def test_normalize_names_the_first_zero_row_of_a_later_block(monkeypatch):
    monkeypatch.setattr(embeddings, "_CHUNK_ROWS", 2)
    rows = np.arange(1.0, 17.0).reshape(8, 2)
    rows[[4, 6]] = 0.0
    emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(8)), rows)
    for norm in (normalize, reference.normalize):
        with pytest.raises(embeddings.NormalizationError) as err:
            norm(emb)
        assert (err.value.row, err.value.stage) == (4, "before unit scaling")
