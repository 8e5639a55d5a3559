"""Dictionary parsing, one-to-one filtering, and splits."""

import numpy as np
import pytest

from bilex import (
    DictionaryFormatError,
    Lexicon,
    SplitLexicon,
    drop_missing,
    filter_one_to_one,
    load_dictionary,
    split,
)


class TestLoad:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("dog Hund\ncat Katze\n", encoding="utf-8")
        assert load_dictionary(path).pairs == (("dog", "Hund"), ("cat", "Katze"))

    def test_duplicate_line_dropped(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("dog Hund\ndog Hund\n", encoding="utf-8")
        assert load_dictionary(path).pairs == (("dog", "Hund"),)

    def test_tab_separated_parses_identically(self, tmp_path):
        spaced = tmp_path / "a.tsv"
        tabbed = tmp_path / "b.tsv"
        spaced.write_text("dog Hund\ncat Katze\n", encoding="utf-8")
        tabbed.write_text("dog\tHund\ncat\tKatze\n", encoding="utf-8")
        assert load_dictionary(spaced).pairs == load_dictionary(tabbed).pairs

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("dog Hund\n\n \t \ncat Katze\n\n", encoding="utf-8")
        assert load_dictionary(path).pairs == (("dog", "Hund"), ("cat", "Katze"))

    def test_wrong_field_count_raises(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("dog Hund\nbad\n", encoding="utf-8")
        with pytest.raises(DictionaryFormatError, match=":2:"):
            load_dictionary(path)

    def test_undecodable_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"dog Hund\ncat Katze\nb\xe9e Biene\n")
        with pytest.raises(DictionaryFormatError, match=r"d\.tsv:3: not valid UTF-8"):
            load_dictionary(path)


class TestFilterOneToOne:
    def test_hand_trace(self):
        lex = Lexicon((("a", "1"), ("a", "2"), ("b", "1"), ("c", "3")))
        assert filter_one_to_one(lex).pairs == (("a", "1"), ("c", "3"))

    def test_already_one_to_one_unchanged(self):
        lex = Lexicon((("a", "1"), ("b", "2")))
        assert filter_one_to_one(lex).pairs == lex.pairs

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            pairs = tuple(
                (f"s{rng.integers(6)}", f"t{rng.integers(6)}") for _ in range(25)
            )
            once = filter_one_to_one(Lexicon(pairs))
            assert filter_one_to_one(once).pairs == once.pairs

    def test_result_is_injective(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            pairs = tuple(
                (f"s{rng.integers(8)}", f"t{rng.integers(8)}") for _ in range(30)
            )
            out = filter_one_to_one(Lexicon(pairs))
            assert out.is_one_to_one()
            assert len(set(out.sources())) == len(out)
            assert len(set(out.targets())) == len(out)


class TestSplit:
    def test_counts_sum(self):
        lex = Lexicon(tuple((f"s{i}", f"t{i}") for i in range(30)))
        for s in (1, 7, 29):
            parts = split(lex, s)
            assert len(parts.seeds) == s
            assert len(parts.seeds) + len(parts.test) == len(lex)
            assert parts.seeds.pairs == lex.pairs[:s]

    def test_boundary_one_test_pair(self):
        lex = Lexicon(tuple((f"s{i}", f"t{i}") for i in range(5)))
        assert len(split(lex, 4).test) == 1

    def test_seed_count_too_large_raises(self):
        lex = Lexicon((("a", "1"), ("b", "2")))
        with pytest.raises(ValueError):
            split(lex, 2)
        with pytest.raises(ValueError):
            split(lex, 0)

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError, match="share"):
            SplitLexicon(
                seeds=Lexicon((("a", "1"),)), test=Lexicon((("a", "2"),))
            )


class TestDropMissing:
    def test_drops_and_logs(self, caplog):
        lex = Lexicon((("a", "1"), ("b", "2"), ("c", "3")))
        import logging

        with caplog.at_level(logging.INFO, logger="bilex.lexicon"):
            out = drop_missing(lex, {"a", "c"}, {"1", "2", "3"})
        assert out.pairs == (("a", "1"), ("c", "3"))
        assert any("dropped 1" in r.getMessage() for r in caplog.records)
