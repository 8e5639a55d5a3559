"""CLI subcommands, exit codes, and file round-trips."""

import argparse
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilex import ExperimentSpec, cli, graph_matching, pipelines
from bilex.cli import (
    EXIT_IO,
    EXIT_MEMORY,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    _build_parser,
    _build_spec,
    _read_hypotheses,
    main,
)
from bilex.pipelines import CHOICES
from conftest import blas_env, write_pairs, write_vec

SPEC_FIELDS = dataclasses.fields(ExperimentSpec)
REQUIRED_CONFIG = "src-emb=s.vec\ntgt-emb=t.vec\ndictionary=d.tsv\nseeds=3\n"


def spec_flag(name: str, raw: str) -> list[str]:
    """The ``bilex run`` arguments that set spec field ``name`` to ``raw``."""
    return ["--dict" if name == "dictionary" else "--" + name.replace("_", "-"), raw]


class TestPrep:
    def test_tiny_fixture_counts(self, tmp_path, capsys):
        # 4 pairs, one duplicate source: 3 retained.
        dict_path = tmp_path / "d.tsv"
        write_pairs(
            dict_path,
            [("a", "1"), ("a", "2"), ("b", "3"), ("c", "4")],
        )
        vocab = ["a", "b", "c"]
        write_vec(tmp_path / "s.vec", vocab, np.eye(3))
        write_vec(tmp_path / "t.vec", ["1", "3", "4"], np.eye(3))
        code = main([
            "prep", "--dict", str(dict_path),
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"),
            "--out-dir", str(tmp_path / "out"),
            "--seed-counts", "1,2",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "3 pairs retained" in out
        assert (tmp_path / "out" / "filtered.tsv").read_text() == "a\t1\nb\t3\nc\t4\n"
        assert (tmp_path / "out" / "seeds_2.tsv").read_text() == "a\t1\nb\t3\n"
        assert (tmp_path / "out" / "test_2.tsv").read_text() == "c\t4\n"
        assert "seeds=1: 1 seed pairs, 2 test pairs" in out

    def test_oov_pairs_dropped(self, tmp_path, capsys):
        write_pairs(tmp_path / "d.tsv", [("a", "1"), ("zzz", "2")])
        write_vec(tmp_path / "s.vec", ["a", "b"], np.eye(2))
        write_vec(tmp_path / "t.vec", ["1", "2"], np.eye(2))
        code = main([
            "prep", "--dict", str(tmp_path / "d.tsv"),
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"),
            "--out-dir", str(tmp_path / "out"),
            "--seed-counts", "1",
        ])
        assert code == EXIT_USAGE  # only 1 usable pair, split(1) impossible
        write_pairs(tmp_path / "d.tsv", [("a", "1"), ("b", "2"), ("zzz", "9")])
        code = main([
            "prep", "--dict", str(tmp_path / "d.tsv"),
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"),
            "--out-dir", str(tmp_path / "out"),
            "--seed-counts", "1",
        ])
        assert code == EXIT_OK
        assert "1 pairs dropped" in capsys.readouterr().out

    @pytest.mark.parametrize("counts", ["2,9", "2,x"])
    def test_bad_seed_count_writes_nothing(self, tmp_path, counts):
        # 6 usable pairs: 9 seeds cannot split them, and "x" is no count.
        pairs = [(f"s{i}", f"t{i}") for i in range(6)]
        write_pairs(tmp_path / "d.tsv", pairs)
        write_vec(tmp_path / "s.vec", [s for s, _ in pairs], np.eye(6))
        write_vec(tmp_path / "t.vec", [t for _, t in pairs], np.eye(6))
        code = main([
            "prep", "--dict", str(tmp_path / "d.tsv"),
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"),
            "--out-dir", str(tmp_path / "out"),
            "--seed-counts", counts,
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("counts, entry", [("1,ten", "ten"), ("0", "0"), ("2,-1", "-1"),
                                               ("3,", "")])
    def test_bad_seed_count_is_refused_before_any_file_is_read(self, tmp_path, capsys,
                                                              counts, entry):
        # The .vec files do not exist: reading them would exit 2.
        write_pairs(tmp_path / "d.tsv", [(f"s{i}", f"t{i}") for i in range(6)])
        code = main([
            "prep", "--dict", str(tmp_path / "d.tsv"),
            "--src-emb", str(tmp_path / "missing.vec"),
            "--tgt-emb", str(tmp_path / "missing.vec"),
            "--out-dir", str(tmp_path / "out"),
            "--seed-counts", counts,
        ])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --seed-counts entry {entry!r} is not a positive integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("max_words", ["0", "-3"])
    def test_bad_max_words_is_refused_before_any_file_is_read(self, tmp_path, capsys,
                                                             max_words):
        # No input exists: reading the dictionary or a .vec file would exit 2.
        code = main([
            "prep", "--dict", str(tmp_path / "missing.tsv"),
            "--src-emb", str(tmp_path / "missing.vec"),
            "--tgt-emb", str(tmp_path / "missing.vec"),
            "--out-dir", str(tmp_path / "out"),
            "--max-words", max_words,
        ])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --max-words must be a positive integer\n"
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_diag4_fixture_via_cli(self, tmp_path, diag4_files, capsys):
        src, tgt, dictionary = diag4_files
        hyps_path = tmp_path / "hyps.tsv"
        report_path = tmp_path / "report.json"
        code = main([
            "run", "--method", "sgm", "--seeds", "1",
            "--src-emb", str(src), "--tgt-emb", str(tgt),
            "--dict", str(dictionary),
            "--normalize-passes", "0",
            "--hyps", str(hyps_path), "--out", str(report_path),
        ])
        assert code == EXIT_OK
        rows = [line.split("\t") for line in hyps_path.read_text().splitlines()]
        matched = {row[0]: row[1] for row in rows}
        assert matched == {"x1": "y1", "x2": "y4", "x3": "y2", "x4": "y3"}
        report = json.loads(report_path.read_text())
        assert report["metrics"]["p_at_1"] == 100.0
        assert report["spec"]["seeds"] == 1

    def test_same_spec_twice_is_byte_identical(self, tmp_path, planted_files):
        src, tgt, dictionary = planted_files(n=30, d=6, noise=0.1, seed=2)
        dumps = []
        for tag in ("one", "two"):
            hyps = tmp_path / f"h_{tag}.tsv"
            code = main([
                "run", "--method", "itersgm", "--seeds", "8", "--iters", "2",
                "--src-emb", str(src), "--tgt-emb", str(tgt),
                "--dict", str(dictionary), "--rng-seed", "7",
                "--hyps", str(hyps),
            ])
            assert code == EXIT_OK
            dumps.append(hyps.read_bytes())
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize(
        "method", ["procrustes", "sgm", "softsgm", "iterproc", "itersgm", "combined"]
    )
    def test_eval_reproduces_run_metrics(self, tmp_path, planted_files, capsys, method):
        src, tgt, dictionary = planted_files(n=30, d=6, noise=1.0, seed=3)
        # prep writes the split the run will use internally
        code = main([
            "prep", "--dict", str(dictionary), "--src-emb", str(src),
            "--tgt-emb", str(tgt), "--out-dir", str(tmp_path / "prep"),
            "--seed-counts", "8",
        ])
        assert code == EXIT_OK
        hyps = tmp_path / "h.tsv"
        report_path = tmp_path / "r.json"
        code = main([
            "run", "--method", method, "--seeds", "8", "--iters", "2", "--soft-runs", "4",
            "--src-emb", str(src), "--tgt-emb", str(tgt),
            "--dict", str(dictionary),
            "--hyps", str(hyps), "--out", str(report_path),
        ])
        assert code == EXIT_OK
        capsys.readouterr()
        if method == "softsgm":
            shares = {}
            for line in hyps.read_text(encoding="utf-8").splitlines():
                src_word, _, _, share = line.split("\t")
                shares.setdefault(src_word, []).append(share)
            assert any(len(set(s)) < len(s) < 5 for s in shares.values())
        code = main([
            "eval", "--hyps", str(hyps),
            "--gold", str(tmp_path / "prep" / "test_8.tsv"),
            "--out", str(tmp_path / "metrics.json"),
        ])
        assert code == EXIT_OK
        run_metrics = json.loads(report_path.read_text())["metrics"]
        eval_metrics = json.loads((tmp_path / "metrics.json").read_text())["metrics"]
        assert eval_metrics == run_metrics

    def test_combined_report_has_default_cycle_records(self, tmp_path, planted_files):
        src, tgt, dictionary = planted_files(n=24, d=6, seed=4)
        report_path = tmp_path / "r.json"
        code = main([
            "run", "--method", "combined", "--start", "sgm", "--pull", "proc",
            "--seeds", "6", "--proc-inner", "1",
            "--src-emb", str(src), "--tgt-emb", str(tgt),
            "--dict", str(dictionary), "--out", str(report_path),
        ])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert [r["iteration"] for r in report["iterations"]] == list(range(1, 11))
        assert all("components" in r for r in report["iterations"])

    def test_config_file_with_flag_override(self, tmp_path, planted_files):
        src, tgt, dictionary = planted_files(n=24, d=6, seed=5)
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"src-emb={src}\ntgt-emb={tgt}\ndictionary={dictionary}\n"
            "seeds=6\nmethod=sgm\nrng-seed=3\n# comment\n",
            encoding="utf-8",
        )
        report_path = tmp_path / "r.json"
        code = main([
            "run", "--config", str(config), "--method", "procrustes",
            "--out", str(report_path),
        ])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["spec"]["method"] == "procrustes"  # flag beats config
        assert report["spec"]["rng_seed"] == 3
        assert report["spec"]["seeds"] == 6

    # Declared annotation -> (config text, the value the spec must hold);
    # an enumerated field takes its last allowed value, never its default.
    CONFIG_SAMPLES = {
        "str": ("value", "value"),
        "int": ("7", 7),
        "int | None": ("7", 7),
        "float": ("0.25", 0.25),
    }

    @pytest.mark.parametrize(
        "field,form",
        [pytest.param(field, "config", id=field.name) for field in SPEC_FIELDS]
        + [pytest.param(field, "flag", id=f"{field.name}-flag") for field in SPEC_FIELDS],
    )
    def test_config_value_reaches_spec_with_declared_type(self, tmp_path, field, form):
        if field.name in CHOICES:
            raw = expected = CHOICES[field.name][-1]
        else:
            raw, expected = self.CONFIG_SAMPLES[field.type]
        config = tmp_path / "exp.cfg"
        argv = ["run", "--config", str(config)]
        if form == "config":
            config.write_text(f"{REQUIRED_CONFIG}{field.name}={raw}\n", encoding="utf-8")
        else:
            config.write_text(REQUIRED_CONFIG, encoding="utf-8")
            argv += spec_flag(field.name, raw)
        spec = _build_spec(_build_parser().parse_args(argv))
        value = getattr(spec, field.name)
        assert value == expected
        assert type(value) is type(expected)

    def test_report_round_trips(self, tmp_path, planted_files):
        src, tgt, dictionary = planted_files(n=24, d=6, seed=6)
        report_path = tmp_path / "r.json"
        main([
            "run", "--method", "sgm", "--seeds", "6",
            "--src-emb", str(src), "--tgt-emb", str(tgt),
            "--dict", str(dictionary), "--out", str(report_path),
        ])
        loaded = json.loads(report_path.read_text())
        assert json.loads(json.dumps(loaded)) == loaded
        assert loaded["rng_seed"] == loaded["spec"]["rng_seed"]

    def test_library_warnings_reach_stderr(self, tmp_path, planted_files):
        # bilex configures no logging; Python's last-resort handler prints
        # warnings on stderr. A fresh process, because pytest installs its
        # own handlers on the root logger.
        src, tgt, dictionary = planted_files(n=30, d=8, noise=1.0, seed=5)
        done = subprocess.run(
            [
                sys.executable, "-m", "bilex.cli", "run",
                "--method", "combined", "--seeds", "5", "--iters", "1",
                "--proc-inner", "1", "--sgm-max-iters", "1",
                "--src-emb", str(src), "--tgt-emb", str(tgt), "--dict", str(dictionary),
                "--hyps", str(tmp_path / "h.tsv"),
            ],
            env=blas_env("1"), capture_output=True, text=True,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert "sgm stopped at max_iters=1 before converging" in done.stderr


class TestExitCodes:
    def test_solve_beyond_physical_memory_is_memory_error(self, tmp_path, planted_files,
                                                          monkeypatch, capsys):
        src, tgt, dictionary = planted_files(n=30, d=6, seed=4)
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: 1024)
        code = main([
            "run", "--method", "sgm", "--seeds", "8", "--src-emb", str(src),
            "--tgt-emb", str(tgt), "--dict", str(dictionary), "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_MEMORY == 5
        assert "memory error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_prep_missing_file_is_io_error(self, tmp_path):
        code = main([
            "prep", "--dict", str(tmp_path / "missing.tsv"),
            "--src-emb", str(tmp_path / "missing.vec"),
            "--tgt-emb", str(tmp_path / "missing.vec"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_IO

    def test_missing_file_is_io_error(self, tmp_path):
        code = main([
            "run", "--method", "sgm", "--seeds", "2",
            "--src-emb", str(tmp_path / "nope.vec"),
            "--tgt-emb", str(tmp_path / "nope.vec"),
            "--dict", str(tmp_path / "nope.tsv"),
        ])
        assert code == EXIT_IO

    def test_bad_dictionary_is_parse_error(self, tmp_path):
        write_vec(tmp_path / "s.vec", ["a", "b"], np.eye(2))
        (tmp_path / "d.tsv").write_text("a 1 extra\n", encoding="utf-8")
        code = main([
            "run", "--method", "sgm", "--seeds", "1",
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "s.vec"),
            "--dict", str(tmp_path / "d.tsv"),
        ])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("bad", ["src", "dict"])
    def test_undecodable_input_is_parse_error_naming_the_file(self, tmp_path, capsys, bad):
        write_vec(tmp_path / "t.vec", ["a", "b"], np.eye(2))
        write_pairs(tmp_path / "d.tsv", [("a", "a"), ("b", "b")])
        (tmp_path / "s.vec").write_bytes(
            b"2 2\na 1 0\nb\xff 3.0 4.0\n" if bad == "src" else b"2 2\na 1 0\nb 0 1\n"
        )
        if bad == "dict":
            (tmp_path / "d.tsv").write_bytes(b"a\ta\nb\xff\tb\n")
        code = main([
            "prep", "--dict", str(tmp_path / "d.tsv"),
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_PARSE
        where = f"{tmp_path / 's.vec'}:3" if bad == "src" else f"{tmp_path / 'd.tsv'}:2"
        assert f"parse error: {where}: not valid UTF-8" in capsys.readouterr().err

    def test_python_only_int_header_is_parse_error(self, tmp_path, capsys):
        write_vec(tmp_path / "t.vec", ["a", "b"], np.eye(2))
        write_pairs(tmp_path / "d.tsv", [("a", "a"), ("b", "b")])
        (tmp_path / "s.vec").write_text("2_0 2\na 1 0\nb 0 1\n", encoding="utf-8")
        code = main([
            "prep", "--dict", str(tmp_path / "d.tsv"),
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_PARSE == 3
        assert "non-integer header fields '2_0 2'" in capsys.readouterr().err

    def test_undecodable_hyps_is_parse_error_naming_the_file(self, tmp_path, capsys):
        hyps = tmp_path / "h.tsv"
        hyps.write_bytes(b"a\tb\t1\t0.9\n\xffa\tb\t1\t0.9\n")
        write_pairs(tmp_path / "g.tsv", [("a", "b")])
        code = main(["eval", "--hyps", str(hyps), "--gold", str(tmp_path / "g.tsv")])
        assert code == EXIT_PARSE
        assert f"parse error: {hyps}:2: not valid UTF-8" in capsys.readouterr().err

    def test_undecodable_config_is_usage_error_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seeds=3\nsrc-emb=a\xff.vec\n")
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert f"error: {config}:2: not valid UTF-8" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--method", "warp"])
        assert err.value.code == EXIT_USAGE

    def test_removed_sgm_eps_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--sgm-eps", "0.03"])
        assert err.value.code == EXIT_USAGE
        assert "unrecognized arguments: --sgm-eps 0.03" in capsys.readouterr().err

    def test_removed_shuffle_input_flag_and_key_are_usage_errors(self, tmp_path, capsys):
        # Every graph solve relabels its free vertices; nothing turns it off.
        # Every run ranks five candidates by CSLS over 10 neighbours.
        for flag in (["--no-shuffle-input"], ["--csls-k", "10"], ["--top-k", "5"]):
            with pytest.raises(SystemExit) as err:
                main(["run", *flag])
            assert err.value.code == EXIT_USAGE
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        config = tmp_path / "exp.cfg"
        for key, value in (("shuffle_input", "false"), ("csls_k", "10"), ("top_k", "5")):
            config.write_text(f"{REQUIRED_CONFIG}{key}={value}\n", encoding="utf-8")
            assert main(["run", "--config", str(config)]) == EXIT_USAGE
            assert f"error: {config}:5: unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("sgm_eps=0.03", ":5: unknown config key 'sgm_eps'"),
            ("seeds 3", ":5: expected key=value"),
        ],
        ids=["unknown-key", "no-equals-sign"],
    )
    def test_bad_config_line_is_usage_error(self, tmp_path, capsys, line, problem):
        config = tmp_path / "exp.cfg"
        config.write_text(f"{REQUIRED_CONFIG}{line}\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert f"error: {config}{problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("seeds=ten", ":5: seeds must be int, got 'ten'"),
            ("iters=2.5", ":5: iters must be int, got '2.5'"),
        ],
        ids=["seeds", "iters"],
    )
    def test_config_value_of_the_wrong_type_names_file_line_and_key(
        self, tmp_path, capsys, line, problem
    ):
        config = tmp_path / "exp.cfg"
        config.write_text(f"{REQUIRED_CONFIG}{line}\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {config}{problem}\n"

    @pytest.mark.parametrize("name", list(CHOICES))
    def test_unknown_choice_is_usage_error(self, tmp_path, name, capsys):
        with pytest.raises(ValueError, match=f"{name} must be one of"):
            ExperimentSpec("s.vec", "t.vec", "d.tsv", 3, **{name: "warp"})
        config = tmp_path / "exp.cfg"
        config.write_text(f"{REQUIRED_CONFIG}{name}=warp\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {name} must be one of")
        with pytest.raises(SystemExit) as err:
            main(["run", *spec_flag(name, "warp")])
        assert err.value.code == EXIT_USAGE
        assert "invalid choice: 'warp'" in capsys.readouterr().err

    def test_invalid_spec_is_usage_error(self, tmp_path, planted_files, capsys):
        src, tgt, dictionary = planted_files(n=10, d=4, seed=7)
        code = main([
            "run", "--method", "sgm", "--seeds", "0",
            "--src-emb", str(src), "--tgt-emb", str(tgt),
            "--dict", str(dictionary),
        ])
        assert code == EXIT_USAGE
        assert "seeds" in capsys.readouterr().err

    def test_negative_rng_seed_rejected_before_reading_files(self, tmp_path, capsys):
        # The files do not exist: reading any of them would exit 2.
        code = main([
            "run", "--method", "sgm", "--seeds", "3", "--rng-seed", "-1",
            "--src-emb", str(tmp_path / "missing_src.vec"),
            "--tgt-emb", str(tmp_path / "missing_tgt.vec"),
            "--dict", str(tmp_path / "missing_dict.tsv"),
        ])
        assert code == EXIT_USAGE
        assert "rng_seed must be a non-negative integer" in capsys.readouterr().err

    def test_missing_required_spec_key_is_usage_error(self, capsys):
        code = main(["run", "--method", "sgm"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: missing required option(s): src_emb, tgt_emb, dictionary, seeds\n"
        )

    def test_zero_vector_row_is_numeric_error(self, tmp_path):
        write_vec(tmp_path / "s.vec", ["a", "b", "c"], np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        ))
        write_vec(tmp_path / "t.vec", ["1", "2", "3"], np.eye(3, 2))
        write_pairs(tmp_path / "d.tsv", [("a", "1"), ("b", "2"), ("c", "3")])
        code = main([
            "run", "--method", "sgm", "--seeds", "1",
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"),
            "--dict", str(tmp_path / "d.tsv"),
        ])
        assert code == EXIT_NUMERIC

    def test_empty_embedding_file_is_usage_error_without_warnings(self, tmp_path, capsys):
        write_vec(tmp_path / "s.vec", [], np.empty((0, 3)))
        write_pairs(tmp_path / "d.tsv", [("a", "1")])
        code = main([
            "run", "--method", "procrustes", "--seeds", "1",
            "--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "s.vec"),
            "--dict", str(tmp_path / "d.tsv"),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: seed count 1 must be smaller than lexicon size 0\n"
        )

    def test_eval_fixtures_mirror_metric_examples(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        write_pairs(gold, [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")])
        all_right = tmp_path / "right.tsv"
        all_right.write_text(
            "".join(f"{s}\t{t}\t1\t0.9\n" for s, t in
                    [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")]),
            encoding="utf-8",
        )
        assert main(["eval", "--hyps", str(all_right), "--gold", str(gold)]) == EXIT_OK
        assert '"p_at_1": 100.0' in capsys.readouterr().out

        three_of_four = tmp_path / "three.tsv"
        three_of_four.write_text(
            "".join(f"{s}\t{t}\t1\t0.9\n" for s, t in
                    [("a", "1"), ("b", "2"), ("c", "3"), ("d", "x")]),
            encoding="utf-8",
        )
        assert main(["eval", "--hyps", str(three_of_four), "--gold", str(gold)]) == EXIT_OK
        assert '"p_at_1": 75.0' in capsys.readouterr().out

    def test_blank_lines_in_a_dump_are_skipped(self, tmp_path):
        plain, spaced = tmp_path / "plain.tsv", tmp_path / "spaced.tsv"
        plain.write_text("a\tb\t1\t0.9\na\tc\t2\t0.8\nd\te\t1\t0.7\n", encoding="utf-8")
        spaced.write_text(
            "\na\tb\t1\t0.9\n \na\tc\t2\t0.8\n\t\nd\te\t1\t0.7\n\n", encoding="utf-8"
        )
        assert _read_hypotheses(spaced) == _read_hypotheses(plain)
        assert _read_hypotheses(spaced).entries == {
            "a": (("b", 0.9), ("c", 0.8)), "d": (("e", 0.7),)
        }

    def test_malformed_hyps_tsv_is_parse_error(self, tmp_path):
        (tmp_path / "h.tsv").write_text("a\tb\n", encoding="utf-8")
        write_pairs(tmp_path / "g.tsv", [("a", "b")])
        code = main([
            "eval", "--hyps", str(tmp_path / "h.tsv"), "--gold", str(tmp_path / "g.tsv")
        ])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "dump,problem",
        [
            ("a\tb\t1\t0.9\na\tb\t2\t0.8\n", "duplicate target"),
            ("a\tb\t1\t0.9\na\tc\t2\t0.8\na\tb\t3\t0.7\n", ":3: duplicate target"),
            ("a\tb\t1\t0.5\na\tc\t2\t0.9\n", "not sorted by score"),
            ("a\tb\t1\t1.0\na\tc\t2\tnan\na\td\t3\t2.0\n", ":2: non-finite score"),
            ("a\tb\tone\t0.9\n", ":1: unparseable rank or score"),
            ("a\tb\t1\t0.9\na\tc\t3\t0.8\n", ":2: rank 3 out of sequence for 'a'"),
        ],
        ids=["repeated-target", "repeated-target-apart", "unsorted-scores", "nan-score",
             "unparseable-rank", "rank-out-of-sequence"],
    )
    def test_inconsistent_hyps_list_is_parse_error(self, tmp_path, capsys, dump, problem):
        hyps = tmp_path / "h.tsv"
        hyps.write_text(dump, encoding="utf-8")
        write_pairs(tmp_path / "g.tsv", [("a", "b")])
        code = main(["eval", "--hyps", str(hyps), "--gold", str(tmp_path / "g.tsv")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"parse error: {hyps}:" in err and problem in err


def test_every_flag_in_the_readme_cli_section_is_accepted():
    # A flag that is renamed or removed must leave the README with it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    parser = _build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        flag
        for command in (parser, *commands.choices.values())
        for action in command._actions
        for flag in action.option_strings
    }
    assert {"--config", "--dict", "--sgm-max-iters"} <= named
    assert named - accepted == set()


def test_exit_codes_sentences_name_the_exit_constants():
    # The module docstring and README "CLI" each state the codes in one
    # sentence; a code that is added, removed or renumbered must change both.
    codes = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    for text in (cli.__doc__, section):
        (sentence,) = re.findall(r"Exit codes:(.*?)\.(?:\s|$)", text, re.S)
        assert [int(code) for code in re.findall(r"(?:^|,)\s*(\d+)\s", sentence)] == codes


def test_below_zero_sentence_names_the_fields_that_may_be_zero():
    # README "CLI" lists the integer flags that may be 0; a field that
    # joins or leaves pipelines._AT_LEAST_ZERO must change the sentence.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (sentence,) = re.findall(r"below 0 for (.*?);", section, re.S)
    flags = re.findall(r"`--([a-z-]+)`", sentence)
    assert tuple(flag.replace("-", "_") for flag in flags) == pipelines._AT_LEAST_ZERO


def test_run_spec_flags_are_the_spec_field_names():
    # README "CLI": the run flags are the field names written with -,
    # except --dict; a new exception must change the README with it.
    parser = _build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (group,) = (g for g in commands.choices["run"]._action_groups if g.title == "experiment spec")
    flags = {flag for action in group._group_actions for flag in action.option_strings}
    assert flags == {
        "--dict" if field.name == "dictionary" else "--" + field.name.replace("_", "-")
        for field in SPEC_FIELDS
    }
