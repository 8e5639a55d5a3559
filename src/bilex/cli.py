"""Reproducible experiment runner.

Three subcommands:

``prep``
    Filter a bilingual dictionary to one-to-one pairs, drop pairs
    without embeddings, and write seed/test splits.
``run``
    Execute one experiment (single, iterative, or combined) and write a
    JSON report plus a TSV hypothesis dump.
``eval``
    Recompute metrics from a hypothesis dump against a gold lexicon.

Exit codes: 0 success, 1 usage/spec error, 2 I/O error, 3 input parse
error, 4 numeric failure, 5 a graph solve that would not fit in physical
memory (checked before it starts). All randomness flows from
``--rng-seed``. ``run`` pins numpy's OpenBLAS to one thread, so its dump
is the same on any BLAS thread count (README, "Determinism").
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, pipelines
from .embeddings import EmbeddingFormatError, NormalizationError, load_embeddings, open_text
from .evaluation import metrics_report
from .graph_matching import WorkingSetError
from .hypotheses import HypothesisSet
from .lexicon import (
    DictionaryFormatError,
    Lexicon,
    drop_missing,
    filter_one_to_one,
    load_dictionary,
    split,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4
EXIT_MEMORY = 5

# ExperimentSpec fields without a default, in field order.
_SPEC_REQUIRED = [f.name for f in fields(pipelines.ExperimentSpec) if f.default is MISSING]
_SPEC_HELP = {"h": "Stochastic-Add sample growth", "iters": "iterations / cycles N"}


class HypothesisFormatError(ValueError):
    """A hypothesis TSV line does not follow ``src\\ttgt\\trank\\tscore``,
    or a source's list repeats a target or is not sorted by score."""


class _Parser(argparse.ArgumentParser):
    """argparse uses exit code 2 for usage errors; this runner reserves 2
    for I/O problems, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bilex", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"bilex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prep", help="filter a dictionary and write seed/test splits")
    prep.add_argument("--dict", required=True, help="bilingual dictionary (one pair per line)")
    prep.add_argument("--src-emb", required=True, help="source embedding .vec[.gz] file")
    prep.add_argument("--tgt-emb", required=True, help="target embedding .vec[.gz] file")
    prep.add_argument("--out-dir", required=True, help="directory for the split TSVs")
    prep.add_argument(
        "--seed-counts", default="100",
        help="comma-separated seed sizes, e.g. 100,500,1000 (default 100)",
    )
    prep.add_argument("--max-words", type=int, default=None)
    prep.set_defaults(func=_cmd_prep)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", help="key=value file; explicit flags override it")
    run.add_argument("--out", help="write the JSON run report here")
    run.add_argument("--hyps", help="write the TSV hypothesis dump here")
    _add_spec_arguments(run)
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="recompute metrics from a hypothesis dump")
    ev.add_argument("--hyps", required=True, help="TSV dump from 'run'")
    ev.add_argument("--gold", required=True, help="gold test lexicon (TSV)")
    ev.add_argument("--out", help="write the JSON metrics here (default stdout)")
    ev.set_defaults(func=_cmd_eval)
    return parser


def _add_spec_arguments(parser) -> None:
    """One flag per ExperimentSpec field: ``--field-name``, except
    ``--dict`` for ``dictionary``."""
    g = parser.add_argument_group("experiment spec")
    for name, kind in pipelines.SPEC_TYPES.items():
        g.add_argument(
            "--dict" if name == "dictionary" else "--" + name.replace("_", "-"),
            dest=name,
            type=kind,
            choices=pipelines.CHOICES.get(name),
            default=argparse.SUPPRESS,
            help=_SPEC_HELP.get(name),
        )


def _read_config(path) -> dict:
    """The spec fields of a ``key=value`` file, each value of its field's type."""
    values = {}
    with open_text(path, ValueError) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            kind = pipelines.SPEC_TYPES.get(key)
            if kind is None:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = kind(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key} must be {kind.__name__}, got {value!r}"
                ) from None
    return values


def _build_spec(args) -> pipelines.ExperimentSpec:
    merged = _read_config(args.config) if args.config else {}
    merged.update(
        {key: value for key, value in vars(args).items() if key in pipelines.SPEC_TYPES}
    )
    missing = [key for key in _SPEC_REQUIRED if key not in merged]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")
    return pipelines.ExperimentSpec(**merged)


def _write_lexicon(path, lexicon: Lexicon) -> None:
    with open(path, "wt", encoding="utf-8") as handle:
        for src, tgt in lexicon.pairs:
            handle.write(f"{src}\t{tgt}\n")


def _write_hypotheses(path, hyps: HypothesisSet) -> None:
    with open(path, "wt", encoding="utf-8") as handle:
        for src, ranked in hyps.entries.items():
            for rank, (tgt, score) in enumerate(ranked, start=1):
                handle.write(f"{src}\t{tgt}\t{rank}\t{score:.10g}\n")


def _read_hypotheses(path) -> HypothesisSet:
    """The dump at ``path``; the one place lists from outside the program
    enter, so it checks each is ranked, sorted and repeats no target."""
    per_source: dict[str, list] = {}
    seen: set[tuple[str, str]] = set()
    with open_text(path, HypothesisFormatError) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise HypothesisFormatError(
                    f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
                )
            src, tgt, rank_raw, score_raw = parts
            try:
                rank, score = int(rank_raw), float(score_raw)
            except ValueError as exc:
                raise HypothesisFormatError(
                    f"{path}:{lineno}: unparseable rank or score"
                ) from exc
            if not math.isfinite(score):
                raise HypothesisFormatError(f"{path}:{lineno}: non-finite score {score_raw!r}")
            ranked = per_source.setdefault(src, [])
            if rank != len(ranked) + 1:
                raise HypothesisFormatError(
                    f"{path}:{lineno}: rank {rank} out of sequence for {src!r}"
                )
            if (src, tgt) in seen:
                raise HypothesisFormatError(
                    f"{path}:{lineno}: duplicate target in hypothesis list for {src!r}"
                )
            if ranked and score > ranked[-1][1]:
                raise HypothesisFormatError(
                    f"{path}:{lineno}: hypothesis list for {src!r} not sorted by score"
                )
            seen.add((src, tgt))
            ranked.append((tgt, score))
    return HypothesisSet({src: tuple(ranked) for src, ranked in per_source.items()})


def _cmd_prep(args) -> int:
    if args.max_words is not None and args.max_words < 1:
        raise ValueError("--max-words must be a positive integer")
    entries = args.seed_counts.split(",")
    for entry in entries:
        if not entry.strip().isdecimal() or int(entry) < 1:
            raise ValueError(f"--seed-counts entry {entry!r} is not a positive integer")
    lexicon = load_dictionary(args.dict)
    filtered = filter_one_to_one(lexicon)
    print(f"{len(filtered)} pairs retained after one-to-one filtering ({len(lexicon)} read)")
    src = load_embeddings(args.src_emb, args.max_words)
    tgt = load_embeddings(args.tgt_emb, args.max_words)
    usable = drop_missing(filtered, src.index, tgt.index)
    if len(usable) != len(filtered):
        print(f"{len(filtered) - len(usable)} pairs dropped for missing embeddings")
    print(f"{len(usable)} usable pairs")

    # Every count is split before any file is written, so a bad one leaves no output.
    splits = [(count, split(usable, count)) for count in map(int, entries)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lexicon(out_dir / "filtered.tsv", usable)
    for count, parts in splits:
        _write_lexicon(out_dir / f"seeds_{count}.tsv", parts.seeds)
        _write_lexicon(out_dir / f"test_{count}.tsv", parts.test)
        print(f"seeds={count}: {len(parts.seeds)} seed pairs, {len(parts.test)} test pairs")
    return EXIT_OK


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    result = pipelines.run(spec)
    if args.hyps:
        _write_hypotheses(args.hyps, result.hypotheses)
    report = {
        "version": __version__,
        "rng_seed": spec.rng_seed,
        "spec": asdict(spec),
        "iterations": result.iterations,
        "metrics": asdict(result.metrics),
        "metrics_rounded": result.metrics.rounded(),
        "timings": result.timings,
    }
    if args.out:
        with open(args.out, "wt", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    rounded = result.metrics.rounded()
    print(
        f"method={spec.method} seeds={spec.seeds} "
        f"p@1={rounded['p_at_1']} p@5={rounded['precision_at_5']} "
        f"r@5={rounded['recall_at_5']} f1@5={rounded['f1_at_5']} "
        f"hyps={rounded['total_hyps']}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    hyps = _read_hypotheses(args.hyps)
    gold = load_dictionary(args.gold)
    report = metrics_report(hyps, gold)
    rounded = report.rounded()
    print(
        f"p@1={rounded['p_at_1']} p@5={rounded['precision_at_5']} "
        f"r@5={rounded['recall_at_5']} f1@5={rounded['f1_at_5']} "
        f"correct={report.correct_hyps}/{report.total_hyps} "
        f"test={report.test_size}"
    )
    payload = json.dumps(
        {"metrics": asdict(report), "metrics_rounded": rounded},
        indent=2,
        sort_keys=True,
    )
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkingSetError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except (EmbeddingFormatError, DictionaryFormatError, HypothesisFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (np.linalg.LinAlgError, NormalizationError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
