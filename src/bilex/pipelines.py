"""End-to-end experiment pipelines.

Wires the loaders, the Euclidean engine (Procrustes map + CSLS
extraction) and the graph engine (seeded Frank-Wolfe matching) into
single runs, bidirectional iterative refinement (Add-All,
Stochastic-Add, Active-Learning) and the combined cyclic system where
the two engines alternately seed each other. ``run`` is the one entry
point: it dispatches a spec, which checked itself when built, by
``METHODS`` and evaluates the final hypotheses.

Both framings work on the dictionary-restricted vocabulary by default:
the graph vertices (and the Euclidean candidate set) are the seed words
plus all test words, seeds first, then frequency order, giving both
sides the same size. Every source of randomness is a substream derived
from the experiment's single rng seed and fixed structural indices
(iteration, direction, run), so results are independent of scheduling.
"""

from __future__ import annotations

import itertools
import numbers
import time
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import evaluation
from ._threads import _pinned_blas
from .embeddings import EmbeddingMatrix, load_embeddings, normalize
from .graph_matching import (
    build_graph,
    sgm,
    soft_sgm,
    top_k_from_distribution,
)
from .hypotheses import HypothesisSet, TopK
from .lexicon import Lexicon, drop_missing, filter_one_to_one, load_dictionary, split
from .procrustes import extract_hypotheses, solve_procrustes

# What each method runs: (pipeline, engine). Soft SGM is an ensemble of
# restarts and the combined cycle alternates both engines, so neither
# names one engine.
METHODS = {
    "procrustes": ("single", "proc"),
    "sgm": ("single", "sgm"),
    "softsgm": ("single", None),
    "iterproc": ("iterate", "proc"),
    "itersgm": ("iterate", "sgm"),
    "combined": ("combined", None),
}

# Allowed values of the enumerated ExperimentSpec fields.
CHOICES = {
    "method": tuple(METHODS),
    "strategy": ("add_all", "stochastic", "active"),
    "start": ("iterproc", "sgm"),
    "pull": ("proc", "sgm"),
    "vocab_mode": ("restricted", "top_n"),
}

# Where Stochastic-Add stops once past ``iters`` although its growing
# sample has not covered the intersection, which can keep moving. The
# other strategies run exactly ``iters`` iterations.
MAX_ITERATIONS = 50

# Spawn-key tags for rng substreams (stable across releases for
# reproducibility).
_RNG_SINGLE_SGM = 1
_RNG_SOFT = 2
_RNG_ITER = 3
_RNG_COMBINED = 4
_RNG_SAMPLE = 5
_FORWARD, _REVERSE = 0, 1


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment."""

    src_emb: str
    tgt_emb: str
    dictionary: str
    seeds: int
    method: str = "procrustes"
    strategy: str = "add_all"
    h: int = 100
    iters: int = 10
    proc_inner: int = 5
    start: str = "iterproc"
    pull: str = "proc"
    soft_runs: int = 10
    rng_seed: int = 0
    vocab_mode: str = "restricted"
    max_words: int | None = None
    normalize_passes: int = 1
    sgm_max_iters: int = 30

    def __post_init__(self):
        """Refuse a spec with one ValueError naming each of its problems.

        The integer fields are those annotated ``int``; each must be an
        integral value other than a bool, at least 1, or at least 0 for
        ``_AT_LEAST_ZERO``. A field whose default is None may be None.
        """
        problems = [
            f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
            for name, allowed in CHOICES.items()
            if getattr(self, name) not in allowed
        ]
        if self.vocab_mode == "top_n" and METHODS.get(self.method, (None, None))[1] != "proc":
            problems.append(
                "vocab_mode 'top_n' only applies to procrustes/iterproc, since the "
                "graph framing needs equal-size restricted vocabularies"
            )
        for field in fields(self):
            value = getattr(self, field.name)
            if SPEC_TYPES[field.name] is not int or (value is None and field.default is None):
                continue
            least = 0 if field.name in _AT_LEAST_ZERO else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                kind = "non-negative" if least == 0 else "positive"
                problems.append(f"{field.name} must be a {kind} integer, got {value!r}")
        if problems:
            raise ValueError("; ".join(problems))


# ExperimentSpec field -> the type of its values (``int | None`` gives
# ``int``); the CLI parses flags and config values with it.
SPEC_TYPES = {
    name: next(a for a in typing.get_args(hint) or (hint,) if a is not type(None))
    for name, hint in typing.get_type_hints(ExperimentSpec).items()
}
# The integer fields that may be 0.
_AT_LEAST_ZERO = ("normalize_passes", "rng_seed")


@dataclass(frozen=True)
class Dataset:
    """Prepared experiment data: normalized embeddings and the gold split.
    A run's rows and words come from ``_index_space``."""

    src_full: EmbeddingMatrix
    tgt_full: EmbeddingMatrix
    gold_seeds: Lexicon
    gold_test: Lexicon


def build_dataset(
    src_emb: EmbeddingMatrix,
    tgt_emb: EmbeddingMatrix,
    lexicon: Lexicon,
    seed_count: int,
) -> Dataset:
    """Filter the lexicon to pairs both vocabularies hold, then split it."""
    usable = drop_missing(filter_one_to_one(lexicon), src_emb.index, tgt_emb.index)
    parts = split(usable, seed_count)
    return Dataset(src_full=src_emb, tgt_full=tgt_emb, gold_seeds=parts.seeds, gold_test=parts.test)


def assemble(spec: ExperimentSpec) -> Dataset:
    """Load and normalize embeddings from disk, then build the dataset."""
    src = normalize(load_embeddings(spec.src_emb, spec.max_words), spec.normalize_passes)
    tgt = normalize(load_embeddings(spec.tgt_emb, spec.max_words), spec.normalize_passes)
    lexicon = load_dictionary(spec.dictionary)
    return build_dataset(src, tgt, lexicon, spec.seeds)


# ---------------------------------------------------------------------------
# Engines
#
# Engines work on two row arrays in a run's index space (``_index_space``).
# Seeds are (m, 2) arrays of (source, target) index pairs; a result is
# (keys, TopK), whose row i ranks the candidates of source index keys[i],
# and whose keys hold every index of their side once.


def _proc_run(x, y, spec: ExperimentSpec, seeds):
    """One Euclidean run: fit W on the seed pairs, extract top-k via CSLS.

    Returns (forward, reverse) in row order. At every rank of W its
    transpose is the reverse problem's map, so the reverse holds each
    target's best source from the same scores.
    """
    mapping = solve_procrustes(x[seeds[:, 0]], y[seeds[:, 1]])
    rows, columns = extract_hypotheses(mapped_src=mapping.apply(x), tgt=y)
    return (np.arange(len(x)), rows), (np.arange(len(y)), columns)


def _seed_order(n: int, seed_rows) -> np.ndarray:
    """Rows 0..n-1 reordered seeds-first, the remainder in frequency order."""
    return np.concatenate((seed_rows, np.setdiff1d(np.arange(n), seed_rows)))


def _sgm_run(x, y, spec: ExperimentSpec, seeds, rng):
    """One seeded-graph-matching run over the restricted graphs.

    Returns (forward, reverse), keyed in seeds-first vertex order. When
    every LAP of the solve had a unique optimum, the reverse solve on the
    same seeds would return the inverse permutation (see ``sgm``), and
    the reverse is read from it; otherwise None.
    """
    n = len(x)
    order_a, order_b = _seed_order(n, seeds[:, 0]), _seed_order(n, seeds[:, 1])
    if len(seeds) == n:
        # Iteration can saturate the seed set; every vertex is then fixed
        # and the matching is the seed pairing itself.
        perm, unique = np.arange(n), True
    else:
        matching = sgm(
            build_graph(x, order_a),
            build_graph(y, order_b),
            s=len(seeds),
            rng=rng,
            max_iters=spec.sgm_max_iters,
        )
        perm, unique = matching.perm, matching.unique
    ones = np.ones((n, 1))
    # The reverse is keyed in its own solve's vertex order, which Active's union keeps.
    reverse = (order_b, TopK(order_a[np.argsort(perm)][:, None], ones)) if unique else None
    return (order_a, TopK(order_b[perm][:, None], ones)), reverse


def _engine_run(rows, spec, engine: str, seeds, direction: int, key: tuple):
    """One engine run in one direction: (result, reverse result or None).

    ``rows`` is the run's (source rows, target rows) from ``_index_space``;
    the reverse direction swaps them and the seed columns. A Procrustes
    run, and a graph run whose every LAP had a unique optimum, also
    returns the result of the opposite direction on the same seeds. The
    graph engine draws its rng substream from ``(*key, direction)``.
    """
    if direction == _REVERSE:
        rows, seeds = rows[::-1], seeds[:, ::-1]
    if engine == "proc":
        return _proc_run(*rows, spec, seeds)
    return _sgm_run(*rows, spec, seeds, _rng(spec.rng_seed, *key, direction))


def _top1(result) -> np.ndarray:
    """The (key, best candidate) index pairs of an engine result, in key order."""
    keys, top = result
    return np.column_stack((keys, top.index[:, 0]))


def _round(rows, spec, engine: str, seeds_fwd, seeds_rev, key: tuple):
    """One bidirectional round on the run's rows: (forward, reverse, their
    top-1 intersection as index pairs, see ``_intersect``).

    When both directions hold the same seed pairs, the reverse of a
    Procrustes round, and of a graph round whose every LAP had a unique
    optimum, comes from the forward run: one solve, and for Procrustes
    one scoring pass. Otherwise (different Stochastic-Add samples, or
    tied graph LAPs) the reverse is a fresh solve, which for the graph
    engine draws the ``(*key, _REVERSE)`` substream.
    """
    forward, reverse = _engine_run(rows, spec, engine, seeds_fwd, _FORWARD, key)
    shared = len(seeds_fwd) == len(seeds_rev) and _member(seeds_fwd, seeds_rev).all()
    if reverse is None or not shared:
        reverse = _engine_run(rows, spec, engine, seeds_rev, _REVERSE, key)[0]
    return forward, reverse, _intersect(_top1(forward), _top1(reverse))


def _round_record(gold_full, seed_count: int, forward, inter) -> dict:
    """Record fields shared by every round: forward p@1 and intersection quality."""
    test = gold_full[seed_count:]
    hits = int(np.count_nonzero(_member(test, _top1(forward))))
    correct = int(np.count_nonzero(_member(inter, gold_full)))
    return {
        "forward_p1": 100.0 * hits / len(test),
        "intersection_size": len(inter),
        "intersection_precision": 100.0 * correct / len(inter) if len(inter) else None,
    }


# ---------------------------------------------------------------------------
# Index pairs


def _index_space(ds: Dataset, spec: ExperimentSpec):
    """A run's ((source rows, target rows), source words, target words,
    gold index pairs, seeds first).

    The restricted space keeps the gold words' rows, seeds first, so gold
    pair i is (i, i); ``top_n`` keeps every row of both vocabularies. A
    dataset without seed or test pairs, or with a gold word that has no
    embedding row, is refused here, before any engine runs.
    """
    if not len(ds.gold_seeds):
        raise ValueError("the dataset has no gold seed pairs")
    if not len(ds.gold_test):
        raise ValueError("the dataset has no gold test pairs")
    pairs = ds.gold_seeds.pairs + ds.gold_test.pairs
    try:
        gold = np.array(
            [(ds.src_full.index[a], ds.tgt_full.index[b]) for a, b in pairs], dtype=np.intp
        )
    except KeyError as missing:
        raise ValueError(f"gold word {missing.args[0]!r} has no embedding row") from None
    if spec.vocab_mode == "top_n":
        rows = ds.src_full.vectors, ds.tgt_full.vectors
        return rows, ds.src_full.vocab, ds.tgt_full.vocab, gold
    rows = ds.src_full.vectors[gold[:, 0]], ds.tgt_full.vectors[gold[:, 1]]
    src_words, tgt_words = [a for a, _ in pairs], [b for _, b in pairs]
    return rows, src_words, tgt_words, np.arange(len(gold)).repeat(2).reshape(-1, 2)


def _hypotheses(src_words, tgt_words, result) -> HypothesisSet:
    """The word-keyed hypotheses of an engine result."""
    keys, top = result
    return top.hypotheses([src_words[i] for i in keys.tolist()], tgt_words)


def _member(pairs, ref) -> np.ndarray:
    """Which rows of ``pairs`` are rows of ``ref``; ``ref[:, 0]`` repeats no index."""
    lookup = np.full(1 + max(pairs[:, 0].max(initial=-1), ref[:, 0].max(initial=-1)), -1)
    lookup[ref[:, 0]] = ref[:, 1]
    return lookup[pairs[:, 0]] == pairs[:, 1]


def _intersect(fwd, rev) -> np.ndarray:
    """Forward top-1 pairs (x, y), in order, whose reverse pair is (y, x)."""
    return fwd[_member(fwd[:, ::-1], rev)]


def _union(fwd, rev) -> np.ndarray:
    """Forward top-1 pairs, then as (x, y) the reverse pairs (y, x) they lack,
    in reverse key order."""
    rev = rev[:, ::-1]
    return np.concatenate((fwd, rev[~_member(rev, fwd)]))


def _admit(gold, pairs) -> np.ndarray:
    """Gold, then in order the pairs sharing no word with it: both engines'
    seed rule. Both inputs must be one-to-one; the result is then
    ``filter_one_to_one`` of both in turn. A graph round's pairs come back
    unchanged: hard seeds make them begin with its seeds, and so with gold."""
    assert all(len(np.unique(side)) == len(side) for side in (*gold.T, *pairs.T))
    free = ~np.isin(pairs[:, 0], gold[:, 0]) & ~np.isin(pairs[:, 1], gold[:, 1])
    return np.concatenate((gold, pairs[free]))


def _sample(pool, count, rng):
    return pool[rng.permutation(len(pool))[:count]]


# ---------------------------------------------------------------------------
# Pipelines. Only ``run`` calls them.


def _single(spec: ExperimentSpec, ds: Dataset) -> HypothesisSet:
    """One non-iterative run on the gold seeds; returns its hypotheses.

    ``procrustes`` and ``sgm`` are one forward engine run; ``softsgm``
    ranks each source's targets by their share of ``soft_runs`` restarts.
    """
    engine = METHODS[spec.method][1]
    rows, src_words, tgt_words, gold_full = _index_space(ds, spec)
    s = len(ds.gold_seeds)
    if engine is not None:
        result = _engine_run(rows, spec, engine, gold_full[:s], _FORWARD, (_RNG_SINGLE_SGM,))[0]
        return _hypotheses(src_words, tgt_words, result)
    # The restricted rows are the graphs themselves, gold seeds first.
    dist = soft_sgm(
        *rows,
        s=s,
        rngs=[_rng(spec.rng_seed, _RNG_SOFT, r) for r in range(spec.soft_runs)],
        max_iters=spec.sgm_max_iters,
    )
    return top_k_from_distribution(dist, keys=src_words, labels=tgt_words)


def _iterate(spec: ExperimentSpec, ds: Dataset):
    """Bidirectional iterative refinement of the engine of ``spec.method``
    (``iterproc`` or ``itersgm``) with one of the three strategies.

    Iteration 1 always runs on the gold seeds alone; hypothesis-derived
    seeds first appear at iteration 2, after gold (``_admit``, for both
    engines). Add-All feeds the whole forward/reverse intersection back.
    Stochastic-Add feeds gold plus a fresh sample of min((t-1)*H, pool)
    intersection pairs, drawn independently for each direction; past
    ``iters`` it goes on until the sample covers the pool or
    MAX_ITERATIONS is reached. Active-Learning feeds the oracle-verified
    subset of the union of both directions. Graph seeds are hard, so for
    ``itersgm`` the intersection and the verified union already begin
    with the round's seeds, and so with gold, and admission keeps them
    as they are. Each round solves both directions (see ``_round``).

    Rounds work on index arrays; the final forward result alone becomes
    word-keyed.

    Returns (per-iteration records, final forward hypotheses).
    """
    engine = METHODS[spec.method][1]
    engine_id = 0 if engine == "proc" else 1
    rows, src_words, tgt_words, gold_full = _index_space(ds, spec)
    gold = gold_full[: len(ds.gold_seeds)]
    seeds_fwd = seeds_rev = gold
    records: list[dict] = []
    pool_covered = spec.strategy != "stochastic"
    for t in itertools.count(1):
        forward, reverse, inter = _round(
            rows, spec, engine, seeds_fwd, seeds_rev, (_RNG_ITER, engine_id, t)
        )
        records.append(
            {
                "iteration": t,
                **_round_record(gold_full, len(gold), forward, inter),
                "seeds_forward": len(seeds_fwd),
                "seeds_reverse": len(seeds_rev),
                "forward_hypotheses": forward[1].index.size,
            }
        )
        if t >= spec.iters and (pool_covered or t >= MAX_ITERATIONS):
            break
        if spec.strategy == "add_all":
            seeds_fwd = seeds_rev = _admit(gold, inter)
        elif spec.strategy == "active":
            union = _union(_top1(forward), _top1(reverse))
            seeds_fwd = seeds_rev = _admit(gold, union[_member(union, gold_full)])
        else:  # stochastic
            pool = inter[~_member(inter, gold)]
            take = min(t * spec.h, len(pool))
            pool_covered = take >= len(pool)
            seeds_fwd, seeds_rev = (
                _admit(gold, _sample(pool, take, _rng(spec.rng_seed, _RNG_SAMPLE, engine_id, t, d)))
                for d in (_FORWARD, _REVERSE)
            )
    return records, _hypotheses(src_words, tgt_words, forward)


def _combined(spec: ExperimentSpec, ds: Dataset):
    """The cyclic system: single bidirectional SGM and Add-All inner
    Euclidean refinement alternately seed each other for ``iters`` cycles.

    Each cycle runs one SGM round and ``proc_inner`` (at least 1)
    Procrustes rounds, in the order ``spec.start`` sets. The final
    hypotheses are the last forward result of the engine named by
    ``spec.pull``. Rounds work on index arrays, as in ``_iterate``.

    Returns (per-cycle records, final hypotheses).
    """
    rows, src_words, tgt_words, gold_full = _index_space(ds, spec)
    gold = seeds = gold_full[: len(ds.gold_seeds)]
    last_forward = {}
    order = ("sgm", "proc") if spec.start == "sgm" else ("proc", "sgm")
    records: list[dict] = []
    for cycle in range(1, spec.iters + 1):
        components = []
        for engine in order:
            rounds = 1 if engine == "sgm" else spec.proc_inner
            for _ in range(rounds):
                forward, _, inter = _round(
                    rows, spec, engine, seeds, seeds, (_RNG_COMBINED, cycle)
                )
                seeds = _admit(gold, inter)
            last_forward[engine] = forward
            info = {"component": engine}
            if engine == "proc":
                info["inner_iterations"] = rounds
            info.update(_round_record(gold_full, len(gold), forward, inter), seeds_after=len(seeds))
            components.append(info)
        records.append(
            {
                "iteration": cycle,
                "components": components,
                "forward_p1": components[-1]["forward_p1"],
            }
        )
    return records, _hypotheses(src_words, tgt_words, last_forward[spec.pull])


@dataclass
class RunResult:
    """Structured outcome of one experiment run."""

    hypotheses: HypothesisSet
    iterations: list[dict]
    metrics: evaluation.MetricsReport
    timings: dict[str, float]


def run(spec: ExperimentSpec, dataset: Dataset | None = None) -> RunResult:
    """Dispatch an experiment by method and evaluate the final hypotheses.

    Each graph solve raises WorkingSetError before it starts when its
    m x m arrays would exceed physical memory (see ``sgm``). numpy's
    BLAS runs on one thread, process-wide, until this returns or raises,
    so the dump does not depend on its thread count.
    """
    with _pinned_blas():
        timings: dict[str, float] = {}
        started = time.perf_counter()
        ds = dataset if dataset is not None else assemble(spec)
        timings["prepare_s"] = time.perf_counter() - started

        started = time.perf_counter()
        pipeline = METHODS[spec.method][0]
        if pipeline == "single":
            hyps = _single(spec, ds)
        elif pipeline == "iterate":
            records, hyps = _iterate(spec, ds)
        else:
            records, hyps = _combined(spec, ds)
        timings["solve_s"] = time.perf_counter() - started

        metrics = evaluation.metrics_report(hyps, ds.gold_test)
    if pipeline == "single":
        records = [{"iteration": 1, "forward_p1": metrics.p_at_1}]
    return RunResult(hypotheses=hyps, iterations=records, metrics=metrics, timings=timings)
