"""End-to-end experiment pipelines.

Wires the loaders, the Euclidean engine (orthogonal map + CSLS
extraction) and the graph engine (seeded Frank-Wolfe matching) into
single runs, bidirectional iterative refinement (Add-All,
Stochastic-Add, Active-Learning) and the combined cyclic system where
the two engines alternately seed each other.

Both framings work on the dictionary-restricted vocabulary by default:
the graph vertices (and the Euclidean candidate set) are the seed words
plus all test words, seeds first, then frequency order, giving both
sides the same size. Every source of randomness is a substream derived
from the experiment's single rng seed and fixed structural indices
(iteration, direction, run), so results are independent of scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import evaluation
from .embeddings import EmbeddingMatrix, load_embeddings, normalize
from .graph_matching import (
    build_graph,
    sgm,
    soft_sgm,
    top_k_from_distribution,
)
from .hypotheses import HypothesisSet
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

# Hard cap on refinement iterations; Stochastic-Add runs until its growing
# sample covers the intersection, which must terminate even if the
# intersection keeps moving.
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
    csls_k: int = 10
    soft_runs: int = 10
    rng_seed: int = 0
    vocab_mode: str = "restricted"
    top_k: int = 5
    max_words: int | None = None
    normalize_passes: int = 1
    sgm_max_iters: int = 30
    sgm_eps: float = 0.03
    shuffle_input: bool = True

    def validate(self) -> list[str]:
        """All problems with this spec, as human-readable messages."""
        problems = [
            f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
            for name, allowed in CHOICES.items()
            if getattr(self, name) not in allowed
        ]
        if self.vocab_mode == "top_n" and METHODS.get(self.method, (None, None))[1] != "proc":
            problems.append(
                "vocab_mode 'top_n' only applies to procrustes/iterproc; the "
                "graph framing needs equal-size restricted vocabularies"
            )
        for name in ("seeds", "h", "iters", "csls_k", "soft_runs", "top_k"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be a positive integer")
        for name in ("proc_inner", "normalize_passes", "rng_seed"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be a non-negative integer")
        if self.max_words is not None and self.max_words < 1:
            problems.append("max_words must be a positive integer")
        if self.sgm_max_iters < 1:
            problems.append("sgm_max_iters must be a positive integer")
        if not self.sgm_eps > 0:  # also rejects NaN
            problems.append("sgm_eps must be positive")
        elif not np.isfinite(self.sgm_eps):  # FW would stop after one step
            problems.append("sgm_eps must be finite")
        return problems


@dataclass(frozen=True)
class Dataset:
    """Prepared experiment data: normalized embeddings plus the gold split."""

    src_full: EmbeddingMatrix
    tgt_full: EmbeddingMatrix
    src_words: tuple[str, ...]
    tgt_words: tuple[str, ...]
    gold_seeds: Lexicon
    gold_test: Lexicon

    @property
    def n(self) -> int:
        return len(self.src_words)

    @cached_property
    def x(self) -> np.ndarray:
        return self.src_full.vectors[[self.src_full.index[w] for w in self.src_words]]

    @cached_property
    def y(self) -> np.ndarray:
        return self.tgt_full.vectors[[self.tgt_full.index[w] for w in self.tgt_words]]

    @cached_property
    def src_row(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.src_words)}

    @cached_property
    def tgt_row(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.tgt_words)}

    @cached_property
    def gold_full(self) -> Lexicon:
        return Lexicon(tuple(self.gold_seeds.pairs) + tuple(self.gold_test.pairs))

    @cached_property
    def swapped(self) -> Dataset:
        """The same data with the two languages' roles exchanged."""
        return Dataset(
            src_full=self.tgt_full,
            tgt_full=self.src_full,
            src_words=self.tgt_words,
            tgt_words=self.src_words,
            gold_seeds=Lexicon(tuple((t, s) for s, t in self.gold_seeds)),
            gold_test=Lexicon(tuple((t, s) for s, t in self.gold_test)),
        )


def build_dataset(
    src_emb: EmbeddingMatrix,
    tgt_emb: EmbeddingMatrix,
    lexicon: Lexicon,
    seed_count: int,
) -> Dataset:
    """Filter the lexicon, split it, and lay out the restricted vocabulary."""
    usable = drop_missing(filter_one_to_one(lexicon), src_emb.index, tgt_emb.index)
    parts = split(usable, seed_count)
    src_words = parts.seeds.sources() + parts.test.sources()
    tgt_words = parts.seeds.targets() + parts.test.targets()
    return Dataset(
        src_full=src_emb,
        tgt_full=tgt_emb,
        src_words=src_words,
        tgt_words=tgt_words,
        gold_seeds=parts.seeds,
        gold_test=parts.test,
    )


def assemble(spec: ExperimentSpec) -> Dataset:
    """Load and normalize embeddings from disk, then build the dataset."""
    src = normalize(load_embeddings(spec.src_emb, spec.max_words), spec.normalize_passes)
    tgt = normalize(load_embeddings(spec.tgt_emb, spec.max_words), spec.normalize_passes)
    lexicon = load_dictionary(spec.dictionary)
    return build_dataset(src, tgt, lexicon, spec.seeds)


# ---------------------------------------------------------------------------
# Engines


def _proc_run(ds: Dataset, spec: ExperimentSpec, pairs):
    """One Euclidean run: fit W on the seed pairs, extract top-k via CSLS.

    Returns (forward, reverse). When W is unique its transpose solves the
    reverse problem, and the reverse hypotheses rank each target's
    sources from the same scores; otherwise reverse is None.
    """
    if spec.vocab_mode == "top_n":
        words, mat = ds.src_full.vocab, ds.src_full.vectors
        cand_words, cand_mat = ds.tgt_full.vocab, ds.tgt_full.vectors
    else:
        words, mat, cand_words, cand_mat = ds.src_words, ds.x, ds.tgt_words, ds.y
    xbar = ds.src_full.vectors[[ds.src_full.index[a] for a, _ in pairs]]
    ybar = ds.tgt_full.vectors[[ds.tgt_full.index[b] for _, b in pairs]]
    mapping = solve_procrustes(xbar, ybar)
    rows, columns = extract_hypotheses(
        mapped_src=mapping.apply(mat), tgt=cand_mat,
        top_k=spec.top_k, scorer="csls", csls_k=spec.csls_k,
    )
    forward = rows.hypotheses(words, cand_words)
    return forward, columns.hypotheses(cand_words, words) if mapping.unique else None


def _seed_order(words, row_of, pairs, side: int) -> list[int]:
    """Restricted rows reordered seeds-first, remainder in frequency order."""
    seed_rows = [row_of[pair[side]] for pair in pairs]
    in_seed = set(seed_rows)
    return seed_rows + [i for i in range(len(words)) if i not in in_seed]


def _sgm_run(ds: Dataset, spec: ExperimentSpec, pairs, rng: np.random.Generator):
    """One seeded-graph-matching run over the restricted graphs."""
    order_a = _seed_order(ds.src_words, ds.src_row, pairs, 0)
    order_b = _seed_order(ds.tgt_words, ds.tgt_row, pairs, 1)
    if len(pairs) == ds.n:
        # Iteration can saturate the seed set; every vertex is then fixed
        # and the matching is the seed pairing itself.
        perm = range(ds.n)
    else:
        perm = sgm(
            build_graph(ds.x, order_a),
            build_graph(ds.y, order_b),
            s=len(pairs),
            rng=rng,
            max_iters=spec.sgm_max_iters,
            eps=spec.sgm_eps,
            shuffle_input=spec.shuffle_input,
        ).perm
    entries = {
        ds.src_words[order_a[i]]: ((ds.tgt_words[order_b[int(j)]], 1.0),)
        for i, j in enumerate(perm)
    }
    return HypothesisSet(entries)


def _engine_run(ds, spec, engine: str, seeds, direction: int, key: tuple):
    """One engine run in one direction: (hypotheses, reverse or None).

    The reverse direction swaps the two languages' roles. A Procrustes
    run whose map is unique also returns the hypotheses of the opposite
    direction on the same seeds; the graph engine never does, and draws
    its rng substream from ``(*key, direction)``.
    """
    if not seeds:
        raise ValueError("empty seed set after conflict resolution")
    if direction == _REVERSE:
        ds, seeds = ds.swapped, [(t, s) for s, t in seeds]
    if engine == "proc":
        return _proc_run(ds, spec, seeds)
    return _sgm_run(ds, spec, seeds, _rng(spec.rng_seed, *key, direction)), None


def _round(ds, spec, engine: str, seeds_fwd, seeds_rev, key: tuple):
    """One bidirectional round: (forward, reverse, their top-1 intersection).

    When both directions hold the same seed pairs and the forward map is
    unique, the reverse comes from the forward run's scores: one solve
    and one scoring pass. Otherwise the reverse is a fresh solve.
    """
    forward, reverse = _engine_run(ds, spec, engine, seeds_fwd, _FORWARD, key)
    if reverse is None or set(seeds_fwd) != set(seeds_rev):
        reverse = _engine_run(ds, spec, engine, seeds_rev, _REVERSE, key)[0]
    return forward, reverse, intersect_hypotheses(forward.top1(), reverse.top1())


def _round_record(ds: Dataset, forward: HypothesisSet, inter) -> dict:
    """Record fields shared by every round: forward p@1 and intersection quality."""
    correct = oracle_judge(inter, ds.gold_full)
    return {
        "forward_p1": evaluation.p_at_1(forward, ds.gold_test),
        "intersection_size": len(inter),
        "intersection_precision": 100.0 * len(correct) / len(inter) if inter else None,
    }


# ---------------------------------------------------------------------------
# Hypothesis combination


def intersect_hypotheses(forward_top1, reverse_top1) -> list[tuple]:
    """Pairs (x, y) with forward x -> y and reverse y -> x; always one-to-one."""
    return [
        (src, tgt) for src, tgt in forward_top1.items() if reverse_top1.get(tgt) == src
    ]


def union_hypotheses(forward_top1, reverse_top1) -> list[tuple]:
    """All forward pairs plus all reverse pairs; may be many-to-many."""
    pairs = list(forward_top1.items())
    seen = set(pairs)
    for tgt, src in reverse_top1.items():
        pair = (src, tgt)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def oracle_judge(pairs, gold_full: Lexicon) -> list[tuple]:
    """Simulated annotator: keep exactly the pairs present in the gold lexicon."""
    gold = gold_full.pair_set()
    return [pair for pair in pairs if tuple(pair) in gold]


def resolve_seed_conflicts(gold_pairs, hypothesis_pairs) -> list[tuple]:
    """One-to-one seed set: gold wins collisions, the rest admitted in order."""
    return list(filter_one_to_one(Lexicon((*gold_pairs, *hypothesis_pairs))).pairs)


def _sample(pool, count, rng) -> list:
    order = rng.permutation(len(pool))[:count]
    return [pool[int(i)] for i in order]


# ---------------------------------------------------------------------------
# Pipelines


def _engine_of(spec: ExperimentSpec, pipeline: str) -> str | None:
    """The engine of ``spec.method``, which must be one of ``pipeline``'s methods."""
    owner, engine = METHODS.get(spec.method, (None, None))
    if owner != pipeline:
        raise ValueError(f"{pipeline} cannot run method {spec.method!r}")
    return engine


def run_single(spec: ExperimentSpec, ds: Dataset) -> HypothesisSet:
    """One non-iterative run on the gold seeds; returns its hypotheses.

    ``procrustes`` and ``sgm`` are one forward engine run; ``softsgm``
    ranks each source's targets by their share of ``soft_runs`` restarts.
    """
    engine = _engine_of(spec, "single")
    gold = list(ds.gold_seeds.pairs)
    if engine is not None:
        return _engine_run(ds, spec, engine, gold, _FORWARD, (_RNG_SINGLE_SGM,))[0]
    # Gold seeds already occupy the leading restricted rows.
    master = np.random.SeedSequence(entropy=spec.rng_seed, spawn_key=(_RNG_SOFT,))
    dist = soft_sgm(
        build_graph(ds.x),
        build_graph(ds.y),
        s=len(gold),
        runs=spec.soft_runs,
        master_seed=master,
        max_iters=spec.sgm_max_iters,
        eps=spec.sgm_eps,
        shuffle_input=spec.shuffle_input,
    )
    return top_k_from_distribution(dist, spec.top_k, ds.src_words, ds.tgt_words)


def iterate(spec: ExperimentSpec, ds: Dataset, seed_log: list | None = None):
    """Bidirectional iterative refinement of the engine of ``spec.method``
    (``iterproc`` or ``itersgm``) with one of the three strategies.

    Iteration 1 always runs on the gold seeds alone; hypothesis-derived
    seeds first appear at iteration 2. Add-All feeds the whole
    forward/reverse intersection back (plus gold for the Euclidean
    engine, whose seeding is soft). Stochastic-Add feeds gold plus a
    fresh sample of min((t-1)*H, pool) intersection pairs, drawn
    independently for each direction, and keeps iterating until the
    sample covers the pool (hard cap MAX_ITERATIONS). Active-Learning
    feeds the oracle-verified subset of the union of both directions.
    Each round solves both directions; a Euclidean round whose directions
    share their seed pairs and whose map is unique takes the reverse from
    the forward scores (see ``_round``), and otherwise solves it afresh.

    Returns (per-iteration records, final forward hypotheses).
    """
    engine = _engine_of(spec, "iterate")
    engine_id = 0 if engine == "proc" else 1
    gold = list(ds.gold_seeds.pairs)
    gold_set = set(gold)
    # Gold seeds are kept by the Euclidean engine, whose seeding is soft.
    base = gold if engine == "proc" else []
    seeds_fwd = seeds_rev = gold
    records: list[dict] = []
    pool_covered = spec.strategy != "stochastic"
    for t in range(1, MAX_ITERATIONS + 1):
        if seed_log is not None:
            seed_log.append((list(seeds_fwd), list(seeds_rev)))
        forward, reverse, inter = _round(
            ds, spec, engine, seeds_fwd, seeds_rev, (_RNG_ITER, engine_id, t)
        )
        records.append(
            {
                "iteration": t,
                **_round_record(ds, forward, inter),
                "seeds_forward": len(seeds_fwd),
                "seeds_reverse": len(seeds_rev),
                "forward_hypotheses": forward.total_hypotheses(),
            }
        )
        if t >= spec.iters and pool_covered:
            break
        if spec.strategy == "add_all":
            seeds_fwd = seeds_rev = resolve_seed_conflicts(base, inter)
        elif spec.strategy == "active":
            union = union_hypotheses(forward.top1(), reverse.top1())
            verified = oracle_judge(union, ds.gold_full)
            seeds_fwd = seeds_rev = resolve_seed_conflicts(base, verified)
        else:  # stochastic
            pool = [pair for pair in inter if pair not in gold_set]
            take = min(t * spec.h, len(pool))
            pool_covered = take >= len(pool)
            seeds_fwd, seeds_rev = (
                resolve_seed_conflicts(
                    gold,
                    _sample(pool, take, _rng(spec.rng_seed, _RNG_SAMPLE, engine_id, t, d)),
                )
                for d in (_FORWARD, _REVERSE)
            )
    return records, forward


def run_combined(spec: ExperimentSpec, ds: Dataset):
    """The cyclic system: single bidirectional SGM and Add-All inner
    Euclidean refinement alternately seed each other for ``iters`` cycles.

    The final hypotheses are pulled from the most recent forward run of
    the component named by ``spec.pull``; if that component never
    executed (for instance ``proc_inner = 0``), one fresh forward run is
    made with the final seed state.

    Returns (per-cycle records, final hypotheses).
    """
    _engine_of(spec, "combined")
    gold = list(ds.gold_seeds.pairs)
    seeds = gold
    last_forward: dict[str, HypothesisSet] = {}
    order = ("sgm", "proc") if spec.start == "sgm" else ("proc", "sgm")
    records: list[dict] = []
    for cycle in range(1, spec.iters + 1):
        components = []
        for engine in order:
            rounds = 1 if engine == "sgm" else spec.proc_inner
            if rounds == 0:
                continue
            for _ in range(rounds):
                forward, _, inter = _round(
                    ds, spec, engine, seeds, seeds, (_RNG_COMBINED, cycle)
                )
                seeds = resolve_seed_conflicts(gold, inter)
            last_forward[engine] = forward
            info = {"component": engine}
            if engine == "proc":
                info["inner_iterations"] = rounds
            info.update(_round_record(ds, forward, inter), seeds_after=len(seeds))
            components.append(info)
        records.append(
            {
                "iteration": cycle,
                "components": components,
                "forward_p1": components[-1]["forward_p1"] if components else None,
            }
        )

    final = last_forward.get(spec.pull)
    if final is None:
        final = _engine_run(ds, spec, spec.pull, seeds, _FORWARD, (_RNG_COMBINED, 0))[0]
    return records, final


@dataclass
class RunResult:
    """Structured outcome of one experiment run."""

    spec: ExperimentSpec
    hypotheses: HypothesisSet
    iterations: list[dict]
    metrics: evaluation.MetricsReport
    timings: dict[str, float]


def run(spec: ExperimentSpec, dataset: Dataset | None = None) -> RunResult:
    """Dispatch an experiment by method and evaluate the final hypotheses."""
    problems = spec.validate()
    if problems:
        raise ValueError("; ".join(problems))
    timings: dict[str, float] = {}
    started = time.perf_counter()
    ds = dataset if dataset is not None else assemble(spec)
    timings["prepare_s"] = time.perf_counter() - started

    started = time.perf_counter()
    pipeline = METHODS[spec.method][0]
    if pipeline == "single":
        hyps = run_single(spec, ds)
        records = [{"iteration": 1, "forward_p1": evaluation.p_at_1(hyps, ds.gold_test)}]
    elif pipeline == "iterate":
        records, hyps = iterate(spec, ds)
    else:
        records, hyps = run_combined(spec, ds)
    timings["solve_s"] = time.perf_counter() - started

    metrics = evaluation.metrics_report(hyps, ds.gold_test)
    return RunResult(
        spec=spec,
        hypotheses=hyps,
        iterations=records,
        metrics=metrics,
        timings=timings,
    )
