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

import logging
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
from .hypotheses import HypothesisSet, Matching
from .lexicon import Lexicon, drop_missing, filter_one_to_one, load_dictionary, split
from .procrustes import extract_hypotheses, solve_procrustes

logger = logging.getLogger(__name__)

METHODS = ("procrustes", "sgm", "softsgm", "iterproc", "itersgm", "combined")
STRATEGIES = ("add_all", "stochastic", "active")
VOCAB_MODES = ("restricted", "top_n")

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
        problems = []
        if self.method not in METHODS:
            problems.append(f"method must be one of {METHODS}, got {self.method!r}")
        if self.strategy not in STRATEGIES:
            problems.append(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.start not in ("iterproc", "sgm"):
            problems.append(f"start must be 'iterproc' or 'sgm', got {self.start!r}")
        if self.pull not in ("proc", "sgm"):
            problems.append(f"pull must be 'proc' or 'sgm', got {self.pull!r}")
        if self.vocab_mode not in VOCAB_MODES:
            problems.append(
                f"vocab_mode must be one of {VOCAB_MODES}, got {self.vocab_mode!r}"
            )
        if self.vocab_mode == "top_n" and self.method not in ("procrustes", "iterproc"):
            problems.append(
                "vocab_mode 'top_n' only applies to procrustes/iterproc; the "
                "graph framing needs equal-size restricted vocabularies"
            )
        for name in ("seeds", "h", "iters", "csls_k", "soft_runs", "top_k"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be a positive integer")
        if self.proc_inner < 0:
            problems.append("proc_inner must be non-negative")
        if self.max_words is not None and self.max_words < 1:
            problems.append("max_words must be a positive integer")
        if self.normalize_passes < 0:
            problems.append("normalize_passes must be non-negative")
        if self.sgm_max_iters < 1:
            problems.append("sgm_max_iters must be a positive integer")
        if self.sgm_eps <= 0:
            problems.append("sgm_eps must be positive")
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
    vocab_mode: str = "restricted"

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


def build_dataset(
    src_emb: EmbeddingMatrix,
    tgt_emb: EmbeddingMatrix,
    lexicon: Lexicon,
    seed_count: int,
    vocab_mode: str = "restricted",
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
        vocab_mode=vocab_mode,
    )


def assemble(spec: ExperimentSpec) -> Dataset:
    """Load and normalize embeddings from disk, then build the dataset."""
    src = normalize(load_embeddings(spec.src_emb, spec.max_words), spec.normalize_passes)
    tgt = normalize(load_embeddings(spec.tgt_emb, spec.max_words), spec.normalize_passes)
    lexicon = load_dictionary(spec.dictionary)
    return build_dataset(src, tgt, lexicon, spec.seeds, spec.vocab_mode)


# ---------------------------------------------------------------------------
# Engines


def _proc_run(ds: Dataset, spec: ExperimentSpec, seeds, reverse: bool) -> HypothesisSet:
    """One Euclidean run: fit W on the seed pairs, extract top-k via CSLS.

    The reverse direction is a fresh solve with the two languages'
    roles swapped, not a reuse of the forward map's transpose.
    """
    pairs = [(t, s) for s, t in seeds] if reverse else list(seeds)
    if not pairs:
        raise ValueError("empty seed set after conflict resolution")
    if reverse:
        side_full, other_full = ds.tgt_full, ds.src_full
        side_words, side_mat = ds.tgt_words, ds.y
        cand_words, cand_mat = ds.src_words, ds.x
    else:
        side_full, other_full = ds.src_full, ds.tgt_full
        side_words, side_mat = ds.src_words, ds.x
        cand_words, cand_mat = ds.tgt_words, ds.y
    if ds.vocab_mode == "top_n":
        side_words, side_mat = side_full.vocab, side_full.vectors
        cand_words, cand_mat = other_full.vocab, other_full.vectors

    xbar = side_full.vectors[[side_full.index[a] for a, _ in pairs]]
    ybar = other_full.vectors[[other_full.index[b] for _, b in pairs]]
    mapping = solve_procrustes(xbar, ybar)
    mapped = mapping.apply(side_mat)
    indexed = extract_hypotheses(
        mapped, cand_mat, top_k=spec.top_k, scorer="csls", csls_k=spec.csls_k
    )
    return HypothesisSet(
        {
            side_words[i]: tuple((cand_words[j], score) for j, score in ranked)
            for i, ranked in indexed.entries.items()
        }
    )


def _seed_order(words, row_of, pairs, side: int) -> list[int]:
    """Restricted rows reordered seeds-first, remainder in frequency order."""
    seed_rows = [row_of[pair[side]] for pair in pairs]
    in_seed = set(seed_rows)
    return seed_rows + [i for i in range(len(words)) if i not in in_seed]


def _sgm_run(
    ds: Dataset,
    spec: ExperimentSpec,
    seeds,
    rng: np.random.Generator,
    reverse: bool,
) -> tuple[HypothesisSet, Matching]:
    """One seeded-graph-matching run over the restricted graphs."""
    pairs = [(t, s) for s, t in seeds] if reverse else list(seeds)
    if reverse:
        a_words, a_row, a_vecs = ds.tgt_words, ds.tgt_row, ds.y
        b_words, b_row, b_vecs = ds.src_words, ds.src_row, ds.x
    else:
        a_words, a_row, a_vecs = ds.src_words, ds.src_row, ds.x
        b_words, b_row, b_vecs = ds.tgt_words, ds.tgt_row, ds.y
    order_a = _seed_order(a_words, a_row, pairs, 0)
    order_b = _seed_order(b_words, b_row, pairs, 1)
    if len(pairs) == len(a_words):
        # Iteration can saturate the seed set; every vertex is then fixed
        # and the matching is the seed pairing itself.
        matching = Matching(perm=np.arange(len(pairs)), seed_count=len(pairs))
    else:
        matching = sgm(
            build_graph(a_vecs, order_a),
            build_graph(b_vecs, order_b),
            s=len(pairs),
            rng=rng,
            max_iters=spec.sgm_max_iters,
            eps=spec.sgm_eps,
            shuffle_input=spec.shuffle_input,
        )
    entries = {
        a_words[order_a[i]]: ((b_words[order_b[int(j)]], 1.0),)
        for i, j in enumerate(matching.perm)
    }
    return HypothesisSet(entries), matching


def _engine_run(ds, spec, engine: str, seeds, reverse: bool, rng) -> HypothesisSet:
    if engine == "proc":
        return _proc_run(ds, spec, seeds, reverse)
    if not seeds:
        raise ValueError("empty seed set after conflict resolution")
    hyps, _ = _sgm_run(ds, spec, seeds, rng, reverse)
    return hyps


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
    out = []
    used_src: set = set()
    used_tgt: set = set()
    for src, tgt in [*gold_pairs, *hypothesis_pairs]:
        if src in used_src or tgt in used_tgt:
            continue
        used_src.add(src)
        used_tgt.add(tgt)
        out.append((src, tgt))
    return out


def _sample(pool, count, rng) -> list:
    order = rng.permutation(len(pool))[:count]
    return [pool[int(i)] for i in order]


# ---------------------------------------------------------------------------
# Pipelines


def run_single(spec: ExperimentSpec, dataset: Dataset | None = None):
    """One non-iterative run. Returns (hypotheses, matching-or-None)."""
    ds = dataset if dataset is not None else assemble(spec)
    gold = list(ds.gold_seeds.pairs)
    if spec.method == "procrustes":
        return _proc_run(ds, spec, gold, reverse=False), None
    if spec.method == "sgm":
        rng = _rng(spec.rng_seed, _RNG_SINGLE_SGM, _FORWARD)
        return _sgm_run(ds, spec, gold, rng, reverse=False)
    if spec.method == "softsgm":
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
        indexed = top_k_from_distribution(dist, k=spec.top_k)
        hyps = HypothesisSet(
            {
                ds.src_words[i]: tuple((ds.tgt_words[j], p) for j, p in ranked)
                for i, ranked in indexed.entries.items()
            }
        )
        return hyps, None
    raise ValueError(f"run_single cannot handle method {spec.method!r}")


def iterate(
    spec: ExperimentSpec,
    engine: str,
    dataset: Dataset | None = None,
    seed_log: list | None = None,
):
    """Bidirectional iterative refinement with one of the three strategies.

    Iteration 1 always runs on the gold seeds alone; hypothesis-derived
    seeds first appear at iteration 2. Add-All feeds the whole
    forward/reverse intersection back (plus gold for the Euclidean
    engine, whose seeding is soft). Stochastic-Add feeds gold plus a
    fresh sample of min((t-1)*H, pool) intersection pairs, drawn
    independently for each direction, and keeps iterating until the
    sample covers the pool (hard cap MAX_ITERATIONS). Active-Learning
    feeds the oracle-verified subset of the union of both directions.

    Returns (per-iteration records, final forward hypotheses).
    """
    if engine not in ("proc", "sgm"):
        raise ValueError(f"engine must be 'proc' or 'sgm', got {engine!r}")
    ds = dataset if dataset is not None else assemble(spec)
    engine_id = 0 if engine == "proc" else 1
    gold = list(ds.gold_seeds.pairs)
    gold_set = set(gold)
    seeds_fwd = list(gold)
    seeds_rev = list(gold)
    records: list[dict] = []
    forward = None
    pool_covered = False
    t = 0
    while True:
        t += 1
        if seed_log is not None:
            seed_log.append((list(seeds_fwd), list(seeds_rev)))
        forward = _engine_run(
            ds, spec, engine, seeds_fwd, False,
            _rng(spec.rng_seed, _RNG_ITER, engine_id, t, _FORWARD),
        )
        reverse = _engine_run(
            ds, spec, engine, seeds_rev, True,
            _rng(spec.rng_seed, _RNG_ITER, engine_id, t, _REVERSE),
        )
        inter = intersect_hypotheses(forward.top1(), reverse.top1())
        correct = oracle_judge(inter, ds.gold_full)
        records.append(
            {
                "iteration": t,
                "forward_p1": evaluation.p_at_1(forward, ds.gold_test),
                "intersection_size": len(inter),
                "intersection_precision": (
                    100.0 * len(correct) / len(inter) if inter else None
                ),
                "seeds_forward": len(seeds_fwd),
                "seeds_reverse": len(seeds_rev),
                "forward_hypotheses": forward.total_hypotheses(),
            }
        )
        if t >= MAX_ITERATIONS:
            break
        if spec.strategy == "add_all":
            if t >= spec.iters:
                break
            base = gold if engine == "proc" else []
            seeds_fwd = seeds_rev = resolve_seed_conflicts(base, inter)
        elif spec.strategy == "active":
            if t >= spec.iters:
                break
            union = union_hypotheses(forward.top1(), reverse.top1())
            verified = oracle_judge(union, ds.gold_full)
            base = gold if engine == "proc" else []
            seeds_fwd = seeds_rev = resolve_seed_conflicts(base, verified)
        else:  # stochastic
            if t >= spec.iters and pool_covered:
                break
            pool = [pair for pair in inter if pair not in gold_set]
            take = min(t * spec.h, len(pool))
            pool_covered = take >= len(pool)
            seeds_fwd = resolve_seed_conflicts(
                gold, _sample(pool, take, _rng(spec.rng_seed, _RNG_SAMPLE, engine_id, t, _FORWARD))
            )
            seeds_rev = resolve_seed_conflicts(
                gold, _sample(pool, take, _rng(spec.rng_seed, _RNG_SAMPLE, engine_id, t, _REVERSE))
            )
        if not seeds_fwd or not seeds_rev:
            raise ValueError("empty seed set after conflict resolution")
    return records, forward


def run_combined(spec: ExperimentSpec, dataset: Dataset | None = None):
    """The cyclic system: single bidirectional SGM and Add-All inner
    Euclidean refinement alternately seed each other for ``iters`` cycles.

    The final hypotheses are pulled from the most recent forward run of
    the component named by ``spec.pull``; if that component never
    executed (for instance ``proc_inner = 0``), one fresh forward run is
    made with the final seed state.

    Returns (per-cycle records, final hypotheses).
    """
    ds = dataset if dataset is not None else assemble(spec)
    gold = list(ds.gold_seeds.pairs)
    seeds = list(gold)
    last_forward: dict[str, HypothesisSet | None] = {"sgm": None, "proc": None}
    order = ("sgm", "proc") if spec.start == "sgm" else ("proc", "sgm")
    records: list[dict] = []

    def sgm_component(cycle: int) -> dict:
        nonlocal seeds
        forward = _engine_run(
            ds, spec, "sgm", seeds, False,
            _rng(spec.rng_seed, _RNG_COMBINED, cycle, _FORWARD),
        )
        reverse = _engine_run(
            ds, spec, "sgm", seeds, True,
            _rng(spec.rng_seed, _RNG_COMBINED, cycle, _REVERSE),
        )
        inter = intersect_hypotheses(forward.top1(), reverse.top1())
        seeds = resolve_seed_conflicts(gold, inter)
        last_forward["sgm"] = forward
        correct = oracle_judge(inter, ds.gold_full)
        return {
            "component": "sgm",
            "forward_p1": evaluation.p_at_1(forward, ds.gold_test),
            "intersection_size": len(inter),
            "intersection_precision": (
                100.0 * len(correct) / len(inter) if inter else None
            ),
            "seeds_after": len(seeds),
        }

    def proc_component(cycle: int) -> dict | None:
        nonlocal seeds
        if spec.proc_inner == 0:
            return None
        inter: list = []
        forward = None
        for _ in range(spec.proc_inner):
            forward = _proc_run(ds, spec, seeds, reverse=False)
            reverse = _proc_run(ds, spec, seeds, reverse=True)
            inter = intersect_hypotheses(forward.top1(), reverse.top1())
            seeds = resolve_seed_conflicts(gold, inter)
        last_forward["proc"] = forward
        correct = oracle_judge(inter, ds.gold_full)
        return {
            "component": "proc",
            "inner_iterations": spec.proc_inner,
            "forward_p1": evaluation.p_at_1(forward, ds.gold_test),
            "intersection_size": len(inter),
            "intersection_precision": (
                100.0 * len(correct) / len(inter) if inter else None
            ),
            "seeds_after": len(seeds),
        }

    for cycle in range(1, spec.iters + 1):
        components = []
        for name in order:
            info = sgm_component(cycle) if name == "sgm" else proc_component(cycle)
            if info is not None:
                components.append(info)
        records.append(
            {
                "iteration": cycle,
                "components": components,
                "forward_p1": components[-1]["forward_p1"] if components else None,
            }
        )

    pull = "proc" if spec.pull == "proc" else "sgm"
    final = last_forward[pull]
    if final is None:
        final = _engine_run(
            ds, spec, pull, seeds, False,
            _rng(spec.rng_seed, _RNG_COMBINED, 0, _FORWARD),
        )
    return records, final


@dataclass
class RunResult:
    """Structured outcome of one experiment run."""

    spec: ExperimentSpec
    hypotheses: HypothesisSet
    matching: Matching | None
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
    matching = None
    if spec.method in ("procrustes", "sgm", "softsgm"):
        hyps, matching = run_single(spec, ds)
        records = [{"iteration": 1, "forward_p1": evaluation.p_at_1(hyps, ds.gold_test)}]
    elif spec.method in ("iterproc", "itersgm"):
        engine = "proc" if spec.method == "iterproc" else "sgm"
        records, hyps = iterate(spec, engine, ds)
    else:
        records, hyps = run_combined(spec, ds)
    timings["solve_s"] = time.perf_counter() - started

    metrics = evaluation.metrics_report(hyps, ds.gold_test)
    return RunResult(
        spec=spec,
        hypotheses=hyps,
        matching=matching,
        iterations=records,
        metrics=metrics,
        timings=timings,
    )
