"""The pipelines as they were before the bidirectional-round helper and
before ``run_single`` went through ``_engine_run``.

``iterate`` and ``run_combined`` here, and the direction-aware engine
runs they call, are kept verbatim as an oracle for
``bilex.pipelines``: on the same spec and dataset they must produce the
same records, seed log and final hypotheses. ``run_single`` and the
index-keyed ``top_k_from_distribution`` it ranks soft SGM with are kept
verbatim too, except that the two engine calls of ``run_single`` name
the forward direction of those helpers, which compute the same forward
run. The word-level combiners (intersection, union, oracle judge) and
the Stochastic-Add sampler are kept here, since the package now works
on index arrays; ``oracle_judge`` reads the gold pairs as
``frozenset(gold_full.pairs)``, and the graph run builds its own
word -> row dicts. The restricted words and rows and the full gold
lexicon, once stored on ``Dataset``, are gathered here word by word
(``_words``, ``_restricted``, ``_gold_full``), apart from the package's
``_index_space``. ``iterate`` stops only Stochastic-Add at
``MAX_ITERATIONS``, as the package does; the code it was copied from
stopped every strategy there. Helpers
whose code did not change are imported from the package; the row-only
blocked extractor comes from ``reference_extraction``.
"""

from __future__ import annotations

import numpy as np

from bilex import evaluation
from bilex.graph_matching import build_graph, sgm, soft_sgm
from bilex.hypotheses import HypothesisSet, Matching
from bilex.lexicon import Lexicon
from bilex.pipelines import (
    _FORWARD,
    _REVERSE,
    _RNG_COMBINED,
    _RNG_ITER,
    _RNG_SAMPLE,
    _RNG_SINGLE_SGM,
    _RNG_SOFT,
    MAX_ITERATIONS,
    Dataset,
    ExperimentSpec,
    _rng,
    assemble,
)
from bilex.procrustes import solve_procrustes
from reference_extraction import blocked_extract_hypotheses as extract_hypotheses


def _words(ds: Dataset) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The restricted source and target words: the gold words, seeds first."""
    gold = _gold_full(ds)
    return gold.sources(), gold.targets()


def _restricted(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the restricted source and target words, in their order."""
    src_words, tgt_words = _words(ds)
    x = ds.src_full.vectors[[ds.src_full.index[w] for w in src_words]]
    y = ds.tgt_full.vectors[[ds.tgt_full.index[w] for w in tgt_words]]
    return x, y


def _gold_full(ds: Dataset) -> Lexicon:
    return Lexicon(tuple(ds.gold_seeds.pairs) + tuple(ds.gold_test.pairs))


def _proc_run(ds: Dataset, spec: ExperimentSpec, seeds, reverse: bool) -> HypothesisSet:
    """One Euclidean run: fit W on the seed pairs, extract top-k via CSLS.

    The reverse direction is a fresh solve with the two languages'
    roles swapped, not a reuse of the forward map's transpose.
    """
    pairs = [(t, s) for s, t in seeds] if reverse else list(seeds)
    if not pairs:
        raise ValueError("empty seed set after conflict resolution")
    x, y = _restricted(ds)
    src_words, tgt_words = _words(ds)
    if reverse:
        side_full, other_full = ds.tgt_full, ds.src_full
        side_words, side_mat = tgt_words, y
        cand_words, cand_mat = src_words, x
    else:
        side_full, other_full = ds.src_full, ds.tgt_full
        side_words, side_mat = src_words, x
        cand_words, cand_mat = tgt_words, y
    if spec.vocab_mode == "top_n":
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


def oracle_judge(pairs, gold_full) -> list[tuple]:
    """Simulated annotator: keep exactly the pairs present in the gold lexicon."""
    gold = frozenset(gold_full.pairs)
    return [pair for pair in pairs if tuple(pair) in gold]


def _sample(pool, count, rng) -> list:
    order = rng.permutation(len(pool))[:count]
    return [pool[int(i)] for i in order]


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
    x, y = _restricted(ds)
    src_words, tgt_words = _words(ds)
    if reverse:
        a_words, a_vecs = tgt_words, y
        b_words, b_vecs = src_words, x
    else:
        a_words, a_vecs = src_words, x
        b_words, b_vecs = tgt_words, y
    a_row = {w: i for i, w in enumerate(a_words)}
    b_row = {w: i for i, w in enumerate(b_words)}
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


def top_k_from_distribution(perms: np.ndarray, k: int = 5) -> HypothesisSet:
    """Up to ``k`` targets per source by descending empirical probability.

    ``perms`` is a ``(runs, n)`` stack of matchings; a target's probability
    for source i is the share of runs matching i to it. Ties break toward
    the smaller target index; sources that saw fewer than ``k`` distinct
    targets get shorter lists.
    """
    if k < 1:
        raise ValueError("k must be positive")
    perms = np.asarray(perms)
    runs = perms.shape[0]
    entries = {}
    for src in range(perms.shape[1]):
        targets, counts = np.unique(perms[:, src], return_counts=True)
        ranked = np.lexsort((targets, -counts))[:k]
        entries[src] = tuple((int(targets[i]), counts[i] / runs) for i in ranked)
    return HypothesisSet(entries)


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
        x, y = _restricted(ds)
        dist = soft_sgm(
            build_graph(x),
            build_graph(y),
            s=len(gold),
            runs=spec.soft_runs,
            master_seed=master,
            max_iters=spec.sgm_max_iters,
            eps=spec.sgm_eps,
            shuffle_input=spec.shuffle_input,
        )
        indexed = top_k_from_distribution(dist, k=spec.top_k)
        src_words, tgt_words = _words(ds)
        hyps = HypothesisSet(
            {
                src_words[i]: tuple((tgt_words[j], p) for j, p in ranked)
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
    independently for each direction, and past ``iters`` keeps iterating
    until the sample covers the pool or MAX_ITERATIONS is reached; the
    other strategies run exactly ``iters`` iterations. Active-Learning
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
        correct = oracle_judge(inter, _gold_full(ds))
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
                "forward_hypotheses": sum(map(len, forward.entries.values())),
            }
        )
        if spec.strategy == "add_all":
            if t >= spec.iters:
                break
            base = gold if engine == "proc" else []
            seeds_fwd = seeds_rev = resolve_seed_conflicts(base, inter)
        elif spec.strategy == "active":
            if t >= spec.iters:
                break
            union = union_hypotheses(forward.top1(), reverse.top1())
            verified = oracle_judge(union, _gold_full(ds))
            base = gold if engine == "proc" else []
            seeds_fwd = seeds_rev = resolve_seed_conflicts(base, verified)
        else:  # stochastic
            if t >= spec.iters and (pool_covered or t >= MAX_ITERATIONS):
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
        correct = oracle_judge(inter, _gold_full(ds))
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
        correct = oracle_judge(inter, _gold_full(ds))
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
