"""The pipelines against the pre-refactor code kept in
``reference_pipelines``: identical records, seed logs, hypotheses, and
rng substreams handed to the solver and the sampler, except the reverse
graph solves that a round takes from its unique forward solve."""

import itertools

import pytest

import reference_pipelines as reference
from bilex import build_dataset, pipelines, run
from conftest import make_planted, make_spec

# (noise, rng seed): imperfect intersections, and Stochastic-Add runs well
# past ``iters`` before its sample covers the pool.
DATASETS = ((0.3, 1), (0.5, 2))
# Soft SGM's restarts agree on every word of DATASETS; here they disagree,
# and many words get several targets with tied shares.
SPREAD = (1.0, 2)

ITERATE_GRID = [
    dict(engine=engine, strategy=strategy, vocab_mode="restricted")
    for engine, strategy in itertools.product(("proc", "sgm"), ("add_all", "stochastic", "active"))
] + [dict(engine="proc", strategy="add_all", vocab_mode="top_n")]

COMBINED_GRID = [
    dict(start=start, pull=pull, proc_inner=inner)
    for start, pull, inner in itertools.product(("iterproc", "sgm"), ("proc", "sgm"), (1, 2))
]


def dataset(noise, seed):
    src, tgt, lexicon = make_planted(n=60, d=8, noise=noise, seed=seed)
    return build_dataset(src, tgt, lexicon, 12)


def assert_same_hypotheses(got, want):
    assert list(got.entries.items()) == list(want.entries.items())


def rng_state(seed, *key):
    return pipelines._rng(seed, *key).bit_generator.state["state"]["state"]


@pytest.fixture
def drawn(monkeypatch):
    """Per module, the starting state of each rng given to ``sgm`` and ``_sample``;
    under ``"unique"``, the states of the pipelines' solves that returned a
    matching proved unique.

    Equal lists mean both loops drew the same substreams in the same order.
    """
    log = {pipelines: [], reference: [], "unique": set()}
    for module in (pipelines, reference):
        for name in ("sgm", "_sample"):
            original = getattr(module, name)

            def spy(*args, _name=name, _original=original, _calls=log[module], **kwargs):
                rng = kwargs["rng"] if "rng" in kwargs else args[2]
                state = rng.bit_generator.state["state"]["state"]
                _calls.append((_name, state))
                result = _original(*args, **kwargs)
                if _calls is log[pipelines] and _name == "sgm" and result.unique:
                    log["unique"].add(state)
                return result

            monkeypatch.setattr(module, name, spy)
    return log


def assert_draws_skip_shared_reverses(drawn, seed, shared_keys) -> list:
    """The pipelines drew the reference's substreams in the reference's
    order, less exactly the ``(*key, _REVERSE)`` solve of each round that
    shared its seed pairs (``shared_keys``) and whose forward solve was
    unique. Returns the skipped draws."""
    skipped = [
        ("sgm", rng_state(seed, *key, pipelines._REVERSE))
        for key in shared_keys
        if rng_state(seed, *key, pipelines._FORWARD) in drawn["unique"]
    ]
    for draw in skipped:
        assert drawn[reference].count(draw) == 1
    assert drawn[pipelines] == [d for d in drawn[reference] if d not in skipped]
    return skipped


@pytest.mark.parametrize("noise,seed", DATASETS)
@pytest.mark.parametrize("config", ITERATE_GRID, ids=lambda c: "-".join(c.values()))
def test_iterate_matches_reference(noise, seed, config, drawn, seed_log):
    engine = config["engine"]
    spec = make_spec(
        method="iter" + engine, strategy=config["strategy"], iters=3, h=4,
        seeds=12, rng_seed=seed, vocab_mode=config["vocab_mode"],
    )
    ds = dataset(noise, seed)
    want_log = []
    result = run(spec, ds)
    want_records, want_hyps = reference.iterate(spec, engine, ds, seed_log=want_log)
    assert result.iterations == want_records
    assert seed_log == want_log
    assert_same_hypotheses(result.hypotheses, want_hyps)
    engine_id = 0 if engine == "proc" else 1
    shared = [
        (pipelines._RNG_ITER, engine_id, t)
        for t, (fwd, rev) in enumerate(seed_log, start=1)
        if set(fwd) == set(rev)
    ]
    skipped = assert_draws_skip_shared_reverses(drawn, seed, shared)
    assert bool(skipped) == (engine == "sgm")


def test_add_all_runs_past_max_iterations_as_the_reference_does(monkeypatch):
    # Only an uncovered Stochastic-Add run stops at MAX_ITERATIONS.
    for module in (pipelines, reference):
        monkeypatch.setattr(module, "MAX_ITERATIONS", 3)
    spec = make_spec(method="iterproc", iters=5, seeds=12, rng_seed=1)
    ds = dataset(0.3, 1)
    result = run(spec, ds)
    records, hyps = result.iterations, result.hypotheses
    want_records, want_hyps = reference.iterate(spec, "proc", ds)
    assert [r["iteration"] for r in records] == [1, 2, 3, 4, 5]
    assert records == want_records
    assert_same_hypotheses(hyps, want_hyps)


@pytest.mark.parametrize("noise,seed", DATASETS + (SPREAD,))
@pytest.mark.parametrize("method", ["procrustes", "sgm", "softsgm"])
def test_run_single_matches_reference(noise, seed, method, drawn):
    spec = make_spec(method=method, seeds=12, rng_seed=seed, soft_runs=4)
    ds = dataset(noise, seed)
    hyps = run(spec, ds).hypotheses
    want_hyps, _ = reference.run_single(spec, ds)
    assert_same_hypotheses(hyps, want_hyps)
    assert drawn[pipelines] == drawn[reference]
    if method == "sgm":
        assert len(drawn[pipelines]) == 1
    if method == "softsgm" and (noise, seed) == SPREAD:
        assert any(len({p for _, p in r}) < len(r) for r in hyps.entries.values())


@pytest.mark.parametrize("noise,seed", DATASETS)
@pytest.mark.parametrize("config", COMBINED_GRID, ids=lambda c: "-".join(map(str, c.values())))
def test_run_combined_matches_reference(noise, seed, config, drawn):
    spec = make_spec(method="combined", iters=2, seeds=12, rng_seed=seed, **config)
    ds = dataset(noise, seed)
    result = run(spec, ds)
    records, hyps = result.iterations, result.hypotheses
    want_records, want_hyps = reference.run_combined(spec, ds)
    assert records == want_records
    assert_same_hypotheses(hyps, want_hyps)
    cycles = [(pipelines._RNG_COMBINED, cycle) for cycle in range(1, spec.iters + 1)]
    assert drawn[pipelines]
    assert assert_draws_skip_shared_reverses(drawn, seed, cycles)


def test_grid_exercises_imperfect_rounds():
    """The oracle grid would prove little on perfect intersections or on a
    Stochastic-Add run that stops at ``iters``."""
    lengths, precisions = [], []
    for noise, seed in DATASETS:
        ds = dataset(noise, seed)
        for method in ("iterproc", "itersgm"):
            spec = make_spec(
                method=method, strategy="stochastic", iters=3, h=4, seeds=12, rng_seed=seed
            )
            records = run(spec, ds).iterations
            lengths.append(len(records))
            precisions += [r["intersection_precision"] for r in records]
    assert max(lengths) > 3
    assert min(precisions) < 100.0
