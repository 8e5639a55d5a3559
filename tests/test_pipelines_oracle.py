"""The pipelines against the pre-refactor code kept in
``reference_pipelines``: identical records, seed logs, hypotheses, and
rng substreams handed to the solver and the sampler."""

import itertools

import pytest

import reference_pipelines as reference
from bilex import build_dataset, iterate, pipelines, run_combined, run_single
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
    for start, pull, inner in itertools.product(("iterproc", "sgm"), ("proc", "sgm"), (0, 1, 2))
]


def dataset(noise, seed):
    src, tgt, lexicon = make_planted(n=60, d=8, noise=noise, seed=seed)
    return build_dataset(src, tgt, lexicon, 12)


def assert_same_hypotheses(got, want):
    assert list(got.entries.items()) == list(want.entries.items())


@pytest.fixture
def drawn(monkeypatch):
    """Per module, the starting state of each rng given to ``sgm`` and ``_sample``.

    Equal lists mean both loops drew the same substreams in the same order.
    """
    log = {pipelines: [], reference: []}
    for module, calls in log.items():
        for name in ("sgm", "_sample"):
            original = getattr(module, name)

            def spy(*args, _name=name, _original=original, _calls=calls, **kwargs):
                rng = kwargs["rng"] if "rng" in kwargs else args[2]
                _calls.append((_name, rng.bit_generator.state["state"]["state"]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return log


@pytest.mark.parametrize("noise,seed", DATASETS)
@pytest.mark.parametrize("config", ITERATE_GRID, ids=lambda c: "-".join(c.values()))
def test_iterate_matches_reference(noise, seed, config, drawn):
    engine = config["engine"]
    spec = make_spec(
        method="iter" + engine, strategy=config["strategy"], iters=3, h=4,
        seeds=12, rng_seed=seed, vocab_mode=config["vocab_mode"],
    )
    ds = dataset(noise, seed)
    log, want_log = [], []
    records, hyps = iterate(spec, ds, seed_log=log)
    want_records, want_hyps = reference.iterate(spec, engine, ds, seed_log=want_log)
    assert records == want_records
    assert log == want_log
    assert_same_hypotheses(hyps, want_hyps)
    assert drawn[pipelines] == drawn[reference]


@pytest.mark.parametrize("noise,seed", DATASETS + (SPREAD,))
@pytest.mark.parametrize("method", ["procrustes", "sgm", "softsgm"])
def test_run_single_matches_reference(noise, seed, method, drawn):
    spec = make_spec(method=method, seeds=12, rng_seed=seed, soft_runs=4)
    ds = dataset(noise, seed)
    hyps = run_single(spec, ds)
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
    records, hyps = run_combined(spec, ds)
    want_records, want_hyps = reference.run_combined(spec, ds)
    assert records == want_records
    assert_same_hypotheses(hyps, want_hyps)
    assert drawn[pipelines] and drawn[pipelines] == drawn[reference]


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
            records, _ = iterate(spec, ds)
            lengths.append(len(records))
            precisions += [r["intersection_precision"] for r in records]
    assert max(lengths) > 3
    assert min(precisions) < 100.0
