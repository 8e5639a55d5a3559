"""The package's public surface."""

import inspect
import typing

import bilex
from bilex import ExperimentSpec, pipelines


def test_every_export_resolves_once():
    missing = [name for name in bilex.__all__ if not hasattr(bilex, name)]
    assert missing == []
    assert len(set(bilex.__all__)) == len(bilex.__all__)


def test_run_and_assemble_are_the_only_public_functions_taking_a_spec():
    # ``run`` validates a spec and pins BLAS once; a second public way to
    # run one would skip both.
    takers = {
        name
        for name, obj in vars(pipelines).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == pipelines.__name__
        and any(
            hint is ExperimentSpec or ExperimentSpec in typing.get_args(hint)
            for param, hint in typing.get_type_hints(obj).items()
            if param != "return"
        )
    }
    assert takers == {"run", "assemble"}
