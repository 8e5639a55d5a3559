"""The package's public surface."""

import ast
import inspect
import re
import typing
from pathlib import Path

import bilex
from bilex import ExperimentSpec, graph_matching, pipelines


def test_every_export_resolves_once():
    missing = [name for name in bilex.__all__ if not hasattr(bilex, name)]
    assert missing == []
    assert len(set(bilex.__all__)) == len(bilex.__all__)


def test_trace_helpers_are_gone():
    # ``graph_matching._FactoredProblem`` states the objective and gradient.
    for name in ("trace_objective", "trace_gradient"):
        assert not hasattr(bilex, name) and not hasattr(graph_matching, name)
        assert name not in bilex.__all__


def test_only_the_thread_module_imports_thread_machinery():
    machinery = ("ctypes", "threading", "concurrent")
    importers = set()
    for path in Path(bilex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in machinery for name in names):
                importers.add(path.name)
    assert importers == {"_threads.py"}


def test_only_graph_matching_reads_physical_memory():
    # Each graph solve checks its own working set (``graph_matching.sgm``).
    readers = {
        path.name
        for path in Path(bilex.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "sysconf"
    }
    assert readers == {"graph_matching.py"}
    for name in ("WorkingSetError", "_physical_memory", "_check_working_set", "os"):
        assert not hasattr(pipelines, name)
    assert bilex.WorkingSetError is graph_matching.WorkingSetError


def test_readme_layout_names_every_module():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    layout = readme.read_text(encoding="utf-8").split("## Library layout")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `bilex\.(\w+)`", layout, flags=re.MULTILINE)
    modules = {path.stem for path in Path(bilex.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)


def test_run_and_assemble_are_the_only_public_functions_taking_a_spec():
    # ``run`` pins BLAS once for a whole run; a second public way to run
    # a spec would skip that.
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
