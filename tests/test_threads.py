"""The thread owner: numpy's BLAS pin, which every public call that runs
a BLAS product holds, and the rule for how many threads work blocks."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from bilex import _threads, extract_hypotheses, graph_matching, pipelines, procrustes, soft_sgm
from conftest import blas_env, make_planted, make_spec
from test_procrustes import unit_rows


class FakeBlas:
    """A (set, get) pair of thread-count calls that records every set."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def calls(self):
        def set_threads(threads):
            self.sets.append(threads)
            self.threads = threads

        return set_threads, lambda: self.threads


class TestWorkerRule:
    """Block threads: up to two of this process's CPUs when numpy's BLAS
    can be pinned to one thread; otherwise one. No variable is read."""

    @pytest.fixture
    def host(self, monkeypatch):
        def configure(cpus, calls=FakeBlas(1).calls(), **variables):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(_threads, "_BLAS_THREADS", calls)
            for name, value in variables.items():
                monkeypatch.setenv(name, value)
            threads = threading.active_count()
            workers = _threads._workers()
            assert threading.active_count() == threads  # counting starts no thread
            return workers

        return configure

    def test_unpinned_blas_keeps_one_worker(self, host):
        # numpy's BLAS exports no thread calls (MKL, Accelerate).
        assert host(2, calls=None) == 1
        assert host(64, calls=None) == 1

    def test_one_blas_thread_on_two_cpus_gives_two(self, host):
        assert host(2) == 2

    def test_thread_variables_are_not_read(self, host):
        assert host(8, OPENBLAS_NUM_THREADS="8", MKL_NUM_THREADS="1") == 2
        assert host(4, OMP_NUM_THREADS="2") == 2
        assert host(4, calls=None, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1") == 1

    def test_two_blas_threads_give_two_workers_and_are_pinned(self, host):
        # The pin, not the variable, gives block work one BLAS thread.
        blas = FakeBlas(2)
        assert host(4, calls=blas.calls(), OMP_NUM_THREADS="2") == 2
        with _threads._pinned_blas():
            assert blas.threads == 1
        assert blas.threads == 2
        assert host(4, calls=None, OMP_NUM_THREADS="2") == 1

    def test_variables_that_disagree_give_two_with_thread_calls(self, host):
        # OpenBLAS would read 8 here and MKL 1; the pin sets one either way,
        # and without thread calls one block thread is used.
        blas = FakeBlas(8)
        assert host(8, calls=blas.calls(), OPENBLAS_NUM_THREADS="8", MKL_NUM_THREADS="1") == 2
        with _threads._pinned_blas():
            assert blas.threads == 1
        assert host(8, calls=None, OPENBLAS_NUM_THREADS="8", MKL_NUM_THREADS="1") == 1
        assert host(8, calls=None, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="2") == 1

    @pytest.mark.parametrize("junk", ["", "0", "-1", "abc"])
    def test_invalid_variable_values_are_not_read(self, host, junk):
        assert host(4, OPENBLAS_NUM_THREADS=junk) == 2
        assert host(4, calls=None, OPENBLAS_NUM_THREADS=junk, MKL_NUM_THREADS="1") == 1

    def test_one_cpu_gives_one(self, host):
        assert host(1) == 1

    def test_many_cpus_give_at_most_two(self, host):
        # Arithmetic only: no pool of that size is started.
        assert host(64) == _threads._MAX_WORKERS == 2

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (3, 2)])
    def test_cpu_count_without_affinity_call(self, monkeypatch, cpus, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_threads, "_BLAS_THREADS", FakeBlas(1).calls())
        assert _threads._workers() == workers


class TestBlasPin:
    """numpy's BLAS on one thread inside every public call that runs a
    BLAS product, and back at its count after, also when the body raises."""

    def test_pin_sets_one_and_restores(self, monkeypatch):
        blas = FakeBlas(4)
        monkeypatch.setattr(_threads, "_BLAS_THREADS", blas.calls())
        with _threads._pinned_blas():
            assert blas.threads == 1
        assert blas.threads == 4
        with pytest.raises(KeyError):
            with _threads._pinned_blas():
                assert blas.threads == 1
                raise KeyError("body")
        assert blas.threads == 4 and blas.sets == [1, 4, 1, 4]

    def test_overlapping_pins_hold_until_the_last_leaves(self, monkeypatch):
        # Pin A enters, pin B enters, A leaves, B leaves: the order of two
        # threads that each run a pinned call, here taken on one thread.
        blas = FakeBlas(4)
        monkeypatch.setattr(_threads, "_BLAS_THREADS", blas.calls())
        a, b = _threads._pinned_blas(), _threads._pinned_blas()
        a.__enter__()
        b.__enter__()
        assert blas.threads == 1
        a.__exit__(None, None, None)
        assert blas.threads == 1  # B still runs pinned
        b.__exit__(None, None, None)
        assert blas.threads == 4 and blas.sets == [1, 4]

    def test_pins_from_more_threads_than_cpus_hold_until_the_last_leaves(self, monkeypatch):
        blas = FakeBlas(4)

        def yielding(call):
            def after_a_switch(*args):
                time.sleep(0)  # as a ctypes call releases the interpreter lock
                return call(*args)

            return after_a_switch

        monkeypatch.setattr(_threads, "_BLAS_THREADS", tuple(map(yielding, blas.calls())))
        seen = []

        def pin_often():
            for _ in range(300):
                with _threads._pinned_blas():
                    time.sleep(0)  # let another thread enter or leave
                    seen.append(blas.threads)

        workers = [threading.Thread(target=pin_often) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 1200 and set(seen) == {1}
        assert blas.threads == 4 and blas.sets == [1, 4] * (len(blas.sets) // 2)

    def test_nested_pins_make_no_blas_call(self, monkeypatch):
        # soft_sgm pins, and so does each sgm restart inside it.
        blas = FakeBlas(3)
        monkeypatch.setattr(_threads, "_BLAS_THREADS", blas.calls())
        x = np.random.default_rng(51).normal(size=(8, 3))
        soft_sgm(x, x, 2, [np.random.default_rng(r) for r in range(3)])
        assert blas.threads == 3 and blas.sets == [1, 3]

    def test_without_thread_calls_nothing_is_pinned(self, monkeypatch):
        monkeypatch.setattr(_threads, "_BLAS_THREADS", None)
        ran = []
        with _threads._pinned_blas():
            ran.append(True)
        assert ran == [True]

    def test_extraction_scores_on_one_blas_thread(self, monkeypatch):
        blas = FakeBlas(3)
        monkeypatch.setattr(_threads, "_BLAS_THREADS", blas.calls())
        seen = []
        top_k_means = procrustes._top_k_means

        def recording(*args, **kwargs):
            seen.append(blas.threads)
            return top_k_means(*args, **kwargs)

        monkeypatch.setattr(procrustes, "_top_k_means", recording)
        rng = np.random.default_rng(50)
        extract_hypotheses(unit_rows(rng.normal(size=(6, 3))), unit_rows(rng.normal(size=(5, 3))))
        assert seen and set(seen) == {1}
        assert blas.threads == 3
        with pytest.raises(ValueError, match="unit-norm"):
            extract_hypotheses(np.full((2, 2), 2.0), np.ones((2, 2)))
        assert blas.threads == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("side", [0, 1], ids=["source", "target"])
    def test_non_finite_rows_are_refused(self, monkeypatch, side, workers):
        # One NaN reaches every neighbourhood mean, and NaN scores would
        # rank every row's candidates as ties.
        blas = FakeBlas(3)
        monkeypatch.setattr(_threads, "_BLAS_THREADS", blas.calls())
        monkeypatch.setattr(_threads, "_workers", lambda: workers)
        monkeypatch.setattr(procrustes, "_BLOCK_BYTES", 8 * 2 * 8)  # blocks of two rows
        rng = np.random.default_rng(51)
        rows = [unit_rows(rng.normal(size=(8, 3))) for _ in range(2)]
        rows[side][5, 1] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            extract_hypotheses(*rows, top_k=2, csls_k=2)
        assert blas.threads == 3

    def test_run_restores_the_count_when_it_raises(self, monkeypatch):
        blas = FakeBlas(2)
        monkeypatch.setattr(_threads, "_BLAS_THREADS", blas.calls())
        monkeypatch.setattr(graph_matching, "_physical_memory", lambda: 0)
        src, tgt, lexicon = make_planted(n=30, d=4, seed=3)
        dataset = pipelines.build_dataset(src, tgt, lexicon, 10)
        with pytest.raises(graph_matching.WorkingSetError):
            pipelines.run(make_spec(method="sgm", seeds=10), dataset)
        assert blas.sets == [1, 2] and blas.threads == 2

    def test_no_thread_calls_without_their_names(self, monkeypatch):
        # MKL and Accelerate export none of OpenBLAS's names.
        class Bare:
            def __init__(self, path):
                pass

        monkeypatch.setattr(_threads.ctypes, "CDLL", Bare)
        assert _threads._blas_thread_calls() is None

    def test_thread_calls_are_found_for_openblas(self):
        # A numpy whose OpenBLAS renames its thread calls fails here
        # instead of quietly scoring on one block thread.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip(f"numpy links {blas.get('name')}, not OpenBLAS")
        assert _threads._BLAS_THREADS is not None
        set_threads, get_threads = _threads._BLAS_THREADS
        assert get_threads() >= 1

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs this process may run on",
    )
    def test_two_blas_threads_read_one_inside_extraction(self):
        script = """
import numpy as np
from bilex import _threads, procrustes, run, build_dataset
from conftest import make_planted, make_spec
get_threads = _threads._BLAS_THREADS[1]
seen = set()
top_k_means = procrustes._top_k_means
def recording(*args, **kwargs):
    seen.add(get_threads())
    return top_k_means(*args, **kwargs)
procrustes._top_k_means = recording
procrustes._BLOCK_BYTES = 8 * 10 * 50
before = get_threads()
src, tgt, lexicon = make_planted(n=60, d=4, seed=5)
run(make_spec(method="procrustes", seeds=10), build_dataset(src, tgt, lexicon, 10))
print(before, sorted(seen), get_threads(), _threads._workers())
"""
        env = blas_env("2")
        env["PYTHONPATH"] += os.pathsep + os.path.dirname(__file__)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "[1]", "2", "2"]

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs this process may run on",
    )
    def test_two_blas_threads_read_one_inside_every_solver(self):
        # Each call reads the getter inside, then after it returns, then
        # after a call on bad input raises.
        script = """
import json
import numpy as np
from bilex import OrthogonalMap, _threads, extract_hypotheses, graph_matching, solve_procrustes
get_threads = _threads._BLAS_THREADS[1]
seen = []
def recording(fn):
    def read_then_call(*args, **kwargs):
        seen.append(get_threads())
        return fn(*args, **kwargs)
    return read_then_call
class Rows:
    def __init__(self, rows):
        self.rows = rows
    def __array__(self, dtype=None, copy=None):
        seen.append(get_threads())
        return np.asarray(self.rows, dtype=dtype)
sgm, soft_sgm = graph_matching.sgm, graph_matching.soft_sgm
graph_matching._direction_lap = recording(graph_matching._direction_lap)
graph_matching.sgm = recording(sgm)
x, eye = np.random.default_rng(0).normal(size=(8, 3)), np.eye(3)
calls = {
    "sgm": (lambda: sgm(x, x, 2, np.random.default_rng(1)),
            lambda: sgm(x, x[:7], 2, np.random.default_rng(1))),
    "soft_sgm": (lambda: soft_sgm(x, x, 2, [np.random.default_rng(1)] * 2),
                 lambda: soft_sgm(x, x, 2, [])),
    "solve_procrustes": (lambda: solve_procrustes(Rows(x), x),
                         lambda: solve_procrustes(Rows(x), x[:7])),
    "OrthogonalMap": (lambda: OrthogonalMap(Rows(eye)), lambda: OrthogonalMap(Rows(2 * eye))),
    "apply": (lambda: OrthogonalMap(eye).apply(Rows(x)),
              lambda: OrthogonalMap(eye).apply(Rows(x[:, :2]))),
    "extract_hypotheses": (lambda: extract_hypotheses(Rows(x), x, top_k=2),
                           lambda: extract_hypotheses(Rows(x[:, :2]), x)),
}
out = {"before": get_threads()}
for name, (good, bad) in calls.items():
    seen.clear()
    good()
    out[name] = [sorted(set(seen)), get_threads()]
    try:
        bad()
    except ValueError:
        out[name].append(get_threads())
print(json.dumps(out))
"""
        done = subprocess.run(
            [sys.executable, "-c", script], env=blas_env("2"),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        readings = json.loads(done.stdout)
        assert readings.pop("before") == 2
        assert readings == {
            name: [[1], 2, 2]
            for name in ("sgm", "soft_sgm", "solve_procrustes", "OrthogonalMap", "apply",
                         "extract_hypotheses")
        }
