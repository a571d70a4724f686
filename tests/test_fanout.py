"""``_fanout.ordered`` runs any callable, closures included, in task order."""
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from conftest import cli_env

from entropiclab import _fanout


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=pytest.mark.skipif(
    not hasattr(os, "fork"), reason="workers need fork"))])
def test_a_closure_over_an_array_runs_in_task_order(monkeypatch, cpus):
    values = np.arange(100.0)

    def squares(start, stop):
        return os.getpid(), values[start:stop] ** 2

    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(squares)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    tasks = [(start, start + 7) for start in range(0, 100, 7)]
    results = list(_fanout.ordered(squares, tasks, "squaring"))
    assert np.array_equal(np.concatenate([rows for _, rows in results]), values ** 2)
    # on one CPU the tasks run in process, on two in the forked workers
    pids = {pid for pid, _ in results}
    assert (os.getpid() in pids) == (cpus == 1)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_a_worker_that_dies_is_raised_as_memory_error(monkeypatch):
    def task(index):
        if index == 3:
            os._exit(1)
        return index

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(MemoryError, match="a squaring worker died"):
        list(_fanout.ordered(task, [(index,) for index in range(8)], "squaring"))
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_a_task_may_fork_workers_of_its_own(monkeypatch):
    def inner(index):
        return 10 * index

    def outer(index):
        return list(_fanout.ordered(inner, [(index,), (index + 1,)], "inner"))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = list(_fanout.ordered(outer, [(index,) for index in range(4)], "outer"))
    assert results == [[10 * index, 10 * index + 10] for index in range(4)]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_tasks_of_uneven_length_are_dealt_round_robin(monkeypatch):
    # results are taken in task order, so task i goes to worker i mod 2
    # however long the tasks before it ran
    def task(seconds):
        time.sleep(seconds)
        return os.getpid()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    lengths = [0.05, 0.0, 0.0, 0.03, 0.0, 0.0, 0.04, 0.0, 0.0]
    pids = list(_fanout.ordered(task, [(seconds,) for seconds in lengths], "sleeping"))
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert pids == [pids[k % 2] for k in range(len(lengths))]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_workers_left_open_end_with_the_interpreter():
    script = textwrap.dedent("""\
        import os
        os.sched_getaffinity = lambda pid: {0, 1}
        from entropiclab import _fanout
        results = _fanout.ordered(abs, [(-index,) for index in range(10)], "open")
        print(next(results))
    """)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=cli_env(), timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")


def blas_threads():
    found = _fanout._blas_threads()
    return found[0]() if found else None


def os_threads(expected=None):
    """This process's OS threads; with ``expected``, once the count reaches it
    or after 2 s.  A joined thread's OS thread ends a moment after the join
    returns, so a pool's threads may outlive its shutdown briefly."""
    deadline = time.monotonic() + 2.0
    while True:
        count = len(os.listdir("/proc/self/task"))
        if count == expected or expected is None or time.monotonic() > deadline:
            return count
        time.sleep(0.01)


def settled_threads():
    """This process's OS thread count once it has held for 0.1 s."""
    count = os_threads()
    while True:
        time.sleep(0.1)
        if (later := os_threads()) == count:
            return count
        count = later


needs_threads = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self/task") and _fanout._blas_threads()),
    reason="needs fork, /proc and an OpenBLAS thread count")


@needs_threads
def test_workers_run_on_one_blas_thread(monkeypatch):
    matrix = np.random.default_rng(1).standard_normal((256, 256))

    def product(index):
        matrix @ matrix
        return os_threads()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert list(_fanout.ordered(product, [(index,) for index in range(4)], "product")) == [1] * 4


@needs_threads
@pytest.mark.parametrize("ending", ["exhausted", "closed", "raised"])
def test_the_parent_keeps_its_thread_counts(monkeypatch, ending):
    def task(index):
        if ending == "raised" and index == 2:
            raise ArithmeticError("task 2")
        return index

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    matrix = np.random.default_rng(3).standard_normal((256, 256))
    matrix @ matrix
    before = blas_threads(), settled_threads()
    results = _fanout.ordered(task, [(index,) for index in range(6)], "counting")
    assert next(results) == 0
    assert blas_threads() == 1  # while the workers live
    if ending == "closed":
        results.close()
    elif ending == "raised":
        with pytest.raises(ArithmeticError, match="task 2"):
            list(results)
    else:
        assert list(results) == [1, 2, 3, 4, 5]
    matrix @ matrix  # the fork stopped OpenBLAS's own pool; this starts it again
    assert (blas_threads(), os_threads(before[1])) == before
    assert multiprocessing.active_children() == []


@needs_threads
def test_no_idle_blas_thread_spins_after_the_workers_end(monkeypatch):
    # restoring the count after a fork starts OpenBLAS's pool again, and its
    # new threads spin for about 0.13 s of CPU unless the pool is stopped
    if _fanout._blas_threads()[2] is None:
        pytest.skip("no way to stop OpenBLAS's pool")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert list(_fanout.ordered(abs, [(-index,) for index in range(4)], "idle")) == [0, 1, 2, 3]
    started = time.process_time()
    time.sleep(0.5)
    assert time.process_time() - started < 0.05


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_without_a_thread_count_the_results_are_the_same(monkeypatch):
    matrices = np.random.default_rng(2).standard_normal((6, 256, 256))

    def product(index):
        return matrices[index] @ matrices[index]

    tasks = [(index,) for index in range(6)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pinned = list(_fanout.ordered(product, tasks, "product"))
    monkeypatch.setattr(_fanout, "_threads", ())  # as when the lookup finds nothing
    unpinned = list(_fanout.ordered(product, tasks, "product"))
    assert all(np.array_equal(a, b) for a, b in zip(pinned, unpinned))
    assert multiprocessing.active_children() == []
