"""``_fanout.ordered`` runs any callable, closures included, in task order."""
import multiprocessing
import os
import pickle

import numpy as np
import pytest

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
