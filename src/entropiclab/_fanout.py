"""The package's one way into a pool of forked worker processes: ``ordered``.

The task function reaches the workers through the fork, so it may be any
callable, a closure over large arrays included, and only the task tuples and
the results are pickled.
"""
from __future__ import annotations

import collections
import itertools
import os

# tasks per worker that ordered() keeps in flight: a worker that finishes one
# finds the next already queued.  On a 2-core x86-64 machine, the seed-7
# bulk-output-gravity fluct and evolve-s commands (250k- and 1k-row CSVs),
# called in process, had medians of 0.147 and 0.159 s at one task per
# worker, 0.141 and 0.145 s at two and 0.137 and 0.154 s at four, over 11
# interleaved calls each; more would only hold more finished results in
# memory.
_DEPTH = 2

_function = None  # the task function, in a worker; set as the worker starts


def _workers(tasks: int) -> int:
    """Worker processes worth starting for ``tasks`` independent tasks."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, tasks)


def _install(function) -> None:
    global _function
    _function = function


def _call(*task):
    return _function(*task)


def ordered(function, tasks, what: str):
    """Yield ``function(*task)`` for each of the sequence ``tasks``, in task order.

    With fewer than 2 ``_workers(len(tasks))``, the tasks run in process, one
    as each result is taken.  Otherwise they run in a pool of that many
    workers, forked at the first submission, with at most ``_DEPTH`` tasks
    per worker in flight, so that at most that many results wait in memory.
    fork, not spawn: a worker starts without importing NumPy again, and the
    pool's initializer installs ``function`` from the memory it inherits,
    so the parent keeps no module state for it.  OpenBLAS restarts its
    thread pool in each child, so a worker may use NumPy's linear algebra.
    A worker that dies, which for the package's tasks means the kernel
    killed it for memory, is raised as a ``MemoryError`` naming ``what`` the
    worker did.  Closing the generator shuts the workers down.
    """
    count = _workers(len(tasks))
    if count < 2:
        yield from itertools.starmap(function, tasks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(count, mp_context=context, initializer=_install,
                                 initargs=(function,)) as pool:
            in_flight = collections.deque()
            for task in tasks:
                if len(in_flight) == _DEPTH * count:
                    yield in_flight.popleft().result()
                in_flight.append(pool.submit(_call, *task))
            while in_flight:
                yield in_flight.popleft().result()
    except BrokenProcessPool as exc:
        raise MemoryError(f"a {what} worker died: {exc}") from exc
