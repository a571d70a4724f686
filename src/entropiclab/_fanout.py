"""The package's one pool of forked worker processes.

``workers(tasks)`` says how many workers to start for ``tasks`` independent
tasks: one per CPU this process may run on, no more than there are tasks,
and 1 where there is no ``fork``.  A caller that gets less than 2 runs its
tasks in process; otherwise it submits them to ``forked_pool(...)`` and reads
the results in its own order, so what it returns does not depend on the CPU
count.  ``ordered(...)`` does both for a stream of tasks whose results are
wanted in task order: CSV blocks and the rows of the gravity direct sum.
``suite.run_all`` submits its criteria all at once instead, costliest first.
"""
from __future__ import annotations

import collections
import contextlib
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


def workers(tasks: int) -> int:
    """Worker processes worth starting for ``tasks`` independent tasks."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


@contextlib.contextmanager
def forked_pool(count: int, what: str):
    """A ``ProcessPoolExecutor`` of ``count`` forked processes, shut down on exit.

    fork, not spawn: a worker starts without importing NumPy again, and it
    finds a task's function through the module state it inherits, even one
    a caller installed at run time.  OpenBLAS stops its thread pool before
    a fork and starts a new one in the child, so a worker may use NumPy's
    linear algebra.  A worker that dies, which for the package's tasks
    means the kernel killed it for memory, is raised as a ``MemoryError``
    naming ``what`` the worker did.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(count, mp_context=context) as pool:
        try:
            yield pool
        except BrokenProcessPool as exc:
            raise MemoryError(f"a {what} worker died: {exc}") from exc


def ordered(function, tasks, what: str):
    """Yield ``function(*task)`` for each of the sequence ``tasks``, in task order.

    With fewer than 2 ``workers(len(tasks))``, the tasks run in process, one
    as each result is taken.  Otherwise they run in a ``forked_pool`` of that
    many workers, with at most ``_DEPTH`` tasks per worker in flight, so
    that at most that many results wait in memory.  The workers fork at the
    first submission, so they inherit the module state the caller set up
    before taking the first result.  Closing the generator shuts them down.
    """
    count = workers(len(tasks))
    if count < 2:
        yield from itertools.starmap(function, tasks)
        return
    with forked_pool(count, what) as pool:
        in_flight = collections.deque()
        for task in tasks:
            if len(in_flight) == _DEPTH * count:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(function, *task))
        while in_flight:
            yield in_flight.popleft().result()
