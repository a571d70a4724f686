"""The package's one pool of forked worker processes.

``workers(tasks)`` says how many workers to start for ``tasks`` independent
tasks: one per CPU this process may run on, no more than there are tasks,
and 1 where there is no ``fork``.  A caller that gets less than 2 runs its
tasks in process; otherwise it submits them to ``forked_pool(...)`` and reads
the results in its own order, so what it returns does not depend on the CPU
count.
"""
from __future__ import annotations

import contextlib
import os


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
