"""The package's one way into a pool of forked worker processes: ``ordered``.

The task function reaches the workers through the fork, so it may be any
callable, a closure over large arrays included, and only the task tuples and
the results are pickled.  The workers inherit one OpenBLAS thread each.
"""
from __future__ import annotations

import collections
import contextlib
import itertools
import os
import pickle

# tasks per worker that ordered() keeps in flight: a worker that finishes one
# finds the next already queued.  On a 2-core x86-64 machine, the seed-7
# bulk-output-gravity fluct and evolve-s commands (250k- and 1k-row CSVs),
# called in process, had medians of 0.147 and 0.159 s at one task per
# worker, 0.141 and 0.145 s at two and 0.137 and 0.154 s at four, over 11
# interleaved calls each; more would only hold more finished results in
# memory.
_DEPTH = 2

# (get, set) names of the thread count in the OpenBLAS builds NumPy ships in
# its wheels (64-bit and 32-bit integers) or links from the system
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# OpenBLAS's own fork handler, which stops the thread pool of the process that
# forks; the pool starts again at the next call that needs it
_POOL_STOP = "blas_thread_shutdown_"

_threads = None  # _blas_threads()'s answer, once looked up


def _workers(tasks: int) -> int:
    """Worker processes worth starting for ``tasks`` independent tasks."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, tasks)


def _blas_threads():
    """``(get, set, stop)`` of the OpenBLAS thread count behind NumPy's linear
    algebra and of its thread pool (``stop`` None where it is not found), or ``()``.

    Looked up once, at the first fork, in the libraries that NumPy's LAPACK
    extension loaded; ``()`` when none holds a name of ``_THREAD_SYMBOLS``.
    """
    global _threads
    if _threads is None:
        _threads = ()
        try:
            import ctypes

            from numpy.linalg import _umath_linalg

            library = ctypes.CDLL(_umath_linalg.__file__)
        except (ImportError, OSError):
            return _threads
        for get_name, set_name in _THREAD_SYMBOLS:
            with contextlib.suppress(AttributeError):
                get, set_count = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_count.argtypes, set_count.restype = [ctypes.c_int], None
                stop = getattr(library, _POOL_STOP, None)
                if stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                _threads = get, set_count, stop
                break
    return _threads


@contextlib.contextmanager
def _one_blas_thread():
    """Hold this process's OpenBLAS at one thread, then restore its count.

    A process forked meanwhile inherits the one thread and never starts
    OpenBLAS's pool.  Setting the count in the forked child instead would
    restart the pool there.  The count is set only if it is not 1 already,
    so a worker that forks never sets it.  The fork stopped this process's
    pool, and restoring the count starts it again, whose new threads would
    spin idle for about 0.13 s of CPU; so the pool is stopped once more, and
    starts at the next call that needs it, as after any fork.
    """
    get, set_count, stop = _blas_threads() or (None, None, None)
    count = get() if get else 1
    if count != 1:
        set_count(1)
    try:
        yield
    finally:
        if count != 1:
            set_count(count)
            if stop is not None:
                stop()


def _serve(function, connection, inherited) -> None:
    """A worker: run each task that ``connection`` brings and send back
    ``(True, result)`` or ``(False, exception)``, until the pipe closes.

    ``inherited`` are the parent's ends of the pipes, which the fork copied;
    closed here, so that the parent's closing them ends each worker's loop.
    """
    for end in inherited:
        end.close()
    with contextlib.suppress(EOFError, OSError):
        while True:
            task = connection.recv()
            try:
                reply = True, function(*task)
            except BaseException as exc:
                reply = False, exc
            try:
                connection.send(reply)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                connection.send((False, TypeError(f"a task's result cannot be sent back: {exc}")))


def _fork(function, count: int) -> dict:
    """``count`` workers serving ``function``: the parent's end of each one's
    pipe, mapped to its process."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = {}
    for _ in range(count):
        here, there = context.Pipe()
        # not a daemon, so that a task may fork workers of its own
        process = context.Process(target=_serve, args=(function, there, [*workers, here]))
        process.start()
        there.close()
        workers[here] = process
    return workers


def ordered(function, tasks, what: str):
    """Yield ``function(*task)`` for each task of the sized iterable ``tasks``, in task order.

    With fewer than 2 ``_workers(len(tasks))``, the tasks run in process, one
    as each result is taken.  Otherwise that many workers are forked when the
    first result is taken, and each task goes to the worker with the fewest
    in flight, at most ``_DEPTH`` tasks per worker in all; ``tasks`` is read
    only as they are sent.  The results are received in the calling thread,
    in task order, one as each is taken, so a finished task's result waits
    in its worker's pipe rather than in this process, and this process runs
    no thread of its own for the pool.
    fork, not spawn: a worker starts without importing NumPy again and finds
    ``function`` in the memory it inherits, so only the task tuples and the
    results are pickled.  This process's OpenBLAS is held at one thread
    while the workers live (``_one_blas_thread``): each worker inherits the
    one thread, and no idle OpenBLAS thread of this process spins on a CPU
    that a worker needs.  Where no OpenBLAS thread count is found
    (``_blas_threads``), the workers fork with this process's count.
    An exception that a task raises is raised in its turn.  A worker that
    dies, which for the package's tasks means the kernel killed it for
    memory, is raised as a ``MemoryError`` naming ``what`` the worker did.
    Closing the generator stops the workers once their current tasks end.
    """
    count = _workers(len(tasks))
    if count < 2:
        yield from itertools.starmap(function, tasks)
        return
    from multiprocessing.util import Finalize

    with _one_blas_thread():
        workers = _fork(function, count)
        # run at interpreter exit too, should this generator still be open
        # then: multiprocessing runs it before it joins the workers
        stop = Finalize(None, _stop, args=(workers,), exitpriority=0)
        try:
            yield from _results(workers, tasks, what)
        finally:
            stop()


def _stop(workers: dict) -> None:
    """End ``workers``, as ``_fork`` gives them, each once its current task is done."""
    for connection in workers:
        connection.close()  # the worker's next recv ends its loop
    for process in workers.values():
        process.join()


def _results(workers: dict, tasks, what: str):
    """``ordered``'s results from ``workers``, as ``_fork`` gives them."""
    load = dict.fromkeys(workers, 0)  # tasks in flight per worker
    owners = collections.deque()  # the worker of each task in flight, in task order
    pending = iter(tasks)
    while True:
        try:
            for task in itertools.islice(pending, _DEPTH * len(workers) - len(owners)):
                connection = min(load, key=load.get)
                connection.send(task)
                load[connection] += 1
                owners.append(connection)
            if not owners:
                return
            connection = owners.popleft()
            succeeded, value = connection.recv()
        except (EOFError, OSError) as exc:  # the pipe of a worker that died
            process = workers[connection]
            process.join()
            raise MemoryError(f"a {what} worker died (exit code {process.exitcode})") from exc
        load[connection] -= 1
        if not succeeded:
            raise value
        yield value
