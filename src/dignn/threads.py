"""Both cores for training: dignn's one worker thread, and OpenBLAS held at
one thread while training runs.

``run_in_two`` runs two halves of one job at once, the second on a worker
thread that each process starts once, on first use. ``one_blas_thread``
sets the OpenBLAS that numpy's products call to one thread for its scope:
after a product that OpenBLAS split over two threads, its idle thread spins
on the second core for about 128 ms, which is where the worker would run.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from contextlib import contextmanager

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

# The (get, set) thread-count functions of the OpenBLAS builds that numpy
# links: the scipy-openblas64 of numpy 2's wheels, the 64-bit-integer
# OpenBLAS of numpy 1.x's wheels, and an OpenBLAS of the system.
_BLAS_CONTROLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_blas_controls():
    """The first pair of ``_BLAS_CONTROLS`` that numpy's own extension
    reaches (the extension is already loaded, and its OpenBLAS with it), or
    None where it reaches none of them (another BLAS)."""
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for get_name, set_name in _BLAS_CONTROLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


BLAS_CONTROLS = _find_blas_controls()


def blas_threads() -> int | None:
    """OpenBLAS's thread count now, or None where its controls were not found."""
    return None if BLAS_CONTROLS is None else BLAS_CONTROLS[0]()


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the scope, and restore the count
    it had on every exit. A scope entered at one thread (one nested in
    another, say) sets nothing. Where the controls were not found it does
    nothing. Also usable as a decorator."""
    before = blas_threads()
    if before is None or before == 1:
        yield
        return
    BLAS_CONTROLS[1](1)
    try:
        yield
    finally:
        BLAS_CONTROLS[1](before)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """One daemon thread that runs the tasks put on its queue, in order."""

    def __init__(self):
        self.pid = os.getpid()
        self.tasks = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="dignn-worker",
                                       daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            task, done = self.tasks.get()
            try:
                task()
            finally:
                # Drop what the task holds (Adam's grad, say) before the
                # caller goes on, not when the next task comes.
                task = None
                done.set()


_worker = None  # this process's worker, started by the first run_in_two


def _current_worker():
    """The process's worker, started here if this process has none: a forked
    child does not have its parent's thread. None where the process may run
    on one CPU only, or no thread can start (``RuntimeError``, say under a
    memory limit); a later call tries again. Two threads that find no worker
    at once may each start one: each uses its own, and the one not kept
    idles."""
    global _worker
    worker = _worker
    if worker is None or worker.pid != os.getpid():
        worker = None
        if _cpus() > 1:
            try:
                worker = _Worker()
            except RuntimeError:
                pass
        _worker = worker
    return worker


def run_in_two(first, second):
    """Run ``first()`` on the calling thread while the worker runs
    ``second()``, or, where there is no worker, ``second()`` after
    ``first()``. Both end before any error is raised, the caller's first.

    The two must not share what they write, and the worker allocates
    nothing for them: the caller allocates what ``second`` fills."""
    worker = _current_worker()
    if worker is None or threading.current_thread() is worker.thread:
        first()
        second()
        return
    errors = []

    def task():
        try:
            second()
        except BaseException as exc:
            errors.append(exc)

    done = threading.Event()
    worker.tasks.put((task, done))
    try:
        first()
    finally:
        done.wait()
    if errors:
        raise errors[0]
