"""Both cores for training: one thread per split job, and OpenBLAS held at
one thread while training runs.

``run_in_two`` runs two halves of one job at once, the second on a thread
that the call starts and joins, so no dignn thread outlives a call. The jobs
are the two runs of ``DignnParams.init`` and ``.load``, the two parts of
Adam's update of a large tensor, and, under ``full``, the two splits of
``autodiff.sparse_target_mse``'s (k+1)-wide products over all N columns.
``one_blas_thread`` sets the OpenBLAS that numpy's products call to one
thread for its scope: after a product that OpenBLAS split over two threads,
its idle thread spins on the second core for about 128 ms, which is where
the second half would run.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from contextlib import contextmanager

from numpy._core import _multiarray_umath

# The (get, set) thread-count functions of the OpenBLAS builds that numpy
# links: the scipy-openblas64 of its wheels, and an OpenBLAS of the system.
_BLAS_CONTROLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
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


def run_in_two(first, second):
    """Run ``first()`` on the calling thread while a thread started for this
    call runs ``second()``, joined before the call returns; or ``second()``
    after ``first()`` on the calling thread, where no thread can start
    (``RuntimeError``, say under a memory limit). Both end before any error
    is raised, the caller's first. ``second`` runs in a copy of the caller's
    context, so the caller's ``np.errstate`` holds in both halves (a new
    thread would start in an empty one).

    The two must not share what they write, and the thread allocates
    nothing that outlives the call: the caller allocates what ``second``
    fills."""
    errors = []
    context = contextvars.copy_context()

    def run_second():
        try:
            context.run(second)
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=run_second, name="dignn-split")
    try:
        thread.start()
    except RuntimeError:
        first()
        second()
        return
    try:
        first()
    finally:
        thread.join()
    if errors:
        raise errors[0]
