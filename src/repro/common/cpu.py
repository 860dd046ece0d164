"""Cores this process may use, the thread pool of the BLAS numpy
loaded, and the free heap a fork would copy (serving plumbing for the
paper's Sec. III-A two-stage pipeline, in which the DNN and the Viterbi
search each own a compute resource).

:func:`usable_cpus` is the repo's one definition of "cores".
:class:`BlasPool` drives OpenBLAS's own ``get/set_num_threads`` entry
points through ``ctypes``; with any other BLAS, or on a platform without
``/proc/self/maps``, the handle is *uncontrolled*: every call is a no-op
and :meth:`BlasPool.threads` reads ``0`` -- never an error.
:func:`release_free_heap` drives glibc's ``malloc_trim`` the same way:
without glibc it is a no-op that returns ``False``.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, Optional, Tuple

import numpy  # noqa: F401 -- maps the BLAS that _find_openblas looks for


def usable_cpus() -> int:
    """Cores this process may be scheduled on: its affinity mask where
    the OS has one (``taskset``, a container's cpuset), else the
    machine's core count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def release_free_heap() -> bool:
    """Hand the C heap's free pages back to the OS (glibc's
    ``malloc_trim(0)``); ``False`` where there is no glibc to ask.

    Freed numpy buffers stay mapped in the allocator's arenas, and a
    forked child starts with every such page resident in its own
    anonymous memory.  Called right before a fork, so a worker carries
    the live heap only.
    """
    trim = _malloc_trim()
    if trim is None:
        return False
    trim(0)
    return True


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_EntryPoints = Tuple[Callable[[], int], Callable[[int], None]]


def _find_openblas() -> Optional[_EntryPoints]:
    """``(get_num_threads, set_num_threads)`` of the first OpenBLAS among
    this process's mapped shared objects, or ``None``.  numpy's wheels
    export the pair as ``scipy_openblas_*64_``; plain builds as
    ``openblas_*``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split()[-1] for line in maps if "openblas" in line.lower()]
    except OSError:
        return None
    for path in dict.fromkeys(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


class BlasPool:
    """The BLAS thread pool of this process (process-wide state: two
    holders see each other's changes)."""

    def __init__(self) -> None:
        self._entry = _find_openblas()

    def threads(self) -> int:
        """Current pool size; ``0`` when the BLAS is uncontrolled."""
        return int(self._entry[0]()) if self._entry is not None else 0

    def lower(self, threads: int) -> int:
        """Shrink the pool to ``threads`` if it is larger.  Returns the
        size to hand to :meth:`restore` -- ``0`` when nothing changed."""
        before = self.threads()
        if self._entry is None or before <= threads:
            return 0
        self._entry[1](threads)
        return before

    def restore(self, threads: int) -> None:
        """Grow the pool back to a size :meth:`lower` returned.  Never
        shrinks it, so holders whose lifetimes overlap may restore in any
        order and the pool ends at the size the first of them found."""
        if self._entry is not None and threads > self.threads():
            self._entry[1](threads)
