"""Pluggable execution backends for independent work units.

Every expensive step of the reproduction — per-panel SINO solves, whole-flow
benchmark instances — decomposes into tasks with no shared mutable state.
The :class:`ExecutionBackend` abstraction lets callers dispatch those tasks
serially (the reference path, and the fastest one on a single core),
over a thread pool, or over a process pool, without the call sites knowing
which.

Two dispatch granularities are exposed:

* :meth:`ExecutionBackend.submit_batch` — run pre-formed chunks of tasks, one
  chunk per worker submission;
* :meth:`ExecutionBackend.map_tasks` — the convenience layer: it chunks the
  task list (amortising per-submission dispatch overhead, which dominates for
  sub-millisecond panel solves) and flattens the results back into task
  order.

Results are always returned in task order, so a parallel run is
indistinguishable from a serial one to the caller — determinism is the
backends' contract, not an accident.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from functools import partial
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

#: Names accepted by :func:`create_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES: Tuple[str, ...] = ("serial", "thread", "process")


def _default_workers() -> int:
    return os.cpu_count() or 1


def chunk_tasks(tasks: Sequence[Any], chunk_size: int) -> List[List[Any]]:
    """Split a task list into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [list(tasks[i : i + chunk_size]) for i in range(0, len(tasks), chunk_size)]


def _apply_chunk(fn: Callable[[Any], Any], chunk: List[Any]) -> List[Any]:
    """Run one chunk serially (module-level so process pools can pickle it)."""
    return [fn(task) for task in chunk]


class ExecutionBackend(ABC):
    """Strategy interface for running independent tasks.

    Backends are reusable: pooled implementations create their worker pool
    lazily on first dispatch and keep it alive across calls, so repeated
    batches (one per flow and phase) amortise the startup cost.  Call
    :meth:`shutdown` — or use the backend as a context manager — to release
    pool resources eagerly; otherwise they are reclaimed at interpreter
    exit.
    """

    #: Human-readable backend name (matches the :func:`create_backend` key).
    name: str = "abstract"

    @property
    def num_workers(self) -> int:
        """Degree of parallelism the backend dispatches to."""
        return 1

    @property
    def shares_memory(self) -> bool:
        """Whether workers see the caller's address space.

        True for serial and thread dispatch — tasks can carry live objects
        (prebuilt panel states) for free.  Process backends return False,
        so callers send picklable tasks that rebuild such objects in the
        worker instead.
        """
        return True

    @abstractmethod
    def submit_batch(
        self, fn: Callable[[Any], Any], chunks: Sequence[List[Any]]
    ) -> List[List[Any]]:
        """Run every chunk through ``fn`` task-by-task; chunk order is kept."""

    def shutdown(self) -> None:
        """Release any pooled workers (idempotent; no-op for serial)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def default_chunk_size(self, num_tasks: int) -> int:
        """Chunk size balancing dispatch overhead against load balance.

        Four chunks per worker keeps the pool busy even when task costs are
        skewed (a handful of dense panels dominate real instances) while
        still amortising submission overhead over many small tasks.
        """
        return max(1, math.ceil(num_tasks / (4 * self.num_workers)))

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every task, returning results in task order."""
        task_list = list(tasks)
        if not task_list:
            return []
        size = chunk_size if chunk_size is not None else self.default_chunk_size(len(task_list))
        chunks = chunk_tasks(task_list, size)
        batched = self.submit_batch(fn, chunks)
        return [result for chunk_results in batched for result in chunk_results]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.num_workers})"


class SerialBackend(ExecutionBackend):
    """Run everything inline in the calling thread (the reference path)."""

    name = "serial"

    def submit_batch(
        self, fn: Callable[[Any], Any], chunks: Sequence[List[Any]]
    ) -> List[List[Any]]:
        return [_apply_chunk(fn, chunk) for chunk in chunks]


class _PooledBackend(ExecutionBackend):
    """Shared machinery of the executor-pool backends.

    The pool is created lazily on first dispatch and reused for every
    subsequent batch, so the three flows of a comparison (and the many
    phases within each) pay worker startup once per backend instance.
    Subclasses import their executor class where they build the pool, so
    a serial run never loads :mod:`concurrent.futures`.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self._workers = workers or _default_workers()
        self._executor = None

    @property
    def num_workers(self) -> int:
        return self._workers

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    @abstractmethod
    def _make_executor(self):
        """A new executor pool of ``num_workers`` workers."""

    def submit_batch(
        self, fn: Callable[[Any], Any], chunks: Sequence[List[Any]]
    ) -> List[List[Any]]:
        executor = self._ensure_executor()
        return list(executor.map(partial(_apply_chunk, fn), chunks))

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ThreadBackend(_PooledBackend):
    """Dispatch chunks to a thread pool.

    Python threads only overlap where the work releases the GIL (NumPy inner
    loops do), but the backend's main role is structural: it exercises the
    exact dispatch path a free-threaded or native-solver build would use,
    with zero serialisation cost.
    """

    name = "thread"

    def _make_executor(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self._workers)


class ProcessBackend(_PooledBackend):
    """Dispatch chunks to a process pool.

    Tasks, their function and their results must be picklable.  Chunking
    matters most here: one submission per panel would drown in IPC, while a
    few chunks per worker keep serialisation a rounding error.
    """

    name = "process"

    def _make_executor(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self._workers)

    @property
    def shares_memory(self) -> bool:
        return False


def create_backend(name: str, workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by name (``serial``, ``thread`` or ``process``).

    Passing a worker count with the serial backend is an error rather than a
    silent no-op, so callers are told when their parallelism request is
    being ignored.
    """
    if name == "serial":
        if workers is not None:
            raise ValueError(
                "the serial backend takes no worker count; choose 'thread' or 'process'"
            )
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(workers=workers)
    if name == "process":
        return ProcessBackend(workers=workers)
    raise ValueError(
        f"unknown execution backend {name!r} (expected one of {', '.join(BACKEND_NAMES)})"
    )
