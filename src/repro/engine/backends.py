"""Execution backends for independent work units.

Every expensive step of the reproduction — per-panel SINO solves, whole-flow
benchmark instances — decomposes into tasks with no shared mutable state.
The :class:`ExecutionBackend` abstraction lets callers dispatch those tasks
serially (the reference path, and the fastest one on a single core) or over
a process pool, without the call sites knowing which.  One worker count
picks between them: :func:`create_backend` returns the serial backend for
one worker and a process pool for more.

:meth:`ExecutionBackend.map_tasks` applies a function to every task and
returns the results in task order.  The process pool chunks the task list
(amortising per-submission dispatch overhead, which dominates for
sub-millisecond panel solves) and flattens the results back.

Results are always returned in task order, so a parallel run is
indistinguishable from a serial one to the caller — determinism is the
backends' contract, not an accident.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import partial
from typing import Any, Callable, Iterable, List, Optional, Sequence


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

    Backends are reusable: the process pool is created lazily on first
    dispatch and kept alive across calls, so repeated batches (one per flow
    and phase) amortise the startup cost.  Call :meth:`shutdown` — or use
    the backend as a context manager — to release pool resources eagerly;
    otherwise they are reclaimed at interpreter exit.
    """

    #: Human-readable backend name (``serial`` or ``process``).
    name: str = "abstract"

    @property
    def num_workers(self) -> int:
        """Degree of parallelism the backend dispatches to."""
        return 1

    @abstractmethod
    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every task, returning results in task order."""

    def shutdown(self) -> None:
        """Release any pooled workers (idempotent; no-op for serial)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.num_workers})"


class SerialBackend(ExecutionBackend):
    """Run everything inline in the calling thread (the reference path)."""

    name = "serial"

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        return [fn(task) for task in tasks]


class ProcessBackend(ExecutionBackend):
    """Dispatch chunks of tasks to a process pool.

    Tasks, their function and their results must be picklable.  Chunking
    matters here: one submission per panel would drown in IPC, while a few
    chunks per worker keep serialisation a rounding error.  The pool is
    created lazily on first dispatch and reused for every later batch, so
    the three flows of a comparison (and the many phases within each) pay
    worker startup once per backend instance.  A pool that loses a child
    is dropped, so the dispatch after a failed one forks a fresh pool.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self._workers = workers
        self._executor = None

    @property
    def num_workers(self) -> int:
        return self._workers

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
        # Imported here, so a serial run never loads concurrent.futures.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        task_list = list(tasks)
        if not task_list:
            return []
        size = chunk_size if chunk_size is not None else self.default_chunk_size(len(task_list))
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        try:
            batched = list(
                self._executor.map(partial(_apply_chunk, fn), chunk_tasks(task_list, size))
            )
        except BrokenProcessPool:
            # A dead child breaks the executor for good; drop it so the
            # next dispatch forks a fresh pool instead of failing again.
            # The executor SIGTERMs the surviving children and joins them,
            # but children forked from a `repro serve` worker inherit its
            # SIGTERM handler and would never exit: kill them outright.
            for process in list(self._executor._processes.values()):
                process.kill()
            self.shutdown()
            raise
        return [result for chunk_results in batched for result in chunk_results]

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def create_backend(workers: Optional[int] = None) -> ExecutionBackend:
    """The backend for a worker count: serial for ``None`` or 1, else a pool."""
    if workers is None or workers == 1:
        return SerialBackend()
    return ProcessBackend(workers)
