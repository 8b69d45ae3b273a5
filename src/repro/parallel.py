"""Process parallelism: the ``set_parallelism`` switch and a fork worker pool.

Some fixpoints split into independent partitions: a left-linear closure
never mixes rows with different first columns, so each partition of its
seed delta can iterate to completion on its own before one deterministic
merge.  This module provides the two process-level building blocks that
:mod:`repro.engines.runtime` (the whole-fixpoint offload) and
:mod:`repro.lint` (parallel corpus linting) share:

``set_parallelism(n)`` / ``parallelism()``
    A zero-API-change switch.  The default (``1``, overridable through the
    ``REPRO_PARALLELISM`` environment variable) keeps every evaluation on
    the historical sequential path, which stays the differential oracle and
    keeps the paper-sample counter pins bit-identical.  Any ``n > 1`` arms
    the runtime's fixpoint offload; answers and aggregated
    :class:`~repro.instrumentation.Counters` are guaranteed identical
    either way (see ``tests/engines/test_parallel_differential``).

:class:`WorkerPool`
    A persistent pool of fork-spawned worker processes talking over pipes.
    Fork is essential, not incidental: workers inherit the parent's
    interner, databases and compiled plans as copy-on-write memory, so a
    task only has to name them (an index, a predicate) plus the dense
    ``array('q')`` code columns of the rows it should process.  Workers are
    probe-only -- they never write back into inherited state that the parent
    reads -- and results are collected and merged in task order, so worker
    timing never leaks into observable output.

On platforms without ``fork`` (Windows, some macOS configurations) the pool
reports itself unavailable and every caller falls back to the sequential
path; no functionality is lost, only the speedup.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import traceback
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

__all__ = [
    "parallelism",
    "set_parallelism",
    "fork_available",
    "register_task",
    "WorkerPool",
    "WorkerError",
]


def _env_parallelism() -> int:
    raw = os.environ.get("REPRO_PARALLELISM", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


_PARALLELISM = _env_parallelism()


def parallelism() -> int:
    """The current worker count (``1`` means fully sequential evaluation)."""
    return _PARALLELISM


def set_parallelism(workers: int) -> int:
    """Set the worker count for subsequent evaluations; returns the old value.

    ``1`` restores the exact sequential path.  The setting is process-global
    (like :func:`repro.datalog.plans.set_execution_mode`): evaluation entry
    points read it at run time, so no engine or session API changes.
    """
    global _PARALLELISM
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"parallelism must be a positive integer, got {workers!r}")
    previous = _PARALLELISM
    _PARALLELISM = workers
    return previous


def fork_available() -> bool:
    """Whether fork-based worker pools can be used on this platform."""
    return hasattr(os, "fork") and "fork" in multiprocessing.get_all_start_methods()


# -- task registry ----------------------------------------------------------
#
# Handlers are registered at import time by the modules that own them (the
# runtime registers the fixpoint task, the linter registers the lint task).
# Because workers are forked *after* those imports, children inherit the
# registry -- nothing is pickled except the per-task payload.

_HANDLERS: Dict[str, Callable[[Any], Any]] = {}

#: Opaque state stashed by the parent immediately before forking a pool and
#: inherited by the children; task handlers read it via :func:`pool_state`.
_CHILD_STATE: Any = None


def register_task(kind: str, handler: Callable[[Any], Any]) -> None:
    """Register ``handler`` for tasks of ``kind`` (parent-side, pre-fork)."""
    _HANDLERS[kind] = handler


def pool_state() -> Any:
    """The state object the pool was forked with (handler-side accessor)."""
    return _CHILD_STATE


class WorkerError(RuntimeError):
    """A task raised inside a worker (the remote traceback is the message),
    or its worker died before answering."""


def _worker_main(conn: multiprocessing.connection.Connection) -> None:
    handlers = _HANDLERS
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        kind, payload = task
        try:
            handler = handlers[kind]
            result = handler(payload)
        except BaseException:  # report, keep serving
            conn.send((False, f"task {kind!r} failed:\n{traceback.format_exc()}"))
            continue
        conn.send((True, result))
    conn.close()


class WorkerPool:
    """A persistent pool of forked, probe-only worker processes.

    Parameters
    ----------
    workers:
        Number of child processes to fork.
    state:
        Opaque object stashed in :data:`_CHILD_STATE` immediately before
        forking, so children inherit it; handlers read it back through
        :func:`pool_state`.  The parent must keep whatever invariants the
        handlers rely on (e.g. "these relations are frozen") for the pool's
        lifetime, or tear the pool down.
    """

    def __init__(self, workers: int, state: Any = None) -> None:
        if not fork_available():
            raise WorkerError("fork start method unavailable on this platform")
        global _CHILD_STATE
        self._conns: List[multiprocessing.connection.Connection] = []
        self._procs: List[BaseProcess] = []
        context = multiprocessing.get_context("fork")
        _CHILD_STATE = state
        try:
            for _ in range(workers):
                parent_conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        finally:
            _CHILD_STATE = None

    def run(self, tasks: Sequence[Tuple[str, Any]]) -> List[Any]:
        """Run ``tasks`` across the pool; results come back in task order.

        Each worker has at most one task in flight (send one, await its
        result, send the next), which keeps the pipes from filling up on
        either side regardless of result sizes.  A failed task raises
        :class:`WorkerError` with the remote traceback after the in-flight
        tasks have drained, so the pool stays usable.
        """
        if not tasks:
            return []
        conns = self._conns
        results: List[Any] = [None] * len(tasks)
        inflight: Dict[multiprocessing.connection.Connection, int] = {}
        failure: Optional[str] = None
        next_task = 0
        for conn in conns:
            if next_task >= len(tasks):
                break
            conn.send(tasks[next_task])
            inflight[conn] = next_task
            next_task += 1
        while inflight:
            for ready in multiprocessing.connection.wait(list(inflight)):
                conn = cast(multiprocessing.connection.Connection, ready)
                index = inflight.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError) as exc:
                    failure = f"worker died while running task {index}: {exc!r}"
                    continue
                if ok:
                    results[index] = value
                else:
                    failure = failure or value
                if next_task < len(tasks) and failure is None:
                    conn.send(tasks[next_task])
                    inflight[conn] = next_task
                    next_task += 1
        if failure is not None:
            raise WorkerError(failure)
        return results

    def close(self) -> None:
        """Shut the workers down and reap them."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
