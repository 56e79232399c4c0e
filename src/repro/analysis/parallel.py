"""Parallel execution of embarrassingly-parallel sweep work.

The Figure-3 evaluation is a Monte-Carlo sweep whose instances are pure
functions of a seed derived with :func:`repro.utils.rng.derive_seed` —
parallel by construction. This module fans such tasks out over a
``concurrent.futures.ProcessPoolExecutor`` while preserving two
guarantees the serial path gives for free:

*determinism* — tasks are submitted in serial order and results are
reassembled in that order (``Executor.map`` preserves it), so for pure
task functions the ``jobs=N`` output is bit-identical to ``jobs=1``;

*observability* — each worker runs its task against its own (forked)
process-wide :data:`repro.obs.metrics.REGISTRY`; the per-task snapshot
travels back with the result and is merged into the parent registry
(:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`), so counters
and timers survive the fan-out. Tracing spans do **not** cross the
process boundary — a ``--trace-out`` trace of a parallel run covers the
parent process only.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY as _metrics

log = get_logger("analysis.parallel")

__all__ = ["resolve_jobs", "run_tasks", "get_pool", "shutdown_pool"]

#: A task is ``(args, kwargs)``; the runner calls ``fn(*args, **kwargs)``.
Task = "tuple[tuple, dict]"


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` parameter to a concrete worker count.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per
    CPU (``os.cpu_count()``); any other positive integer is taken as-is.
    Other negative values are an error.
    """
    if jobs is None or jobs == 0:
        return 1
    jobs = int(jobs)
    if jobs == -1:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, -1 (all cores) or None, got {jobs}")
    return jobs


def _run_one(payload: tuple) -> tuple:
    """Worker entry point: run one task, capture its metrics snapshot.

    Must live at module level so it pickles under every multiprocessing
    start method. ``collect`` carries the parent registry's enabled flag;
    the worker's registry is reset around every task so each snapshot
    covers exactly one task, whatever the executor's chunking did.
    """
    fn, args, kwargs, collect = payload
    if collect:
        _metrics.reset()
        _metrics.enable()
    try:
        result = fn(*args, **kwargs)
        snapshot = _metrics.snapshot() if collect else None
    finally:
        if collect:
            _metrics.disable()
            _metrics.reset()
    return result, snapshot


#: The module-level persistent pool: spawning worker processes costs a
#: fork + interpreter warm-up per worker, which dominates short batches.
#: The pool survives across ``run_tasks`` calls and is resized only when
#: a call asks for *more* workers than it has.
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, grown to at least ``workers`` processes.

    A pool at least as wide as requested is reused as-is (counted in
    ``parallel.pool_reuses``); a narrower one is shut down and replaced.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS >= workers:
        if _metrics.enabled:
            _metrics.add("parallel.pool_reuses", 1)
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    log.debug("starting worker pool", extra={"workers": workers})
    _POOL = ProcessPoolExecutor(max_workers=workers)
    _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Dispose of the persistent pool (idempotent; re-created on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def run_tasks(
    fn: Callable[..., Any],
    tasks: Sequence[tuple[tuple, dict]],
    jobs: int | None = None,
) -> list:
    """Run ``fn(*args, **kwargs)`` for every task, serially or in a pool.

    Results come back in task order. With ``jobs`` resolving to 1 (or at
    most one task) everything runs inline in this process — the exact
    serial code path, no pool, no pickling. Otherwise the persistent
    pool (see :func:`get_pool`) executes the tasks and each worker-side
    metrics snapshot is merged into the parent registry.

    Tasks are shipped in chunks of ``max(1, len(tasks) // (4 *
    workers))`` — many-small-task sweeps stop paying one IPC round-trip
    per task while keeping ~4 chunks per worker for load balance.

    ``fn``, every task's arguments, and every result must be picklable
    (module-level functions and plain-data dataclasses are); arguments
    travel by value, graphs included.

    A worker crash surfaces as ``BrokenProcessPool``; the poisoned pool
    is discarded so the next call starts from a fresh one.
    """
    n_jobs = resolve_jobs(jobs)
    tasks = list(tasks)
    if n_jobs == 1 or len(tasks) <= 1:
        return [fn(*args, **kwargs) for args, kwargs in tasks]
    collect = _metrics.enabled
    workers = min(n_jobs, len(tasks))
    chunksize = max(1, len(tasks) // (4 * workers))
    log.debug(
        "parallel fan-out",
        extra={
            "tasks": len(tasks),
            "workers": workers,
            "chunksize": chunksize,
            "collect": collect,
        },
    )
    payloads = [(fn, args, kwargs, collect) for args, kwargs in tasks]
    results: list = []
    pool = get_pool(workers)
    try:
        for result, snapshot in pool.map(
            _run_one, payloads, chunksize=chunksize
        ):
            if snapshot is not None:
                _metrics.merge_snapshot(snapshot)
            results.append(result)
    except BrokenProcessPool:
        shutdown_pool()
        raise
    return results
