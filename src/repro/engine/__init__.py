"""The long-lived pricing service layer.

The paper's Algorithm 1 prices one static request; a deployed access
point serves a *stream* of requests while declared costs drift and nodes
churn. :class:`PricingEngine` is that service: it owns a versioned
topology snapshot, answers ``price()`` through an SPT/payment cache, and
applies ``update_cost`` / ``remove_node`` / ``add_node`` with
dirty-region invalidation so that steady-state traffic mostly hits
caches instead of recomputing Dijkstras from scratch.

:mod:`repro.engine.workload` generates, saves and replays seeded
request/update traces (the ``repro-unicast engine`` CLI command and
``benchmarks/bench_engine.py`` are thin wrappers over it).

:mod:`repro.engine.persist` makes the service durable: a write-ahead
log of every mutation plus periodic checkpoints, so
:meth:`PricingEngine.open` rebuilds a bit-identical engine after a
crash (see ``docs/engine.md`` for the operations guide).

:mod:`repro.engine.sync` supplies the writer-preferring reader–writer
lock behind the engine's snapshot isolation: concurrent ``price()``
calls share the lock while mutations serialize and publish new
versions atomically (``docs/service.md``).

:mod:`repro.engine.oracle` is the serial oracle every serving gate
checks answers with, each at the ``graph_version`` it names.
"""

from repro.engine.engine import EngineStats, PricingEngine
from repro.engine.oracle import Verdict, verify
from repro.engine.persist import (
    EnginePersistence,
    PersistError,
    RecoveryError,
    RecoveryReport,
)
from repro.engine.sync import RWLock
from repro.engine.workload import (
    ReplayReport,
    WorkloadOp,
    generate_workload,
    load_trace,
    replay,
    save_trace,
)

__all__ = [
    "PricingEngine",
    "EngineStats",
    "EnginePersistence",
    "PersistError",
    "RecoveryError",
    "RecoveryReport",
    "RWLock",
    "WorkloadOp",
    "ReplayReport",
    "generate_workload",
    "save_trace",
    "load_trace",
    "replay",
    "Verdict",
    "verify",
]
