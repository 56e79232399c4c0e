"""Reader–writer synchronization for the snapshot-isolated engine.

:class:`RWLock` implements the discipline :class:`~repro.engine.PricingEngine`
serves concurrent traffic under:

* any number of **readers** share the lock — queries never block each
  other;
* one **writer** at a time holds it exclusively — mutations observe a
  quiescent engine and publish the next version atomically (no reader
  can see a half-applied update);
* **writer preference** — once a writer is waiting, new readers queue
  behind it, so a steady query stream cannot starve updates;
* the write side is **reentrant** for its owning thread. The engine
  needs this: ``update_cost`` holds the write lock when an automatic
  checkpoint fires, and :meth:`PricingEngine.checkpoint` takes the
  write lock itself. A write holder may also take the read side (it is
  treated as a nested write acquisition), so a mutation can call
  query paths without deadlocking itself.

Lock *upgrades* (read → write while still holding read) deadlock by
construction in any reader–writer scheme — two upgraders would wait on
each other forever — so :meth:`RWLock.acquire_write` raises
``RuntimeError`` instead of hanging when the caller already holds the
read side.

The implementation is a single :class:`threading.Condition` over four
counters — deliberately boring; the engine's correctness argument
(docs/service.md) leans on this lock being obviously right, not fast.
Under CPython the pricing hot path spends its time in NumPy kernels
anyway, so a fancier lock would buy nothing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["RWLock"]


class RWLock:
    """A writer-preferring, write-reentrant reader–writer lock."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # threads currently holding the read side
        self._writer: int | None = None  # ident of the write holder
        self._write_depth = 0  # reentrant write acquisitions
        self._waiting_writers = 0  # writers parked on the condition
        self._local = threading.local()  # per-thread read-hold depth

    # -- introspection (tests and assertions) -------------------------------

    @property
    def read_held(self) -> bool:
        """True when the calling thread holds the read side."""
        return getattr(self._local, "read_depth", 0) > 0

    @property
    def write_held(self) -> bool:
        """True when the calling thread holds the write side."""
        return self._writer == threading.get_ident()

    # -- read side -----------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # A write holder taking the read side: count it as a
                # nested write acquisition — it already excludes
                # everyone, and pairing with release_read keeps the
                # caller's with-blocks balanced.
                self._write_depth += 1
                return
            depth = getattr(self._local, "read_depth", 0)
            if depth == 0:
                # New readers queue behind waiting writers (preference);
                # nested re-reads by a thread already inside sail
                # through, or a writer waiting in between would
                # deadlock it against itself.
                while self._writer is not None or self._waiting_writers:
                    self._cond.wait()
                self._readers += 1
            self._local.read_depth = depth + 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._release_write_locked()
                return
            depth = getattr(self._local, "read_depth", 0)
            if depth <= 0:
                raise RuntimeError("release_read without acquire_read")
            self._local.read_depth = depth - 1
            if depth == 1:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    # -- write side ----------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
                return
            if getattr(self._local, "read_depth", 0) > 0:
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock; release "
                    "the read side first"
                )
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._write_depth = 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write by a non-owner thread")
            self._release_write_locked()

    def _release_write_locked(self) -> None:
        self._write_depth -= 1
        if self._write_depth == 0:
            self._writer = None
            self._cond.notify_all()

    # -- context managers ----------------------------------------------------

    @contextmanager
    def read_locked(self):
        """``with lock.read_locked():`` — shared (query) critical section."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """``with lock.write_locked():`` — exclusive (mutation) section."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RWLock(readers={self._readers}, writer={self._writer}, "
            f"depth={self._write_depth}, waiting={self._waiting_writers})"
        )
