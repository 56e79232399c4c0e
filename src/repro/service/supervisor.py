"""Process supervision for the pricing server: probe, kill, recover.

:class:`Supervisor` runs ``python -m repro.cli serve ...`` (or any
argv that runs a :class:`~repro.service.ServiceServer`: ``/healthz``
for liveness, ``/readyz`` for readiness) as a **child process** and
keeps it alive:

* a monitor thread polls the child — ``proc.poll()`` catches crashes
  (including ``kill -9``), repeated ``/healthz`` probe failures catch
  hangs (a live process that stopped answering);
* on either, the child is killed (if still running) and relaunched
  with ``recover_args`` appended — for the pricing server that is
  ``--recover``, so the restart replays the WAL + checkpoint from PR 8
  and resumes at the exact published ``graph_version``;
* restarts are counted (``service.supervisor_restarts``), recorded as
  :class:`SupervisorEvent`s, and bounded by ``max_restarts`` so a
  crash-looping server fails fast instead of flapping forever.

The chaos suite (``tests/test_resilience.py``,
``tools/chaos_smoke.py``) uses this to ``kill -9`` the server
mid-load while :class:`~repro.service.PricingClient` callers retry
through the outage to bit-identical answers.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from repro.errors import SupervisorError
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["Supervisor", "SupervisorEvent", "serve_argv"]


@dataclass(frozen=True)
class SupervisorEvent:
    """One supervision event: ``kind`` in start/exit/hang/restart/give_up/stop."""

    t: float
    kind: str
    detail: str


class Supervisor:
    """Run a serve child process; probe it; restart it with recovery.

    ``argv`` launches the first child; every *re*launch uses
    ``argv + recover_args`` (default ``["--recover"]``) so state built
    by the first run is recovered, not clobbered. ``url`` is the base
    ``http://host:port`` the child serves; ``/healthz`` on it is the
    liveness probe.

    The monitor ignores probe failures during the first
    ``startup_grace_s`` after each (re)launch — a booting server is
    not a hung server.
    """

    def __init__(
        self,
        argv: list[str],
        url: str,
        *,
        recover_args: tuple[str, ...] = ("--recover",),
        probe_interval_s: float = 0.25,
        probe_timeout_s: float = 2.0,
        hang_probes: int = 8,
        startup_grace_s: float = 20.0,
        restart_backoff_s: float = 0.2,
        max_restarts: int = 5,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.argv = list(argv)
        self.url = url.rstrip("/")
        self.recover_args = tuple(recover_args)
        self.probe_interval_s = float(probe_interval_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.hang_probes = int(hang_probes)
        self.startup_grace_s = float(startup_grace_s)
        self.restart_backoff_s = float(restart_backoff_s)
        self.max_restarts = int(max_restarts)
        self._metrics = REGISTRY if metrics is None else metrics
        self._mu = threading.Lock()
        self._proc: subprocess.Popen | None = None
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._failed = threading.Event()
        self.restarts = 0
        self.events: list[SupervisorEvent] = []

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "Supervisor":
        if self._proc is not None:
            raise SupervisorError("supervisor already started")
        self._launch(recover=False)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, *, grace_s: float = 15.0) -> int | None:
        """Stop supervising and drain the child (SIGINT, then SIGKILL)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=grace_s)
        with self._mu:
            proc = self._proc
        if proc is None:
            self._record("stop", "no child")
            return None
        code: int | None = proc.poll()
        if code is None:
            try:
                proc.send_signal(signal.SIGINT)
            except OSError:
                pass
            try:
                code = proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait(timeout=grace_s)
        self._record("stop", f"child exited {code}")
        return code

    @property
    def pid(self) -> int | None:
        with self._mu:
            return None if self._proc is None else self._proc.pid

    @property
    def failed(self) -> bool:
        """True once the restart budget is exhausted."""
        return self._failed.is_set()

    def kill_child(self) -> int:
        """``kill -9`` the current child (chaos helper); returns its pid."""
        with self._mu:
            proc = self._proc
        if proc is None or proc.poll() is not None:
            raise SupervisorError("no live child to kill")
        pid = proc.pid
        proc.kill()
        return pid

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until ``/readyz`` is 200."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._failed.is_set():
                raise SupervisorError("child failed before becoming ready")
            if self._probe("/readyz"):
                return
            time.sleep(min(0.05, self.probe_interval_s))
        raise SupervisorError(f"child not ready after {timeout_s:.1f}s")

    def healthz(self) -> dict | None:
        """The child's current ``/healthz`` body, or ``None`` if down."""
        try:
            with urllib.request.urlopen(
                f"{self.url}/healthz", timeout=self.probe_timeout_s
            ) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError, urllib.error.URLError):
            return None

    # ------------------------------------------------------------------
    # internals

    def _launch(self, *, recover: bool) -> None:
        argv = self.argv + (list(self.recover_args) if recover else [])
        try:
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                stdin=subprocess.DEVNULL,
            )
        except OSError as exc:
            self._failed.set()
            raise SupervisorError(f"failed to launch {argv!r}: {exc}") from exc
        with self._mu:
            self._proc = proc
        kind = "restart" if recover else "start"
        self._record(kind, f"pid {proc.pid}")
        if recover:
            self.restarts += 1
            self._metrics.add("service.supervisor_restarts")

    def _probe(self, path: str = "/healthz") -> bool:
        try:
            with urllib.request.urlopen(
                f"{self.url}{path}", timeout=self.probe_timeout_s
            ) as resp:
                return resp.status == 200
        except (OSError, urllib.error.URLError):
            return False

    def _monitor_loop(self) -> None:
        launched_at = time.monotonic()
        consecutive_failures = 0
        seen_healthy = False
        while not self._stop.is_set():
            with self._mu:
                proc = self._proc
            if proc is None:
                return
            code = proc.poll()
            if code is not None:
                self._record("exit", f"pid {proc.pid} exited {code}")
                self._metrics.add("service.supervisor_child_exits")
                if not self._restart():
                    return
                launched_at = time.monotonic()
                consecutive_failures = 0
                seen_healthy = False
                continue
            if self._probe("/healthz"):
                consecutive_failures = 0
                seen_healthy = True
            else:
                in_grace = (
                    not seen_healthy
                    and time.monotonic() - launched_at < self.startup_grace_s
                )
                if not in_grace:
                    consecutive_failures += 1
                if consecutive_failures >= self.hang_probes:
                    self._record(
                        "hang",
                        f"pid {proc.pid}: {consecutive_failures} failed probes",
                    )
                    self._metrics.add("service.supervisor_hangs")
                    try:
                        proc.kill()
                        proc.wait(timeout=self.probe_timeout_s)
                    except (OSError, subprocess.TimeoutExpired):
                        pass
                    if not self._restart():
                        return
                    launched_at = time.monotonic()
                    consecutive_failures = 0
                    seen_healthy = False
                    continue
            self._stop.wait(self.probe_interval_s)

    def _restart(self) -> bool:
        if self._stop.is_set():
            return False
        if self.restarts >= self.max_restarts:
            self._record("give_up", f"restart budget {self.max_restarts} spent")
            self._failed.set()
            return False
        time.sleep(self.restart_backoff_s)
        try:
            self._launch(recover=True)
        except SupervisorError:
            return False
        return True

    def _record(self, kind: str, detail: str) -> None:
        event = SupervisorEvent(t=time.time(), kind=kind, detail=detail)
        with self._mu:
            self.events.append(event)

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def serve_argv(
    python: str | None = None,
    *,
    nodes: int,
    seed: int,
    port: int,
    checkpoint_dir: str,
    host: str = "127.0.0.1",
    workers: int = 4,
    fsync: str = "always",
    extra: tuple[str, ...] = (),
) -> list[str]:
    """A convenience argv for supervising ``python -m repro.cli serve``."""
    return [
        python or sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--nodes",
        str(nodes),
        "--seed",
        str(seed),
        "--host",
        host,
        "--port",
        str(port),
        "--workers",
        str(workers),
        "--checkpoint-dir",
        checkpoint_dir,
        "--fsync",
        fsync,
        *extra,
    ]
