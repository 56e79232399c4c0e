#!/usr/bin/env python
"""The chaos gate: kill the server mid-load, demand bit-identical answers.

This is the end-to-end acceptance check for the resilience layer, run
in CI and by hand::

    PYTHONPATH=src python tools/chaos_smoke.py --duration 30

It boots ``python -m repro.cli serve`` under a
:class:`~repro.service.Supervisor` with a durable WAL and a **seeded**
:class:`~repro.service.ChaosPlan` (latency + injected 5xx + connection
resets + torn responses on every ``/v1/`` endpoint), then drives it
with :class:`~repro.service.PricingClient` workers that interleave
price reads and cost re-declarations, retrying through every fault.
Mid-run the child is ``kill -9``-ed once; the supervisor restarts it
with ``--recover`` (checkpoint + WAL replay) while the clients keep
retrying through the outage.

The gate: afterwards, the serial oracle (:mod:`repro.engine.oracle`)
replays the recorded update history and recomputes every priced answer
at its pinned ``graph_version`` — every payment must match
bit-identically (``path``, ``lcp_cost``, and each per-node payment),
and the first mismatches are printed. The plan must also have fired:
the clients' transport failures plus server 5xx must be positive, or
the gate is vacuous.

Exit codes: 0 green; 1 mismatches, unverifiable answers or no fault
fired; 2 operational failure (server never ready, client gave up,
restart budget spent).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from random import Random
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine.oracle import verify  # noqa: E402
from repro.errors import ReproError, error_code  # noqa: E402
from repro.service import BackoffPolicy, PricingClient  # noqa: E402
from repro.service.supervisor import Supervisor, serve_argv  # noqa: E402

#: The default seeded fault plan (inline JSON so CI logs show it).
DEFAULT_PLAN = {
    "seed": 2004,
    "endpoints": {
        "*": {
            "latency_p": 0.10,
            "latency_s": 0.01,
            "error_p": 0.05,
            "reset_p": 0.05,
            "torn_p": 0.05,
        }
    },
}


def _free_port() -> int:
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=32)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--duration", type=float, default=30.0,
                    help="seconds of client load (the kill fires halfway)")
    ap.add_argument("--clients", type=int, default=3)
    ap.add_argument("--update-frac", type=float, default=0.2)
    ap.add_argument("--port", type=int, default=0,
                    help="server port (0 = pick a free one)")
    ap.add_argument("--plan", default=None,
                    help="chaos plan JSON (default: the built-in seeded plan)")
    ap.add_argument("--no-kill", action="store_true",
                    help="skip the mid-run kill -9 (chaos plan only)")
    args = ap.parse_args(argv)

    plan_json = args.plan or json.dumps(DEFAULT_PLAN)
    port = args.port or _free_port()
    url = f"http://127.0.0.1:{port}"

    with TemporaryDirectory(prefix="repro-chaos-") as tmp:
        child_argv = serve_argv(
            nodes=args.nodes,
            seed=args.seed,
            port=port,
            checkpoint_dir=str(Path(tmp) / "ckpt"),
            workers=4,
            fsync="always",
            extra=("--chaos", plan_json),
        )
        sup = Supervisor(
            child_argv,
            url,
            probe_interval_s=0.2,
            restart_backoff_s=0.2,
            max_restarts=5,
        )
        print(f"chaos_smoke: serving {args.nodes} nodes on {url}")
        print(f"chaos_smoke: plan {plan_json}")
        with sup:
            try:
                sup.wait_ready(timeout_s=60.0)
            except ReproError as exc:
                print(f"chaos_smoke: server never became ready: {exc}",
                      file=sys.stderr)
                return 2

            head_client = PricingClient(url, deadline_s=30.0)
            head = head_client.graph()
            g0, v0 = head.graph, head.graph_version
            head_client.close()

            mu = threading.Lock()
            updates: list[tuple[int, tuple]] = []
            records: list[tuple[int, int, int, object]] = []
            failures: list[str] = []
            faults: list[int] = []  # transport failures + server 5xx
            stop_at = time.monotonic() + args.duration

            def worker(idx: int) -> None:
                # Worker 0 is the *only* writer. With one writer, an
                # update whose ack is lost to the kill re-applies as a
                # version-preserving no-op at the same version, so the
                # recorded (version, update) history stays a faithful
                # serial order for the oracle replay. (A second writer
                # could bump the version in between, making the
                # retried ack ambiguous.)
                rng = Random(1000 + idx)
                client = PricingClient(
                    url,
                    deadline_s=60.0,
                    retry=BackoffPolicy(max_retries=12, base_s=0.05,
                                        cap_s=1.0),
                    seed=idx,
                )
                try:
                    while time.monotonic() < stop_at:
                        try:
                            if idx == 0 and rng.random() < args.update_frac:
                                node = rng.randrange(1, args.nodes)
                                value = round(rng.uniform(0.5, 20.0), 3)
                                resp = client.update_cost(node, value)
                                with mu:
                                    updates.append((
                                        resp.graph_version,
                                        ("cost", node, value),
                                    ))
                            else:
                                s = rng.randrange(1, args.nodes)
                                resp = client.price(s, 0)
                                with mu:
                                    records.append(
                                        (resp.graph_version, s, 0, resp.payment)
                                    )
                        except ReproError as exc:
                            with mu:
                                failures.append(
                                    f"[{error_code(exc)}] {exc}"
                                )
                            return
                finally:
                    stats = client.stats
                    faults.append(stats.transport_failures + stats.server_errors)
                    client.close()

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(args.clients)
            ]
            for t in threads:
                t.start()
            if not args.no_kill:
                time.sleep(args.duration / 2.0)
                try:
                    pid = sup.kill_child()
                    print(f"chaos_smoke: kill -9 pid {pid} (mid-load)")
                except ReproError as exc:
                    print(f"chaos_smoke: kill failed: {exc}", file=sys.stderr)
            for t in threads:
                t.join(timeout=args.duration + 120.0)

            restarts = sup.restarts
            gave_up = sup.failed

        if failures:
            for f in failures:
                print(f"chaos_smoke: client failure: {f}", file=sys.stderr)
            return 2
        if gave_up:
            print("chaos_smoke: supervisor restart budget spent",
                  file=sys.stderr)
            return 2
        if not args.no_kill and restarts < 1:
            print("chaos_smoke: the kill was never observed/restarted",
                  file=sys.stderr)
            return 2

        verdict = verify(g0, updates, records, base_version=v0)
        print(
            f"chaos_smoke: {len(records)} answers, "
            f"{len(set(updates))} updates, {restarts} restart(s), "
            f"{sum(faults)} faults fired, {verdict.checked} checked, "
            f"{verdict.mismatches} mismatches, "
            f"{verdict.unverifiable} unverifiable"
        )
        for example in verdict.examples:
            print(f"chaos_smoke: mismatch: {example}")
        if verdict.mismatches or verdict.unverifiable:
            return 1
        if sum(faults) == 0:
            print("chaos_smoke: no fault fired; the gate is vacuous",
                  file=sys.stderr)
            return 1
        print("chaos_smoke: PASS — bit-identical under chaos")
        return 0


if __name__ == "__main__":
    sys.exit(main())
