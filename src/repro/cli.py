"""Command-line interface: ``repro-unicast`` / ``python -m repro.cli``.

Subcommands:

* ``demo`` — price one unicast request on a random instance and print the
  route, the payments and the truthfulness check.
* ``fig3a`` .. ``fig3f`` — regenerate one panel of the paper's Figure 3
  and print the series as a table (``--full`` uses the paper's scale:
  n = 100..500, 100 instances; ``--jobs N`` fans the sweep out over N
  worker processes with bit-identical results, ``-1`` = all cores).
* ``collusion`` — hunt for a Theorem-7 collusion witness on a random
  instance and show the neighbour scheme's premium.
* ``distributed`` — run the two-stage distributed protocol and diff it
  against the centralized payments; ``--loss``/``--delay``/``--dup``/
  ``--crash``/``--max-retries`` inject faults and report the outcome.
* ``chaos`` — sweep the message-loss probability and tabulate payment
  correctness and message overhead per loss level.
* ``engine`` — replay a seeded query/update workload through the caching
  :class:`~repro.engine.PricingEngine` (``--compare-naive`` shadow-checks
  every answer against from-scratch pricing and reports the speedup;
  ``--save-trace``/``--trace`` write and reuse JSON-lines traces;
  ``--serve PORT`` fronts the engine with the ``serve`` command's HTTP
  server — live telemetry (``/metrics``, ``/healthz``, ``/readyz``,
  ``/snapshot``, ``/flight``) and the ``/v1`` API on one port — while
  the replay runs, ``--serve-grace SECONDS`` keeps serving after it
  finishes;
  ``--checkpoint-dir DIR`` makes the engine durable — every mutation is
  write-ahead logged there with ``--fsync`` policy and a checkpoint is
  cut every ``--checkpoint-every`` updates — and ``--recover`` resumes
  from that directory instead of building a fresh engine).
* ``recover`` — inspect a checkpoint directory: list checkpoints and
  WAL segments, flag torn/corrupt records, and (``--verify``) perform a
  full dry-run recovery without touching the directory.
* ``serve`` — run the concurrent HTTP pricing service
  (:mod:`repro.service`): ``POST /v1/price``, ``/v1/price_many``,
  ``/v1/update`` and ``GET /v1/graph`` on a snapshot-isolated
  :class:`~repro.engine.PricingEngine`, plus the telemetry family
  (``/metrics`` ``/healthz`` ``/snapshot`` ``/flight``). ``--workers``
  / ``--queue-depth`` / ``--deadline`` tune admission control;
  ``--checkpoint-dir`` (+ ``--recover``) makes the engine durable
  exactly as for ``engine``; ``--duration SECONDS`` serves for a fixed
  window, otherwise SIGINT/SIGTERM drains in-flight requests, cuts a
  final checkpoint (durable engines) and exits cleanly. ``--chaos
  PLAN`` attaches a seeded fault-injection plan.
* ``client`` — drive a running service through the resilient
  :class:`~repro.service.PricingClient` (seeded retries with full
  jitter, circuit breaker, deadline propagation, idempotency keys):
  a seeded read/write workload against ``--url``, with ``--verify``
  checking every answer against the serial oracle
  (:mod:`repro.engine.oracle`) over this client's own update history
  and exiting nonzero on any mismatch or unverifiable answer.

Global observability flags (accepted before or after the subcommand):
``--log-level LEVEL`` (structured key=value logs on stderr),
``--metrics`` (print an operation-count snapshot after the subcommand)
and ``--trace-out PATH`` (write a Chrome-loadable trace of the run).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.obs import logging as obs_logging
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import TRACER

__all__ = ["main", "build_parser"]

_SMALL_N = (40, 70, 100)
_SMALL_INSTANCES = 5

_LOG_LEVELS = ("debug", "info", "warning", "error")

log = obs_logging.get_logger("cli")


def _add_obs_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Attach the global observability flags.

    The same flags go on the top-level parser (with real defaults) and
    on every subparser (with ``SUPPRESS`` defaults, so an absent flag
    after the subcommand never clobbers one given before it) — both
    ``repro-unicast --metrics demo`` and ``repro-unicast demo
    --metrics`` work.
    """
    sup = argparse.SUPPRESS
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=sup if suppress else "warning",
        help="stderr log level for structured key=value logs",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        default=sup if suppress else False,
        help="print a metrics snapshot after the subcommand",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=sup if suppress else None,
        help="write a Chrome trace-event JSON of the run to PATH",
    )


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    """The engine set-up flags ``engine`` and ``serve`` share (read by
    :func:`_open_engine`)."""
    p.add_argument("--nodes", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend",
        choices=("auto", "python", "scipy", "numpy"),
        default="auto",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="make the engine durable: write-ahead log every mutation "
        "under DIR and cut periodic checkpoints",
    )
    p.add_argument(
        "--recover",
        action="store_true",
        help="resume from --checkpoint-dir (checkpoint + WAL replay) "
        "instead of building a fresh engine",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=None,
        help="cut a checkpoint automatically every N logged updates",
    )
    p.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="WAL durability policy (default: interval)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-unicast",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_obs_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="price one unicast request")
    demo.add_argument("--nodes", type=int, default=30)
    demo.add_argument("--source", type=int, default=None)
    demo.add_argument("--seed", type=int, default=7)

    for fig in ("fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"):
        p = sub.add_parser(fig, help=f"regenerate {fig} of the paper")
        p.add_argument("--instances", type=int, default=None)
        p.add_argument("--seed", type=int, default=2004)
        p.add_argument(
            "--full",
            action="store_true",
            help="paper scale: n=100..500 step 50, 100 instances",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="worker processes for the sweep (-1 = all cores); "
            "results are bit-identical to the serial run",
        )
        if fig == "fig3d":
            p.add_argument("--nodes", type=int, default=None)
        else:
            p.add_argument(
                "--nodes",
                type=int,
                nargs="+",
                default=None,
                help="node counts for the sweep",
            )

    coll = sub.add_parser("collusion", help="find a Theorem-7 witness")
    coll.add_argument("--nodes", type=int, default=16)
    coll.add_argument("--seed", type=int, default=0)

    dist = sub.add_parser("distributed", help="run the two-stage protocol")
    dist.add_argument("--nodes", type=int, default=25)
    dist.add_argument("--seed", type=int, default=3)
    dist.add_argument("--secure", action="store_true")
    dist.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-delivery drop probability (enables fault injection)",
    )
    dist.add_argument(
        "--delay",
        type=int,
        default=0,
        metavar="R",
        help="delay each delivery by up to R extra rounds",
    )
    dist.add_argument(
        "--dup",
        type=float,
        default=0.0,
        help="per-delivery duplication probability",
    )
    dist.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="NODE:DOWN[:UP]",
        help="crash NODE at round DOWN (recover at UP); repeatable",
    )
    dist.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="per-message retransmission budget under faults",
    )
    dist.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault injection RNG",
    )

    chaos = sub.add_parser(
        "chaos", help="sweep message-loss probability, measure degradation"
    )
    chaos.add_argument("--nodes", type=int, default=16)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--losses",
        type=str,
        default="0,0.05,0.1,0.2,0.3",
        help="comma-separated loss probabilities to sweep",
    )
    chaos.add_argument("--instances", type=int, default=3)
    chaos.add_argument("--repeats", type=int, default=3)
    chaos.add_argument("--delay", type=int, default=0)
    chaos.add_argument("--dup", type=float, default=0.0)
    chaos.add_argument("--max-retries", type=int, default=None)

    econ = sub.add_parser(
        "economy", help="all-pairs traffic: incomes, spends, profits"
    )
    econ.add_argument("--nodes", type=int, default=20)
    econ.add_argument("--seed", type=int, default=0)
    econ.add_argument("--intensity", type=float, default=1.0)

    churn = sub.add_parser(
        "churn", help="pricing churn under mobility (extension experiment)"
    )
    churn.add_argument("--nodes", type=int, default=100)
    churn.add_argument("--epochs", type=int, default=4)
    churn.add_argument("--sigma", type=float, default=60.0)
    churn.add_argument("--seed", type=int, default=0)

    eng = sub.add_parser(
        "engine",
        help="replay a pricing workload through the caching engine",
    )
    _add_engine_args(eng)
    eng.add_argument(
        "--ops",
        type=int,
        default=400,
        help="workload length (queries + updates)",
    )
    eng.add_argument(
        "--update-frac",
        type=float,
        default=0.1,
        help="fraction of ops that re-declare a node cost",
    )
    eng.add_argument(
        "--target",
        type=int,
        default=0,
        help="query destination (-1 = random target per query)",
    )
    eng.add_argument(
        "--compare-naive",
        action="store_true",
        help="shadow-check every answer against from-scratch pricing "
        "and report the engine-vs-naive speedup",
    )
    eng.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="replay an existing JSON-lines trace instead of generating",
    )
    eng.add_argument(
        "--save-trace",
        metavar="PATH",
        default=None,
        help="write the generated workload as a JSON-lines trace",
    )
    eng.add_argument(
        "--serve",
        type=int,
        metavar="PORT",
        default=None,
        help="serve live telemetry (/metrics /healthz /readyz /snapshot "
        "/flight) and the /v1 pricing API on 127.0.0.1:PORT during the "
        "replay (0 = ephemeral port; implies metrics collection)",
    )
    eng.add_argument(
        "--serve-grace",
        type=float,
        metavar="SECONDS",
        default=0.0,
        help="keep the HTTP server up this long after the replay "
        "finishes (for a final scrape)",
    )

    rec = sub.add_parser(
        "recover",
        help="inspect (and optionally verify) an engine checkpoint dir",
    )
    rec.add_argument("dir", help="checkpoint directory to inspect")
    rec.add_argument(
        "--verify",
        action="store_true",
        help="perform a full dry-run recovery and report the outcome",
    )

    srv = sub.add_parser(
        "serve",
        help="run the concurrent HTTP pricing service",
    )
    _add_engine_args(srv)
    srv.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port for the pricing API (0 = ephemeral port)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="pricing worker threads draining the admission queue",
    )
    srv.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="admission queue bound; beyond it requests get HTTP 429",
    )
    srv.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-request deadline (exceeded = HTTP 504)",
    )
    srv.add_argument(
        "--on-monopoly",
        choices=("raise", "inf"),
        default="inf",
        help="monopolized relays: record inf payments (default) or fail "
        "the request",
    )
    srv.add_argument(
        "--duration",
        type=float,
        metavar="SECONDS",
        default=None,
        help="serve this long then drain and exit (default: until "
        "SIGINT/SIGTERM)",
    )
    srv.add_argument(
        "--chaos",
        metavar="PLAN",
        default=None,
        help="attach a seeded fault-injection plan: inline JSON or a "
        "path to a JSON file (default: no injection, byte-identical "
        "responses)",
    )

    cli_client = sub.add_parser(
        "client",
        help="drive a pricing service through the resilient client",
    )
    cli_client.add_argument(
        "--url",
        required=True,
        help="base URL of a running service (e.g. http://127.0.0.1:8080)",
    )
    cli_client.add_argument("--requests", type=int, default=200)
    cli_client.add_argument("--seed", type=int, default=0)
    cli_client.add_argument(
        "--update-frac",
        type=float,
        default=0.1,
        metavar="P",
        help="fraction of operations that are cost re-declarations",
    )
    cli_client.add_argument(
        "--deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="total per-call budget (attempts + backoff sleeps)",
    )
    cli_client.add_argument(
        "--max-retries",
        type=int,
        default=4,
        metavar="N",
        help="retry attempts after the first (capped exponential "
        "backoff with seeded full jitter)",
    )
    cli_client.add_argument(
        "--backoff-base", type=float, default=0.05, metavar="SECONDS"
    )
    cli_client.add_argument(
        "--backoff-cap", type=float, default=2.0, metavar="SECONDS"
    )
    cli_client.add_argument(
        "--no-breaker",
        action="store_true",
        help="disable the client-side circuit breaker",
    )
    cli_client.add_argument(
        "--verify",
        action="store_true",
        help="replay the recorded update history through a serial "
        "oracle and fail on any payment mismatch (assumes this "
        "client is the only writer)",
    )

    for p in sub.choices.values():
        _add_obs_flags(p, suppress=True)
    return parser


def _cmd_demo(args) -> int:
    from repro import generators, relay_utility, vcg_unicast_payments

    g = generators.random_biconnected_graph(args.nodes, seed=args.seed)
    source = args.source
    if source is None:
        source = args.nodes // 2
    result = vcg_unicast_payments(g, source, 0)
    print(result.describe())
    for k in result.relays:
        print(
            f"  relay {k}: declared cost {g.costs[k]:.4g}, "
            f"paid {result.payment(k):.4g}, "
            f"utility {relay_utility(result, g.costs, k):.4g}"
        )
    print(
        f"total payment {result.total_payment:.4g} for a path of cost "
        f"{result.lcp_cost:.4g} (overpayment ratio "
        f"{result.overpayment_ratio:.4g})"
    )
    return 0


def _cmd_figure(fig: str, args) -> int:
    from repro.analysis.figures import ALL_FIGURES, PAPER_N_VALUES

    builder = ALL_FIGURES[fig]
    kwargs: dict = {"seed": args.seed, "jobs": args.jobs}
    instances = args.instances
    if fig == "fig3d":
        if args.full:
            kwargs["n"] = args.nodes or 300
            kwargs["instances"] = instances or 100
        else:
            kwargs["n"] = args.nodes or 120
            kwargs["instances"] = instances or _SMALL_INSTANCES
    else:
        if args.full:
            kwargs["n_values"] = tuple(args.nodes) if args.nodes else PAPER_N_VALUES
            kwargs["instances"] = instances or 100
        else:
            kwargs["n_values"] = tuple(args.nodes) if args.nodes else _SMALL_N
            kwargs["instances"] = instances or _SMALL_INSTANCES
    log.info("figure build start", extra={"figure": fig, **kwargs})
    with REGISTRY.timed("cli.figure_time", always=True) as t:
        series = builder(**kwargs)
    log.info(
        "figure build done",
        extra={"figure": fig, "elapsed_s": round(t.elapsed, 3)},
    )
    print(series.render())
    print(f"  ({t.elapsed:.1f}s)")
    return 0


def _cmd_collusion(args) -> int:
    from repro import find_two_agent_collusion, generators, vcg_unicast_payments
    from repro.core.collusion import neighbor_collusion_payments

    g = generators.random_neighbor_safe_graph(args.nodes, seed=args.seed)
    source, target = args.nodes // 2, 0
    witness = find_two_agent_collusion(g, source, target)
    if witness is None:
        print("no collusion witness found on the deviation grid")
    else:
        print(
            f"Theorem-7 witness: node {witness.liar} declares "
            f"{witness.declared_cost:.4g}, coalition with node "
            f"{witness.beneficiary} gains {witness.gain:.4g}"
        )
    plain = vcg_unicast_payments(g, source, target)
    guarded = neighbor_collusion_payments(g, source, target)
    print(
        f"plain VCG total payment:      {plain.total_payment:.4g}\n"
        f"neighbour-scheme total:       {guarded.total_payment:.4g} "
        f"(premium {guarded.total_payment - plain.total_payment:.4g})"
    )
    return 0


def _parse_crash_spec(specs):
    """Parse repeated ``NODE:DOWN[:UP]`` CLI specs into CrashWindows."""
    from repro.distributed.faults import CrashWindow

    windows = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(f"bad --crash spec {spec!r}: want NODE:DOWN[:UP]")
        node, down = int(parts[0]), int(parts[1])
        up = int(parts[2]) if len(parts) == 3 else None
        windows.append(CrashWindow(node, down=down, up=up))
    return tuple(windows)


def _cmd_distributed(args) -> int:
    from repro import generators, vcg_unicast_payments
    from repro.distributed import FaultPlan, run_distributed_payments
    from repro.distributed.secure import run_secure_distributed_payments

    g = generators.random_biconnected_graph(args.nodes, seed=args.seed)
    plan = FaultPlan(
        loss=args.loss,
        max_delay=args.delay,
        duplicate=args.dup,
        crash=_parse_crash_spec(args.crash),
        seed=args.fault_seed,
    )
    faults = None if plan.is_null else plan
    if args.secure:
        result, reports = run_secure_distributed_payments(
            g, root=0, faults=faults, max_retries=args.max_retries
        )
        print(f"secure run: {len(reports)} audit findings")
    else:
        result = run_distributed_payments(
            g, root=0, faults=faults, max_retries=args.max_retries
        )
    stats = result.stats
    print(
        f"converged in {stats.rounds} rounds, "
        f"{stats.broadcasts} broadcasts, {stats.unicasts} unicasts"
    )
    if faults is not None:
        report = result.fault_report
        spt_stats = result.spt.stats
        print(
            f"fault outcome: {report.outcome} "
            f"(stage 1 {result.spt.fault_report.outcome}); "
            f"drops {spt_stats.drops + stats.drops}, "
            f"retransmissions "
            f"{spt_stats.retransmissions + stats.retransmissions}, "
            f"crashed rounds {spt_stats.crashed_rounds + stats.crashed_rounds}"
        )
        print(
            f"unresolved payment entries: {len(result.unresolved)}"
            + (f" {sorted(result.unresolved)}" if result.unresolved else "")
        )
    worst = 0.0
    skipped = 0
    for i in range(1, g.n):
        cent = vcg_unicast_payments(g, i, 0, on_monopoly="inf")
        for k in cent.relays:
            if not result.is_resolved(i, k):
                skipped += 1
                continue
            worst = max(worst, abs(result.payment(i, k) - cent.payment(k)))
    label = "resolved" if faults is not None else "all"
    print(
        f"max |distributed - centralized| payment difference "
        f"over {label} entries: {worst:.3g}"
        + (f" ({skipped} unresolved entries skipped)" if skipped else "")
    )
    return 0


def _cmd_chaos(args) -> int:
    from repro.analysis.chaos import chaos_convergence_experiment
    from repro.utils.tables import ascii_table

    losses = tuple(float(tok) for tok in args.losses.split(",") if tok.strip())
    result = chaos_convergence_experiment(
        nodes=args.nodes,
        losses=losses,
        instances=args.instances,
        repeats=args.repeats,
        seed=args.seed,
        max_delay=args.delay,
        duplicate=args.dup,
        max_retries=args.max_retries,
    )
    print(
        ascii_table(
            [
                "loss", "converged", "clean", "correct", "wrong",
                "overhead", "retx", "rounds", "false flags",
            ],
            result.rows(),
            title=result.describe(),
        )
    )
    return 0


def _cmd_economy(args) -> int:
    from repro import api, generators
    from repro.core.allpairs import TrafficMatrix, network_economy
    from repro.utils.tables import ascii_table

    g = generators.random_biconnected_graph(args.nodes, seed=args.seed)
    traffic = TrafficMatrix.uniform(g.n, intensity=args.intensity)
    payments = api.price_all_pairs(
        g, pairs=[(i, j) for i, j, _ in traffic.pairs()]
    )
    econ = network_economy(g, traffic, payments=payments)
    rows = [
        [e.node, round(e.packets_relayed), round(e.income, 2),
         round(e.spend, 2), round(e.profit, 2)]
        for e in sorted(econ.nodes, key=lambda e: -e.profit)
    ]
    print(
        ascii_table(
            ["node", "pkts relayed", "income", "spend", "profit"],
            rows,
            title=f"uniform all-to-all traffic on {g.n} nodes",
        )
    )
    print(
        f"overpayment ratio {econ.overpayment_ratio:.4f}; "
        f"income Gini {econ.gini_income():.4f}; "
        f"{len(econ.blocked_pairs)} blocked pairs"
    )
    return 0


def _cmd_churn(args) -> int:
    from repro.analysis.churn import mobility_churn_experiment
    from repro.wireless.geometry import PAPER_REGION
    from repro.wireless.mobility import GaussianDrift

    model = GaussianDrift(PAPER_REGION, sigma=args.sigma)
    result = mobility_churn_experiment(
        model, n=args.nodes, epochs=args.epochs, seed=args.seed
    )
    print(result.describe())
    for t in result.transitions:
        print(
            f"  epoch {t.epoch}: {t.sources_compared} sources, route churn "
            f"{t.route_churn:.1%}, repriced {t.repriced_fraction:.1%}"
        )
    return 0


def _open_engine(args, on_monopoly: str):
    """The engine ``engine`` and ``serve`` run: recovered from
    ``--checkpoint-dir`` under ``--recover``, else fresh on a random
    ``--nodes``/``--seed`` graph priced with ``on_monopoly``."""
    from repro import generators
    from repro.engine import PricingEngine

    if args.recover:
        if args.checkpoint_dir is None:
            raise SystemExit("--recover requires --checkpoint-dir")
        engine = PricingEngine.open(
            args.checkpoint_dir,
            backend=None if args.backend == "auto" else args.backend,
            fsync=args.fsync,
            checkpoint_every=args.checkpoint_every,
        )
        assert engine.last_recovery is not None
        print(engine.last_recovery.describe())
        return engine
    return PricingEngine(
        generators.random_biconnected_graph(args.nodes, seed=args.seed),
        backend=args.backend,
        on_monopoly=on_monopoly,
        checkpoint_dir=args.checkpoint_dir,
        fsync=args.fsync,
        checkpoint_every=args.checkpoint_every,
    )


def _cmd_engine(args) -> int:
    from repro.engine import (
        generate_workload,
        load_trace,
        replay,
        save_trace,
    )

    engine = _open_engine(args, on_monopoly="inf")
    g = engine.graph
    if args.trace is not None:
        ops = load_trace(args.trace)
        print(f"loaded {len(ops)} ops from {args.trace}")
    else:
        ops = generate_workload(
            g,
            n_ops=args.ops,
            update_frac=args.update_frac,
            seed=args.seed,
            target=None if args.target < 0 else args.target,
        )
    if args.save_trace is not None:
        save_trace(ops, args.save_trace)
        print(f"wrote {len(ops)} ops to {args.save_trace}")
    # Pay one-time costs (scipy import, first allocations) outside the
    # timed replay so the engine-vs-naive comparison is about pricing.
    from repro.graph.dijkstra import node_weighted_spt

    node_weighted_spt(g, 0, backend="auto")
    server = service = None
    metrics_were_enabled = REGISTRY.enabled
    if args.serve is not None:
        from repro.service import PricingService, ServiceServer

        REGISTRY.enable()  # a scrape with nothing collected is useless
        service = PricingService(engine)
        server = ServiceServer(service, port=args.serve).start()
        print(
            f"telemetry serving on {server.url} "
            "(/metrics /healthz /readyz /snapshot /flight /v1/*)"
        )
    log.info(
        "engine replay start",
        extra={"nodes": g.n, "ops": len(ops), "compare": args.compare_naive},
    )
    try:
        report = replay(engine, ops, compare=args.compare_naive)
    finally:
        engine.close()
        if server is not None:
            if args.serve_grace > 0:
                import time

                time.sleep(args.serve_grace)
            server.stop()
            service.close()  # joins the workers; the engine is already closed
            if not metrics_were_enabled:
                REGISTRY.disable()
    print(report.describe())
    if report.mismatches:
        print(
            f"error: {report.mismatches} engine answers differ from "
            f"from-scratch pricing (e.g. {list(report.mismatch_keys)})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_recover(args) -> int:
    from repro.engine import persist

    inventory = persist.scan(args.dir)
    print(inventory.describe())
    if not args.verify:
        return 0 if inventory.checkpoints else 1
    from repro.engine import PricingEngine

    try:
        engine = PricingEngine.open(args.dir, resume=False)
    except persist.PersistError as exc:
        print(f"verify FAILED: {exc}", file=sys.stderr)
        return 1
    assert engine.last_recovery is not None
    print("-- dry-run recovery --")
    print(engine.last_recovery.describe())
    print(
        f"recovered engine: {engine.n} nodes ({engine.model} model), "
        f"graph version {engine.version}"
    )
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.errors import ReproError, error_code
    from repro.service import ChaosPlan, PricingService, ServiceServer

    try:
        chaos = (
            ChaosPlan.from_spec(args.chaos) if args.chaos is not None else None
        )
    except ReproError as exc:
        print(f"error [{error_code(exc)}]: {exc}", file=sys.stderr)
        return 1

    engine = _open_engine(args, on_monopoly=args.on_monopoly)

    metrics_were_enabled = REGISTRY.enabled
    REGISTRY.enable()  # /metrics with nothing collected is useless
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        log.info("shutdown signal", extra={"signal": signum})
        stop.set()

    try:
        service = PricingService(
            engine,
            workers=args.workers,
            max_queue=args.queue_depth,
            deadline_s=args.deadline,
        )
    except ReproError as exc:
        print(f"error [{error_code(exc)}]: {exc}", file=sys.stderr)
        if not metrics_were_enabled:
            REGISTRY.disable()
        engine.close()
        return 1
    server = ServiceServer(
        service, port=args.port, host=args.host, chaos=chaos
    ).start()
    suffix = (
        f"; CHAOS plan active (seed {chaos.seed})"
        if chaos is not None and not chaos.is_null
        else ""
    )
    print(
        f"pricing service on {server.url} "
        "(POST /v1/price /v1/price_many /v1/update; "
        "GET /v1/graph /metrics /healthz /readyz); "
        f"Ctrl-C to drain and exit{suffix}",
        flush=True,
    )
    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _on_signal)
    try:
        stop.wait(timeout=args.duration)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop()
        service.close()  # drain: flush WAL + final checkpoint + close
        if not metrics_were_enabled:
            REGISTRY.disable()
    stats = service.stats
    print(
        f"drained after {stats.requests} requests, {stats.updates} updates "
        f"({stats.rejected} rejected, {stats.timeouts} deadline-expired); "
        f"final graph version {engine.version}"
    )
    return 0


def _cmd_client(args) -> int:
    import time

    from repro.engine.oracle import verify
    from repro.errors import ReproError, error_code
    from repro.service import BackoffPolicy, CircuitBreaker, PricingClient

    retry = BackoffPolicy(
        max_retries=args.max_retries,
        base_s=args.backoff_base,
        cap_s=args.backoff_cap,
    )
    breaker = None if args.no_breaker else CircuitBreaker()
    client = PricingClient(
        args.url,
        deadline_s=args.deadline,
        retry=retry,
        breaker=breaker,
        seed=args.seed,
    )
    try:
        head = client.graph()
    except ReproError as exc:
        print(f"error [{error_code(exc)}]: {exc}", file=sys.stderr)
        client.close()
        return 1
    g0, v0 = head.graph, head.graph_version
    n = g0.n

    rng = np.random.default_rng(args.seed)
    records = []  # (version, s, t, payment)
    updates = []  # (version, ("cost", node, value))
    failures = 0
    t0 = time.perf_counter()
    for _ in range(args.requests):
        try:
            if args.update_frac > 0 and rng.random() < args.update_frac:
                node = int(rng.integers(0, n))
                value = float(rng.uniform(1.0, 10.0))
                resp = client.update_cost(node, value)
                updates.append((resp.graph_version, ("cost", node, value)))
            else:
                s = int(rng.integers(1, n))
                resp = client.price(s, 0)
                records.append((resp.graph_version, s, 0, resp.payment))
        except ReproError as exc:
            failures += 1
            log.warning(
                "client call failed",
                extra={"code": error_code(exc), "error": str(exc)},
            )
    elapsed = time.perf_counter() - t0
    stats = client.stats
    client.close()

    done = len(records) + len(updates)
    print(
        f"{done}/{args.requests} calls ok in {elapsed:.2f}s "
        f"({done / elapsed:.0f} req/s): {len(records)} priced, "
        f"{len(updates)} updates, "
        f"{failures} failed"
    )
    print(
        f"client: {stats.retries} retries, "
        f"{stats.transport_failures} transport failures, "
        f"{stats.server_errors} server 5xx, "
        f"{stats.short_circuits} breaker short-circuits, "
        f"{stats.idempotent_replays} idempotent replays"
    )
    if failures:
        return 1
    if not args.verify:
        return 0

    # Another writer's update leaves a gap in this client's history;
    # answers after it count as unverifiable, never as mismatches.
    verdict = verify(g0, updates, records, base_version=v0)
    print(
        f"verify: {verdict.checked} answers checked, "
        f"{verdict.mismatches} mismatches, {verdict.unverifiable} "
        "unverifiable (after a version this client did not write)"
    )
    for example in verdict.examples:
        print(f"  mismatch: {example}")
    return 0 if verdict.mismatches == 0 and verdict.unverifiable == 0 else 1


def _dispatch(args) -> int:
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command in ("fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"):
        return _cmd_figure(args.command, args)
    if args.command == "collusion":
        return _cmd_collusion(args)
    if args.command == "distributed":
        return _cmd_distributed(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "economy":
        return _cmd_economy(args)
    if args.command == "churn":
        return _cmd_churn(args)
    if args.command == "engine":
        return _cmd_engine(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    obs_logging.configure(level=args.log_level)
    if args.metrics:
        REGISTRY.reset()
        REGISTRY.enable()
    if args.trace_out:
        TRACER.reset()
        TRACER.enable()
    try:
        rc = _dispatch(args)
    finally:
        if args.trace_out:
            TRACER.disable()
        if args.metrics:
            REGISTRY.disable()
    if args.trace_out:
        try:
            TRACER.export_chrome(args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace_out}: {exc}",
                  file=sys.stderr)
            return 1
        log.info(
            "trace written",
            extra={"path": args.trace_out, "spans": len(TRACER.records)},
        )
    if args.metrics:
        snapshot = REGISTRY.snapshot()
        print("-- metrics --")
        print(snapshot.render())
    return rc


if __name__ == "__main__":
    sys.exit(main())
