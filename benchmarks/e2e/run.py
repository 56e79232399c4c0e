"""End-to-end benchmark of the pricing system: one command, four workloads.

    python benchmarks/e2e/run.py --seed 2004 [--rounds 3] [--workloads a,b]
                                 [--seconds S] [--trace] [--out results.json]

Each round starts a fresh server (or sweep) child per workload, in an
order rotated by the round; a metric's value is its median over rounds.
Every answer is checked against the serial oracle outside the timed
window, and any mismatch makes the command exit 1. ``--trace`` adds one
traced round per workload and prints the per-layer breakdown.
``--seconds`` sets the measured seconds per workload per run (split
over the rounds); without it each round runs the default phases
(README.md). The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the gated end-to-end
metrics, or with ``--trace`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Every end-to-end metric and its unit, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_attainment", "fraction"),
    ("throughput_ops_s", "ops/s"),
    ("error_rate", "fraction"),
    ("peak_rss_mb", "MiB"),
)
#: The end-to-end metrics BENCHMARK.json gates. Latency and throughput
#: swing with the shared host's speed by more than any bound a run can
#: hold (README.md, "Bounds and noise"), and ``error_rate`` is 0 on a
#: healthy run; they stay printed as diagnostics.
GATED = ("setup_s", "slo_attainment", "peak_rss_mb")

#: How long a child may take to drain and exit (seconds).
CHILD_TIMEOUT_S = 120.0
#: Spawns timed per round for ``setup_s`` (the last one serves the round;
#: ``--smoke`` times one).
SETUP_SAMPLES = 3


# ---------------------------------------------------------------------------
# child processes


def cpu_split() -> tuple[set[int], set[int]]:
    """(generator CPUs, child CPUs): the child gets a core of its own
    when there are two, so generator work never competes with it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


def _child(mode: str, workdir: Path, log_name: str) -> subprocess.Popen:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        PYTHONHASHSEED="0",
    )
    cpus = ",".join(map(str, sorted(cpu_split()[1])))
    with open(workdir / log_name, "w") as log:
        return subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, cpus],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            cwd=workdir, env=env, text=True,
        )


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=CHILD_TIMEOUT_S)


def _spawn_ready(start, ready, samples) -> tuple[subprocess.Popen, float]:
    """Spawn a child ``samples`` times, timing each from spawn to ready;
    returns the last child (still running) and the median time.

    Set-up is the noisiest gated metric (cold imports dominate it), so
    each round times several spawns; the extra children are killed as
    soon as they are ready.
    """
    times = []
    for i in range(samples):
        t0 = time.monotonic()
        proc = start(i)
        try:
            ready(proc)
        except BaseException:
            _reap(proc)
            raise
        times.append(time.monotonic() - t0)
        if i < samples - 1:
            _reap(proc)
    return proc, statistics.median(times)


def _get_json(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def _cpu_ms(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1e3 / os.sysconf("SC_CLK_TCK")


def _pct(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# one round of one workload


def serving_round(w, inst, seed, rnd, open_s, closed_s, traced, workdir, samples):
    from repro import io as wire

    import loadgen
    import spans
    from child import vm_hwm_mb
    from oracle import verify
    from workloads import AP, OpStream

    tag = f"{w.name}-{rnd}{'-traced' if traced else ''}"
    wal_dir = workdir / f"wal-{tag}" if w.durable else None
    trace_out = workdir / f"spans-{tag}.json" if traced else None
    line = json.dumps({
        "graph": wire.to_dict(inst.graph),
        "wal_dir": str(wal_dir) if wal_dir else None,
        "trace_out": str(trace_out) if trace_out else None,
    }) + "\n"
    t0 = time.monotonic()
    ports = []

    def start(i):
        if wal_dir:
            shutil.rmtree(wal_dir, ignore_errors=True)
        proc = _child("serve", workdir, f"server-{tag}-{i}.log")
        proc.stdin.write(line)
        proc.stdin.flush()
        return proc

    def ready(proc):
        port = int(proc.stdout.readline().split()[1])
        while _get_json(port, "/readyz")[0] != 200:
            time.sleep(0.001)
        ports.append(port)

    proc, setup_s = _spawn_ready(start, ready, samples)
    port = ports[-1]
    try:
        session = loadgen.Session(f"http://127.0.0.1:{port}", inst, seed, rnd)
        clients = [session.client(i) for i in range(2)]
        # Warm-up (untimed): the hot pool and, for batches, one full batch.
        for s in inst.hot:
            session.execute(clients[0], ("price", s, AP))
        if w.name == "ap_batch":
            clients[0].price_many(session.pairs)

        counters0 = _get_json(port, "/snapshot")[1]["counters"]
        cpu0 = _cpu_ms(proc.pid)
        retries0 = session.retries()
        rec = None
        if traced:
            rec = spans.SpanRecorder()
            spans.install_client(rec)
        stream = OpStream(w, inst, seed, rnd)
        phases = []
        try:
            if open_s > 0:
                phases.append(
                    loadgen.open_loop(session, clients, stream, w.rate, open_s)
                )
            if closed_s > 0:
                phases.append(loadgen.closed_loop(
                    session, clients[: w.connections], stream, closed_s
                ))
        finally:
            if rec is not None:
                rec.uninstall()
        cpu_ms = _cpu_ms(proc.pid) - cpu0
        counters1 = _get_json(port, "/snapshot")[1]["counters"]
        peak_rss = vm_hwm_mb(proc.pid)
        retries = session.retries() - retries0
        session.close()
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        if proc.stdout.readline().strip() != "DONE":
            raise RuntimeError(f"server child for {tag} did not drain cleanly")
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        _reap(proc)

    t_oracle = time.monotonic()
    verdict = verify(inst.graph, session.history, session.checks)
    out = _serving_metrics(w, phases, setup_s, peak_rss, verdict)
    out["oracle_s"] = time.monotonic() - t_oracle
    out["round_s"] = time.monotonic() - t0
    if traced:
        counters = {k: v - counters0.get(k, 0) for k, v in counters1.items()}
        with open(trace_out) as fh:
            server_spans = json.load(fh)
        layer, diag, seen = spans.layer_metrics(
            rec.spans, server_spans, [(p.start, p.end) for p in phases],
            counters, sum(p.units for p in phases), cpu_ms, retries,
        )
        out.update(per_layer=layer, trace=diag, layers=seen)
    return out


def _serving_metrics(w, phases, setup_s, peak_rss, verdict):
    ops = [op for p in phases for op in p.ops]  # (kind, due, start, end, failure)
    failed = sum(1 for op in ops if op[4] is not None)
    by_name = {p.name: p for p in phases}
    closed = by_name.get("closed")
    if "open" in by_name:
        phase = by_name["open"]
        timed = phase.ops  # latency from each request's due time
        lat = [(op[3] - op[1]) * 1e3 for op in timed if op[4] is None]
        lag = [(op[2] - op[1]) * 1e3 for op in timed]
        generator = {
            "lag_p99_ms": _pct(lag, 99),
            "cpu_share": phase.cpu_s / (phase.end - phase.start),
            "generator_bound": _pct(lag, 99) > w.slo_ms / 2,
        }
    else:  # per batch, closed loop
        timed = closed.ops
        lat = [(op[3] - op[2]) * 1e3 for op in timed if op[4] is None]
        generator = {"cpu_share": closed.cpu_s / (closed.end - closed.start)}
    within = sum(1 for x in lat if x <= w.slo_ms)
    return {
        "metrics": {
            "setup_s": setup_s,
            "latency_p50_ms": _pct(lat, 50),
            "latency_p99_ms": _pct(lat, 99),
            "slo_attainment": within / len(timed) if timed else 0.0,
            "throughput_ops_s": closed.units / (closed.end - closed.start),
            "error_rate": (failed + min(verdict.mismatches, len(ops))) / max(len(ops), 1),
            "peak_rss_mb": peak_rss,
        },
        "samples": len(lat),
        "attempted": len(ops),
        "failed": failed,
        "failures": sorted({op[4] for op in ops if op[4] is not None}),
        "checked": verdict.checked,
        "mismatches": verdict.mismatches,
        "examples": verdict.examples,
        "generator": generator,
    }


def sweep_round(w, seed, rnd, budget_s, traced, workdir, smoke, samples):
    import spans
    from workloads import FIG3_N, SMOKE_FIG3_N

    tag = f"{w.name}-{rnd}{'-traced' if traced else ''}"
    spec = {
        "seed": seed,
        "round": rnd,
        "n_values": list(SMOKE_FIG3_N if smoke else FIG3_N),
        "min_sweeps": 1 if smoke or budget_s else w.sweeps,
        "budget_s": 0.0 if smoke else (budget_s or w.closed_s),
        "check_sources": 10,
        "trace_out": str(workdir / f"spans-{tag}.json") if traced else None,
    }

    def ready(proc):
        if proc.stdout.readline().strip() != "READY":
            raise RuntimeError(f"sweep child for {tag} failed to start")

    proc, setup_s = _spawn_ready(
        lambda i: _child("sweep", workdir, f"sweep-{tag}-{i}.log"), ready, samples
    )
    try:
        proc.stdin.write(json.dumps(spec) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        _reap(proc)
    if not line:
        raise RuntimeError(f"sweep child for {tag} died; see its log in {workdir}")
    res = json.loads(line)
    inst_ms = [x * 1e3 for sweep in res["sweeps"] for x in sweep["instances"]]
    ops = len(inst_ms)
    mismatches = len(res["mismatches"])
    out = {
        "metrics": {
            "setup_s": setup_s,
            "latency_p50_ms": _pct(inst_ms, 50),
            "latency_p99_ms": _pct(inst_ms, 99),
            "slo_attainment": sum(1 for x in inst_ms if x <= w.slo_ms) / max(ops, 1),
            "throughput_ops_s": ops / res["elapsed_s"],
            "error_rate": min(mismatches, ops) / max(ops, 1),
            "peak_rss_mb": res["peak_rss_mb"],
        },
        "samples": ops,
        "attempted": ops,
        "failed": 0,
        "failures": [],
        "checked": res["checked"],
        "mismatches": mismatches,
        "examples": res["mismatches"][:5],
        "series": res["series"],
        "generator": {},
    }
    if traced:
        with open(spec["trace_out"]) as fh:
            recorded = json.load(fh)
        layer, diag, seen = spans.sweep_metrics(
            recorded, res["windows"], ops, res["cpu_s"] * 1e3
        )
        out.update(per_layer=layer, trace=diag, layers=seen)
    return out


def fig3_shape(series_list) -> tuple[bool | None, str]:
    """``bench_fig3a``'s shape assertions on the per-n median over the
    run's sweeps (one instance per n per sweep is too noisy alone)."""
    import numpy as np

    if len(series_list) < 3:
        return None, f"shape skipped: {len(series_list)} sweep(s) < 3"
    arr = np.asarray(series_list, dtype=float)  # sweeps x {IOR, TOR} x n
    with np.errstate(all="ignore"):
        ior = np.nanmedian(arr[:, 0, :], axis=0)
        tor = np.nanmedian(arr[:, 1, :], axis=0)
    checks = {
        "finite": bool(np.isfinite(ior).all() and np.isfinite(tor).all()),
        ">=1": bool((ior >= 1.0).all() and (tor >= 1.0).all()),
        "IOR~TOR": bool(np.all(np.abs(ior - tor) / tor < 0.30)),
        "stable in n": bool(
            ior.max() / ior.min() < 2.5 and tor.max() / tor.min() < 2.5
        ),
        "around 1.5": bool(ior.mean() < 4.0),
    }
    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        return False, "shape failed: " + ", ".join(failed)
    return True, "shape ok"


# ---------------------------------------------------------------------------
# orchestration and reporting


def machine_info() -> dict:
    import numpy
    import scipy

    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarize(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values), "values": values}


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--workload", "--workloads", dest="workloads",
                   default=",".join(WORKLOADS),
                   help="comma-separated subset of: " + ", ".join(WORKLOADS))
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per workload, split over the rounds")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   help="add a traced round per workload (0 or 1)")
    p.add_argument("--out", default=None,
                   help="write the full results JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="60-node instance, 1 round, 2 s phases")
    args = p.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    if args.smoke:
        args.rounds = 1
    return args


def run(args) -> dict:
    from workloads import N_NODES, SMOKE_NODES, WORKLOADS, make_instance

    os.sched_setaffinity(0, cpu_split()[0])
    workdir = ROOT / ".e2e_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    inst = make_instance(args.seed, SMOKE_NODES if args.smoke else N_NODES)
    plan = [(r, False) for r in range(args.rounds)]
    if args.trace:
        plan.append((0, True))  # round 0's inputs again, now traced
    per_round_s = None if args.seconds is None else args.seconds / len(plan)
    samples = 1 if args.smoke else SETUP_SAMPLES
    rounds: dict[str, list] = {name: [] for name in args.workloads}
    traced: dict[str, dict] = {}
    try:
        for rnd, is_traced in plan:
            k = rnd % len(args.workloads)
            for name in args.workloads[k:] + args.workloads[:k]:
                w = WORKLOADS[name]
                if w.serving:
                    open_s, closed_s = w.phases(per_round_s)
                    if args.smoke:
                        open_s, closed_s = (2.0 if w.rate else 0.0), 2.0
                    res = serving_round(w, inst, args.seed, rnd, open_s, closed_s,
                                        is_traced, workdir, samples)
                else:
                    res = sweep_round(w, args.seed, rnd, per_round_s, is_traced,
                                      workdir, args.smoke, samples)
                if is_traced:
                    traced[name] = res
                else:
                    rounds[name].append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's scratch is still there
            pass
    return _report(args, rounds, traced, time.monotonic() - started)


def _report(args, rounds, traced, wall_s) -> dict:
    from workloads import WORKLOADS

    results = {"seed": args.seed, "rounds": args.rounds, "seconds": args.seconds,
               "smoke": args.smoke, "machine": machine_info(), "wall_s": wall_s,
               "workloads": {}}
    correct = True
    attempted = failed = 0
    for name, rs in rounds.items():
        metrics = {m: summarize(r["metrics"][m] for r in rs) for m, _ in END_TO_END}
        entry = {
            "metrics": metrics,
            "samples": sum(r["samples"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "failures": sorted({f for r in rs for f in r["failures"]}),
            "checked": sum(r["checked"] for r in rs),
            "mismatches": sum(r["mismatches"] for r in rs),
            "examples": [e for r in rs for e in r["examples"]][:5],
            "generator": [r["generator"] for r in rs],
            "timing": [
                {k: r[k] for k in ("round_s", "oracle_s") if k in r} for r in rs
            ],
        }
        if not WORKLOADS[name].serving:
            ok, entry["fig3_shape"] = fig3_shape([s for r in rs for s in r["series"]])
            correct &= ok is not False
        if name in traced:
            t = traced[name]
            entry["per_layer"] = t["per_layer"]
            entry["trace"] = dict(t["trace"], layers=t["layers"], overhead={
                m: t["metrics"][m] / metrics[m]["median"] - 1.0
                if metrics[m]["median"] else 0.0
                for m in ("latency_p50_ms", "throughput_ops_s")
            })
            entry["checked"] += t["checked"]
            entry["mismatches"] += t["mismatches"]
        correct &= entry["mismatches"] == 0
        attempted += entry["attempted"]
        failed += entry["failed"] + min(entry["mismatches"], entry["attempted"])
        results["workloads"][name] = entry
    results["correct"] = bool(correct)
    results["attempted"] = attempted
    results["failed"] = failed
    _print(results)
    return results


def _print(results) -> None:
    import spans

    units = dict(END_TO_END)
    for name, entry in results["workloads"].items():
        for m, s in entry["metrics"].items():
            print(f"{name} {m} {s['median']:.6g} {units[m]}  iqr={s['iqr']:.4g} "
                  f"rounds={s['n']} samples={entry['samples']}")
        if "per_layer" in entry:
            for m, unit, _ in spans.PER_LAYER:
                print(f"{name} {m} {entry['per_layer'][m]:.6g} {unit}  (traced round)")
        diag = {k: [g[k] for g in entry["generator"]] for k in entry["generator"][0]}
        if "trace" in entry:
            diag["trace_overhead"] = entry["trace"]["overhead"]
            if "blocking_path_coverage" in entry["trace"]:
                diag["blocking_path_coverage"] = entry["trace"]["blocking_path_coverage"]
        print(f"{name} diagnostics {json.dumps(diag)}")
        print(f"{name} oracle checked={entry['checked']} mismatches={entry['mismatches']} "
              f"failed={entry['failed']} {entry.get('fig3_shape', '')}".rstrip())
        for e in entry["examples"]:
            print(f"{name} mismatch {e}")
    print(f"machine {json.dumps(results['machine'])} wall_s={results['wall_s']:.1f}")


def result_line(results, trace: bool) -> dict:
    """The one-line JSON summary (gated end-to-end or per-layer metrics)."""
    import spans

    single = len(results["workloads"]) == 1
    wanted = spans.PER_LAYER if trace else [
        (m, unit, None) for m, unit in END_TO_END if m in GATED
    ]
    metrics = {}
    for name, entry in results["workloads"].items():
        prefix = "" if single else f"{name}:"
        for m, unit, _ in wanted:
            value = entry["per_layer"][m] if trace else entry["metrics"][m]["median"]
            metrics[prefix + m] = {"value": value, "unit": unit}
    return {"correct": results["correct"], "attempted": max(results["attempted"], 1),
            "failed": results["failed"], "metrics": metrics}


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    args = parse_args(argv)
    results = run(args)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
