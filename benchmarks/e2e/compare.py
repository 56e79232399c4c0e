"""Compare two result sets of ``run.py`` by the choosing-metrics §8 rule.

    python benchmarks/e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

``PARENT`` and ``CHANGE`` are each a results file written by
``run.py --out`` or a directory of them. Samples are the per-round
values, taken in file-name then round order; sample ``i`` of the parent
pairs with sample ``i`` of the change, so run the two sides alternately
(parent first on even runs, change first on odd ones).

One row per (end-to-end metric, workload): each side's median and
quartiles, the change's relative difference (positive = worse), the
parent's spread (interquartile range over median), the bound, and the
change's win share over the pairs (ties count for neither).

Verdicts, for the metrics ``BENCHMARK.json`` gates:

* ``REGRESSED`` — the change's median is worse than the parent's by
  more than the bound;
* ``unresolved`` — the parent's spread exceeds the bound, so "no worse"
  cannot be told from noise (unless every change sample beats every
  parent sample);
* ``improved`` — at least 10 pairs, the change wins at least nine
  tenths of them, and the medians differ by more than the parent's
  interquartile range;
* ``unchanged`` — otherwise.

The diagnostic metrics (``latency_p50_ms``, ``latency_p99_ms``,
``throughput_ops_s``) have no bound: on a noisy host only the pairing
can resolve them. They get ``improved`` by the rule above,
``REGRESSED`` by its mirror image (the change loses nine tenths of at
least 10 pairs by more than the parent's interquartile range), else
``unresolved``. ``error_rate`` regresses on any increase. The command
exits 1 when any row is ``REGRESSED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Ungated end-to-end metrics and which direction is better.
DIAGNOSTIC = {
    "latency_p50_ms": "lower",
    "latency_p99_ms": "lower",
    "throughput_ops_s": "higher",
    "error_rate": "lower",
}


def load_set(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result files at {path}")
    return [json.loads(f.read_text()) for f in files]


def samples(results: list[dict], workload: str, metric: str) -> list[float]:
    out: list[float] = []
    for res in results:
        entry = res["workloads"].get(workload)
        if entry is not None and metric in entry["metrics"]:
            out.extend(entry["metrics"][metric]["values"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def judge(metric: str, parent, change, better: str, bound: float | None) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = sign * (cm - pm) / abs(pm) if pm else sign * (cm - pm)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    enough = len(pairs) >= 10
    gap = abs(cm - pm) > p3 - p1
    dominates = all(sign * (c - p) < 0 for c in change for p in parent)
    if metric == "error_rate":
        verdict = "REGRESSED" if cm > pm else "unchanged"
    elif bound is not None and worse > bound:
        verdict = "REGRESSED"
    elif bound is None and enough and losses >= 0.9 * len(pairs) and gap:
        verdict = "REGRESSED"
    elif enough and wins >= 0.9 * len(pairs) and gap:
        verdict = "improved"
    elif bound is None or (spread > bound and not dominates):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": (pm, p1, p3), "change": (cm, c1, c3), "worse": worse,
        "spread": spread, "wins": wins, "pairs": len(pairs), "verdict": verdict,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    gated = {name for name, _, _ in metrics}
    metrics += [(n, better, None) for n, better in DIAGNOSTIC.items() if n not in gated]
    parent, change = load_set(args.parent), load_set(args.change)
    rows = []
    for w in bench["workloads"]:
        for name, better, bound in metrics:
            ps = samples(parent, w["name"], name)
            cs = samples(change, w["name"], name)
            if ps and cs:
                rows.append((w["name"], name, bound, judge(name, ps, cs, better, bound)))
    if not rows:
        print("no (metric, workload) present in both sets", file=sys.stderr)
        return 2
    print(f"{'workload':11s} {'metric':17s} {'parent median [q1, q3]':>31s} "
          f"{'change median [q1, q3]':>31s} {'worse':>7s} {'spread':>7s} "
          f"{'bound':>6s} {'wins':>7s}  verdict")
    for workload, name, bound, r in rows:
        pm, p1, p3 = r["parent"]
        cm, c1, c3 = r["change"]
        bound_s = f"{bound:6.0%}" if bound is not None else "     -"
        print(f"{workload:11s} {name:17s} "
              f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>31s} "
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>31s} "
              f"{r['worse']:+7.1%} {r['spread']:7.1%} {bound_s} "
              f"{r['wins']:3d}/{r['pairs']:<3d}  {r['verdict']}")
    short = min(r["pairs"] for *_, r in rows)
    if short < 10:
        print(f"note: only {short} pair(s) on some rows; the pairing rule "
              "needs >= 10 alternating parent/change pairs")
    return 1 if any(r["verdict"] == "REGRESSED" for *_, r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
