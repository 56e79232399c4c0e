"""Smoke test of the end-to-end benchmark (``run.py --smoke``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One traced smoke run covers both modes: each workload runs an untraced
round and then a traced one on a 60-node instance with 2 s phases.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from run import GATED  # noqa: E402
from spans import PER_LAYER  # noqa: E402

#: Span layers each workload's traced round must produce.
SERVING = ("client", "http", "io", "service", "sync", "engine", "alg1")
EXPECTED_LAYERS = {
    "hot_ap": SERVING + ("spt",),
    "churn": SERVING + ("spt", "persist"),
    "ap_batch": SERVING + ("allpairs", "spt_many"),
    "fig3_sweep": ("deploy", "link_table", "link_spt", "avoid", "overpay"),
}


def _printed(stdout: str, workload: str, metric: str, unit: str) -> bool:
    return any(
        line.split()[:2] == [workload, metric] and line.split()[3] == unit
        for line in stdout.splitlines()
        if len(line.split()) >= 4
    )


def test_smoke_all_workloads_traced_and_untraced(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=85, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    results = json.loads(out.read_text())
    assert results["correct"]
    assert [m[0] for m in PER_LAYER] == [m["name"] for m in bench["per_layer"]]
    assert list(GATED) == [m["name"] for m in bench["end_to_end"]]
    for w in bench["workloads"]:
        name = w["name"]
        entry = results["workloads"][name]
        assert entry["checked"] > 0 and entry["mismatches"] == 0, entry["examples"]
        for m in bench["end_to_end"]:
            assert _printed(proc.stdout, name, m["name"], m["unit"]), m
        for m in bench["per_layer"]:
            assert _printed(proc.stdout, name, m["name"], m["unit"]), m
        assert set(EXPECTED_LAYERS[name]) <= set(entry["trace"]["layers"])
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["failed"] == 0 and summary["attempted"] >= 1


def test_refuses_without_source_tree(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, the
    command fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "hot_ap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
