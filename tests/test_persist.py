"""Durability: WAL + checkpoint crash recovery must be bit-identical.

The load-bearing test kill-9s a subprocess mid-workload (fsync
``"always"``, so every applied mutation is durable) and asserts the
recovered engine prices exactly like a control engine that applied the
same update prefix without ever crashing. Around it: torn-tail and
corrupted-checkpoint tolerance, the any-prefix replay property, and the
observability counters the ops guide documents.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.engine import PricingEngine, generate_workload, replay
from repro.engine import persist
from repro.engine.oracle import answer_key
from repro.graph import generators as gen
from repro.io import SerializationError

SRC = Path(__file__).resolve().parents[1] / "src"


def small_graph(seed=7, n=20):
    return gen.random_biconnected_graph(n, seed=seed)


def durable_engine(tmp_path, g=None, **kw):
    return PricingEngine(
        g if g is not None else small_graph(),
        on_monopoly="inf",
        checkpoint_dir=tmp_path / "state",
        **kw,
    )


def answers(eng, pairs):
    return [answer_key(eng.price(s, t)) for s, t in pairs]


# ---------------------------------------------------------------------------
# WAL primitives
# ---------------------------------------------------------------------------


class TestWal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        recs = [
            {"kind": "update", "node": 3, "value": 2.5, "version": 1},
            {"kind": "remove", "node": 7, "version": 2},
        ]
        for r in recs:
            w.append(r)
        w.close()
        scan = persist.read_wal(path)
        assert scan.records == recs
        assert not scan.torn and scan.dropped_lines == 0

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        value = float(np.nextafter(2.5, 3.0))  # not representable shortly
        w.append({"kind": "update", "node": 0, "value": value, "version": 1})
        w.close()
        got = persist.read_wal(path).records[0]["value"]
        assert got == value and isinstance(got, float)

    def test_torn_tail_stops_scan(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        w.append({"kind": "update", "node": 1, "value": 2.0, "version": 1})
        w.append({"kind": "update", "node": 2, "value": 3.0, "version": 2})
        w.close()
        # a crash mid-append leaves a partial last line
        raw = path.read_text()
        path.write_text(raw + '{"kind": "upd')
        scan = persist.read_wal(path)
        assert len(scan.records) == 2
        assert scan.torn and scan.dropped_lines == 1
        assert scan.error is not None

    def test_bitflip_fails_crc(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        w = persist.WalWriter(path, fsync="never")
        w.append({"kind": "update", "node": 1, "value": 2.0, "version": 1})
        w.close()
        line = path.read_text()
        flipped = line.replace('"value":2.0', '"value":2.5')
        assert flipped != line
        path.write_text(flipped)
        scan = persist.read_wal(path)
        assert scan.records == [] and scan.torn

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(persist.PersistError):
            persist.WalWriter(tmp_path / "w.jsonl", fsync="sometimes")


def legacy_cache_keys(eng):
    """The ``spts``/``pairs`` keys older builds wrote into every
    checkpoint, encoded exactly as they were, from ``eng``'s caches."""
    return {
        "spts": {
            str(root): {
                "root": int(spt.root),
                "dist": [repro_io._enc_float(x) for x in spt.dist],
                "parent": [int(x) for x in spt.parent],
            }
            for root, spt in eng._spts.items()
        },
        "pairs": [
            {"source": s, "target": t, "result": repro_io.to_dict(res)}
            for (s, t), (stamp, res, _) in eng._pairs.items()
            if stamp == eng.version
        ],
    }


class TestCheckpoint:
    def test_graph_only_round_trip(self, tmp_path):
        g = small_graph()
        eng = PricingEngine(g, on_monopoly="inf")
        eng.update_cost(4, 2.75)
        state = eng._checkpoint_state()
        path = persist.write_checkpoint(tmp_path / "checkpoint-00000001.json",
                                        state)
        assert set(json.loads(path.read_text())["data"]) == {
            "graph", "graph_version", "model", "backend", "on_monopoly",
        }
        loaded = persist.read_checkpoint(path)
        assert loaded.graph_version == state.graph_version == 1
        assert loaded.model == "node" and loaded.on_monopoly == "inf"
        assert loaded.backend == state.backend
        assert np.array_equal(loaded.graph.costs, eng.graph.costs)
        assert sorted(loaded.graph.edge_iter()) == sorted(g.edge_iter())

    def test_bytes_equal_before_and_after_warming_caches(self, tmp_path):
        eng = PricingEngine(small_graph(), on_monopoly="inf")
        cold = persist.write_checkpoint(tmp_path / "checkpoint-00000001.json",
                                        eng._checkpoint_state())
        eng.price_many([(s, 0) for s in range(1, eng.n)])
        assert eng.cache_sizes()["spts"] and eng.cache_sizes()["pairs"]
        warm = persist.write_checkpoint(tmp_path / "checkpoint-00000002.json",
                                        eng._checkpoint_state())
        assert warm.read_bytes() == cold.read_bytes()

    def test_legacy_cache_keys_still_open_bit_identical(self, tmp_path):
        eng = durable_engine(tmp_path)
        eng.update_cost(3, 4.5)
        pairs = [(s, 0) for s in range(1, eng.n)] + [(2, 9), (9, 2)]
        want = answers(eng, pairs)
        eng.close()
        root = tmp_path / "state"
        path = persist.list_checkpoints(root)[-1]
        doc = json.loads(path.read_text())
        doc["data"].update(legacy_cache_keys(eng))
        assert doc["data"]["spts"] and doc["data"]["pairs"]
        doc["crc"] = persist._crc_of(doc["data"])  # a valid old file
        path.write_text(json.dumps(doc))
        twin = PricingEngine.open(root, resume=False)
        assert twin.last_recovery.clean
        assert twin.version == eng.version
        assert twin.cache_sizes() == {"spts": 0, "pairs": 0}
        assert answers(twin, pairs) == want

    def test_corrupt_checkpoint_detected(self, tmp_path):
        state = PricingEngine(small_graph())._checkpoint_state()
        path = persist.write_checkpoint(tmp_path / "checkpoint-00000001.json",
                                        state)
        doc = json.loads(path.read_text())
        doc["data"]["graph_version"] = 999  # payload no longer matches CRC
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError):
            persist.read_checkpoint(path)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        state = PricingEngine(small_graph())._checkpoint_state()
        persist.write_checkpoint(tmp_path / "checkpoint-00000001.json", state)
        assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# engine-level durability
# ---------------------------------------------------------------------------


class TestEngineDurability:
    def test_recovery_is_bit_identical(self, tmp_path):
        g = small_graph()
        eng = durable_engine(tmp_path, g, checkpoint_every=4)
        rng = np.random.default_rng(0)
        for _ in range(11):
            eng.update_cost(int(rng.integers(0, g.n)),
                            float(rng.uniform(1, 5)))
        pairs = [(s, 0) for s in range(1, g.n)]
        want = answers(eng, pairs)
        eng.close()

        twin = PricingEngine.open(tmp_path / "state")
        assert twin.version == eng.version
        assert np.array_equal(twin.graph.costs, eng.graph.costs)
        assert answers(twin, pairs) == want
        assert twin.last_recovery.clean
        twin.close()

    def test_node_churn_recovers(self, tmp_path):
        g = small_graph(n=14)
        eng = durable_engine(tmp_path, g)
        eng.update_cost(2, 9.0)
        nid = eng.add_node(2.5, neighbors=[0, 1, 5])
        eng.remove_node(3)
        eng.update_cost(nid, 1.25)
        want = answers(eng, [(1, 0), (nid, 0)])
        eng.close()
        twin = PricingEngine.open(tmp_path / "state", resume=False)
        assert twin.version == eng.version
        assert answers(twin, [(1, 0), (nid, 0)]) == want

    def test_refuses_to_clobber_existing_state(self, tmp_path):
        eng = durable_engine(tmp_path)
        eng.close()
        with pytest.raises(persist.PersistError, match="recover"):
            durable_engine(tmp_path)

    def test_checkpoint_requires_directory(self):
        eng = PricingEngine(small_graph())
        with pytest.raises(persist.PersistError):
            eng.checkpoint()

    def test_auto_checkpoint_every_n(self, tmp_path):
        eng = durable_engine(tmp_path, checkpoint_every=3)
        rng = np.random.default_rng(1)
        for _ in range(7):
            eng.update_cost(int(rng.integers(0, eng.n)),
                            float(rng.uniform(1, 5)))
        # initial + floor(7/3) automatic ones, capped by retention
        assert eng.stats.checkpoint_writes == 3
        assert eng._persist.records_since_checkpoint == 1
        eng.close()

    def test_retention_prunes_old_generations(self, tmp_path):
        eng = durable_engine(tmp_path, checkpoint_every=2, retain=2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            eng.update_cost(int(rng.integers(0, eng.n)),
                            float(rng.uniform(1, 5)))
        eng.close()
        root = tmp_path / "state"
        assert len(persist.list_checkpoints(root)) == 2
        # WALs below the oldest retained checkpoint are gone too
        floor = min(persist._seq_of(p)
                    for p in persist.list_checkpoints(root))
        assert all(persist._seq_of(p) >= floor
                   for p in persist.list_wals(root))

    def test_counters_and_stats(self, tmp_path):
        eng = durable_engine(tmp_path)
        eng.update_cost(1, 2.0)
        eng.update_cost(2, 3.0)
        eng.checkpoint()
        assert eng.stats.wal_records == 2
        assert eng.stats.checkpoint_writes == 2  # initial + on-demand
        eng.close()
        twin = PricingEngine.open(tmp_path / "state")
        assert twin.stats.recoveries == 1
        assert twin.last_recovery is not None
        assert "recovered from checkpoint" in twin.last_recovery.describe()
        twin.close()

    def test_context_manager_closes_wal(self, tmp_path):
        with durable_engine(tmp_path) as eng:
            eng.update_cost(1, 2.0)
        assert eng._persist._writer is None  # closed


class TestCorruptionTolerance:
    def _engine_with_two_generations(self, tmp_path):
        g = small_graph()
        eng = durable_engine(tmp_path, g, checkpoint_every=4)
        rng = np.random.default_rng(5)
        for _ in range(10):  # two auto checkpoints + live tail
            eng.update_cost(int(rng.integers(0, g.n)),
                            float(rng.uniform(1, 5)))
        eng.close()
        return eng

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        eng = self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        wal = persist.list_wals(root)[-1]
        with wal.open("a") as fh:
            fh.write('{"kind": "update", "node"')  # crash mid-append
        twin = PricingEngine.open(root, resume=False)
        assert twin.last_recovery.torn_tail
        assert twin.version == eng.version  # prefix == everything applied
        twin.close()

    def test_corrupt_checkpoint_falls_back(self, tmp_path):
        eng = self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        newest = persist.list_checkpoints(root)[-1]
        newest.write_text(newest.read_text()[:100])  # truncate = corrupt
        twin = PricingEngine.open(root, resume=False)
        assert twin.last_recovery.skipped_checkpoints
        assert not twin.last_recovery.clean
        # the older checkpoint + longer WAL chain still reach the end state
        assert twin.version == eng.version
        assert np.array_equal(twin.graph.costs, eng.graph.costs)
        twin.close()

    @pytest.mark.parametrize("version", ["x", None])
    def test_bad_envelope_version_falls_back(self, tmp_path, version):
        # The CRC covers only ``data``, so the envelope's version is
        # checked on its own.
        eng = self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        newest = persist.list_checkpoints(root)[-1]
        doc = json.loads(newest.read_text())
        doc["version"] = version
        newest.write_text(json.dumps(doc))
        twin = PricingEngine.open(root, resume=False)
        assert len(twin.last_recovery.skipped_checkpoints) == 1
        assert "version" in twin.last_recovery.skipped_checkpoints[0]
        assert twin.last_recovery.checkpoint_seq < persist._seq_of(newest)
        assert twin.version == eng.version
        assert np.array_equal(twin.graph.costs, eng.graph.costs)
        twin.close()
        inventory = persist.scan(root)
        by_file = {c["file"]: c for c in inventory.checkpoints}
        assert not by_file[newest.name]["valid"]
        assert "version" in by_file[newest.name]["error"]
        assert sum(c["valid"] for c in inventory.checkpoints) == 1
        assert "CORRUPT" in inventory.describe()

    def test_all_checkpoints_corrupt_raises(self, tmp_path):
        self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        for p in persist.list_checkpoints(root):
            p.write_text("not json")
        with pytest.raises(persist.PersistError):
            PricingEngine.open(root)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(persist.PersistError):
            PricingEngine.open(tmp_path / "nothing-here")

    def test_resume_retires_torn_tail(self, tmp_path):
        self._engine_with_two_generations(tmp_path)
        root = tmp_path / "state"
        wal = persist.list_wals(root)[-1]
        with wal.open("a") as fh:
            fh.write('{"torn"')
        twin = PricingEngine.open(root)  # resume=True writes a checkpoint
        twin.close()
        again = PricingEngine.open(root, resume=False)
        assert again.last_recovery.clean  # torn generation pruned/superseded
        assert again.version == twin.version


class TestLinkModelStateRefused:
    """The engine serves the node model only. State an older build
    wrote for a link-model engine raises a typed :class:`PersistError`
    on open, never a bare ``TypeError`` from the constructor, and
    leaves the directory as it found it."""

    @pytest.mark.parametrize("model", ["link", "node"])
    def test_link_digraph_checkpoint(self, tmp_path, model):
        dg = gen.random_robust_digraph(12, seed=3)
        data = {
            "graph": repro_io.to_dict(dg),
            "graph_version": 0,
            "model": model,
            "backend": "auto",
            "on_monopoly": "inf",
        }
        root = tmp_path / "state"
        root.mkdir()
        path = root / "checkpoint-00000001.json"
        path.write_text(json.dumps({
            "format": persist.CHECKPOINT_FORMAT,
            "version": persist.CHECKPOINT_SCHEMA_VERSION,
            "crc": persist._crc_of(data),
            "data": data,
        }))
        with pytest.raises(persist.PersistError, match="node model"):
            PricingEngine.open(root)
        assert sorted(p.name for p in root.iterdir()) == [path.name]
        (entry,) = persist.scan(root).checkpoints
        assert not entry["valid"] and "node model" in entry["error"]

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "update", "u": 1, "v": 2, "value": 4.0, "version": 1},
            {"kind": "add_node", "arcs": [[0, 20, 1.0], [20, 0, 1.0]],
             "version": 1},
        ],
        ids=["update-arc", "add-node-arcs"],
    )
    def test_link_wal_record(self, tmp_path, record):
        durable_engine(tmp_path).close()
        root = tmp_path / "state"
        w = persist.WalWriter(persist.list_wals(root)[-1], fsync="never")
        w.append(record)
        w.close()
        before = sorted(p.name for p in root.iterdir())
        with pytest.raises(persist.PersistError, match="node model"):
            PricingEngine.open(root)
        assert sorted(p.name for p in root.iterdir()) == before


class TestPrefixProperty:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_any_wal_prefix_equals_direct_replay(self, tmp_path_factory,
                                                 seed, n_updates):
        tmp = tmp_path_factory.mktemp("prefix")
        g = small_graph(seed=3, n=12)
        eng = PricingEngine(g, on_monopoly="inf",
                            checkpoint_dir=tmp / "state")
        rng = np.random.default_rng(seed)
        for _ in range(n_updates):
            kind = rng.random()
            if kind < 0.7 or eng.n <= 6:
                eng.update_cost(int(rng.integers(0, eng.n)),
                                float(rng.uniform(1, 5)))
            elif kind < 0.85:
                eng.add_node(float(rng.uniform(1, 5)),
                             neighbors=[0, int(rng.integers(1, eng.n))])
            else:
                eng.remove_node(int(rng.integers(1, eng.n)))
            # recovery at *every* prefix matches the live engine
            twin = PricingEngine.open(tmp / "state", resume=False)
            assert twin.version == eng.version
            assert type(twin.graph) is type(eng.graph)
            assert np.array_equal(twin.graph.costs, eng.graph.costs)
            assert sorted(twin.graph.edge_iter()) == \
                sorted(eng.graph.edge_iter())
        eng.close()


# ---------------------------------------------------------------------------
# the kill -9 test (the acceptance criterion)
# ---------------------------------------------------------------------------

_CHILD = textwrap.dedent("""
    import sys
    import numpy as np
    from repro.engine import PricingEngine
    from repro.graph import generators as gen

    state_dir, seed, n_updates = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    g = gen.random_biconnected_graph(30, seed=seed)
    eng = PricingEngine(g, on_monopoly="inf", checkpoint_dir=state_dir,
                        fsync="always", checkpoint_every=7)
    rng = np.random.default_rng(seed)
    for i in range(n_updates):
        eng.update_cost(int(rng.integers(0, g.n)), float(rng.uniform(1, 5)))
        print(i, flush=True)     # parent kills us somewhere in this loop
    print("done", flush=True)
""")


class TestKillNine:
    def test_sigkill_mid_workload_recovers_bit_identical(self, tmp_path):
        seed, n_updates = 11, 400
        state_dir = tmp_path / "state"
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(state_dir), str(seed),
             str(n_updates)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        # wait until the child has durably applied a few updates, then
        # kill -9 with the WAL mid-stream
        deadline = time.monotonic() + 60
        seen = 0
        while seen < 25 and time.monotonic() < deadline:
            line = proc.stdout.readline().strip()
            if line == "done":
                break
            if line:
                seen = int(line) + 1
        proc.kill()  # SIGKILL — no atexit, no flush, no mercy
        proc.wait(timeout=30)
        assert seen >= 1, proc.stderr.read()

        recovered = PricingEngine.open(state_dir)
        v = recovered.version
        # fsync="always": everything the child reported applied is durable
        assert v >= seen

        # the control engine applies the same seeded prefix, crash-free
        g = gen.random_biconnected_graph(30, seed=seed)
        control = PricingEngine(g, on_monopoly="inf")
        rng = np.random.default_rng(seed)
        for _ in range(v):
            control.update_cost(int(rng.integers(0, g.n)),
                                float(rng.uniform(1, 5)))
        assert np.array_equal(recovered.graph.costs, control.graph.costs)

        pairs = [(s, 0) for s in range(1, g.n)]
        got = recovered.price_many(pairs)
        want = control.price_many(pairs)
        assert got.keys() == want.keys()
        for key in want:
            a, b = got[key], want[key]
            assert a.path == b.path
            assert a.lcp_cost == b.lcp_cost  # bit-identical, not approx
            assert a.payments == b.payments
        recovered.close()


# ---------------------------------------------------------------------------
# workload replay through a durable engine
# ---------------------------------------------------------------------------


class TestDurableReplay:
    def test_replay_report_unchanged_by_durability(self, tmp_path):
        g = small_graph(n=25)
        ops = generate_workload(g, n_ops=80, update_frac=0.2, seed=4)
        plain = PricingEngine(g, on_monopoly="inf")
        durable = durable_engine(tmp_path, g)
        r1 = replay(plain, ops)
        r2 = replay(durable, ops)
        assert r1.n_queries == r2.n_queries and r1.n_updates == r2.n_updates
        assert plain.version == durable.version
        durable.close()
        twin = PricingEngine.open(tmp_path / "state", resume=False)
        assert twin.version == durable.version
