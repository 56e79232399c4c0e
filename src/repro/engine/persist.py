"""Durability for the pricing engine: write-ahead log + checkpoints.

A :class:`~repro.engine.engine.PricingEngine` lives in one process; a
crash (OOM kill, node reboot, deploy) would lose the graph the selfish
nodes spent a session declaring. This module keeps it on disk as the
classic checkpoint + write-ahead-log pair:

* **Write-ahead log (WAL).** Every applied mutation —
  ``update_cost`` / ``add_node`` / ``remove_node`` — is appended to
  ``wal-<seq>.jsonl`` as one JSON-lines record *after* it commits in
  memory (``{"kind": "update", "node": ..., "value": ...}``), with the
  resulting engine ``version`` and a CRC-32 over the record's
  canonical JSON. Queries change no state and are never logged.
* **Checkpoints.** ``checkpoint()`` writes the declared graph (via
  :func:`repro.io.to_dict`), ``graph_version``, model (always
  ``"node"``), backend and ``on_monopoly`` to
  ``checkpoint-<seq>.json`` (write to a temp file, fsync,
  :func:`os.replace`), then rotates the WAL so the new
  checkpoint starts an empty tail; on demand and every
  ``checkpoint_every`` mutations. The SPT and pair caches are not
  written: a payment ``p_k = ||P_{-v_k}|| - ||P|| + c_k`` depends on
  the declared costs and topology alone, so a recovered engine
  rebuilds them at first use. Checkpoints from older builds also carry
  ``spts``/``pairs`` keys, which the decoder ignores.

The engine serves the node model only. Older builds could also persist
a link-model engine; its checkpoint (``"model": "link"``, a
``link-digraph`` graph) and its WAL records (an ``update`` addressing
an arc ``u``/``v``, an ``add_node`` with ``arcs``) raise
:class:`PersistError` on recovery rather than being replayed.

Recovery (:func:`load_state`, surfaced as
``PricingEngine.open(checkpoint_dir)``) loads the newest checkpoint
that validates, then replays the WAL chain above it. Because replay
drives the exact same ``update_cost``/``add_node``/``remove_node``
code paths the original process ran, the recovered graph — and
therefore every price computed afterwards — is **bit-identical** to a
process that never crashed (``tests/test_persist.py`` kills a live
engine with SIGKILL and asserts exactly this).

Corruption handling
-------------------

Crashes land mid-write, so both formats are checksummed and recovery
is tolerant by construction:

* a **torn trailing WAL record** (partial line, bad JSON, CRC
  mismatch) ends replay at the last valid record — the durable prefix
  — and is reported, not fatal;
* a **corrupt checkpoint** (bad CRC, malformed payload, or an envelope
  ``version`` that :func:`repro.io.check_version` refuses — the CRC
  covers only the payload) is skipped and recovery falls back to the next older checkpoint, replaying the
  longer WAL chain from there (``retain`` controls how many
  generations are kept);
* a record whose recorded ``version`` does not match the replayed
  engine's version marks the chain divergent: replay stops at the
  consistent prefix and the report says so.

The fsync policy (:data:`FSYNC_POLICIES`) bounds what a crash can lose
from the WAL; checkpoint files are always fsynced before the rename.

Quickstart::

    >>> import tempfile
    >>> from repro.engine import PricingEngine
    >>> from repro.graph.generators import random_biconnected_graph
    >>> tmp = tempfile.TemporaryDirectory()
    >>> g = random_biconnected_graph(12, seed=3)
    >>> eng = PricingEngine(g, on_monopoly="inf", checkpoint_dir=tmp.name)
    >>> p = eng.price(5, 0)
    >>> eng.update_cost(3, 2.5)      # appended to the WAL, fsync policy applies
    1
    >>> twin = PricingEngine.open(tmp.name)   # what a restart would do
    >>> twin.version == eng.version
    True
    >>> twin.price(5, 0) == eng.price(5, 0)   # bit-identical answers
    True
    >>> tmp.cleanup()
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, ClassVar

from repro import io as repro_io
from repro.errors import PersistError, RecoveryError
from repro.graph.node_graph import NodeWeightedGraph
from repro.io import SerializationError, _dec_float, _enc_float
from repro.obs import logging as obs_logging

__all__ = [
    "PersistError",
    "RecoveryError",
    "FSYNC_POLICIES",
    "WAL_FORMAT",
    "WAL_SCHEMA_VERSION",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_VERSION",
    "WalWriter",
    "WalScan",
    "read_wal",
    "CheckpointState",
    "RecoveryReport",
    "EnginePersistence",
    "write_checkpoint",
    "read_checkpoint",
    "load_state",
    "scan",
]

_log = obs_logging.get_logger("engine.persist")

#: When (not whether) WAL appends reach the platter. ``"always"`` pays
#: one fsync per mutation, ``"interval"`` one per ``fsync_every``
#: mutations, ``"never"`` leaves it to the OS page cache.
FSYNC_POLICIES = ("always", "interval", "never")

WAL_FORMAT = "engine-wal"
WAL_SCHEMA_VERSION = 1
CHECKPOINT_FORMAT = "engine-checkpoint"
CHECKPOINT_SCHEMA_VERSION = 1

_CKPT_GLOB = "checkpoint-*.json"
_WAL_GLOB = "wal-*.jsonl"


# PersistError / RecoveryError live in the shared taxonomy
# (repro.errors) so the service layer can map them to HTTP statuses;
# re-exported here because this module is where they are raised.

def _resolve_fsync(policy: str) -> str:
    if policy not in FSYNC_POLICIES:
        raise PersistError(
            f"fsync policy must be one of {FSYNC_POLICIES}, got {policy!r}"
        )
    return policy


def _canonical(doc: dict) -> str:
    """The byte-stable JSON form both CRC sides agree on."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _crc_of(doc: dict) -> int:
    return zlib.crc32(_canonical(doc).encode("utf-8")) & 0xFFFFFFFF


def _with_crc(doc: dict) -> dict:
    out = dict(doc)
    out["crc"] = _crc_of(doc)
    return out


def _check_crc(doc: dict) -> dict:
    """Return the record without its CRC, raising on mismatch."""
    body = {k: v for k, v in doc.items() if k != "crc"}
    if doc.get("crc") != _crc_of(body):
        raise SerializationError("checksum mismatch")
    return body


# ---------------------------------------------------------------------------
# write-ahead log
# ---------------------------------------------------------------------------


class WalWriter:
    """Appender for one ``wal-<seq>.jsonl`` file.

    Each :meth:`append` stamps the record with a CRC-32 over its
    canonical JSON, writes it as one line, flushes the Python buffer,
    and fsyncs per the configured policy. The file is opened in append
    mode so a writer resuming after a clean close continues the same
    log.
    """

    def __init__(
        self, path: str | Path, fsync: str = "interval", fsync_every: int = 64
    ) -> None:
        self.path = Path(path)
        self.policy = _resolve_fsync(fsync)
        self.fsync_every = max(1, int(fsync_every))
        self._fh: IO[str] | None = self.path.open("a", encoding="utf-8")
        self.records = 0
        self._since_sync = 0

    @property
    def bytes_written(self) -> int:
        """Current on-disk size of the log file."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def append(self, record: dict) -> None:
        """Write one checksummed record; honours the fsync policy."""
        if self._fh is None:
            raise PersistError(f"WAL writer for {self.path} is closed")
        line = _canonical(_with_crc(record))
        self._fh.write(line + "\n")
        self._fh.flush()
        self.records += 1
        self._since_sync += 1
        if self.policy == "always" or (
            self.policy == "interval" and self._since_sync >= self.fsync_every
        ):
            self.sync()

    def sync(self) -> None:
        """Force the OS to persist everything appended so far."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())
            self._since_sync = 0

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None


@dataclass
class WalScan:
    """Outcome of reading one WAL file: the valid record prefix plus
    what (if anything) ended it early."""

    records: list[dict]
    torn: bool = False  #: the file ended in an unparseable/bad-CRC line
    dropped_lines: int = 0  #: lines after the first invalid one (incl. it)
    error: str | None = None  #: why the first invalid line was rejected


def read_wal(path: str | Path) -> WalScan:
    """Read a WAL file, stopping at the first torn or corrupt record.

    A crash can only tear the *tail* (records are appended and synced
    in order), so everything before the first invalid line is the
    durable prefix; the scan reports — rather than raises on — whatever
    ended it.
    """
    path = Path(path)
    records: list[dict] = []
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError:
        return WalScan(records=[])
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            body = _check_crc(doc)
        except (json.JSONDecodeError, ValueError, SerializationError) as exc:
            return WalScan(
                records=records,
                torn=True,
                dropped_lines=len(lines) - i,
                error=f"line {i + 1}: {exc}",
            )
        records.append(body)
    return WalScan(records=records)


def _wal_header(seq: int, graph_version: int) -> dict:
    return {
        "kind": "wal-header",
        "format": WAL_FORMAT,
        "version": WAL_SCHEMA_VERSION,
        "checkpoint_seq": int(seq),
        "graph_version": int(graph_version),
    }


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class CheckpointState:
    """Everything a checkpoint preserves of a live engine: the declared
    graph at ``graph_version`` and the engine's configuration."""

    graph: NodeWeightedGraph
    graph_version: int
    backend: str
    on_monopoly: str
    #: Written to every checkpoint so older builds still read it.
    model: ClassVar[str] = "node"


def _encode_state(state: CheckpointState) -> dict:
    return {
        "graph": repro_io.to_dict(state.graph),
        "graph_version": int(state.graph_version),
        "model": state.model,
        "backend": state.backend,
        "on_monopoly": state.on_monopoly,
    }


def _decode_state(data: dict) -> CheckpointState:
    graph = repro_io.from_dict(data["graph"])
    if data["model"] != CheckpointState.model or not isinstance(
        graph, NodeWeightedGraph
    ):
        raise PersistError(
            f"checkpoint holds a {data['model']!r}-model engine over a "
            f"{type(graph).__name__}; the engine serves the node model "
            "only (price link-weighted graphs with repro.api.price_links)"
        )
    return CheckpointState(
        graph=graph,
        graph_version=int(data["graph_version"]),
        backend=str(data["backend"]),
        on_monopoly=str(data["on_monopoly"]),
    )


def write_checkpoint(path: str | Path, state: CheckpointState) -> Path:
    """Atomically write one checkpoint file.

    The document goes to ``<path>.tmp`` first, is fsynced, then moved
    into place with :func:`os.replace` — a crash leaves either the old
    file or the new one, never a half-written checkpoint. The payload
    carries its own CRC-32 so a corrupt file is *detected* at load time
    instead of silently decoded.
    """
    path = Path(path)
    data = _encode_state(state)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_SCHEMA_VERSION,
        "crc": _crc_of(data),
        "data": data,
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return path


def read_checkpoint(path: str | Path) -> CheckpointState:
    """Load and validate one checkpoint file.

    Raises :class:`~repro.io.SerializationError` on bad JSON, an
    unknown format tag, any envelope version other than
    :data:`CHECKPOINT_SCHEMA_VERSION`, a CRC mismatch, or a malformed
    payload — the conditions :func:`load_state` treats as "fall back to
    an older checkpoint" — and :class:`PersistError` on a valid
    checkpoint of a link-model engine, which no older generation of
    the same directory would fix.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"unreadable checkpoint {path}: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise SerializationError(f"{path} is not an engine checkpoint")
    repro_io.check_version(
        CHECKPOINT_FORMAT, doc.get("version"), CHECKPOINT_SCHEMA_VERSION
    )
    data = doc.get("data")
    if doc.get("crc") != _crc_of(data):
        raise SerializationError(f"checkpoint {path} failed its checksum")
    try:
        return _decode_state(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed checkpoint {path}: {exc}")


def _fsync_dir(path: Path) -> None:
    """Persist a directory entry (rename durability); best-effort on
    platforms where directories cannot be opened."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _ckpt_path(root: Path, seq: int) -> Path:
    return root / f"checkpoint-{seq:08d}.json"


def _wal_path(root: Path, seq: int) -> Path:
    return root / f"wal-{seq:08d}.jsonl"


def _seq_of(path: Path) -> int:
    return int(path.stem.split("-")[-1])


def list_checkpoints(root: str | Path) -> list[Path]:
    """Checkpoint files in ``root``, oldest first."""
    return sorted(Path(root).glob(_CKPT_GLOB), key=_seq_of)


def list_wals(root: str | Path) -> list[Path]:
    """WAL files in ``root``, oldest first."""
    return sorted(Path(root).glob(_WAL_GLOB), key=_seq_of)


# ---------------------------------------------------------------------------
# the directory manager the engine drives
# ---------------------------------------------------------------------------


class EnginePersistence:
    """Owns one checkpoint directory on behalf of a live engine.

    Maintains the invariant recovery depends on: ``wal-<seq>.jsonl``
    contains exactly the mutations applied *after*
    ``checkpoint-<seq>.json`` was written, so replaying the WAL chain
    upward from any retained checkpoint reproduces the latest state.
    ``retain`` generations of (checkpoint, WAL) are kept for corruption
    fallback; older ones are pruned after each successful checkpoint.
    """

    def __init__(
        self,
        root: str | Path,
        fsync: str = "interval",
        fsync_every: int = 64,
        retain: int = 2,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.policy = _resolve_fsync(fsync)
        self.fsync_every = int(fsync_every)
        self.retain = max(1, int(retain))
        self._writer: WalWriter | None = None
        self._seq = 0
        self.records_since_checkpoint = 0

    # -- introspection ------------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the checkpoint the open WAL extends."""
        return self._seq

    @property
    def wal_bytes(self) -> int:
        """On-disk size of the open WAL file."""
        return self._writer.bytes_written if self._writer else 0

    def has_state(self) -> bool:
        """Whether the directory already holds any checkpoint."""
        return bool(list_checkpoints(self.root))

    # -- writer side --------------------------------------------------------

    def append(self, record: dict) -> None:
        """Append one mutation record to the open WAL."""
        if self._writer is None:
            raise PersistError(
                "no open WAL — write a checkpoint first (engine bug)"
            )
        self._writer.append(record)
        self.records_since_checkpoint += 1

    def write_checkpoint(self, state: CheckpointState) -> Path:
        """Write a checkpoint, rotate the WAL, prune old generations."""
        existing = list_checkpoints(self.root)
        seq = (_seq_of(existing[-1]) + 1) if existing else 1
        path = write_checkpoint(_ckpt_path(self.root, seq), state)
        if self._writer is not None:
            self._writer.close()
        writer = WalWriter(
            _wal_path(self.root, seq),
            fsync=self.policy,
            fsync_every=self.fsync_every,
        )
        writer.append(_wal_header(seq, state.graph_version))
        self._writer = writer
        self._seq = seq
        self.records_since_checkpoint = 0
        self._prune()
        _log.debug(
            "checkpoint written",
            extra={"path": str(path), "seq": seq,
                   "graph_version": state.graph_version},
        )
        return path

    def _prune(self) -> None:
        ckpts = list_checkpoints(self.root)
        keep = {_seq_of(p) for p in ckpts[-self.retain :]}
        floor = min(keep) if keep else 0
        for p in ckpts:
            if _seq_of(p) not in keep:
                p.unlink(missing_ok=True)
        for p in list_wals(self.root):
            if _seq_of(p) < floor:
                p.unlink(missing_ok=True)

    def close(self) -> None:
        """Flush and close the open WAL (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """How a recovery went: where it started, what it replayed, and
    every fault it tolerated along the way."""

    checkpoint_seq: int
    checkpoint_version: int
    wal_records: int = 0  #: mutation records replayed (headers excluded)
    wal_files: int = 0
    torn_tail: bool = False
    dropped_records: int = 0  #: lines discarded after the first bad one
    skipped_checkpoints: tuple[str, ...] = ()  #: corrupt ones, with reasons
    divergence: str | None = None  #: version-mismatch note, if replay stopped

    @property
    def clean(self) -> bool:
        """True when nothing had to be tolerated."""
        return (
            not self.torn_tail
            and not self.skipped_checkpoints
            and self.divergence is None
        )

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"recovered from checkpoint seq {self.checkpoint_seq} "
            f"(graph version {self.checkpoint_version}), replayed "
            f"{self.wal_records} WAL records from {self.wal_files} file(s)"
        ]
        for reason in self.skipped_checkpoints:
            lines.append(f"skipped corrupt checkpoint: {reason}")
        if self.torn_tail:
            lines.append(
                f"tolerated a torn WAL tail "
                f"({self.dropped_records} line(s) discarded)"
            )
        if self.divergence:
            lines.append(f"replay stopped early: {self.divergence}")
        if self.clean:
            lines.append("no corruption encountered")
        return "\n".join(lines)


def load_state(
    root: str | Path,
) -> tuple[CheckpointState, list[dict], RecoveryReport]:
    """Pure read-side recovery: pick a checkpoint, collect its WAL tail.

    Tries checkpoints newest-first; the first one that validates wins
    and every WAL file at-or-above its sequence number contributes its
    valid record prefix, in order. Returns the decoded state, the
    mutation records to replay (headers stripped), and a
    :class:`RecoveryReport`. Raises :class:`PersistError` when no
    checkpoint validates at all.
    """
    root = Path(root)
    ckpts = list_checkpoints(root)
    if not ckpts:
        raise RecoveryError(f"no checkpoints in {root}")
    skipped: list[str] = []
    for path in reversed(ckpts):
        try:
            state = read_checkpoint(path)
        except SerializationError as exc:
            skipped.append(str(exc))
            continue
        seq = _seq_of(path)
        records: list[dict] = []
        torn = False
        dropped = 0
        files = 0
        for wal in list_wals(root):
            if _seq_of(wal) < seq:
                continue
            files += 1
            scan = read_wal(wal)
            records.extend(
                r for r in scan.records if r.get("kind") != "wal-header"
            )
            if scan.torn:
                torn = True
                dropped += scan.dropped_lines
                break  # later files assume this one applied fully
        report = RecoveryReport(
            checkpoint_seq=seq,
            checkpoint_version=state.graph_version,
            wal_records=len(records),
            wal_files=files,
            torn_tail=torn,
            dropped_records=dropped,
            skipped_checkpoints=tuple(skipped),
        )
        return state, records, report
    raise RecoveryError(
        f"no valid checkpoint in {root}: " + "; ".join(skipped)
    )


@dataclass
class DirectoryScan:
    """What ``repro-unicast recover`` shows: per-file inventory."""

    root: str
    checkpoints: list[dict]
    wals: list[dict]

    def describe(self) -> str:
        lines = [f"checkpoint directory {self.root}:"]
        if not self.checkpoints:
            lines.append("  (no checkpoints)")
        for c in self.checkpoints:
            status = "ok" if c["valid"] else f"CORRUPT ({c['error']})"
            lines.append(
                f"  {c['file']}: graph version {c.get('graph_version', '?')}, "
                f"{c['bytes']} bytes — {status}"
            )
        for w in self.wals:
            tail = (
                f", torn tail ({w['dropped_lines']} line(s) dropped)"
                if w["torn"]
                else ""
            )
            lines.append(
                f"  {w['file']}: {w['records']} mutation record(s), "
                f"{w['bytes']} bytes{tail}"
            )
        return "\n".join(lines)


def scan(root: str | Path) -> DirectoryScan:
    """Read-only inventory of a checkpoint directory (never raises on
    corruption — that is the point of inspecting it)."""
    root = Path(root)
    checkpoints = []
    for path in list_checkpoints(root):
        entry = {
            "file": path.name,
            "bytes": path.stat().st_size,
            "valid": True,
            "error": None,
        }
        try:
            state = read_checkpoint(path)
            entry["graph_version"] = state.graph_version
            entry["model"] = state.model
        except (SerializationError, PersistError) as exc:
            entry["valid"] = False
            entry["error"] = str(exc)
        checkpoints.append(entry)
    wals = []
    for path in list_wals(root):
        s = read_wal(path)
        wals.append(
            {
                "file": path.name,
                "bytes": path.stat().st_size,
                "records": sum(
                    1 for r in s.records if r.get("kind") != "wal-header"
                ),
                "torn": s.torn,
                "dropped_lines": s.dropped_lines,
            }
        )
    return DirectoryScan(root=str(root), checkpoints=checkpoints, wals=wals)


# ---------------------------------------------------------------------------
# WAL record construction/decoding (the engine's mutation vocabulary)
# ---------------------------------------------------------------------------


def update_record(node: int, value: float, version: int) -> dict:
    """WAL record for ``update_cost``."""
    return {
        "kind": "update",
        "node": int(node),
        "value": _enc_float(float(value)),
        "version": int(version),
    }


def remove_record(node: int, version: int) -> dict:
    """WAL record for ``remove_node``."""
    return {"kind": "remove_node", "node": int(node), "version": int(version)}


def add_record(cost: float, neighbors, version: int) -> dict:
    """WAL record for ``add_node``."""
    return {
        "kind": "add_node",
        "cost": _enc_float(float(cost)),
        "neighbors": [int(v) for v in neighbors],
        "version": int(version),
    }


def apply_record(engine, record: dict) -> None:
    """Replay one WAL record through the engine's own mutation methods.

    Using the very same code paths the original process ran is what
    makes recovery bit-identical — there is no second implementation of
    "apply an update" to drift. A link-model record from an older build
    raises :class:`PersistError`.
    """
    kind = record.get("kind")
    if kind in ("update", "add_node") and ("u" in record or "arcs" in record):
        raise PersistError(
            f"WAL {kind} record for version {record.get('version')} "
            "addresses link-model arcs; the engine serves the node model "
            "only"
        )
    if kind == "update":
        engine.update_cost(int(record["node"]), _dec_float(record["value"]))
    elif kind == "remove_node":
        engine.remove_node(int(record["node"]))
    elif kind == "add_node":
        engine.add_node(
            cost=_dec_float(record["cost"]),
            neighbors=[int(v) for v in record["neighbors"]],
        )
    else:
        raise SerializationError(f"unknown WAL record kind {kind!r}")
