"""Checkpoint manifests: per-partition lineage + metrics, atomic commit, resume.

Protocol (SURVEY.md §4, re-hosted on cluster storage via ``storage.Store``):

- during a build, every completed partition (stage-1 shard group, the docs
  stage, each stage-3 wave generation) commits one JSON record under
  ``<index_dir>/_manifest/``.  Records are small whole-object PUTs (plus a
  temp-and-rename belt where the substrate is a real local fs); a torn or
  half-written record is indistinguishable from an absent one to readers;
- a restarted build skips any partition whose committed record matches the
  partition's current input fingerprint AND whose recorded output files all
  still exist (checked through the same filesystem) — anti-join of work
  units vs manifest, no recomputation;
- ``finalize`` aggregates all records plus global stats into a fresh
  ``manifest-<nonce>.json`` and then commits by swapping the tiny
  ``CURRENT`` pointer object to its name — the object-store-safe replacement
  for an ``os.replace`` rename (single writer per index dir, so
  last-writer-wins on the pointer is sound).  On local filesystems a legacy
  ``manifest.json`` is also committed by real atomic rename, for older
  readers.  Query visibility is gated on the committed pointer: a killed
  build is invisible.

Each record carries ``lineage`` (stage, partition id, input fingerprint and
files, build-config hash) and ``metrics`` (rows in/out, tokens, postings,
bytes, wall seconds) — the north rule's per-partition lineage + metrics.
"""

from __future__ import annotations

import dataclasses
import json
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..spec import INDEX_FORMAT_VERSION
from .storage import Store

MANIFEST_NAME = "manifest.json"  # legacy local-fs name (still written there)
POINTER_NAME = "CURRENT"
PARTIAL_DIR = "_manifest"
HISTORY_KEEP_DEFAULT = 3  # snapshots retained by finalize() (tiny JSON)


def _manifest_seq(basename: str) -> int | None:
    """``manifest-<seq:08d>-<nonce>.json`` → seq; legacy names → None."""
    if not (basename.startswith("manifest-") and basename.endswith(".json")):
        return None
    parts = basename[len("manifest-"):-len(".json")].split("-")
    if len(parts) != 2 or not parts[0].isdigit():
        return None
    return int(parts[0])


class InjectedFault(RuntimeError):
    """Raised by the fault-injection hook (resume tests)."""


@dataclass
class PartitionRecord:
    stage: str
    partition_id: str
    input_fingerprint: str
    output_files: list[str] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    lineage: dict[str, Any] = field(default_factory=dict)
    status: str = "done"
    committed_at: float = 0.0

    def key(self) -> str:
        return f"{self.stage}--{self.partition_id}"


class BuildManifest:
    """Partial-manifest store for one index build directory."""

    def __init__(
        self,
        index_dir: str | Path | Store,
        fail_after_partitions: int | None = None,
        *,
        filesystem=None,
    ):
        self.store = Store.resolve(index_dir, filesystem)
        self.partial = self.store.sub(PARTIAL_DIR)
        self.partial.mkdirs()
        self._fail_after = fail_after_partitions
        self._commits_this_run = 0

    # -- resume ------------------------------------------------------------
    def load_partitions(self) -> dict[str, PartitionRecord]:
        records: dict[str, PartitionRecord] = {}
        for p in self.partial.list_files(suffix=".json"):
            try:
                data = json.loads(self.partial.read_bytes_abs(p))
                rec = PartitionRecord(**data)
            except (json.JSONDecodeError, TypeError, UnicodeDecodeError):
                continue  # torn write (non-atomic PUT) — treated as absent
            records[rec.key()] = rec
        return records

    def is_done(self, stage: str, partition_id: str, input_fingerprint: str) -> bool:
        rec = self.load_partitions().get(f"{stage}--{partition_id}")
        if rec is None or rec.status != "done":
            return False
        if rec.input_fingerprint != input_fingerprint:
            return False
        return all(self.store.exists_abs(f) for f in rec.output_files)

    def delete_partition(self, key: str) -> None:
        """Drop a committed record (full-rebuild invalidation of stale
        generations); atomic at the object level."""
        self.partial.delete_file(f"{key}.json")

    # -- commit ------------------------------------------------------------
    def commit_partition(self, record: PartitionRecord) -> None:
        record.committed_at = time.time()
        self.partial.write_json_atomic(
            f"{record.key()}.json", dataclasses.asdict(record)
        )
        self._commits_this_run += 1
        if self._fail_after is not None and self._commits_this_run >= self._fail_after:
            raise InjectedFault(
                f"fault injection: killed after {self._commits_this_run} partition commits"
            )

    # -- finalize ----------------------------------------------------------
    def finalize(
        self,
        config: dict,
        stats: dict,
        extra: dict | None = None,
        *,
        keep_manifests: int | None = None,
    ) -> dict:
        """Commit a new snapshot (pointer-swap) and prune old ones.

        Snapshot history: each commit writes
        ``manifest-<seq:08d>-<nonce>.json`` with a monotonically increasing
        ``seq``; the newest ``keep_manifests`` objects are RETAINED (they
        are tiny JSON) so readers can pin a previous snapshot
        (:func:`list_manifests` / ``load_manifest(at=...)`` /
        ``Searcher(manifest_name=...)``) — time-travel across incremental
        generations, which only ADD data files.  Compaction/purge rewrites
        data files, so snapshots older than the last compaction are listed
        but may no longer open.  ``keep_manifests`` defaults to the build
        config's ``manifest_history`` (or 3).
        """
        partitions = [dataclasses.asdict(r) for r in self.load_partitions().values()]
        partitions.sort(key=lambda r: (r["stage"], r["partition_id"]))
        keep = keep_manifests
        if keep is None:
            try:
                keep = int((config or {}).get("manifest_history") or 0)
            except (TypeError, ValueError):
                keep = 0
            keep = keep or HISTORY_KEEP_DEFAULT
        keep = max(1, keep)
        seq = self._next_seq()
        manifest = {
            "format_version": INDEX_FORMAT_VERSION,
            "snapshot_seq": seq,
            "config": config,
            "stats": stats,
            "partitions": partitions,
            **(extra or {}),
        }
        # pointer-swap commit: full manifest object first, tiny pointer last
        name = f"manifest-{seq:08d}-{uuid.uuid4().hex[:8]}.json"
        self.store.write_json_atomic(name, manifest)
        self.store.write_json_atomic(POINTER_NAME, {"manifest": name, "seq": seq})
        if self.store.atomic_rename:
            # legacy local-fs name, committed by real rename — older readers
            # (and anything probing for manifest.json) keep working
            self.store.write_json_atomic(MANIFEST_NAME, manifest)
        # GC: keep the newest `keep` seq-named snapshots (incl. this one);
        # legacy nonce-only names are always superseded
        names = [f.rsplit("/", 1)[-1] for f in self.store.list_files(suffix=".json")]
        seq_named = sorted(
            (b for b in names if _manifest_seq(b) is not None), reverse=True
        )
        survivors = set(seq_named[:keep]) | {name}
        pruned = [b for b in names if b.startswith("manifest-") and b not in survivors]
        _expire(self.store, pruned, survivors)
        return manifest

    def _next_seq(self) -> int:
        """Monotone snapshot sequence: pointer seq + 1, falling back to a
        scan of existing snapshot names (legacy pointers carry no seq)."""
        if self.store.exists(POINTER_NAME):
            try:
                cur = self.store.read_json(POINTER_NAME)
                return int(cur["seq"]) + 1
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    FileNotFoundError, OSError):
                pass
        best = -1
        for f in self.store.list_files(suffix=".json"):
            s = _manifest_seq(f.rsplit("/", 1)[-1])
            if s is not None and s > best:
                best = s
        return best + 1


def load_manifest(
    index_dir: str | Path | Store, *, filesystem=None, at: str | None = None
) -> dict:
    """Read the committed manifest through the pointer (legacy fallback).

    ``at``: a snapshot object name from :func:`list_manifests` — read that
    snapshot instead of the current pointer (time-travel)."""
    store = Store.resolve(index_dir, filesystem)
    if at is not None:
        return store.read_json(at)
    if store.exists(POINTER_NAME):
        try:
            name = store.read_json(POINTER_NAME)["manifest"]
            return store.read_json(name)
        except (json.JSONDecodeError, KeyError, FileNotFoundError, OSError):
            pass  # torn pointer PUT or racing GC — try the legacy name
    if store.exists(MANIFEST_NAME):
        return store.read_json(MANIFEST_NAME)
    raise FileNotFoundError(
        f"no committed index manifest under {store.path()} "
        "(build incomplete or not finalized)"
    )


def manifest_data_dirs(manifest: dict) -> set[str]:
    """Directories holding data this snapshot references (absolute paths):
    every committed partition's output files plus the doc store."""
    dirs: set[str] = set()
    for p in manifest.get("partitions", []) or []:
        for f in p.get("output_files", []) or []:
            d = str(f).rsplit("/", 1)[0]
            dirs.add(d)
    for f in manifest.get("docs_files", []) or []:
        dirs.add(str(f).rsplit("/", 1)[0])
    return dirs


def _snapshot_dirs(store: Store, names) -> set[str]:
    """Data dirs the named snapshot objects reference (a torn or vanished
    object references nothing)."""
    out: set[str] = set()
    for b in names:
        try:
            out |= manifest_data_dirs(store.read_json(b))
        except (json.JSONDecodeError, FileNotFoundError, OSError):
            continue
    return out


def _expire(store: Store, pruned: list[str], survivors: set[str]) -> int:
    """Delete the ``pruned`` snapshot objects and the data dirs only they
    reference; returns the number of dirs swept."""
    # data outlives its snapshot exactly as long as a retained snapshot
    # still references it.  Refs are computed BEFORE the snapshot objects
    # go; a kill mid-sweep leaks unreferenced dirs (bounded by one expiry
    # round), never breaks a retained snapshot.
    pruned_dirs = _snapshot_dirs(store, pruned)
    keep_dirs = _snapshot_dirs(store, survivors) if pruned_dirs else set()
    for b in pruned:
        store.delete_file(b)
    swept = sorted(d for d in pruned_dirs - keep_dirs if d != store.base)
    for d in swept:
        store.delete_dir_abs(d)
    return len(swept)


def protected_data_dirs(
    store: Store, *, exclude_current: bool = False
) -> set[str]:
    """Data directories referenced by ANY retained snapshot.

    Build/compaction GC must skip these: superseded attempt dirs and
    generations stay on disk while an older snapshot can still be pinned
    to them, and are swept by ``finalize`` once the last referencing
    snapshot expires from history.  Unreadable snapshot objects protect
    nothing (torn PUT ≡ absent).

    ``exclude_current``: drop the committed pointer target from the set —
    for GC that runs right AFTER a commit and must reason about the live
    manifest's files itself (compaction: the fresh manifest still lists
    superseded generation records until the partition-list refresh, so
    protecting the current snapshot would protect the very generations
    being collected)."""
    names = [
        e["name"]
        for e in list_manifests(store)
        if not (exclude_current and e["current"])
    ]
    return _snapshot_dirs(store, names)


def expire_snapshots(
    index_dir: str | Path | Store,
    *,
    keep: int = 1,
    filesystem=None,
) -> dict:
    """Admin expiry: prune retained snapshots down to the newest ``keep``
    (the committed pointer target always survives) and sweep data
    directories only the expired snapshots referenced — the standalone
    form of the GC ``finalize`` performs on every commit, for reclaiming
    time-travel storage without writing a new snapshot.

    Returns ``{"expired": [names], "swept_dirs": n, "kept": [names]}``.
    """
    store = Store.resolve(index_dir, filesystem)
    keep = max(1, int(keep))
    hist = list_manifests(store)
    if not hist:
        return {"expired": [], "swept_dirs": 0, "kept": []}
    current = [e for e in hist if e["current"]]
    ordered = sorted(hist, key=lambda e: e["seq"], reverse=True)
    survivors = {e["name"] for e in ordered[:keep]} | {
        e["name"] for e in current
    }
    pruned = [e["name"] for e in hist if e["name"] not in survivors]
    swept = _expire(store, pruned, survivors)
    return {
        "expired": sorted(pruned),
        "swept_dirs": swept,
        "kept": sorted(survivors),
    }


def list_manifests(
    index_dir: str | Path | Store, *, filesystem=None
) -> list[dict]:
    """Retained snapshots, oldest → newest: ``{name, seq, current}``.

    The newest entry is the committed pointer target; older entries are
    readable through ``load_manifest(at=name)`` /
    ``Searcher(manifest_name=name)`` as long as the data files they
    reference survive (incremental generations only add files; compaction
    and purge rewrite them, invalidating pre-compaction snapshots)."""
    store = Store.resolve(index_dir, filesystem)
    current = None
    if store.exists(POINTER_NAME):
        try:
            current = store.read_json(POINTER_NAME)["manifest"]
        except (json.JSONDecodeError, KeyError, FileNotFoundError, OSError):
            current = None
    out = []
    for f in store.list_files(suffix=".json"):
        base = f.rsplit("/", 1)[-1]
        seq = _manifest_seq(base)
        if seq is not None:
            out.append({"name": base, "seq": seq, "current": base == current})
    out.sort(key=lambda e: e["seq"])
    return out


def manifest_exists(index_dir: str | Path | Store, *, filesystem=None) -> bool:
    store = Store.resolve(index_dir, filesystem)
    return store.exists(POINTER_NAME) or store.exists(MANIFEST_NAME)
