"""Vacuum: remove orphaned attempt directories a crash left behind.

Every write in the index protocol goes to a fresh ``<pid>--<nonce>/``
attempt directory and becomes visible only when a partition record (and
ultimately a snapshot) references it — so a kill at any point can leak an
unreferenced directory, and the finalize-time expiry sweep documents one
bounded leak window of its own.  Orphans are invisible to readers and
harmless, but at object-store prices they are money; vacuum deletes them.

Safety:

- a directory is kept if ANY retained snapshot references it
  (``manifest.protected_data_dirs``) or any committed PARTITION RECORD
  does (a crashed build's committed-but-not-finalized work — resume will
  reuse it);
- an age guard (``min_age_s``, default 1 h) keeps vacuum from racing an
  in-flight build's attempt directory that simply has not committed yet;
  age is the newest mtime inside the directory;
- ``dry_run`` lists without deleting.  Deletion order is arbitrary —
  orphans are unreferenced by definition, so a kill mid-vacuum just
  leaves fewer orphans.
"""

from __future__ import annotations

import time

from .manifest import BuildManifest, protected_data_dirs
from .storage import Store

# BM25 index data dirs, then the positions sidecar's (index/positions.py)
DATA_PARENTS = ("docs_tok", "segments", "termdict", "pos_tok", "positions")


def _newest_mtime(store: Store, parent: str, name: str) -> float | None:
    infos = store.listdir(parent, name)
    best = None
    for i in infos:
        ts = i.mtime.timestamp() if i.mtime is not None else None
        if ts is not None and (best is None or ts > best):
            best = ts
    if best is not None:
        return best
    info = store._info(store.path(parent, name))
    return info.mtime.timestamp() if info.mtime is not None else None


def vacuum_index(
    index_dir,
    *,
    min_age_s: float = 3600.0,
    filesystem=None,
    dry_run: bool = False,
) -> dict:
    """Delete unreferenced attempt dirs older than ``min_age_s``.

    Returns ``{"deleted": [...], "kept_referenced": n, "kept_young": n}``.
    """
    store = Store.resolve(index_dir, filesystem)
    referenced = protected_data_dirs(store)
    for rec in BuildManifest(store).load_partitions().values():
        for f in rec.output_files:
            referenced.add(str(f).rsplit("/", 1)[0])
        for d in rec.lineage.get("pinned_dirs", []) or []:
            referenced.add(str(d))
    now = time.time()
    deleted: list[str] = []
    kept_ref = kept_young = 0
    for parent in DATA_PARENTS:
        for name in store.subdirs(parent):
            full = store.path(parent, name)
            if full in referenced:
                kept_ref += 1
                continue
            age = _newest_mtime(store, parent, name)
            if age is None or (now - age) < min_age_s:
                kept_young += 1
                continue
            if not dry_run:
                store.delete_dir(parent, name)
            deleted.append(full)
    return {
        "deleted": sorted(deleted),
        "kept_referenced": kept_ref,
        "kept_young": kept_young,
        "dry_run": dry_run,
    }
