"""Document deletion without rebuild: a tombstone ledger + physical purge.

The reference deletes documents by removing their files from disk and
re-running the (incremental) build (``vexor/cache.py:691-1009`` deletes
removed rel_paths inside the update transaction).  At 100 TB that shape —
edit the source, re-tokenize — is exactly what a takedown / PII-removal
request cannot afford, so this module provides the index-side analogue:

- :func:`delete_docs` records urls in a permanent **ledger** and resolves
  them to a **tombstone** set ``(doc_id, doc_len)`` against the current
  docs checkpoint, committed by the same manifest pointer-swap protocol as
  every other index mutation (single writer, object-store safe, a kill
  leaves the previous state fully readable).
- The query layer (``query/searcher.py``) masks tombstoned postings at
  decode and scores under the LIVE statistics ``N' = N - n_deleted`` and
  ``avgdl' = (total_len - deleted_len) / N'``, so results are rank- and
  score-identical to a fresh build over the complement corpus.  Exact
  bit-parity holds because both sides compute ``total_len'/N'`` from the
  same integers and accumulate live contributions in the same
  docID-ascending per-term order.
- :func:`purge_deletes` makes the deletion physical: docs_tok checkpoint
  files containing tombstoned rows are rewritten without them (attempt-dir
  protocol; the pre-purge files are PINNED via the partition record until
  the post-purge manifest commits), the docs/global stats record is
  recomputed, and a compaction rebuilds every wave from the purged
  checkpoint.  After the purge the deleted documents' text/urls/postings
  are gone from disk (the takedown guarantee), the tombstone set resolves
  to empty, and the WAND / impact scorers are available again.

The **ledger is permanent**: ``build_index`` re-reads it on every run,
filters ledger urls out of any group it (re-)tokenizes, and re-resolves
the tombstone set against the final checkpoint — so a deleted url can
never resurrect through an incremental update, a compaction, or a
streaming append, and the tombstone set always describes exactly the
deleted docs still physically present.  The ledger is takedown-sized by
assumption (it broadcasts into tokenize tasks and rewrites whole per
call); bulk corpus subsetting belongs in the source pipeline, not here.
"""

from __future__ import annotations

import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .manifest import BuildManifest, load_manifest
from .storage import Store

DELETES_DIR = "_deletes"

# manifest keys that finalize() regenerates itself — everything else in a
# committed manifest is carried through a re-finalize untouched
_FINALIZE_OWNED = ("format_version", "config", "stats", "partitions")


def _extra_from(man: dict) -> dict:
    return {k: man[k] for k in man if k not in _FINALIZE_OWNED}


def read_ledger(store: Store, deletes: dict | None) -> list[str]:
    """The permanent deleted-urls ledger (sorted, unique); [] when absent."""
    if not deletes or not deletes.get("ledger"):
        return []
    tbl = pq.read_table(
        store.path(DELETES_DIR, deletes["ledger"]), filesystem=store.fs
    )
    return tbl.column("url").to_pylist()


def resolve_ledger(store: Store, docs_files: list[str], urls: list[str]) -> pa.Table:
    """Tombstone resolution: ``(doc_id, doc_len)`` of every ledger url still
    physically present in the docs checkpoint, docID-ascending.

    One column-pruned scan of the checkpoint (url + doc_id + doc_len only);
    the ledger is takedown-sized, so the ``is_in`` value set broadcasts.
    """
    if not urls or not docs_files:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.uint64()),
                "doc_len": pa.array([], type=pa.uint64()),
            }
        )
    import pyarrow.dataset as pads

    ds = pads.dataset(docs_files, filesystem=store.fs)
    tbl = ds.to_table(
        columns=["doc_id", "doc_len"],
        filter=pc.field("url").isin(pa.array(sorted(set(urls)), type=pa.string())),
    )
    tbl = tbl.sort_by("doc_id")
    return pa.table(
        {
            "doc_id": pc.cast(tbl.column("doc_id"), pa.uint64()),
            "doc_len": pc.cast(tbl.column("doc_len"), pa.uint64()),
        }
    )


def _deletes_entry(ledger_name: str, n_urls: int, tomb: pa.Table, tomb_name):
    return {
        "ledger": ledger_name,
        "tomb": tomb_name,
        "n_urls": n_urls,
        "n_deleted": int(tomb.num_rows),
        "deleted_total_len": int(pc.sum(tomb.column("doc_len")).as_py() or 0),
    }


def refresh_resolution(
    store: Store, prior_deletes: dict, docs_files: list[str], urls: list[str]
) -> dict:
    """Re-resolve the (unchanged) ledger against a rebuilt docs checkpoint.

    Used by ``build_index`` at finalize: after an incremental update,
    compaction, or purge the checkpoint may have gained/lost ledger urls;
    the new tombstone object reflects exactly the deleted docs still
    physically present (possibly none).  The ledger object is reused."""
    sub = store.sub(DELETES_DIR)
    sub.mkdirs()
    tomb = resolve_ledger(store, docs_files, urls)
    tomb_name = None
    if tomb.num_rows:
        tomb_name = f"tomb-{uuid.uuid4().hex[:8]}.parquet"
        sub.write_table(tomb, tomb_name)
    return _deletes_entry(prior_deletes["ledger"], len(urls), tomb, tomb_name)


def gc_delete_objects(store: Store, deletes: dict) -> None:
    """Drop superseded ledger/tomb objects (call only AFTER the manifest
    referencing ``deletes`` has committed).

    Ledger/tomb objects referenced by RETAINED snapshots survive too, so a
    snapshot-pinned reader keeps its deletion view (they expire with their
    snapshots at the next commit's GC pass)."""
    from .manifest import list_manifests, load_manifest as _load

    sub = store.sub(DELETES_DIR)
    keep = {deletes.get("ledger"), deletes.get("tomb")}
    for e in list_manifests(store):
        try:
            d = _load(store, at=e["name"]).get("deletes") or {}
        except (FileNotFoundError, OSError, ValueError):
            continue
        keep.add(d.get("ledger"))
        keep.add(d.get("tomb"))
    for f in sub.list_files(suffix=".parquet"):
        base = f.rsplit("/", 1)[-1]
        if base not in keep:
            sub.delete_file(base)


def delete_docs(
    index_dir: str | Path | Store, urls: list[str], *, filesystem=None
) -> dict:
    """Delete documents (by url) from a committed index — no rebuild.

    Idempotent and cumulative: urls join a permanent ledger; re-deleting an
    already-deleted (or never-indexed) url is a no-op.  Queries through
    :class:`~vexor_ray.query.searcher.Searcher` immediately exclude the
    documents and score the remainder exactly as a fresh build over the
    complement corpus would (the exact scorer masks tombstoned postings at
    decode and applies live ``doc_count`` / ``avg_doc_len`` / ``df``).
    WAND / impact scorers require a physical index and raise until
    :func:`purge_deletes` (or any compaction) makes the deletion physical.

    Returns the committed ``deletes`` manifest entry.
    """
    store = Store.resolve(index_dir, filesystem)
    man = load_manifest(store)
    sub = store.sub(DELETES_DIR)
    sub.mkdirs()
    all_urls = sorted(set(urls) | set(read_ledger(store, man.get("deletes"))))
    nonce = uuid.uuid4().hex[:8]
    ledger_name = f"ledger-{nonce}.parquet"
    sub.write_table(
        pa.table({"url": pa.array(all_urls, type=pa.string())}), ledger_name
    )
    tomb = resolve_ledger(store, man.get("docs_files", []), all_urls)
    tomb_name = None
    if tomb.num_rows:
        tomb_name = f"tomb-{nonce}.parquet"
        sub.write_table(tomb, tomb_name)
    deletes = _deletes_entry(ledger_name, len(all_urls), tomb, tomb_name)
    BuildManifest(store).finalize(
        config=man["config"],
        stats=man["stats"],
        extra={**_extra_from(man), "deletes": deletes},
    )
    gc_delete_objects(store, deletes)  # only after the pointer swap
    return deletes


def load_tombstones(store: Store, deletes: dict | None) -> np.ndarray | None:
    """Sorted uint64 tombstoned docIDs, or None when there are none."""
    if not deletes or not deletes.get("tomb") or not deletes.get("n_deleted"):
        return None
    tbl = pq.read_table(
        store.path(DELETES_DIR, deletes["tomb"]),
        filesystem=store.fs,
        columns=["doc_id"],
    )
    ids = tbl.column("doc_id").to_numpy().astype(np.uint64)
    ids.sort()
    return ids


# --------------------------------------------------------------------------
# physical purge
# --------------------------------------------------------------------------


def _file_intersects(path: str, tomb: np.ndarray, fs) -> bool:
    """docID-range intersection from parquet row-group statistics — a file
    with no tombstoned range is left untouched (takedowns are rare, purge
    cost is O(affected files), not O(corpus))."""
    from .build import _open_pq

    md = _open_pq(path, fs).metadata
    col = next(
        i for i in range(md.num_columns) if md.schema.column(i).name == "doc_id"
    )
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(col).statistics
        if st is None or not st.has_min_max:
            return True  # no stats: conservatively rewrite
        lo = int(np.searchsorted(tomb, np.uint64(st.min), side="left"))
        if lo < tomb.size and int(tomb[lo]) <= int(st.max):
            return True
    return False


def _dir_is_empty(store: Store, d: str) -> bool:
    import pyarrow.fs as pafs

    try:
        infos = store.fs.get_file_info(pafs.FileSelector(d, recursive=False))
    except (FileNotFoundError, OSError):
        return False
    return not infos


def _finish_purge_gc(store: Store, manifest: BuildManifest) -> None:
    """Complete (or resume) the post-commit cleanup of a purge: delete the
    pre-purge checkpoint files a record still lists for GC, then unpin.

    Only runs for files the CURRENT manifest no longer references — an
    interrupted purge (crash before its compaction committed) keeps its old
    files pinned and readable; rerunning :func:`purge_deletes` finishes it.
    """
    try:
        referenced = set(load_manifest(store).get("docs_files", []))
    except FileNotFoundError:
        return
    for key, rec in manifest.load_partitions().items():
        gc_files = rec.lineage.get("purge_gc_files")
        if not gc_files:
            continue
        if any(f in referenced for f in gc_files):
            continue  # purge not committed yet — files still live
        for f in gc_files:
            store.delete_file_abs(f)
        for d in rec.lineage.get("pinned_dirs", []):
            if _dir_is_empty(store, d):
                store.delete_dir_abs(d)
        rec.lineage.pop("purge_gc_files", None)
        rec.lineage.pop("pinned_dirs", None)
        manifest.commit_partition(rec)


def purge_deletes(
    source,
    index_dir: str | Path | Store,
    cfg=None,
    *,
    filesystem=None,
    source_filesystem=None,
) -> dict:
    """Physically remove tombstoned documents from the index.

    1. Every docs_tok checkpoint file whose docID range intersects the
       tombstone set is rewritten without the deleted rows into a fresh
       attempt dir; the group record re-commits with the new file list,
       the old files PINNED (``lineage.pinned_dirs`` / ``purge_gc_files``)
       so the still-committed pre-purge manifest stays readable through
       any crash.
       The group records keep their input fingerprints — the SOURCE did
       not change, so later incremental builds still skip these groups and
       reuse the purged checkpoint.
    2. :func:`~vexor_ray.index.build.compact_index` recomputes the corpus
       stats (their fingerprint covers the checkpoint files) and rebuilds
       every wave from the purged checkpoint into full generations under
       the new ``avg_doc_len``; its final ledger re-resolution finds no
       surviving deleted docs, clearing the tombstone set (the ledger itself stays,
       blocking resurrection).  Only after that manifest commits are the
       pinned pre-purge files deleted (idempotent — a kill mid-cleanup is
       finished by the next purge call).

    Returns the final manifest dict.
    """
    from .build import _column_sum, _parquet_rows, compact_index
    from .storage import attempt_dir

    store = Store.resolve(index_dir, filesystem)
    manifest = BuildManifest(store)
    _finish_purge_gc(store, manifest)  # resume an interrupted cleanup
    man = load_manifest(store)
    tomb = load_tombstones(store, man.get("deletes"))
    if tomb is None:
        return compact_index(
            source, store, cfg, source_filesystem=source_filesystem
        )

    parts = manifest.load_partitions()
    for key in sorted(parts):
        rec = parts[key]
        if rec.stage != "docs_tok":
            continue
        affected = [
            f for f in rec.output_files if _file_intersects(f, tomb, store.fs)
        ]
        if not affected:
            continue
        kept = [f for f in rec.output_files if f not in set(affected)]
        dirname = attempt_dir(rec.partition_id)
        store.mkdirs("docs_tok", dirname)
        new_files = list(kept)
        for f in affected:
            tbl = pq.read_table(f, filesystem=store.fs)
            ids = tbl.column("doc_id").to_numpy().astype(np.uint64)
            pos = np.searchsorted(tomb, ids)
            pos[pos >= tomb.size] = tomb.size - 1
            live = tomb[pos] != ids
            out = tbl.filter(pa.array(live))
            dest = f"{store.path('docs_tok', dirname)}/{f.rsplit('/', 1)[-1]}"
            pq.write_table(out, dest, filesystem=store.fs)
            new_files.append(dest)
        new_files.sort()
        new_dirs = {f.rsplit("/", 1)[0] for f in new_files}
        rec.output_files = new_files
        rec.metrics["rows_out"] = _parquet_rows(new_files, store.fs)
        rec.metrics["tokens"] = _column_sum(new_files, "doc_len", store.fs)
        rec.lineage["purged"] = True
        rec.lineage["purge_gc_files"] = affected
        rec.lineage["pinned_dirs"] = sorted(
            {f.rsplit("/", 1)[0] for f in affected} - new_dirs
        )
        manifest.commit_partition(rec)

    # compaction recomputes the stats and rebuilds every wave from the
    # purged checkpoint; its final ledger re-resolution clears the
    # tombstone set (ledger preserved)
    result = compact_index(source, store, cfg, source_filesystem=source_filesystem)
    _finish_purge_gc(store, manifest)
    return result
