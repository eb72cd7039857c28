"""Ray-Data-native inverted-index build (SPIMI-style, checkpointed).

Pipeline (SURVEY.md §3 "our lifecycle"):

``row-group fragment plan (docIDs from lineage: file_idx << 32 | row) →
map_batches(read + extract) → map_batches(TokenizeDocs actor pool) →
[checkpoint: docs_tok per shard group — this IS the docs table] → global
stats → per term-hash wave: explode postings → (term, salt) shuffle →
vectorized run encoder → [checkpoint: segments/wave-N] → finalize manifest``.

Scale design:

- docID assignment is shuffle-free (``stages/docids.py``): the only
  all-to-all in the whole build is the posting exchange, keyed by
  ``(term, salt)`` where ``salt = doc_id >> salt_shift`` bounds any single
  key group to one doc-range regardless of Zipfian term skew (hot-term
  salting);
- stage 2's shuffle is split into ``num_waves`` independent term-hash waves,
  each committed separately → a killed build resumes at wave granularity and
  the peak shuffle footprint is 1/W of the postings;
- every stage writes into a fresh attempt directory and commits a partition
  record (lineage + metrics) whose file list IS the visibility boundary —
  no directory rename, so the same protocol runs on object stores
  (``manifest.py`` / ``storage.py``; all IO goes through ``pyarrow.fs``);
- tokenization runs exactly once per doc; corpus stats (doc_count,
  avg_doc_len) are exact global aggregates read from the docs checkpoint's
  columnar metadata, not a second pass over text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..hashing import TERM_HASHER_ID, file_fingerprint, hash_terms
from ..spec import (
    BM25_B,
    BM25_K1,
    DEFAULT_NUM_WAVES,
    DEFAULT_SALT_SHIFT,
    FULL_CHAR_LIMIT,
    POSTING_BLOCK_SIZE,
    TOKEN_PATTERN,
)
from ..stages.docids import read_with_doc_ids
from ..stages.extract import make_extract_fn
from ..stages.tokenize import TokenizeDocs
from . import codec
from .deletes import gc_delete_objects, read_ledger, refresh_resolution
from .manifest import (
    BuildManifest,
    PartitionRecord,
    load_manifest,
    protected_data_dirs,
)
from .storage import Store, attempt_dir, attempt_pid, gc_stale_attempts


@dataclass
class BuildConfig:
    k1: float = BM25_K1
    b: float = BM25_B
    char_limit: int = FULL_CHAR_LIMIT
    pre_extracted: bool = False  # input already has a text column (no html)
    text_only: bool = False  # lexical doc = text alone (no url prefix)
    doc_builder: str = "url_text"  # url_text | text | head (stages/tokenize.py)
    token_pattern: str = TOKEN_PATTERN
    tokenizer: str = "regex"  # regex | bert_union | bpe (stages/berttok.py)
    # learned BPE merge list for tokenizer="bpe" (functions/bpe.py::bpe_train);
    # JSON-safe, recorded in the manifest so query tokenization matches
    bpe_merges: list | None = None
    # analyzer-chain stopword list (JSON-safe): dropped at tokenize time
    # AND at query time (the manifest carries it, so query tokenization
    # always matches the build) — doc lengths/stats see the filtered stream
    stop_words: list | None = None
    embed_dim: int = 0  # > 0 → store a dense hash-embedding column per doc
    # word_mix (unigrams ∪ bigrams) is the measured-best featurizer: eval
    # MRR@10 0.93 vs 0.29 for pure word bigrams at the same dim budget
    # (BASELINE.md sweep); pair with embed_dim >= 2048 for retrieval use
    embed_mode: str = "word_mix"
    # network embedding provider spec (providers.make_provider) — when set,
    # the dense column comes from the provider instead of the hash
    # featurizer; one provider per tokenizer ACTOR (the reference's
    # per-backend persistent client+thread-pool, vexor/providers/openai.py).
    # JSON-safe and secret-free (api keys named by env var, never stored).
    embed_provider: dict | None = None
    block_size: int = POSTING_BLOCK_SIZE
    salt_shift: int = DEFAULT_SALT_SHIFT
    num_waves: int = DEFAULT_NUM_WAVES
    # emit_positions → the docs_tok checkpoint carries a ``poss`` column
    # (1-based positions per distinct term), so the positions sidecar can
    # be built from this ONE tokenize pass
    # (positions.build_positions_from_index) instead of re-extracting and
    # re-tokenizing the corpus.
    emit_positions: bool = False
    partitions_per_wave: int = 8
    # "sort": range-partitioned sort by (term, salt) — robust, skew splits
    #   into multiple chunks per key which the query layer merges;
    # "hash": hash-partition repartition(keys=...) with capped aggregator
    #   actors — the classic term-partitioned exchange.
    shuffle_backend: str = "sort"
    shard_group_size: int = 8
    tokenize_batch_size: int = 1024
    tokenize_concurrency: int = 4
    # Store the impact-ordered companion layout next to each posting chunk
    # (codec.encode_impact) enabling the Threshold-Algorithm scorer
    # (query/impact.py) — exact early termination for cold selective
    # queries.  Opt-in: it roughly doubles segment bytes, the wrong default
    # at 100 TB unless the serving workload needs the cold-selective tail.
    impact_postings: bool = False
    # snapshot retention: finalize() keeps this many committed manifest
    # objects so readers can pin previous snapshots (time-travel across
    # incremental generations — index/manifest.py::list_manifests).
    # Retention policy, not index content: excluded from the rebuild
    # fingerprint.
    manifest_history: int = 3
    fail_after_partitions: int | None = None  # fault injection for resume tests

    def public_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("fail_after_partitions")
        d["term_hasher"] = TERM_HASHER_ID
        return d


# --------------------------------------------------------------------------
# stage 3 batch functions (module-level so Ray can serialize them cheaply)
# --------------------------------------------------------------------------


def term_hashes(
    flat_terms: pa.Array, num_waves: int, wave: int | None
) -> tuple[np.ndarray, pa.Array | None]:
    """Per-posting term hashes + the mask of rows in term-hash ``wave``
    (None: every row is kept)."""
    # th = deterministic uint64 term hash: the shuffle/sort key (uint64
    # compares are ~an order of magnitude cheaper than term strings) and the
    # query layer's row-group pruning key; also routes waves (th % W).
    # ALL per-term math happens in dictionary space (Zipfian streams have
    # ~1% uniques): hash + wave-membership once per distinct term, then two
    # cheap gathers — measured ~30× less hashing work than per-posting.
    de = pc.dictionary_encode(flat_terms)
    uniq = np.asarray(de.dictionary.to_numpy(zero_copy_only=False), dtype=object)
    hu = hash_terms(uniq)
    idx = de.indices.to_numpy()
    # int64 view for the gather: numpy fancy-indexing a uint64 table takes a
    # pathologically slow path on this platform (measured ~45×)
    th = hu.view(np.int64)[idx].view(np.uint64)
    if wave is None or num_waves <= 1:
        return th, None
    return th, pa.array(((hu % np.uint64(num_waves)) == np.uint64(wave))[idx])


def explode_postings(
    batch: pa.Table,
    *,
    salt_shift: int,
    num_waves: int,
    wave: int | None,
) -> pa.Table:
    """(doc_id, doc_len, terms, tfs) → flat (term, salt, doc_id, tf, dl) rows.

    Arrow list-flatten (zero per-row Python); ``wave`` keeps only the rows of
    that term-hash wave (None: every row).
    """
    batch = batch.combine_chunks()
    if batch.num_rows == 0:
        return pa.table(
            {
                "th": pa.array([], type=pa.uint64()),
                "term": pa.array([], type=pa.string()),
                "salt": pa.array([], type=pa.uint64()),
                "doc_id": pa.array([], type=pa.uint64()),
                "tf": pa.array([], type=pa.uint32()),
                "dl": pa.array([], type=pa.uint32()),
            }
        )
    terms_list = batch.column("terms")
    flat_terms = pc.list_flatten(terms_list)
    parent = pc.list_parent_indices(terms_list)
    doc_ids = pc.take(batch.column("doc_id"), parent)
    dls = pc.take(batch.column("doc_len"), parent)
    tfs = pc.list_flatten(batch.column("tfs"))

    if isinstance(flat_terms, pa.ChunkedArray):
        flat_terms = flat_terms.combine_chunks()
    th, keep = term_hashes(flat_terms, num_waves, wave)
    out = pa.table(
        {
            "th": pa.array(th, type=pa.uint64()),
            "term": flat_terms,
            "salt": pc.shift_right(
                pc.cast(doc_ids, pa.uint64()), pa.scalar(salt_shift, pa.uint64())
            ),
            "doc_id": pc.cast(doc_ids, pa.uint64()),
            "tf": pc.cast(tfs, pa.uint32()),
            "dl": pc.cast(dls, pa.uint32()),
        }
    )
    return out if keep is None else out.filter(keep)


_CHUNK_SCHEMA = pa.schema(
    [
        ("th", pa.uint64()),
        ("term", pa.string()),
        ("salt", pa.uint64()),
        ("n_postings", pa.uint64()),
        ("doc_blob", pa.large_binary()),
        ("tf_blob", pa.large_binary()),
        ("dl_blob", pa.large_binary()),
        ("doc_off", pa.list_(pa.uint32())),
        ("tf_off", pa.list_(pa.uint32())),
        ("dl_off", pa.list_(pa.uint32())),
        ("block_last", pa.list_(pa.uint64())),
        ("block_ub", pa.list_(pa.float32())),
    ]
)

# companion impact-ordered layout (BuildConfig.impact_postings): absolute
# docIDs/tfs/dls varint-coded in descending idf-free-component order plus the
# per-block frontier maxima the TA scorer prunes with (codec.encode_impact)
_CHUNK_SCHEMA_IMPACT = pa.schema(
    list(_CHUNK_SCHEMA)
    + [
        pa.field("imp_doc_blob", pa.large_binary()),
        pa.field("imp_tf_blob", pa.large_binary()),
        pa.field("imp_dl_blob", pa.large_binary()),
        pa.field("imp_doc_off", pa.list_(pa.uint32())),
        pa.field("imp_tf_off", pa.list_(pa.uint32())),
        pa.field("imp_dl_off", pa.list_(pa.uint32())),
        pa.field("imp_cmax", pa.list_(pa.float32())),
    ]
)


def _offsets_list_array(
    values: np.ndarray, list_offsets: np.ndarray, value_type: pa.DataType
) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(list_offsets, type=pa.int32()), pa.array(values, type=value_type)
    )


def _run_relative_offsets(
    byte_off: np.ndarray,
    run_starts: np.ndarray,
    block_starts: np.ndarray,
    block_run: np.ndarray,
    blocks_per_run: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-run ``n_blocks+1`` byte-offset lists (relative to the run start)."""
    n_runs = run_starts.size
    run_bounds = np.concatenate([run_starts, [n]])
    run_byte_start = byte_off[run_starts]
    list_off = np.zeros(n_runs + 1, dtype=np.int64)
    np.cumsum(blocks_per_run + 1, out=list_off[1:])
    blk_within = np.arange(block_starts.size) - np.repeat(
        np.concatenate([[0], np.cumsum(blocks_per_run)[:-1]]), blocks_per_run
    )
    values = np.zeros(int(list_off[-1]), dtype=np.uint32)
    values[list_off[block_run] + blk_within] = (
        byte_off[block_starts] - run_byte_start[block_run]
    ).astype(np.uint32)
    values[list_off[1:] - 1] = (byte_off[run_bounds[1:]] - run_byte_start).astype(
        np.uint32
    )
    return values, list_off


def key_runs(batch: pa.Table) -> tuple:
    """Run structure of a (th, salt)-sorted block:
    ``(term_arr, ths, salts, run_starts, run_lengths, run_ids)``."""
    # the term column stays an ARROW array end to end: materializing ~1M
    # Python str objects per call was the encoder's steady-state fault
    # source (pymalloc returns emptied 256 KB arenas to the OS via munmap,
    # so every call re-faulted ~50 MB of arena pages — measured 12.8k minor
    # faults/call, removed by the Arrow-native compare/take below)
    n = batch.num_rows
    term_col = batch.column("term")
    term_arr = term_col.chunk(0) if isinstance(term_col, pa.ChunkedArray) else term_col
    ths = batch.column("th").to_numpy()
    salts = batch.column("salt").to_numpy()
    # run boundaries: the term equality test additionally splits hash
    # collisions — colliding terms may interleave, fragmenting into extra
    # chunks, which the query layer merges
    change = (
        (ths[1:] != ths[:-1])
        | (salts[1:] != salts[:-1])
        | pc.not_equal(
            term_arr.slice(1), term_arr.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
    )
    run_starts = np.concatenate([[0], np.flatnonzero(change) + 1]).astype(np.int64)
    run_lengths = np.diff(np.concatenate([run_starts, [n]]))
    run_ids = np.repeat(np.arange(run_starts.size), run_lengths)
    return term_arr, ths, salts, run_starts, run_lengths, run_ids


def run_key_columns(term_arr, ths, salts, run_starts, run_lengths) -> dict:
    """The (th, term, salt, n_postings) key columns, one row per run."""
    return {
        "th": pa.array(ths[run_starts].astype(np.uint64), type=pa.uint64()),
        "term": term_arr.take(pa.array(run_starts, type=pa.int64())),
        "salt": pa.array(salts[run_starts].astype(np.uint64), type=pa.uint64()),
        "n_postings": pa.array(run_lengths.astype(np.uint64), type=pa.uint64()),
    }


def run_blobs(buf, byte_off: np.ndarray, elem_bounds: np.ndarray) -> pa.Array:
    """One LargeBinary per run, sliced out of one encoded buffer by the byte
    offsets of the runs' element bounds (n_runs + 1)."""
    bounds = byte_off[elem_bounds]
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        bounds.size - 1,
        [None, pa.py_buffer(bounds.tobytes()), pa.py_buffer(buf)],
    )


def varint_byte_offsets(stream: np.ndarray) -> tuple:
    """ONE varint pass: (buffer, per-element byte offsets, length n + 1)."""
    buf, sizes = codec.varint_encode_with_sizes(stream)
    byte_off = np.zeros(stream.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=byte_off[1:])
    return buf, byte_off


def encode_runs(
    batch: pa.Table,
    *,
    avg_doc_len: float,
    block_size: int,
    k1: float,
    b: float,
    impact: bool = False,
) -> pa.Table:
    """Encode complete (term, salt) runs of a hash-partitioned, key-sorted block.

    Fully vectorized: one lexsort orders postings by (run, docID), ONE varint
    pass encodes each of the three streams for the whole block, and the
    per-run blobs / per-block skip + block-max metadata are assembled from
    byte-size prefix sums into Arrow arrays without a per-run Python loop.
    Output format is identical to ``codec.encode_chunk`` (tested against it).
    ``impact=True`` additionally emits the impact-ordered companion streams
    (same vectorized discipline: one extra lexsort + one varint pass each).
    """
    batch = batch.combine_chunks()
    n = batch.num_rows
    schema = _CHUNK_SCHEMA_IMPACT if impact else _CHUNK_SCHEMA
    if n == 0:
        return schema.empty_table()
    term_arr, ths, salts, run_starts, run_lengths, run_ids = key_runs(batch)
    n_runs = run_starts.size
    doc_ids = batch.column("doc_id").to_numpy()
    tfs = batch.column("tf").to_numpy()
    dls = batch.column("dl").to_numpy()

    # docID-ascending within each run (docIDs are unique per run)
    order = np.lexsort((doc_ids, run_ids))
    doc_s = doc_ids[order].astype(np.uint64)
    tf_s = tfs[order].astype(np.uint64)
    dl_s = dls[order].astype(np.uint64)

    deltas = doc_s.copy()
    deltas[1:] -= doc_s[:-1]
    deltas[run_starts] = doc_s[run_starts]

    # block structure: fixed-size blocks within each run
    local_idx = np.arange(n) - np.repeat(run_starts, run_lengths)
    block_starts = np.flatnonzero(local_idx % block_size == 0).astype(np.int64)
    blocks_per_run = (run_lengths + block_size - 1) // block_size
    block_run = np.repeat(np.arange(n_runs), blocks_per_run)
    run_bounds = np.concatenate([run_starts, [n]])
    block_ends = np.minimum(block_starts + block_size, run_bounds[block_run + 1])
    block_last = doc_s[block_ends - 1]

    tf_f = tf_s.astype(np.float64)
    dl_f = dl_s.astype(np.float64)
    comp = tf_f * (k1 + 1.0) / (tf_f + k1 * (1.0 - b + b * dl_f / avg_doc_len))
    block_ub = codec.ub_float32(np.maximum.reduceat(comp, block_starts))

    columns = run_key_columns(term_arr, ths, salts, run_starts, run_lengths)

    # one varint pass per stream; per-run/per-block layout from byte-size
    # prefix sums
    def put_stream(prefix: str, stream: np.ndarray) -> None:
        buf, byte_off = varint_byte_offsets(stream)
        columns[f"{prefix}_blob"] = run_blobs(buf, byte_off, run_bounds)
        values, list_off = _run_relative_offsets(
            byte_off, run_starts, block_starts, block_run, blocks_per_run, n
        )
        columns[f"{prefix}_off"] = _offsets_list_array(values, list_off, pa.uint32())

    for prefix, stream in (("doc", deltas), ("tf", tf_s), ("dl", dl_s)):
        put_stream(prefix, stream)
    blk_list_off = np.zeros(n_runs + 1, dtype=np.int64)
    np.cumsum(blocks_per_run, out=blk_list_off[1:])
    columns["block_last"] = _offsets_list_array(block_last, blk_list_off, pa.uint64())
    columns["block_ub"] = _offsets_list_array(block_ub, blk_list_off, pa.float32())
    if impact:
        # impact permutation: run-major, then component DESC, then docID asc
        # (run_ids is valid for the doc-sorted arrays too: the doc-sort is
        # run-major with unchanged run lengths, so run membership per
        # position is identical).  Block geometry (starts/run mapping) is
        # shared with the docID-ordered layout — same run lengths, same
        # fixed block size — so _run_relative_offsets is reused as-is.
        order_imp = np.lexsort((doc_s, -comp, run_ids))
        for prefix, stream in (("doc", doc_s), ("tf", tf_s), ("dl", dl_s)):
            put_stream(f"imp_{prefix}", stream[order_imp])
        imp_cmax = codec.ub_float32(np.maximum.reduceat(comp[order_imp], block_starts))
        columns["imp_cmax"] = _offsets_list_array(imp_cmax, blk_list_off, pa.float32())
    return pa.table([columns[name] for name in schema.names], schema=schema)


def compact_index(
    source: str | Path | list | Store,
    out_dir: str | Path | Store,
    cfg: "BuildConfig | None" = None,
    *,
    filesystem=None,
    source_filesystem=None,
) -> dict:
    """Merge all delta generations back into a single FULL generation per
    wave, crash-safely.

    Long incremental histories fragment per-term chunk lists (the query
    layer merges per-generation chunks and filters superseded salts on
    every lookup).  Compaction re-runs the posting shuffle over ALL shard
    groups from the — unchanged, therefore skipped — ``docs_tok``
    checkpoint (tokenization is NOT repeated) into a NEW generation marked
    ``full``; results are bit-identical (same postings, same stats).

    Crash-safety protocol: old generations are left on disk until the new
    manifest (which references only the full generation) has atomically
    committed, so the previously committed manifest stays fully readable
    at every instant — a kill at ANY point leaves either the old index or
    the new one, never a manifest pointing at deleted files.  Superseded
    records/dirs are garbage-collected afterwards
    (``gc_superseded_generations``).
    """
    store = Store.resolve(out_dir, filesystem)
    if cfg is None:
        # recover the index's own build config from the committed manifest —
        # compacting with defaults could silently re-tokenize under
        # different settings; recorded keys that are not fields (term_hasher,
        # knobs an earlier version had) are dropped
        recorded = load_manifest(store)["config"]
        fields = {f.name for f in dataclasses.fields(BuildConfig)}
        cfg = BuildConfig(**{k: v for k, v in recorded.items() if k in fields})
    result = build_index(
        source, store, cfg, compact=True, source_filesystem=source_filesystem
    )
    # a superseded generation's paired term dictionary goes with it
    return gc_superseded_generations(store, "segments", paired="termdict") or result


# --------------------------------------------------------------------------
# build driver
# --------------------------------------------------------------------------


# extract map_batches batch size (pages per html-extract call)
EXTRACT_BATCH_SIZE = 256
# max concurrent encode tasks per node: the encoder saturates memory
# bandwidth around 8 tasks; beyond that extra tasks only contend
# (see _encode_task_cpus)
ENCODE_MAX_CONCURRENT = 8


def _encode_task_cpus(max_concurrent: int) -> float:
    """num_cpus for encode tasks so at most ``max_concurrent`` run per node.

    The run encoder is allocation-heavy vectorized C; past ~8 concurrent
    tasks per node the stage is memory-bandwidth / page-fault bound and MORE
    tasks make it SLOWER (measured on this host's cheap-fault mode, 400k
    pages / 27M postings / 64 blocks at a 32-CPU session: 32 concurrent
    9.9-22.4 s, 16 → 5.0-6.6 s, 8 → 2.6-3.7 s).  Reserving
    session_cpus/max_concurrent CPUs per task caps concurrency at the sweet
    spot while leaving the scheduler free to run other stages alongside.
    """
    return max(1.0, int(_session_cpus(max_concurrent)) / max(1, max_concurrent))


def _session_cpus(default: float) -> float:
    import ray

    try:
        return float(ray.cluster_resources().get("CPU", default))
    except Exception:
        return float(default)


def _resolve_source(
    source: str | Path | list | Store, source_filesystem=None
) -> tuple[list[str], "object | None"]:
    """Input parquet file list + the filesystem they live on (None = local)."""
    if isinstance(source, list):
        return sorted(str(f) for f in source), source_filesystem
    if source_filesystem is None and "://" not in str(source) and not isinstance(
        source, Store
    ):
        p = Path(source)  # plain local path: cheap, no Store round-trip
        if p.is_dir():
            return sorted(str(f) for f in p.glob("*.parquet")), None
        return [str(p)], None
    st = Store.resolve(source, source_filesystem)
    import pyarrow.fs as pafs

    info = st.fs.get_file_info(st.base)
    if info.type == pafs.FileType.Directory:
        return st.list_files(suffix=".parquet"), st.fs
    return [st.base], st.fs


def _open_pq(path: str, fs=None) -> pq.ParquetFile:
    return pq.ParquetFile(path if fs is None else fs.open_input_file(path))


def _attempt_dir_write(
    store: Store,
    ds: ray.data.Dataset,
    parent: str,
    pid: str,
    row_group_size: int | None = None,
) -> tuple[list[str], str]:
    """Write a dataset into a fresh ``<pid>--<nonce>/`` attempt directory.

    Returns (parquet file paths, attempt dir name).  Visibility comes from
    committing those paths in the partition record — never from a rename —
    so the identical protocol works on object stores; stale attempts are
    garbage-collected by ``gc_stale_attempts`` after the commit.
    """
    dirname = attempt_dir(pid)
    full = store.path(parent, dirname)
    # an empty dataset writes no files at all — the empty dir still marks
    # the attempt so "built, zero postings" is distinguishable on disk
    store.mkdirs(parent, dirname)
    kwargs = {}
    if row_group_size is not None:
        # small row groups → fine-grained row-group pruning on the query
        # path (a term lookup reads ~row_group_size rows, not a 100k block)
        kwargs["row_group_size"] = row_group_size
    ds.write_parquet(full, filesystem=store.fs, **kwargs)
    return store.list_files(parent, dirname, suffix=".parquet"), dirname


def _record_dirs(rec: PartitionRecord) -> set[str]:
    """Attempt directories referenced by a committed record's file list.

    ``lineage["pinned_dirs"]`` additionally protects directories whose files
    the record no longer lists but the still-committed manifest does — the
    purge protocol (``deletes.purge_deletes``) pins the pre-purge checkpoint
    dirs until the post-purge manifest commits, so a kill at any instant
    leaves the old index fully readable."""
    dirs = {f.rsplit("/", 1)[0] for f in rec.output_files}
    dirs.update(rec.lineage.get("pinned_dirs", []))
    return dirs


def _parquet_rows(files: list[str], fs=None) -> int:
    return sum(_open_pq(f, fs).metadata.num_rows for f in files)


def _th_bounds(files: list[str], fs=None) -> list[list[int]]:
    """Per-file [th_min, th_max] from parquet row-group statistics."""
    out: list[list[int]] = []
    for f in files:
        md = _open_pq(f, fs).metadata
        col = next(
            i for i in range(md.num_columns) if md.schema.column(i).name == "th"
        )
        lo, hi = None, None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col).statistics
            if st is None or not st.has_min_max:
                lo, hi = 0, (1 << 64) - 1
                break
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
        out.append([int(lo or 0), int(hi if hi is not None else (1 << 64) - 1)])
    return out


def _drop_deleted_urls(batch: pa.Table, deleted_urls: list[str]) -> pa.Table:
    """Filter ledger-deleted urls out of a freshly-read source batch.

    Applied to every group being (re-)tokenized when the index carries a
    deletion ledger (``index/deletes.py``), so a takedown can never
    resurrect through an incremental update, compaction, or streaming
    append.  Lineage docIDs were already assigned from source row positions
    upstream, so dropping rows does not shift surviving docIDs."""
    mask = pc.invert(
        pc.is_in(
            batch.column("url"),
            value_set=pa.array(deleted_urls, type=batch.column("url").type),
        )
    )
    return batch.filter(mask)


def _normalize_pre_extracted(batch: pa.Table) -> pa.Table:
    """normalize_text + drop null/empty rows for pre-extracted text inputs."""
    from ..refimpl.textnorm import normalize_text

    texts = batch.column("text").to_pylist()
    keep_idx: list[int] = []
    normed: list[str] = []
    for i, t in enumerate(texts):
        if t is None:
            continue
        t = normalize_text(t)
        if not t:
            continue
        keep_idx.append(i)
        normed.append(t)
    out = batch.take(pa.array(keep_idx, type=pa.int64()))
    col = out.schema.get_field_index("text")
    return out.set_column(col, "text", pa.array(normed, type=pa.large_string()))


def _column_sum(files: list[str], column: str, fs=None) -> int:
    total = 0
    for f in files:
        tbl = pq.read_table(f, columns=[column], filesystem=fs)
        total += pc.sum(tbl.column(column)).as_py() or 0
    return total


def _attempt_names(rec: PartitionRecord) -> set[str]:
    return {d.rsplit("/", 1)[-1] for d in _record_dirs(rec)}


def _is_full(lineage: dict) -> bool:
    # a FULL generation covers every group and supersedes all earlier
    # generations (gen 0 is implicitly full)
    return bool(lineage.get("full") or lineage.get("gen", 0) == 0)


# --------------------------------------------------------------------------
# generation engine: the resumable two-stage protocol of every inverted
# structure (BM25 segments here, the positional sidecar in positions.py)
# --------------------------------------------------------------------------


@dataclass
class ShardGroup:
    """A committed stage-1 checkpoint partition, as stage 2 plans with it."""

    pid: str
    fp: str  # fingerprint of the checkpoint OUTPUT (``checkpoint_group``)
    file_indices: list[int]  # input-file indices: the lineage docID ranges
    files: list[str]


@dataclass
class GenerationPlan:
    wave: int
    gen: int
    full: bool
    groups: list[ShardGroup]  # the groups this generation (re-)indexes
    cfg_fp: str


def group_plan(files: list[str], group_size: int) -> list[tuple]:
    """``(pid, input files, input-file indices)`` of every shard group."""
    return [
        (
            f"group-{i // group_size:05d}",
            files[i : i + group_size],
            list(range(i, min(i + group_size, len(files)))),
        )
        for i in range(0, len(files), group_size)
    ]


def checkpoint_group(rec: PartitionRecord, file_indices: list[int]) -> ShardGroup:
    """Stage-2 view of a stage-1 record."""
    # the fingerprint covers the record's OUTPUT files, not just its source:
    # a purge (index/deletes.py) rewrites checkpoint files without touching
    # the source, and generation planning must notice — otherwise a
    # compacting build would skip "already full" waves whose generations
    # still carry the purged docs' postings
    files = sorted(rec.output_files)
    fp = hashlib.sha1(
        (rec.input_fingerprint + "|" + "|".join(files)).encode()
    ).hexdigest()
    return ShardGroup(rec.partition_id, fp, file_indices, files)


def config_fingerprint(cfg) -> str:
    # generations built under another config are never extended
    d = cfg.public_dict()
    d.pop("manifest_history", None)  # retention policy, not content
    return hashlib.sha1(json.dumps(d, sort_keys=True).encode()).hexdigest()


def tokenize_pool(requested: int, cpus: float) -> dict:
    """``map_batches`` pool kwargs of the tokenize actors in a session of
    ``cpus`` CPUs."""
    # FIXED pool size: an autoscaling (1, N) pool ramps up too slowly to
    # ever reach N within a stage, silently serializing the build.  Clamped
    # below the session CPU count so the read, extract and write tasks
    # (whole-CPU each) keep running alongside the pool.  A session without
    # a CPU to spare (1 CPU) gives the actors only what is left after one
    # CPU: a pool holding the only CPU starves its own input forever.
    pool = max(1, min(requested, int(cpus) - 1))
    if cpus >= pool + 1:
        return {"concurrency": pool}
    return {"concurrency": pool, "num_cpus": max(0.0, cpus - 1) / pool}


def tokenize_groups(
    store: Store,
    manifest: BuildManifest,
    stage: str,
    files: list[str],
    src_fs,
    cfg,
    tok_fp: str,
    tokenizer_kwargs: dict,
    *,
    protect: set[str],
    ledger_urls: list[str] | None = None,
) -> list[ShardGroup]:
    """Stage 1: read + extract + ``TokenizeDocs`` into one checkpoint
    partition per shard group, skipping groups whose record matches the
    source and ``tok_fp``; ``cfg`` supplies group, batch and pool sizes."""
    pool_kw = tokenize_pool(
        cfg.tokenize_concurrency, _session_cpus(cfg.tokenize_concurrency + 1)
    )
    groups: list[ShardGroup] = []
    for pid, group, idxs in group_plan(files, cfg.shard_group_size):
        fp = hashlib.sha1(
            (file_fingerprint(group, src_fs) + tok_fp).encode()
        ).hexdigest()
        if manifest.is_done(stage, pid, fp):
            # sweep attempt dirs a crashed run left before its commit
            rec = manifest.load_partitions()[f"{stage}--{pid}"]
            gc_stale_attempts(store, stage, pid, _attempt_names(rec), protect)
            groups.append(checkpoint_group(rec, idxs))
            continue
        t0 = time.perf_counter()
        read_cols = ["url", "text"] if cfg.pre_extracted else ["url", "html"]
        ds = read_with_doc_ids(group, read_cols, file_indices=idxs, filesystem=src_fs)
        if ledger_urls:
            ds = ds.map_batches(
                _drop_deleted_urls,
                fn_kwargs={"deleted_urls": ledger_urls},
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        if not cfg.pre_extracted:
            ds = ds.map_batches(
                make_extract_fn(cfg.char_limit),
                batch_format="pyarrow",
                batch_size=EXTRACT_BATCH_SIZE,
                zero_copy_batch=True,
            )
        else:
            # pre-extracted inputs get the same normalize-and-drop-empty the
            # extraction path applies (refimpl.oracle:66-72 parity): without
            # it, whitespace-only rows survive as doc_len=0 ghosts and skew
            # doc_count / avg_doc_len / idf vs the oracle
            ds = ds.map_batches(
                _normalize_pre_extracted,
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        ds = ds.map_batches(
            TokenizeDocs,
            fn_constructor_kwargs=tokenizer_kwargs,
            batch_format="pyarrow",
            batch_size=cfg.tokenize_batch_size,
            zero_copy_batch=True,
            **pool_kw,
        )
        out_files, dirname = _attempt_dir_write(store, ds, stage, pid)
        rec = PartitionRecord(
            stage=stage,
            partition_id=pid,
            input_fingerprint=fp,
            output_files=out_files,
            metrics={
                "rows_in": _parquet_rows(group, src_fs),
                "rows_out": _parquet_rows(out_files, store.fs),
                "tokens": _column_sum(out_files, "doc_len", store.fs),
                "wall_s": round(time.perf_counter() - t0, 3),
            },
            lineage={"input_files": group, "config": cfg.public_dict()},
        )
        manifest.commit_partition(rec)
        gc_stale_attempts(store, stage, pid, {dirname}, protect)
        groups.append(checkpoint_group(rec, idxs))
    # drop attempt dirs of groups outside the current input plan
    pids = {g.pid for g in groups}
    for name in store.subdirs(stage):
        if attempt_pid(name) not in pids and store.path(stage, name) not in protect:
            store.delete_dir(stage, name)
    return groups


def plan_generation(
    store: Store,
    manifest: BuildManifest,
    stage: str,
    wave: int,
    groups: list[ShardGroup],
    cfg_fp: str,
    *,
    compact: bool,
    protect: set[str],
) -> GenerationPlan | None:
    """The next generation of ``stage``'s ``wave`` (None: up to date);
    ``compact`` folds the history into one new FULL generation."""
    # Each committed partition of a wave is one GENERATION: gen 0 covers
    # every shard group, later gens re-index only the groups whose
    # checkpoint fingerprint changed.  A group's docID range is a whole
    # number of salt ranges (salt_shift <= 32), so readers drop superseded
    # postings at chunk granularity (a chunk whose file index a later
    # generation covers) — reference behavior analogue: vexor re-indexes
    # only changed files (services/index_service.py:565-643).
    # New groups are plain dirty additions (streaming ingestion names new
    # files to sort after the corpus, so old lineage docIDs are stable).
    # The wave is wiped and rebuilt from every group as gen 0 when a
    # generation was built under another config, lost a file, or covers an
    # input file the current plan no longer has (a dropped or renamed file:
    # no delta could ever supersede its postings).
    recs = manifest.load_partitions().values()
    gens = sorted(
        (r for r in recs if r.stage == stage and r.lineage.get("wave") == wave),
        key=lambda r: r.lineage.get("gen", 0),
    )
    prev_fps: dict[str, str] = {}
    prev_files: set[int] = set()
    for r in gens:
        prev_fps.update(r.lineage.get("group_fps", {}))
        prev_files.update(r.lineage.get("covers_files", []))
    incremental = (
        bool(gens)
        and all(r.lineage.get("cfg_fp") == cfg_fp for r in gens)
        and set(prev_fps) <= {g.pid for g in groups}
        and prev_files <= {fi for g in groups for fi in g.file_indices}
        and all(store.exists_abs(f) for r in gens for f in r.output_files)
    )
    if not incremental:
        # drop this wave's generations, and those of any wave built under
        # another config (a smaller num_waves strands them); dirs that a
        # retained snapshot references stay for time-travel readers
        for r in recs:
            if r.stage == stage and (
                r.lineage.get("wave") == wave or r.lineage.get("cfg_fp") != cfg_fp
            ):
                manifest.delete_partition(r.key())
                for d in _record_dirs(r):
                    if d not in protect:
                        store.delete_dir_abs(d)
        return GenerationPlan(wave, 0, True, list(groups), cfg_fp)
    dirty = [g for g in groups if prev_fps.get(g.pid) != g.fp]
    if compact:
        if not dirty and _is_full(gens[-1].lineage):
            return None  # newest gen already covers everything
        dirty = list(groups)
    elif not dirty:
        return None
    next_gen = gens[-1].lineage.get("gen", 0) + 1
    return GenerationPlan(wave, next_gen, len(dirty) == len(groups), dirty, cfg_fp)


def write_generation(
    store: Store,
    manifest: BuildManifest,
    stage: str,
    plan: GenerationPlan,
    *,
    read_fs,
    columns: list[str],
    explode,
    explode_kwargs: dict,
    encode,
    encode_kwargs: dict,
    partitions_per_wave: int,
    protect: set[str],
    hash_shuffle: bool = False,
    encode_cpus: float = 1.0,
    lineage: dict | None = None,
) -> None:
    """Stage 2 of one planned generation: read the planned groups'
    checkpoint → ``explode`` → (th, salt) exchange → ``encode`` (complete
    runs per block) → attempt-dir write → partition commit."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    pid = f"wave-{plan.wave:04d}-gen-{plan.gen:04d}"
    files = sorted(f for g in plan.groups for f in g.files)
    lineage = {
        "wave": plan.wave,
        "gen": plan.gen,
        "cfg_fp": plan.cfg_fp,
        "full": plan.full,
        "group_fps": {g.pid: g.fp for g in plan.groups},
        "covers_files": sorted(fi for g in plan.groups for fi in g.file_indices),
        **(lineage or {}),
    }
    fp = hashlib.sha1(json.dumps(lineage, sort_keys=True).encode()).hexdigest()
    if not files:  # no documents: an empty generation
        manifest.commit_partition(
            PartitionRecord(
                stage=stage,
                partition_id=pid,
                input_fingerprint=fp,
                metrics={"postings": 0, "chunk_rows": 0, "wall_s": 0.0},
                lineage=lineage,
            )
        )
        return
    t0 = time.perf_counter()
    ctx = DataContext.get_current()
    prev_ctx = (ctx.shuffle_strategy, ctx.max_hash_shuffle_aggregators)
    if hash_shuffle:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        # bound aggregator actor count: too many concurrent actor spawns
        # destabilize small nodes and buy nothing on one machine
        ctx.max_hash_shuffle_aggregators = min(8, partitions_per_wave)
    try:
        # bound the block count into the sort: the sort-shuffle creates
        # (#map blocks x #output partitions) intermediate objects, which at
        # fine block granularity melts the scheduler (observed 4x data ->
        # 20x wave time); 2x partitions_per_wave blocks keeps the exchange
        # quadratic-in-partitions, not in input files
        ds = ray.data.read_parquet(
            files,
            columns=columns,
            override_num_blocks=partitions_per_wave * 2,
            filesystem=read_fs,
        )
        ds = ds.map_batches(
            explode,
            fn_kwargs=explode_kwargs,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if hash_shuffle:
            ds = ds.repartition(partitions_per_wave, keys=["th", "salt"], sort=True)
        else:
            # range sort on the uint64 hash key (string-free compares): same
            # complete-runs-per-block property in the common case; a run
            # split across block boundaries yields two chunk rows for one
            # (term, salt), which the query layer merges (multi-chunk terms
            # are first-class: salting already produces them)
            ds = ds.sort(["th", "salt"])
        ds = ds.map_batches(
            encode,
            fn_kwargs=encode_kwargs,
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
            num_cpus=encode_cpus,
        )
        out_files, dirname = _attempt_dir_write(
            store, ds, stage, pid, row_group_size=2048
        )
    finally:
        ctx.shuffle_strategy, ctx.max_hash_shuffle_aggregators = prev_ctx
    manifest.commit_partition(
        PartitionRecord(
            stage=stage,
            partition_id=pid,
            input_fingerprint=fp,
            output_files=out_files,
            metrics={
                "chunk_rows": _parquet_rows(out_files, store.fs),
                "postings": _column_sum(out_files, "n_postings", store.fs),
                "bytes": sum(store.file_size_abs(f) for f in out_files),
                "wall_s": round(time.perf_counter() - t0, 3),
            },
            lineage=lineage,
        )
    )
    gc_stale_attempts(store, stage, pid, {dirname}, protect)


def _gens_by_wave(recs, stage: str) -> dict[int, list[PartitionRecord]]:
    # stage's generations per wave, waves and gens ascending
    out: dict[int, list[PartitionRecord]] = {}
    for r in recs:
        if r.stage == stage:
            out.setdefault(r.lineage["wave"], []).append(r)
    for gens in out.values():
        gens.sort(key=lambda r: r.lineage.get("gen", 0))
    return dict(sorted(out.items()))


def _live_base(gens: list[PartitionRecord]) -> int:
    # index of the newest FULL generation: all before it are superseded
    return max((i for i, r in enumerate(gens) if _is_full(r.lineage)), default=0)


def live_wave_gens(
    store: Store, manifest: BuildManifest, stage: str, extra=None
) -> dict:
    """Per-wave generation lists for the manifest: the live suffix from the
    newest FULL generation on; ``extra(rec)`` adds per-structure fields."""
    # superseded generations are garbage-collected (gc_superseded_
    # generations) only AFTER this manifest commits, so readers never see
    # dangling files.  Each entry carries the file-index coverage readers
    # drop superseded chunks by, and per-file th min/max from the parquet
    # footers, recorded once here so every query process can prune files
    # per term without its own footer sweep.
    out: dict[str, list[dict]] = {}
    for w, gens in _gens_by_wave(manifest.load_partitions().values(), stage).items():
        out[str(w)] = [
            {
                "gen": r.lineage.get("gen", 0),
                "full": _is_full(r.lineage),
                "files": r.output_files,
                "th_bounds": _th_bounds(r.output_files, store.fs),
                "covers_files": r.lineage.get("covers_files", []),
                **(extra(r) if extra else {}),
            }
            for r in gens[_live_base(gens) :]
        ]
    return out


def gc_superseded_generations(
    store: Store, stage: str, *, paired: str | None = None, keep_manifests=None
) -> dict | None:
    """Delete the generations a newer FULL one supersedes (with the
    ``paired`` stage's record of the same partition) once the manifest that
    drops them has committed.  Returns the manifest re-committed with the
    pruned partition list, or None when nothing was superseded."""
    # each record goes first (a half-done GC never resurrects a
    # generation), then its dirs.  Dirs a retained snapshot references stay
    # for time-travel readers and expire with their snapshots (finalize).
    # Idempotent: a kill mid-cleanup is finished by the next call.
    manifest = BuildManifest(store)
    recs = manifest.load_partitions()
    # the just-committed manifest is excluded: its partition list still
    # carries the superseded records collected here
    protect = protected_data_dirs(store, exclude_current=True)
    removed = False
    for gens in _gens_by_wave(recs.values(), stage).values():
        for r in gens[: _live_base(gens)]:
            for victim in (r, recs.get(f"{paired}--{r.partition_id}")):
                if victim is None:
                    continue
                manifest.delete_partition(victim.key())
                for d in _record_dirs(victim):
                    if d not in protect:
                        store.delete_dir_abs(d)
            removed = True
    if not removed:
        return None
    # generation lists and stats are unchanged: they already exclude the
    # superseded generations
    man = load_manifest(store)
    return manifest.finalize(
        config=man["config"],
        stats=man["stats"],
        extra={
            k: man[k]
            for k in man
            if k
            not in ("format_version", "snapshot_seq", "config", "stats", "partitions")
        },
        keep_manifests=keep_manifests,
    )


def build_index(
    source: str | Path | list | Store,
    out_dir: str | Path | Store,
    cfg: BuildConfig | None = None,
    *,
    compact: bool = False,
    filesystem=None,
    source_filesystem=None,
) -> dict:
    """Build (or resume) an index at ``out_dir`` from pages parquet shards.

    ``out_dir`` / ``source`` may each be a local path, a ``Store``, or a URI
    (with ``filesystem`` / ``source_filesystem`` overriding the fs) — every
    byte of index IO goes through ``pyarrow.fs``, so the same build runs
    against an object store (no rename anywhere in the commit protocol).

    Returns the final manifest dict.  Safe to re-run: completed partitions
    are skipped via the checkpoint manifest.  With ``compact=True`` every
    wave whose newest generation is not already a full cover is rebuilt
    from ALL shard groups into a new generation marked ``full`` — old
    generations stay on disk (and the previously committed manifest stays
    valid) until ``compact_index`` deletes them after the new manifest
    commit.
    """
    cfg = cfg or BuildConfig()
    store = Store.resolve(out_dir, filesystem)
    store.mkdirs()
    manifest = BuildManifest(store, fail_after_partitions=cfg.fail_after_partitions)
    files, src_fs = _resolve_source(source, source_filesystem)
    if not files:
        raise ValueError(f"no parquet input files under {source}")

    # permanent deleted-urls ledger (index/deletes.py): any group this run
    # (re-)tokenizes drops ledger urls at the read, and the tombstone set is
    # re-resolved against the final checkpoint at finalize — deletions
    # survive incremental updates, compaction, and streaming appends
    try:
        prior_deletes = load_manifest(store).get("deletes")
    except FileNotFoundError:  # first build
        prior_deletes = None
    ledger_urls = read_ledger(store, prior_deletes)

    # data dirs referenced by retained snapshots: every GC below skips
    # them (time-travel readers stay valid); finalize sweeps them when
    # their snapshots expire from history (index/manifest.py)
    protect = protected_data_dirs(store)

    # ---- stage 1: extract + tokenize, one partition per shard group -------
    # tokenize-relevant config is part of the group fingerprint: changing the
    # tokenizer / doc builder must re-tokenize even when inputs are unchanged
    # (num_waves is stage 2's alone: config_fingerprint covers it)
    tok_fp = (
        f"|{cfg.token_pattern}|{cfg.text_only}|{cfg.doc_builder}|{cfg.tokenizer}"
        f"|{cfg.char_limit}|{cfg.pre_extracted}"
        f"|X{int(cfg.emit_positions)}"
        f"|E{cfg.embed_dim}:{cfg.embed_mode}"
        f"|M{hashlib.sha1(json.dumps(cfg.bpe_merges).encode()).hexdigest() if cfg.bpe_merges else ''}"
        f"|P{json.dumps(cfg.embed_provider, sort_keys=True)}"
        f"|S{json.dumps(sorted(cfg.stop_words)) if cfg.stop_words else ''}"
    )
    groups = tokenize_groups(
        store,
        manifest,
        "docs_tok",
        files,
        src_fs,
        cfg,
        tok_fp,
        {
            "text_only": cfg.text_only,
            "token_pattern": cfg.token_pattern,
            "doc_builder": cfg.doc_builder,
            "tokenizer": cfg.tokenizer,
            "embed_dim": cfg.embed_dim,
            "embed_mode": cfg.embed_mode,
            "embed_provider": cfg.embed_provider,
            "bpe_merges": cfg.bpe_merges,
            "stop_words": cfg.stop_words,
            "emit_positions": cfg.emit_positions,
        },
        protect=protect,
        ledger_urls=ledger_urls,
    )

    # ---- corpus stats (docIDs already assigned from lineage) ---------------
    # the docs_tok checkpoint IS the docs table: (doc_id, url, doc_len,
    # terms, tfs); stats are exact global aggregates over its doc_len column.
    # Files come from THIS run's committed group records — never a directory
    # glob, which would silently fold stale checkpoints from an earlier build
    # with a different input plan into doc_count / idf as ghost documents.
    # The fingerprint follows the checkpoint itself (group fingerprints
    # cover its files): a purge that rewrites it gets fresh stats from the
    # compaction that follows.
    all_tok_files = sorted(f for g in groups for f in g.files)
    docs_fp = hashlib.sha1("|".join(g.fp for g in groups).encode()).hexdigest()
    if not manifest.is_done("docs", "global", docs_fp):
        t0 = time.perf_counter()
        doc_count = _parquet_rows(all_tok_files, store.fs)
        total_len = _column_sum(all_tok_files, "doc_len", store.fs)
        manifest.commit_partition(
            PartitionRecord(
                stage="docs",
                partition_id="global",
                input_fingerprint=docs_fp,
                output_files=all_tok_files,
                metrics={
                    "doc_count": doc_count,
                    "total_doc_len": total_len,
                    "wall_s": round(time.perf_counter() - t0, 3),
                },
                lineage={"inputs": "docs_tok/*", "config": cfg.public_dict()},
            )
        )
    docs_rec = manifest.load_partitions()["docs--global"]
    docs_files = docs_rec.output_files
    doc_count = docs_rec.metrics["doc_count"]
    total_len = docs_rec.metrics["total_doc_len"]
    avg_doc_len = total_len / doc_count if doc_count else 0.0

    # ---- stage 2: per-wave generations: posting shuffle + encode ----------
    cfg_fp = config_fingerprint(cfg)
    for wave in range(cfg.num_waves):
        plan = plan_generation(
            store, manifest, "segments", wave, groups, cfg_fp,
            compact=compact, protect=protect,
        )
        if plan is None:
            continue
        write_generation(
            store,
            manifest,
            "segments",
            plan,
            read_fs=store.fs,
            columns=["doc_id", "doc_len", "terms", "tfs"],
            explode=explode_postings,
            explode_kwargs={
                "salt_shift": cfg.salt_shift,
                "num_waves": cfg.num_waves,
                "wave": wave if cfg.num_waves > 1 else None,
            },
            encode=encode_runs,
            encode_kwargs={
                "avg_doc_len": avg_doc_len,
                "block_size": cfg.block_size,
                "k1": cfg.k1,
                "b": cfg.b,
                "impact": cfg.impact_postings,
            },
            partitions_per_wave=cfg.partitions_per_wave,
            protect=protect,
            hash_shuffle=cfg.shuffle_backend == "hash",
            encode_cpus=_encode_task_cpus(ENCODE_MAX_CONCURRENT),
            lineage={"avgdl": avg_doc_len, "config": cfg.public_dict()},
        )

    # ---- term dictionary sidecar (one per segments generation) ------------
    # Sorted distinct (term, df) rows: prefix/wildcard expansion needs
    # lexicographic access that the th-hash-keyed segment layout cannot
    # provide (hashing destroys term order).  Vocabulary-sized, not
    # postings-sized — a driver-side columnar aggregate per generation —
    # and committed under the same attempt-dir + record protocol, so a
    # killed build resumes past completed dictionaries.
    for rec in list(manifest.load_partitions().values()):
        if rec.stage != "segments":
            continue
        pid = rec.partition_id
        td_fp = hashlib.sha1("|".join(sorted(rec.output_files)).encode()).hexdigest()
        if manifest.is_done("termdict", pid, td_fp):
            tdrec = manifest.load_partitions()[f"termdict--{pid}"]
            gc_stale_attempts(store, "termdict", pid, _attempt_names(tdrec), protect)
            continue
        t0 = time.perf_counter()
        out_files: list[str] = []
        dirname = None
        if rec.output_files:
            parts = [
                _open_pq(f, store.fs).read(columns=["term", "n_postings"])
                for f in rec.output_files
            ]
            tbl = pa.concat_tables(parts)
            agg = pa.TableGroupBy(tbl, "term").aggregate([("n_postings", "sum")])
            agg = agg.sort_by("term")
            dict_tbl = pa.table(
                {
                    "term": agg.column("term"),
                    "df": pc.cast(agg.column("n_postings_sum"), pa.uint64()),
                }
            )
            dirname = attempt_dir(pid)
            store.mkdirs("termdict", dirname)
            dest = f"{store.path('termdict', dirname)}/dict.parquet"
            pq.write_table(
                dict_tbl, dest, filesystem=store.fs, row_group_size=8192
            )
            out_files = store.list_files("termdict", dirname, suffix=".parquet")
        manifest.commit_partition(
            PartitionRecord(
                stage="termdict",
                partition_id=pid,
                input_fingerprint=td_fp,
                output_files=out_files,
                metrics={
                    "terms": int(dict_tbl.num_rows) if out_files else 0,
                    "wall_s": round(time.perf_counter() - t0, 3),
                },
                lineage={
                    "wave": rec.lineage.get("wave"),
                    "gen": rec.lineage.get("gen", 0),
                },
            )
        )
        if dirname is not None:
            gc_stale_attempts(store, "termdict", pid, {dirname}, protect)

    # ---- finalize ----------------------------------------------------------
    # waves        — flat file lists (all live generations), for simple
    #                consumers;
    # wave_gens    — the live generations per wave (``live_wave_gens``) plus
    #                the encode-time avgdl the query layer rescales WAND
    #                bounds with and each generation's term dictionary
    termdict_by_pid = {
        rec.partition_id: rec.output_files
        for rec in manifest.load_partitions().values()
        if rec.stage == "termdict"
    }
    wave_gens = live_wave_gens(
        store,
        manifest,
        "segments",
        lambda r: {
            "avgdl": r.lineage.get("avgdl", avg_doc_len),
            "termdict": termdict_by_pid.get(r.partition_id, []),
        },
    )
    extra = {
        "input_files": files,
        "input_fingerprint": file_fingerprint(files, src_fs),
        "docs_files": docs_files,
        "waves": {
            w: [f for g in gens for f in g["files"]] for w, gens in wave_gens.items()
        },
        "wave_gens": wave_gens,
    }
    if ledger_urls:
        # re-resolve the deletion ledger against the final checkpoint: docs
        # physically absent (ledger-filtered or purged) drop out, so the
        # tombstone set always covers exactly the deleted docs still present
        extra["deletes"] = refresh_resolution(
            store, prior_deletes, docs_files, ledger_urls
        )
    result = manifest.finalize(
        config=cfg.public_dict(),
        stats={
            "doc_count": doc_count,
            "total_doc_len": total_len,
            "avg_doc_len": avg_doc_len,
        },
        extra=extra,
    )
    if ledger_urls:
        gc_delete_objects(store, extra["deletes"])
    return result
