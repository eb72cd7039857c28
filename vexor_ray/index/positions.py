"""Positional posting sidecar + exact phrase matching.

Beyond-reference fulltext capability: the reference scores bags of words
only (``vexor/bm25.py:64-89`` — postings are ``(chunk_id, tf)``, token
order is discarded at ``Counter`` time), so it cannot answer phrase
queries.  This sidecar stores, per (term, salt) chunk, every 1-based token
position of the term in each document, enabling exact consecutive-token
phrase matching.

It is a SEPARATE opt-in index directory (positions roughly double the raw
token data — the wrong default at 100 TB) built by the BM25 build's
generation engine (``index/build.py``: ``tokenize_groups`` →
``plan_generation`` → ``write_generation`` → ``live_wave_gens``, and
``gc_superseded_generations`` after compaction) with the positional
explode/encode kernels below — lineage docIDs, attempt-dir writes,
partition-record commits and the pointer-swap manifest included, so a
killed build resumes at stage/partition granularity on any ``pyarrow.fs``.

Layout per (term, salt) chunk, docIDs ascending (one parquet row):

- ``doc_blob``: varint docID deltas (``delta[0] = doc[0]``);
- ``cnt_blob``: varint positions-count per posting (the positional tf);
- ``pos_blob``: varint 1-based positions, delta-coded WITHIN each posting
  (ascending per doc, so gaps are small).

Query (``phrase_occurrences``): tokenize the phrase WITHOUT dedup/cap
(order and repeats are the semantics — unlike BM25's
``preprocess_query``), decode each term's postings, map docIDs into the
rarest term's dense index, then chain-intersect ``idx * 2^32 + pos`` keys:
occurrences of ``t0 .. tn`` are ``keys(t0) ∩ (keys(t1) - 1) ∩ ... ∩
(keys(tn) - n)`` — each step one ``np.intersect1d`` over sorted unique
uint64 arrays, no per-doc Python.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..hashing import hash_terms
from ..spec import DEFAULT_SALT_SHIFT, FULL_CHAR_LIMIT, TOKEN_PATTERN
from . import codec
from .build import (
    _resolve_source,
    checkpoint_group,
    config_fingerprint,
    gc_superseded_generations,
    group_plan,
    key_runs,
    live_wave_gens,
    plan_generation,
    run_blobs,
    run_key_columns,
    term_hashes,
    tokenize_groups,
    varint_byte_offsets,
    write_generation,
)
from .manifest import (
    BuildManifest,
    PartitionRecord,
    load_manifest,
    protected_data_dirs,
)
from .storage import Store

_POS_BASE = np.uint64(1) << np.uint64(32)  # doc-index stride in chain keys


@dataclass
class PositionsConfig:
    token_pattern: str = TOKEN_PATTERN
    tokenizer: str = "regex"  # regex | bert_union (must match the BM25 index)
    # analyzer stopword list — MUST match the paired BM25 index's, or
    # phrase/NEAR position arithmetic diverges from query tokenization
    stop_words: list | None = None
    text_only: bool = True  # phrase semantics over the text itself
    pre_extracted: bool = False
    char_limit: int = FULL_CHAR_LIMIT
    salt_shift: int = DEFAULT_SALT_SHIFT
    num_waves: int = 1
    partitions_per_wave: int = 8
    shard_group_size: int = 8
    tokenize_batch_size: int = 1024
    tokenize_concurrency: int = 4
    fail_after_partitions: int | None = None

    def public_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("fail_after_partitions")
        return d


def explode_position_postings(
    batch: pa.Table, *, salt_shift: int, num_waves: int = 1, wave: int | None = None
) -> pa.Table:
    """(doc_id, terms, poss) → flat (th, term, salt, doc_id, poss) rows of
    term-hash ``wave`` (None: all rows)."""
    batch = batch.combine_chunks()
    if batch.num_rows == 0:
        return pa.table(
            {
                "th": pa.array([], type=pa.uint64()),
                "term": pa.array([], type=pa.string()),
                "salt": pa.array([], type=pa.uint64()),
                "doc_id": pa.array([], type=pa.uint64()),
                "poss": pa.array([], type=pa.list_(pa.uint32())),
            }
        )
    terms_list = batch.column("terms")
    flat_terms = pc.list_flatten(terms_list)
    parent = pc.list_parent_indices(terms_list)
    doc_ids = pc.cast(pc.take(batch.column("doc_id"), parent), pa.uint64())
    poss = pc.list_flatten(batch.column("poss"))  # outer flatten only
    if isinstance(flat_terms, pa.ChunkedArray):
        flat_terms = flat_terms.combine_chunks()
    th, keep = term_hashes(flat_terms, num_waves, wave)
    out = pa.table(
        {
            "th": pa.array(th, type=pa.uint64()),
            "term": flat_terms,
            "salt": pc.shift_right(doc_ids, pa.scalar(salt_shift, pa.uint64())),
            "doc_id": doc_ids,
            "poss": poss,
        }
    )
    return out if keep is None else out.filter(keep)


_POS_CHUNK_SCHEMA = pa.schema(
    [
        ("th", pa.uint64()),
        ("term", pa.string()),
        ("salt", pa.uint64()),
        ("n_postings", pa.uint64()),
        ("doc_blob", pa.large_binary()),
        ("cnt_blob", pa.large_binary()),
        ("pos_blob", pa.large_binary()),
    ]
)


def encode_position_runs(batch: pa.Table) -> pa.Table:
    """Encode complete (term, salt) runs of a key-sorted block — vectorized
    like ``build.encode_runs``: one lexsort, one varint pass per stream,
    per-run blobs assembled from byte-size prefix sums."""
    batch = batch.combine_chunks()
    n = batch.num_rows
    if n == 0:
        return _POS_CHUNK_SCHEMA.empty_table()
    term_arr, ths, salts, run_starts, run_lengths, run_ids = key_runs(batch)
    run_bounds = np.concatenate([run_starts, [n]])
    doc_ids = batch.column("doc_id").to_numpy()
    poss_col = batch.column("poss")
    poss_arr = (
        poss_col.chunk(0) if isinstance(poss_col, pa.ChunkedArray) else poss_col
    )

    order = np.lexsort((doc_ids, run_ids))
    doc_s = doc_ids[order].astype(np.uint64)
    poss_s = poss_arr.take(pa.array(order, type=pa.int64()))

    deltas = doc_s.copy()
    deltas[1:] -= doc_s[:-1]
    deltas[run_starts] = doc_s[run_starts]

    # list_value_length + list_flatten respect the taken array's offsets
    # (raw .values/.offsets on a taken ListArray are not guaranteed aligned)
    cnt_i64 = pc.list_value_length(poss_s).to_numpy().astype(np.int64)
    flat_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt_i64, out=flat_off[1:])
    cnts = cnt_i64.astype(np.uint64)
    flat_pos = pc.list_flatten(poss_s).to_numpy().astype(np.uint64)
    # delta-code positions within each posting (first stays absolute);
    # zero-length postings cannot occur (a term present in a doc has >= 1
    # position), so every flat_off[:-1] start index is a real element
    pos_deltas = flat_pos.copy()
    pos_deltas[1:] -= flat_pos[:-1]
    starts = flat_off[:-1]
    pos_deltas[starts] = flat_pos[starts]

    columns = run_key_columns(term_arr, ths, salts, run_starts, run_lengths)
    for name, stream, bounds in (
        ("doc_blob", deltas, run_bounds),
        ("cnt_blob", cnts, run_bounds),
        ("pos_blob", pos_deltas, flat_off[run_bounds]),
    ):
        columns[name] = run_blobs(*varint_byte_offsets(stream), bounds)
    return pa.table(columns)


def decode_position_chunk(chunk: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk → (doc_ids, cnts, flat absolute positions)."""
    doc_ids = np.cumsum(codec.varint_decode(chunk["doc_blob"]), dtype=np.uint64)
    cnts = codec.varint_decode(chunk["cnt_blob"])
    pos_deltas = codec.varint_decode(chunk["pos_blob"])
    if pos_deltas.size == 0:
        return doc_ids, cnts, pos_deltas
    csum = np.cumsum(pos_deltas, dtype=np.uint64)
    starts = np.zeros(cnts.size, dtype=np.int64)
    np.cumsum(cnts[:-1].astype(np.int64), out=starts[1:])
    # absolute[j] = csum[j] - (csum[start_of_its_posting] - first_delta)
    base = csum[starts] - pos_deltas[starts]
    flat_pos = csum - np.repeat(base, cnts.astype(np.int64))
    return doc_ids, cnts, flat_pos


def _tok_fp(cfg: PositionsConfig) -> str:
    """Tokenize-relevant config: changing it re-tokenizes unchanged inputs."""
    stops = json.dumps(sorted(cfg.stop_words)) if cfg.stop_words else ""
    return (
        f"|pos|{cfg.tokenizer}|{cfg.token_pattern}|{cfg.text_only}"
        f"|{cfg.pre_extracted}|{cfg.char_limit}|S{stops}"
    )


def _write_generations(
    store: Store,
    manifest: BuildManifest,
    cfg: PositionsConfig,
    groups: list,
    read_fs,
    input_files: list[str],
    *,
    compact: bool,
    protect: set[str],
) -> dict:
    """Stage 2 per wave + finalize.  There are no global stats, so no
    avgdl: positions generations differ from BM25's only in the explode
    and encode kernels."""
    cfg_fp = config_fingerprint(cfg)
    for wave in range(max(1, cfg.num_waves)):
        plan = plan_generation(
            store, manifest, "positions", wave, groups, cfg_fp,
            compact=compact, protect=protect,
        )
        if plan is None:
            continue
        write_generation(
            store,
            manifest,
            "positions",
            plan,
            read_fs=read_fs,
            columns=["doc_id", "terms", "poss"],
            explode=explode_position_postings,
            explode_kwargs={
                "salt_shift": cfg.salt_shift,
                "num_waves": cfg.num_waves,
                "wave": wave,
            },
            encode=encode_position_runs,
            encode_kwargs={},
            partitions_per_wave=cfg.partitions_per_wave,
            protect=protect,
        )
    # the sidecar has no pinned readers: one retained snapshot, so the
    # data of superseded generations leaves the disk with its GC
    return manifest.finalize(
        config=cfg.public_dict(),
        stats={"n_files": len(input_files)},
        extra={
            "kind": "positions",
            "pos_wave_gens": live_wave_gens(store, manifest, "positions"),
            "input_files": input_files,
        },
        keep_manifests=1,
    )


def _open_sidecar(out_dir, cfg: PositionsConfig, filesystem) -> tuple:
    store = Store.resolve(out_dir, filesystem)
    store.mkdirs()
    manifest = BuildManifest(store, fail_after_partitions=cfg.fail_after_partitions)
    return store, manifest, protected_data_dirs(store)


def build_positions_index(
    source: str | Path | list | Store,
    out_dir: str | Path | Store,
    cfg: PositionsConfig | None = None,
    *,
    compact: bool = False,
    filesystem=None,
    source_filesystem=None,
) -> dict:
    """Build (or resume) the positional sidecar at ``out_dir``.

    The BM25 build's generation engine (``index/build.py``) with the
    positional kernels: a resumable ``pos_tok`` checkpoint per shard group
    (``TokenizeDocs(emit_positions=True)``), then per wave a delta
    generation of the changed groups — one sorted exchange + encode —
    and a pointer-swap manifest commit.
    """
    cfg = cfg or PositionsConfig()
    store, manifest, protect = _open_sidecar(out_dir, cfg, filesystem)
    files, src_fs = _resolve_source(source, source_filesystem)
    if not files:
        raise ValueError(f"no parquet input files under {source}")
    groups = tokenize_groups(
        store,
        manifest,
        "pos_tok",
        files,
        src_fs,
        cfg,
        _tok_fp(cfg),
        {
            "text_only": cfg.text_only,
            "token_pattern": cfg.token_pattern,
            "tokenizer": cfg.tokenizer,
            "stop_words": cfg.stop_words,
            "with_preview": False,
            "emit_positions": True,
        },
        protect=protect,
    )
    return _write_generations(
        store, manifest, cfg, groups, store.fs, files, compact=compact, protect=protect
    )


def build_positions_from_index(
    index_dir: str | Path | Store,
    out_dir: str | Path | Store,
    cfg: PositionsConfig | None = None,
    *,
    filesystem=None,
    index_filesystem=None,
) -> dict:
    """Build the positional sidecar from a BM25 index's docs_tok checkpoint
    — the SHARED-tokenize-pass path.

    Requires the index to have been built with
    ``BuildConfig(emit_positions=True)`` (its docs checkpoint then carries
    the ``poss`` column).  The tokenizer configuration (pattern, tokenizer,
    stop words, doc builder) is taken from the INDEX manifest, never from
    the caller, so phrase/NEAR position arithmetic can't diverge from the
    paired BM25 index's query tokenization.  Extract + tokenize are skipped
    entirely: the committed manifest's ``docs_tok`` group records, with
    their input-file indices, go straight to the generation engine.
    """
    idx_store = Store.resolve(index_dir, index_filesystem)
    man = load_manifest(idx_store)
    bc = man.get("config", {})
    if not bc.get("emit_positions"):
        raise ValueError(
            "index was not built with emit_positions=True — its docs "
            "checkpoint has no poss column (rebuild with "
            "BuildConfig(emit_positions=True) or use build_positions_index)"
        )
    base = cfg or PositionsConfig()
    cfg = dataclasses.replace(
        base,
        pre_extracted=True,
        token_pattern=bc.get("token_pattern", base.token_pattern),
        tokenizer=bc.get("tokenizer", base.tokenizer),
        stop_words=bc.get("stop_words"),
        text_only=bc.get("text_only", bc.get("doc_builder") == "text"),
        salt_shift=bc.get("salt_shift", base.salt_shift),
    )
    recs = {
        p["partition_id"]: PartitionRecord(**p)
        for p in man["partitions"]
        if p["stage"] == "docs_tok"
    }
    groups = [
        checkpoint_group(recs[pid], idxs)
        for pid, _, idxs in group_plan(man["input_files"], bc["shard_group_size"])
    ]
    store, manifest, protect = _open_sidecar(out_dir, cfg, filesystem)
    return _write_generations(
        store, manifest, cfg, groups, idx_store.fs, man["input_files"],
        compact=False, protect=protect,
    )


def compact_positions_index(
    source: str | Path | list | Store,
    out_dir: str | Path | Store,
    cfg: PositionsConfig | None = None,
    *,
    filesystem=None,
    source_filesystem=None,
) -> dict:
    """Merge a fragmented positional generation history back into one FULL
    generation per wave, crash-safely (the ``compact_index`` protocol):
    the compaction generation commits through the normal build path — the
    previously committed manifest stays valid until the pointer swap — and
    only AFTER the new manifest commits are the superseded generations'
    records and attempt directories deleted.  Tokenized-position
    checkpoints are reused, so tokenization is not repeated."""
    store = Store.resolve(out_dir, filesystem)
    if cfg is None:
        cfg = PositionsConfig(**load_manifest(store)["config"])
    result = build_positions_index(
        source, store, cfg, compact=True, source_filesystem=source_filesystem
    )
    return gc_superseded_generations(store, "positions", keep_manifests=1) or result


class PositionsIndex:
    """Query access to a committed positional sidecar."""

    def __init__(self, index_dir: str | Path | Store, *, filesystem=None):
        self._store = Store.resolve(index_dir, filesystem)
        self.manifest = load_manifest(self._store)
        if self.manifest.get("kind") != "positions":
            raise ValueError(f"{index_dir} is not a positions sidecar")
        cfg = self.manifest["config"]
        self.num_waves = int(cfg.get("num_waves", 1))
        from ..stages.berttok import make_tokenizer

        self._tokenize = make_tokenizer(
            cfg.get("tokenizer", "regex"),
            cfg.get("token_pattern"),
            stop_words=cfg.get("stop_words"),
        )
        self.salt_shift = int(cfg.get("salt_shift", DEFAULT_SALT_SHIFT))
        raw_gens = self.manifest["pos_wave_gens"]
        # per-wave ascending generations with the set of file indices a
        # LATER generation re-indexed (chunks from those are superseded)
        self._wave_gens: dict[int, list[dict]] = {}
        for w, gens in raw_gens.items():
            gens = sorted(gens, key=lambda g: g["gen"])
            out = []
            for i, g in enumerate(gens):
                if not g["files"]:
                    continue
                superseded: set[int] = set()
                for g2 in gens[i + 1 :]:
                    superseded.update(g2.get("covers_files", []))
                out.append(
                    {
                        "files": list(g["files"]),
                        "th_bounds": g.get("th_bounds", []),
                        "superseded": np.array(
                            sorted(superseded), dtype=np.uint64
                        ),
                    }
                )
            if out:
                self._wave_gens[int(w)] = out
        self._chunk_cache: dict[str, list[dict]] = {}

    def refresh(self) -> None:
        """Reload the committed manifest and generation layout in place."""
        self.__init__(self._store)

    def term_chunks(self, terms: list[str]) -> dict[str, list[dict]]:
        """Per-term encoded position chunks, surviving an online compaction:
        if a referenced file was GC'd after a newer manifest committed,
        reload once and retry (compaction is result-identical by contract —
        the same discipline as ``Searcher.term_chunks``)."""
        try:
            return self._term_chunks_once(terms)
        except FileNotFoundError:
            self.refresh()
            return self._term_chunks_once(terms)

    def _term_chunks_once(self, terms: list[str]) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {t: [] for t in terms}
        missing = sorted({t for t in terms if t not in self._chunk_cache})
        for t in terms:
            if t in self._chunk_cache:
                out[t] = self._chunk_cache[t]
        if not missing:
            return out
        ths = hash_terms(np.asarray(missing, dtype=object))
        by_wave: dict[int, list[int]] = {}
        for i, th in enumerate(ths):
            by_wave.setdefault(
                int(th % np.uint64(self.num_waves)) if self.num_waves > 1 else 0, []
            ).append(i)
        found: dict[str, list[dict]] = {t: [] for t in missing}
        for w, idxs in by_wave.items():
            w_ths = ths[idxs]
            w_terms = [missing[i] for i in idxs]
            flt = pc.field("th").isin(pa.array(w_ths, type=pa.uint64())) & pc.field(
                "term"
            ).isin(w_terms)
            for gen in self._wave_gens.get(w, []):
                files = gen["files"]
                bounds = gen["th_bounds"]
                if bounds and len(bounds) == len(files):
                    files = [
                        f
                        for f, (lo, hi) in zip(files, bounds)
                        if ((w_ths >= np.uint64(lo)) & (w_ths <= np.uint64(hi))).any()
                    ]
                if not files:
                    continue
                tbl = pads.dataset(files, filesystem=self._store.fs).to_table(
                    filter=flt
                )
                if tbl.num_rows and gen["superseded"].size:
                    file_idx = pc.shift_right(
                        tbl.column("salt"),
                        pa.scalar(32 - self.salt_shift, pa.uint64()),
                    )
                    keep = np.isin(
                        file_idx.to_numpy(zero_copy_only=False),
                        gen["superseded"],
                        invert=True,
                    )
                    if not keep.all():
                        tbl = tbl.filter(pa.array(keep))
                tbl = tbl.sort_by([("term", "ascending"), ("salt", "ascending")])
                tbl = tbl.combine_chunks()
                if tbl.num_rows == 0:
                    continue
                cols = {
                    name: tbl.column(name).chunk(0) for name in tbl.column_names
                }
                t_terms = cols["term"].to_pylist()
                for i in range(tbl.num_rows):
                    found[t_terms[i]].append(
                        {
                            "salt": int(cols["salt"][i].as_py()),
                            "n_postings": int(cols["n_postings"][i].as_py()),
                            "doc_blob": memoryview(cols["doc_blob"][i].as_buffer()),
                            "cnt_blob": memoryview(cols["cnt_blob"][i].as_buffer()),
                            "pos_blob": memoryview(cols["pos_blob"][i].as_buffer()),
                        }
                    )
        for t in missing:
            self._chunk_cache[t] = found[t]
            out[t] = found[t]
        return out

    @staticmethod
    def _decoded(chunks: list[dict]) -> list[tuple]:
        """Each chunk decoded exactly once: [(docs, cnts, flat_pos)]."""
        return [
            decode_position_chunk(c)
            for c in sorted(chunks, key=lambda c: int(c.get("salt", 0)))
        ]

    def _term_keys(
        self, decoded: list[tuple], base: np.ndarray
    ) -> np.ndarray:
        """Sorted unique uint64 chain keys (base_idx * 2^32 + pos) for the
        (pre-decoded) postings of one term restricted to docIDs in ``base``."""
        if base.size == 0:
            return np.zeros(0, dtype=np.uint64)
        keys: list[np.ndarray] = []
        for docs, cnts, flat_pos in decoded:
            if docs.size == 0:
                continue
            idx = np.searchsorted(base, docs)
            idx[idx >= base.size] = base.size - 1
            keep = base[idx] == docs
            if not keep.any():
                continue
            rep = np.repeat(keep, cnts.astype(np.int64))
            flat_idx = np.repeat(idx.astype(np.uint64), cnts.astype(np.int64))
            keys.append(flat_idx[rep] * _POS_BASE + flat_pos[rep])
        if not keys:
            return np.zeros(0, dtype=np.uint64)
        out = np.concatenate(keys)
        out.sort()  # salt chunks are docID-disjoint; sort is near-free merge
        return out

    @staticmethod
    def _drop_deleted(tbl: pa.Table, deleted_doc_ids) -> pa.Table:
        """Filter tombstoned docs out of a per-doc result table.

        Per-doc values (occurrence counts, min distances) are independent
        across docs, so result-level filtering equals querying an index
        built without the deleted docs.  ``deleted_doc_ids`` is any uint64
        iterable — typically ``Searcher._tombstones()`` of the companion
        BM25 index (the sidecar shares its lineage docID space)."""
        if deleted_doc_ids is None or tbl.num_rows == 0:
            return tbl
        d = np.asarray(deleted_doc_ids, dtype=np.uint64)
        if d.size == 0:
            return tbl
        d = np.sort(d)
        ids = tbl.column("doc_id").to_numpy().astype(np.uint64)
        pos = np.searchsorted(d, ids)
        pos[pos >= d.size] = d.size - 1
        return tbl.filter(pa.array(d[pos] != ids))

    def phrase_occurrences(
        self, phrase: str, *, deleted_doc_ids=None
    ) -> pa.Table:
        """(doc_id, n_occ) for docs containing the exact token phrase."""
        terms = self._tokenize(phrase)  # NO dedup, NO cap: order is semantics
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.uint64()),
                "n_occ": pa.array([], type=pa.uint64()),
            }
        )
        if not terms:
            return empty
        chunks_by_term = self.term_chunks(list(dict.fromkeys(terms)))
        # candidate doc set = the rarest term's docIDs (phrase docs must
        # contain every term, so any term's doc set is a valid base);
        # every chunk is decoded exactly once and shared between the base
        # build and the chain-key construction
        df = {
            t: sum(c["n_postings"] for c in chunks_by_term[t])
            for t in set(terms)
        }
        if min(df.values()) == 0:
            return empty
        rarest = min(df, key=lambda t: (df[t], t))
        decoded = {t: self._decoded(chunks_by_term[t]) for t in set(terms)}
        base = np.sort(
            np.concatenate([d[0] for d in decoded[rarest]])
        )
        cur: np.ndarray | None = None
        term_keys: dict[str, np.ndarray] = {}
        for i, t in enumerate(terms):
            if t not in term_keys:
                term_keys[t] = self._term_keys(decoded[t], base)
            keys = term_keys[t]
            if keys.size == 0:
                return empty
            shifted = keys - np.uint64(i)  # occurrence-start key for step i
            if cur is None:
                cur = shifted
            else:
                cur = np.intersect1d(cur, shifted, assume_unique=True)
            if cur.size == 0:
                return empty
        occ_idx = (cur // _POS_BASE).astype(np.int64)
        counts = np.bincount(occ_idx, minlength=base.size)
        nz = np.flatnonzero(counts)
        out = pa.table(
            {
                "doc_id": pa.array(base[nz], type=pa.uint64()),
                "n_occ": pa.array(counts[nz].astype(np.uint64), type=pa.uint64()),
            }
        )
        return self._drop_deleted(out, deleted_doc_ids)

    def near_occurrences(
        self, term_a: str, term_b: str, window: int, *, deleted_doc_ids=None
    ) -> pa.Table:
        """(doc_id, min_dist) for docs where ``term_a`` and ``term_b`` occur
        within ``window`` tokens of each other (unordered proximity).

        ``min_dist`` = the smallest ``|pos_a - pos_b|`` in the doc (>= 1 —
        two distinct terms cannot share a position; for ``term_a ==
        term_b`` the distance is between two distinct occurrences).
        Vectorized: for every a-occurrence, the candidate nearest
        b-positions are the two ``searchsorted`` neighbours in the sorted
        b-key array; per-doc minima fall out of one ``np.minimum.at``.
        """
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.uint64()),
                "min_dist": pa.array([], type=pa.uint64()),
            }
        )
        if window < 0:
            return empty
        chunks = self.term_chunks(sorted({term_a, term_b}))
        df = {t: sum(c["n_postings"] for c in cl) for t, cl in chunks.items()}
        if not df or min(df.values()) == 0:
            return empty
        rarest = min(df, key=lambda t: (df[t], t))
        decoded = {t: self._decoded(cl) for t, cl in chunks.items()}
        base = np.sort(np.concatenate([d[0] for d in decoded[rarest]]))
        ka = self._term_keys(decoded[term_a], base)
        kb = self._term_keys(decoded[term_b], base)
        if term_a == term_b:
            # distance between consecutive occurrences of the same term
            if ka.size < 2:
                return empty
            same_doc = (ka[1:] // _POS_BASE) == (ka[:-1] // _POS_BASE)
            if not same_doc.any():
                return empty
            diffs = (ka[1:] - ka[:-1])[same_doc]
            idxs = (ka[1:] // _POS_BASE)[same_doc].astype(np.int64)
        else:
            if ka.size == 0 or kb.size == 0:
                return empty
            ins = np.searchsorted(kb, ka)
            cand_idx = np.concatenate(
                [np.clip(ins - 1, 0, kb.size - 1), np.clip(ins, 0, kb.size - 1)]
            )
            aa = np.concatenate([ka, ka])
            bb = kb[cand_idx]
            same_doc = (aa // _POS_BASE) == (bb // _POS_BASE)
            if not same_doc.any():
                return empty
            aa, bb = aa[same_doc], bb[same_doc]
            diffs = np.where(aa > bb, aa - bb, bb - aa)
            idxs = (aa // _POS_BASE).astype(np.int64)
        best = np.full(base.size, np.iinfo(np.uint64).max, dtype=np.uint64)
        np.minimum.at(best, idxs, diffs)
        hit = np.flatnonzero(best <= np.uint64(window))
        out = pa.table(
            {
                "doc_id": pa.array(base[hit], type=pa.uint64()),
                "min_dist": pa.array(best[hit], type=pa.uint64()),
            }
        )
        return self._drop_deleted(out, deleted_doc_ids)
