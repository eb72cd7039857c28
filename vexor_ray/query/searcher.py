"""BM25 query execution over a committed index.

Exact term-at-a-time scorer (the oracle-parity path) + block-max WAND
(the fast path, ``wand.py``) — both rank-identical to
``vexor_ray.refimpl.oracle`` by construction:

- float64 accumulation in the same association order as the reference's
  per-posting expression ``idf * tf * (k1+1) / (tf + k1*(1-b+b*dl/avgdl))``;
- per-doc sums accumulate term-by-term in query order (np.bincount walks the
  concatenated per-term arrays sequentially), matching the oracle's dict
  accumulation, so even score *ties* agree bit-for-bit;
- top-k ordered by (score desc, docID asc).

Segment access is partition-pruned: a term's chunks live in wave
``hash(term) % W`` (recorded in the manifest), and parquet row-group
statistics on the key-sorted ``term`` column prune within a wave, so a
query touches only the row groups its terms live in — never "load the
whole index" (the central win over the reference's eager
load-everything-into-RAM query path, ``vexor/cache.py:1320-1363``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..hashing import hash_terms
from ..refimpl import bm25 as refbm25
from ..index.manifest import load_manifest


def rrf_fuse_orders(
    dense_order: list[int],
    bm25_order: list[int],
    *,
    rrf_k: int | None = None,
    dense_weight: float | None = None,
    bm25_weight: float | None = None,
) -> dict[int, "np.float32"]:
    """Weighted reciprocal-rank fusion of two rankings — reference parity.

    Mirrors the reference's ``rrf_fuse`` (``vexor/bm25.py:92-115``) exactly:
    a float32 accumulator receives ``w * (k + 1.0) / (k + rank)`` computed in
    float64 and rounded to float32 at each ``+=`` (numpy in-place-add
    semantics on a float32 array), dense contributions first.  The same
    arithmetic is expressible in SQL with FLOAT casts, so fusion output is
    value-checkable bit-for-bit.
    """
    from ..spec import RRF_BM25_WEIGHT, RRF_DENSE_WEIGHT, RRF_K

    kk = RRF_K if rrf_k is None else rrf_k
    wd = RRF_DENSE_WEIGHT if dense_weight is None else dense_weight
    wb = RRF_BM25_WEIGHT if bm25_weight is None else bm25_weight
    fused: dict[int, np.float32] = {}
    for rank, d in enumerate(dense_order, start=1):
        # np.float32 + python-float promotes to float64, then the store
        # narrows to float32 — identical to ``arr_f32[i] += expr_f64``
        fused[d] = np.float32(
            fused.get(d, np.float32(0.0)) + wd * (kk + 1.0) / (kk + rank)
        )
    for rank, d in enumerate(bm25_order, start=1):
        fused[d] = np.float32(
            fused.get(d, np.float32(0.0)) + wb * (kk + 1.0) / (kk + rank)
        )
    return fused


def _chunks_from_table(
    tbl: pa.Table, block_size: int | None = None
) -> list[tuple[str, dict]]:
    """Chunk dicts from a segment-row table, zero-copy for blobs and lists."""
    tbl = tbl.combine_chunks()
    out: list[tuple[str, dict]] = []
    if tbl.num_rows == 0:
        return out
    cols = {name: tbl.column(name).chunk(0) for name in tbl.column_names}
    terms = cols["term"].to_pylist()
    n_postings = cols["n_postings"].to_numpy()
    salts = cols["salt"].to_numpy()
    has_impact = "imp_cmax" in cols
    for i in range(tbl.num_rows):
        chunk = {
            "salt": int(salts[i]),
            "n_postings": int(n_postings[i]),
            "block_size": block_size,
            "doc_blob": memoryview(cols["doc_blob"][i].as_buffer()),
            "tf_blob": memoryview(cols["tf_blob"][i].as_buffer()),
            "dl_blob": memoryview(cols["dl_blob"][i].as_buffer()),
            "doc_off": cols["doc_off"][i].values.to_numpy(),
            "tf_off": cols["tf_off"][i].values.to_numpy(),
            "dl_off": cols["dl_off"][i].values.to_numpy(),
            "block_last": cols["block_last"][i].values.to_numpy(),
            "block_ub": cols["block_ub"][i].values.to_numpy(),
        }
        if has_impact:
            chunk.update(
                {
                    "imp_doc_blob": memoryview(cols["imp_doc_blob"][i].as_buffer()),
                    "imp_tf_blob": memoryview(cols["imp_tf_blob"][i].as_buffer()),
                    "imp_dl_blob": memoryview(cols["imp_dl_blob"][i].as_buffer()),
                    "imp_doc_off": cols["imp_doc_off"][i].values.to_numpy(),
                    "imp_tf_off": cols["imp_tf_off"][i].values.to_numpy(),
                    "imp_dl_off": cols["imp_dl_off"][i].values.to_numpy(),
                    "imp_cmax": cols["imp_cmax"][i].values.to_numpy(),
                }
            )
        out.append((terms[i], chunk))
    return out


def _imp_rows_from_table(tbl: pa.Table) -> list[tuple[str, dict]]:
    """Impact-column-only rows (cache-upgrade reads): (term, partial chunk)."""
    tbl = tbl.combine_chunks()
    out: list[tuple[str, dict]] = []
    if tbl.num_rows == 0:
        return out
    cols = {name: tbl.column(name).chunk(0) for name in tbl.column_names}
    terms = cols["term"].to_pylist()
    for i in range(tbl.num_rows):
        out.append(
            (
                terms[i],
                {
                    "salt": int(cols["salt"][i].as_py()),
                    "n_postings": int(cols["n_postings"][i].as_py()),
                    "imp_doc_blob": memoryview(cols["imp_doc_blob"][i].as_buffer()),
                    "imp_tf_blob": memoryview(cols["imp_tf_blob"][i].as_buffer()),
                    "imp_dl_blob": memoryview(cols["imp_dl_blob"][i].as_buffer()),
                    "imp_doc_off": cols["imp_doc_off"][i].values.to_numpy(),
                    "imp_tf_off": cols["imp_tf_off"][i].values.to_numpy(),
                    "imp_dl_off": cols["imp_dl_off"][i].values.to_numpy(),
                    "imp_cmax": cols["imp_cmax"][i].values.to_numpy(),
                },
            )
        )
    return out


class Searcher:
    """Query executor bound to one committed index directory."""

    def __init__(
        self,
        index_dir: "str | Path | object",
        *,
        max_dense_docs: int | None = None,
        filesystem=None,
        manifest_name: str | None = None,
    ):
        from ..index.storage import Store

        self._store = Store.resolve(index_dir, filesystem)
        self._fs = self._store.fs
        # keep index_dir a Path for local indexes (the common case and the
        # historical public attribute); non-local callers get the Store
        self.index_dir = (
            Path(self._store.base) if self._store.atomic_rename else self._store
        )
        self._max_dense_docs_arg = max_dense_docs
        # manifest_name pins a retained snapshot (index/manifest.py::
        # list_manifests) — time-travel read across incremental
        # generations; None follows the committed pointer
        self._manifest_name = manifest_name
        self.manifest = load_manifest(self._store, at=manifest_name)
        stats = self.manifest["stats"]
        self.doc_count: int = stats["doc_count"]
        self.avg_doc_len: float = stats["avg_doc_len"]
        # pending deletions (index/deletes.py): physical stats above stay as
        # built; every scoring decision uses the LIVE statistics below, so
        # results equal a fresh build over the complement corpus exactly
        # (same integer totals -> same float avgdl; postings of tombstoned
        # docs are masked at decode).  n_deleted == 0 makes live == physical.
        self._deletes: dict | None = self.manifest.get("deletes")
        self._tomb_ids_arr: np.ndarray | None = None
        _n_del = int(self._deletes.get("n_deleted", 0)) if self._deletes else 0
        self._has_tombs = _n_del > 0
        if self._has_tombs:
            self.live_doc_count: int = self.doc_count - _n_del
            _live_total = stats["total_doc_len"] - int(
                self._deletes.get("deleted_total_len", 0)
            )
            self.live_total_doc_len: int = _live_total
            self.live_avg_doc_len: float = (
                _live_total / self.live_doc_count if self.live_doc_count else 0.0
            )
        else:
            self.live_doc_count = self.doc_count
            self.live_total_doc_len = int(
                stats.get("total_doc_len")
                or round(self.avg_doc_len * self.doc_count)
            )
            self.live_avg_doc_len = self.avg_doc_len
        cfg = self.manifest["config"]
        self.k1: float = cfg["k1"]
        self.b: float = cfg["b"]
        self.num_waves: int = cfg["num_waves"]
        self.salt_shift: int = cfg.get("salt_shift", 20)
        # uniform posting-block length (encode_runs slices runs into
        # fixed-size blocks) — lets the WAND drain map (block, pos) to a
        # global offset into a cached full-chunk decode
        self._block_size: int | None = cfg.get("block_size")
        # posting streams are varint only: an index an earlier version
        # built with another codec must be rebuilt, not misread
        codec_name = cfg.get("posting_codec", "varint")
        if codec_name != "varint":
            raise ValueError(
                f"index posting codec {codec_name!r} is no longer supported; "
                "rebuild the index (varint posting streams)"
            )
        # impact-ordered companion layout present?  (manifest config flag —
        # cheaper and earlier than probing chunks).  The imp_* columns are
        # only READ when a query actually routes to the TA scorer: on an
        # impact index they roughly double the segment bytes, and exact /
        # WAND queries must not pay that IO.
        self._impact = bool(cfg.get("impact_postings"))
        # per-wave generation list (incremental builds append generations;
        # a chunk from gen g is superseded when its salt's file index was
        # re-indexed by a LATER generation — salt ranges nest inside file
        # docID ranges because salt_shift <= 32, so supersede is exact at
        # chunk granularity).  block_ub was encoded with that generation's
        # avgdl; scaling by max(1, avg_now/avg_gen) keeps WAND bounds
        # conservative (comp is monotone in avgdl with ratio <= avg ratio).
        raw_gens = self.manifest.get("wave_gens")
        if raw_gens is None:  # legacy single-generation manifests
            raw_gens = {
                w: [
                    {
                        "gen": 0,
                        "files": files,
                        "covers_files": [],
                        "avgdl": self.avg_doc_len,
                    }
                ]
                for w, files in self.manifest["waves"].items()
            }
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
                avgdl_gen = g.get("avgdl") or self.avg_doc_len
                # prefer build-time footer stats from the manifest; fall back
                # to a lazy per-file sweep for indexes built before th_bounds
                bounds = None
                tb = g.get("th_bounds")
                if tb and len(tb) == len(g["files"]):
                    mins = np.asarray([x[0] for x in tb], dtype=np.uint64)
                    maxs = np.asarray([x[1] for x in tb], dtype=np.uint64)
                    order = np.argsort(mins, kind="stable")
                    bounds = (
                        mins[order],
                        maxs[order],
                        [g["files"][i] for i in order],
                    )
                out.append(
                    {
                        "files": list(g["files"]),
                        "bounds": bounds,
                        "superseded": np.array(sorted(superseded), dtype=np.uint64),
                        "ub_scale": (
                            max(1.0, self.avg_doc_len / avgdl_gen)
                            if avgdl_gen > 0
                            else 1.0
                        ),
                        "termdict": list(g.get("termdict", [])),
                    }
                )
            if out:
                self._wave_gens[int(w)] = out
        self._docs_ds = pads.dataset(self.manifest["docs_files"], filesystem=self._fs)
        # query tokenization must match the tokenizer the index was built
        # with (regex default, or the bert_union two-path plug-in)
        from ..stages.berttok import make_tokenizer

        self._query_tokenize = make_tokenizer(
            cfg.get("tokenizer", "regex"),
            cfg.get("token_pattern"),
            bpe_merges=cfg.get("bpe_merges"),
            stop_words=cfg.get("stop_words"),
        )
        # small decoded-chunk LRU: repeated query terms skip the parquet read
        # (the analogue of the reference's query cache, scoped per process)
        self._chunk_cache: dict[str, list[dict]] = {}
        self._chunk_cache_cap = 4096
        # decoded-postings LRU for HOT terms: stop-word-class terms decode
        # ~doc_count postings per query on the exact path; caching the
        # decoded arrays turns repeat hot-term queries into pure vector math.
        # Budget is in postings (~24 B each) so memory stays bounded and the
        # budget is spent on the terms where decode actually costs.
        from collections import OrderedDict

        self._postings_cache: "OrderedDict[str, tuple]" = OrderedDict()
        self._postings_cache_budget = 4_000_000  # ~100 MB ceiling
        self._postings_cache_used = 0
        self._postings_cache_min = 4096  # don't spend budget on cheap terms
        # Exact-scorer memory bound: above max_dense_docs the exact path
        # scores per SALT-RANGE SHARD (spans of _shard_span_salts consecutive
        # salts, ≤ max_dense_docs docs each) so peak scoring memory is
        # independent of doc_count — the per-shard docID indexes replace the
        # single corpus-length _doc_id_index, LRU'd under an id budget.
        from ..spec import DEFAULT_MAX_DENSE_DOCS

        self.max_dense_docs = (
            DEFAULT_MAX_DENSE_DOCS
            if self._max_dense_docs_arg is None
            else int(self._max_dense_docs_arg)
        )
        self._sharded = self.doc_count > self.max_dense_docs
        self._shard_span_salts = max(1, self.max_dense_docs >> self.salt_shift)
        self._shard_ids_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._shard_ids_budget = max(2 * self.max_dense_docs, 1)
        self._shard_ids_used = 0
        self._peak_dense_docs = 0  # introspection: max dense vector length
        # explicit reset: refresh() re-runs __init__ on a live object, and a
        # lazily-built corpus index surviving it would serve STALE docIDs
        # after an append (streaming ingestion grows the corpus in place)
        self._all_doc_ids = None
        self._dense_provider = None  # lazy (search_dense), reset on refresh
        self._dict_cache = None  # lazy vocabulary dict (fuzzy/suggest)

    # -- segment access ----------------------------------------------------
    @staticmethod
    def _gen_files_for_ths(gen: dict, ths: np.ndarray, fs=None) -> list[str]:
        """Select only the segment files whose th range can contain a query
        term hash.

        Segment files come out of the th-sorted posting exchange, so each
        file covers a disjoint th range (boundaries may repeat).  One
        footer-statistics sweep per generation (≈0.3 ms/file, done lazily on
        first touch) turns every later term lookup from a scan of ALL files
        in the wave into a scan of the 1-2 files that can hold the term —
        the difference between O(files) and O(1) file opens per cold query,
        which at 10^12 docs is the difference between touching thousands of
        segment files and a handful.
        """
        bounds = gen["bounds"]
        if bounds is None:
            mins, maxs = [], []
            for f in gen["files"]:
                md = pq.ParquetFile(
                    f if fs is None else fs.open_input_file(f)
                ).metadata
                col = next(
                    i
                    for i in range(md.num_columns)
                    if md.schema.column(i).name == "th"
                )
                fmins, fmaxs = [], []
                for rg in range(md.num_row_groups):
                    st = md.row_group(rg).column(col).statistics
                    if st is None or not st.has_min_max:
                        fmins, fmaxs = [0], [np.iinfo(np.uint64).max]
                        break
                    fmins.append(st.min)
                    fmaxs.append(st.max)
                mins.append(min(fmins) if fmins else 0)
                maxs.append(max(fmaxs) if fmaxs else np.iinfo(np.uint64).max)
            order = np.argsort(np.asarray(mins, dtype=np.uint64), kind="stable")
            gen["bounds"] = bounds = (
                np.asarray(mins, dtype=np.uint64)[order],
                np.asarray(maxs, dtype=np.uint64)[order],
                [gen["files"][i] for i in order],
            )
        mins, maxs, files = bounds
        # Full interval test, vectorized over files × terms: with the sorted
        # (range-partitioned) shuffle backend ranges are disjoint and this
        # selects 1-2 files per term; with the hash backend ranges overlap
        # arbitrarily and every covering file is (correctly) kept.
        ths = np.asarray(ths, dtype=np.uint64)
        hit = ((ths[None, :] >= mins[:, None]) & (ths[None, :] <= maxs[:, None])).any(
            axis=1
        )
        return [f for f, h in zip(files, hit) if h]

    def refresh(self) -> None:
        """Reload the committed manifest and segment layout in place.

        Needed when an online compaction replaced the segment files under a
        long-lived searcher: the new manifest references the new (bit-
        identical) generation.  Decoded caches are dropped with the rest of
        the state — refresh is a rare event, warmth rebuilds on use.
        A snapshot-pinned searcher stays pinned.
        """
        self.__init__(
            self._store,
            max_dense_docs=self._max_dense_docs_arg,
            manifest_name=self._manifest_name,
        )

    _BASE_COLUMNS = [
        "th", "term", "salt", "n_postings",
        "doc_blob", "tf_blob", "dl_blob",
        "doc_off", "tf_off", "dl_off",
        "block_last", "block_ub",
    ]
    _IMPACT_COLUMNS = [
        "imp_doc_blob", "imp_tf_blob", "imp_dl_blob",
        "imp_doc_off", "imp_tf_off", "imp_dl_off", "imp_cmax",
    ]

    def term_chunks(
        self, terms: list[str], with_impact: bool = False
    ) -> dict[str, list[dict]]:
        """Fetch encoded posting chunks for each term, surviving an online
        compaction: if a referenced segment file disappeared (compaction
        GC'd the superseded generation after committing a new manifest),
        reload the manifest once and retry — compaction is bit-identical by
        contract, so results are unchanged.

        ``with_impact=True`` additionally materializes the impact-ordered
        companion columns (TA scorer only — they double the bytes read)."""
        try:
            return self._term_chunks_once(terms, with_impact)
        except FileNotFoundError:
            self.refresh()
            return self._term_chunks_once(terms, with_impact)

    def _term_chunks_once(
        self, terms: list[str], with_impact: bool = False
    ) -> dict[str, list[dict]]:
        """One attempt at the pruned segment read (see ``term_chunks``).

        Chunks for one term are returned in ascending salt (doc-range) order,
        so their concatenation is globally docID-ascending.
        """
        out: dict[str, list[dict]] = {t: [] for t in terms}
        if not terms or self.doc_count == 0:
            return out
        want_imp = with_impact and self._impact
        need_full = [t for t in terms if t not in self._chunk_cache]
        need_upgrade = (
            [
                t
                for t in terms
                if t not in need_full
                and any("imp_cmax" not in c for c in self._chunk_cache[t])
            ]
            if want_imp
            else []
        )
        for t in terms:
            if t not in need_full and t not in need_upgrade:
                out[t] = self._chunk_cache[t]
        if not need_full and not need_upgrade:
            return out

        if need_full:
            columns = list(self._BASE_COLUMNS)
            if want_imp:
                columns += self._IMPACT_COLUMNS
            fetched = self._fetch_term_rows(need_full, columns)
            for t in need_full:
                out[t] = fetched.get(t, [])
        if need_upgrade:
            # imp-only read merged into the cached base chunks: the upgrade
            # costs the impact bytes alone, never a second base-blob read
            # (re-reading a hot term's doc/tf/dl streams doubled cold
            # latency at small corpora).  Row order is deterministic —
            # same files, filter, sort, (wave, gen) append order — so rows
            # align positionally with the cache; any mismatch (manifest
            # changed between fetches) falls back to a full impact read.
            imp_cols = ["th", "term", "salt", "n_postings"] + self._IMPACT_COLUMNS
            fetched = self._fetch_term_rows(need_upgrade, imp_cols)
            for t in need_upgrade:
                cached = self._chunk_cache[t]
                rows = fetched.get(t, [])
                if len(rows) != len(cached) or any(
                    r["salt"] != c["salt"] or r["n_postings"] != c["n_postings"]
                    for r, c in zip(rows, cached)
                ):
                    full = self._fetch_term_rows(
                        [t], list(self._BASE_COLUMNS) + self._IMPACT_COLUMNS
                    )
                    out[t] = full.get(t, [])
                    continue
                merged = []
                for r, c in zip(rows, cached):
                    u = dict(c)
                    for k in self._IMPACT_COLUMNS:
                        u[k] = r[k]
                    merged.append(u)
                out[t] = merged

        touched = need_full + need_upgrade
        if len(self._chunk_cache) + len(touched) > self._chunk_cache_cap:
            self._chunk_cache.clear()
        for t in touched:
            self._chunk_cache[t] = out[t]
        return out

    def _fetch_term_rows(
        self, terms: list[str], columns: list[str]
    ) -> dict[str, list[dict]]:
        """Pruned segment read of ``columns`` for ``terms`` → per-term chunk
        dicts in deterministic (wave, gen, salt) order."""
        out: dict[str, list[dict]] = {t: [] for t in terms}
        by_wave: dict[int, list[str]] = {}
        if self.num_waves > 1:
            waves = hash_terms(np.asarray(terms, dtype=object)) % np.uint64(
                self.num_waves
            )
            for t, w in zip(terms, waves):
                by_wave.setdefault(int(w), []).append(t)
        else:
            by_wave[0] = list(terms)
        has_base = "doc_blob" in columns

        def read_gen(gen: dict, ths: np.ndarray, wave_terms: list[str], flt):
            """One (wave, generation) segment read → [(term, chunk)]."""
            sel = self._gen_files_for_ths(gen, ths, self._fs)
            if not sel:
                return []
            tbl = pads.dataset(sel, filesystem=self._fs).to_table(
                filter=flt, columns=columns
            )
            if tbl.num_rows == 0:
                return []
            if gen["superseded"].size:
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
                if tbl.num_rows == 0:
                    return []
            tbl = tbl.sort_by([("term", "ascending"), ("salt", "ascending")])
            scale = gen["ub_scale"]
            found = []
            if has_base:
                rows = _chunks_from_table(tbl, self._block_size)
            else:
                rows = _imp_rows_from_table(tbl)
            for term, chunk in rows:
                if scale != 1.0:
                    if "block_ub" in chunk:
                        chunk["block_ub"] = chunk["block_ub"] * np.float32(scale)
                    if "imp_cmax" in chunk:
                        # same conservative stale-avgdl rescale as block_ub
                        chunk["imp_cmax"] = chunk["imp_cmax"] * np.float32(scale)
                found.append((term, chunk))
            return found

        # one task per (wave, generation); tasks run concurrently in a thread
        # pool (parquet reads release the GIL) and results are appended in
        # deterministic (wave, gen) order so each term's chunk list stays
        # gen-ascending / salt-ascending exactly as the sequential loop built
        tasks: list[tuple[int, int, dict, np.ndarray, list[str], object]] = []
        for w, wave_terms in by_wave.items():
            gens = self._wave_gens.get(w)
            if not gens:
                continue
            # th (uint64 term hash) prunes parquet row groups — segment rows
            # are sorted by th; the term equality filter resolves collisions
            ths = hash_terms(np.asarray(wave_terms, dtype=object))
            flt = pc.field("th").isin(pa.array(ths, type=pa.uint64())) & pc.field(
                "term"
            ).isin(wave_terms)
            for gi, gen in enumerate(gens):
                tasks.append((w, gi, gen, ths, wave_terms, flt))
        if len(tasks) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(8, len(tasks))) as pool:
                results = list(
                    pool.map(lambda t: read_gen(t[2], t[3], t[4], t[5]), tasks)
                )
        else:
            results = [read_gen(t[2], t[3], t[4], t[5]) for t in tasks]
        for (_w, _gi, *_), found in sorted(
            zip(tasks, results), key=lambda p: (p[0][0], p[0][1])
        ):
            for term, chunk in found:
                out[term].append(chunk)
        return out

    def warm_hot_terms(self, max_terms: int = 64) -> int:
        """Pre-decode the heaviest terms into the postings cache.

        A serving worker calls this once at startup: the cold exact-path
        tail (first-touch decode of stop-word-class posting lists) moves to
        init time.  Cost = one (term, n_postings) column scan over the
        segment metadata + one decode per hot term.
        """
        from collections import Counter

        agg: Counter = Counter()
        for gens in self._wave_gens.values():
            for gen in gens:
                tbl = pads.dataset(
                    gen["files"], filesystem=self._fs
                ).to_table(columns=["term", "n_postings"])
                terms_np = tbl.column("term").to_pylist()
                counts = tbl.column("n_postings").to_numpy()
                for t, n in zip(terms_np, counts):
                    agg[t] += int(n)
        hot = [
            t
            for t, n in agg.most_common(max_terms)
            if n >= self._postings_cache_min
        ]
        if not hot:
            return 0
        chunks_by_term = self.term_chunks(hot)
        decode = self._term_postings_raw if self._sharded else self._term_postings
        for t in hot:
            if chunks_by_term.get(t):
                decode(chunks_by_term[t], t)
        return len(hot)

    def preprocess_query(self, query: str) -> list[str]:
        """Tokenize with the index's tokenizer; order-preserving dedup, cap."""
        from ..spec import MAX_QUERY_TERMS

        return list(dict.fromkeys(self._query_tokenize(query)))[:MAX_QUERY_TERMS]

    def df(self, term: str) -> int:
        chunks = self.term_chunks([term])[term]
        if self._has_tombs and chunks:
            # live df: postings of tombstoned docs don't count (decode-time
            # mask; the decoded payload is cached so repeats are free)
            if self._sharded:
                return sum(p[1].size for p in self._term_postings_raw(chunks, term))
            return int(self._term_postings(chunks, term)[0].size)
        return sum(c["n_postings"] for c in chunks)

    # -- tombstones (pending deletions) -------------------------------------
    def _tombstones(self) -> np.ndarray | None:
        """Sorted uint64 tombstoned docIDs (lazy), or None when none exist."""
        if not self._has_tombs:
            return None
        if self._tomb_ids_arr is None:
            from ..index.deletes import load_tombstones

            ids = load_tombstones(self._store, self._deletes)
            self._tomb_ids_arr = (
                ids if ids is not None else np.zeros(0, dtype=np.uint64)
            )
        return self._tomb_ids_arr

    @staticmethod
    def _live_mask(doc_ids: np.ndarray, tomb: np.ndarray) -> np.ndarray:
        """Boolean mask: True where ``doc_ids`` is NOT tombstoned.

        ``tomb`` is sorted non-empty uint64; membership by searchsorted."""
        pos = np.searchsorted(tomb, doc_ids)
        pos[pos >= tomb.size] = tomb.size - 1
        return tomb[pos] != doc_ids

    # -- scoring -----------------------------------------------------------
    def _doc_id_index(self) -> np.ndarray:
        """Sorted array of every docID in the corpus (lazy, ~8 B/doc).

        Gives postings a DENSE coordinate space: per-term ``searchsorted``
        replaces the per-query ``np.unique`` over the concatenated posting
        lists (argsort over millions of rows — the old exact-path hot spot).
        """
        if self._all_doc_ids is None:
            tbl = self._docs_ds.to_table(columns=["doc_id"])
            ids = tbl.column("doc_id").to_numpy().astype(np.uint64)
            ids.sort()
            self._all_doc_ids = ids
        return self._all_doc_ids

    def _term_postings(self, chunks: list[dict], term: str | None = None):
        """Decoded postings in dense coordinates: (idx, tf_f64, denom_base).

        ``denom_base = k1*(1-b + b*dl/avgdl)`` is the per-posting part of
        the BM25 denominator that does not depend on the query — cached per
        hot term so a warm stop-word query is three vector ops + bincount.
        """
        if term is not None:
            hit = self._postings_cache.get(term)
            if hit is not None:
                self._postings_cache.move_to_end(term)
                return hit[1]
        from ..index.codec import decode_chunk

        parts = [decode_chunk(c) for c in chunks]
        doc_ids = np.concatenate([p[0] for p in parts])
        tfs = np.concatenate([p[1] for p in parts])
        dls = np.concatenate([p[2] for p in parts])
        tomb = self._tombstones()
        if tomb is not None and tomb.size and doc_ids.size:
            # decode-time tombstone mask: postings of deleted docs never
            # enter the dense coordinate space, df, or the cache — exactly
            # what a fresh build over the complement corpus would decode
            live = self._live_mask(doc_ids, tomb)
            if not live.all():
                doc_ids, tfs, dls = doc_ids[live], tfs[live], dls[live]
        idx = np.searchsorted(self._doc_id_index(), doc_ids)
        tf_f = tfs.astype(np.float64)
        dl_f = dls.astype(np.float64)
        k1, b = self.k1, self.b
        denom_base = k1 * ((1.0 - b) + (b * dl_f) / self.live_avg_doc_len)
        out = (idx, tf_f, denom_base, dl_f)
        self._postings_cache_put(term, int(idx.size), out)
        return out

    def _postings_cache_put(self, term: str | None, n: int, payload) -> None:
        """Insert a decoded-postings payload under the postings budget.

        Values are stored as ``(n_postings, payload)`` so eviction accounting
        is payload-shape-agnostic (the global path caches dense-coordinate
        tuples under plain ``term`` keys, the sharded path per-chunk raw
        tuples under ``("raw", term)``).  One searcher only ever caches one
        shape, decided by ``_sharded`` at construction: the non-sharded WAND
        drain derives raw views from the dense entry
        (``_wand_tail_provider``) instead of decoding a second copy, so a
        hot term never occupies the budget twice.
        """
        if term is None or n < self._postings_cache_min:
            return
        while (
            self._postings_cache
            and self._postings_cache_used + n > self._postings_cache_budget
        ):
            _, (old_n, _old) = self._postings_cache.popitem(last=False)
            self._postings_cache_used -= old_n
        if self._postings_cache_used + n <= self._postings_cache_budget:
            self._postings_cache[term] = (n, payload)
            self._postings_cache_used += n

    def _term_postings_raw(self, chunks: list[dict], term: str | None = None):
        """Per-chunk decoded postings WITHOUT a global dense mapping:
        ``[(salt, doc_ids_u64, tf_f64, denom_base_f64, dl_f64)]``.

        The sharded exact path groups these by salt-range shard and maps
        docIDs into shard-local coordinates per query, so no corpus-length
        index is ever materialized; the WAND drain reuses the same cache to
        avoid re-decoding dense terms every query.  Cached under the same
        postings budget, in a ``("raw", term)`` key namespace so a
        non-sharded searcher's dense-coordinate entries (plain ``term``
        keys) never collide with raw entries.
        """
        key = None if term is None else ("raw", term)
        if key is not None:
            hit = self._postings_cache.get(key)
            if hit is not None:
                self._postings_cache.move_to_end(key)
                return hit[1]
        from ..index.codec import decode_chunk

        k1, b = self.k1, self.b
        tomb = self._tombstones()
        parts = []
        n = 0
        for c in chunks:
            doc_ids, tfs, dls = decode_chunk(c)
            if tomb is not None and tomb.size and doc_ids.size:
                live = self._live_mask(doc_ids, tomb)
                if not live.all():
                    doc_ids, tfs, dls = doc_ids[live], tfs[live], dls[live]
            tf_f = tfs.astype(np.float64)
            dl_f = dls.astype(np.float64)
            denom_base = k1 * ((1.0 - b) + (b * dl_f) / self.live_avg_doc_len)
            parts.append((int(c.get("salt", 0)), doc_ids, tf_f, denom_base, dl_f))
            n += int(doc_ids.size)
        self._postings_cache_put(key, n, parts)
        return parts

    def _shard_doc_ids(self, shard_id: int) -> np.ndarray:
        """Sorted docIDs of one salt-range shard (LRU'd under an id budget).

        A shard covers docIDs ``[shard_id * span, (shard_id+1) * span)`` with
        ``span = _shard_span_salts << salt_shift`` — exactly the docs whose
        salt falls in the shard's consecutive-salt range, so every posting of
        a chunk with salt s lands in shard ``s // _shard_span_salts``.  The
        read is row-group-pruned by the docID range predicate.
        """
        hit = self._shard_ids_cache.get(shard_id)
        if hit is not None:
            self._shard_ids_cache.move_to_end(shard_id)
            return hit
        span = self._shard_span_salts << self.salt_shift
        lo = shard_id * span
        hi = lo + span
        flt = (pc.field("doc_id") >= pa.scalar(lo, pa.uint64())) & (
            pc.field("doc_id") < pa.scalar(min(hi, (1 << 64) - 1), pa.uint64())
        )
        tbl = self._docs_ds.to_table(columns=["doc_id"], filter=flt)
        ids = tbl.column("doc_id").to_numpy().astype(np.uint64)
        ids.sort()
        n = int(ids.size)
        while (
            self._shard_ids_cache
            and self._shard_ids_used + n > self._shard_ids_budget
        ):
            _, old = self._shard_ids_cache.popitem(last=False)
            self._shard_ids_used -= int(old.size)
        if self._shard_ids_used + n <= self._shard_ids_budget:
            self._shard_ids_cache[shard_id] = ids
            self._shard_ids_used += n
        return ids

    def _exact_scores(
        self,
        terms: list[str],
        chunks_by_term: dict[str, list[dict]],
        *,
        doc_count: int | None = None,
        avg_doc_len: float | None = None,
        df_by_term: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, scores) for all matching docs — oracle-identical floats.

        The keyword overrides let a federation layer score this index's
        postings under GLOBAL corpus statistics (union doc_count / avgdl /
        df), keeping per-doc float association order — and therefore exact
        score parity with a single union index — intact.
        """
        if self._sharded:
            return self._exact_scores_sharded(
                terms,
                chunks_by_term,
                doc_count=doc_count,
                avg_doc_len=avg_doc_len,
                df_by_term=df_by_term,
            )
        k1, b = self.k1, self.b
        avgdl = self.live_avg_doc_len if avg_doc_len is None else avg_doc_len
        n_docs = self.live_doc_count if doc_count is None else doc_count
        # decoded denom_base is cached under the LIVE avgdl; recompute only
        # when a federation layer scores under different (union) stats
        override_avg = (
            avg_doc_len is not None and avg_doc_len != self.live_avg_doc_len
        )
        all_ids = self._doc_id_index()
        self._peak_dense_docs = max(self._peak_dense_docs, int(all_ids.size))
        # Per-term bincount accumulated into one dense scores vector.  Each
        # doc receives its term contributions in query-term order and skipped
        # terms add exact +0.0, so the float association order — and thus
        # bit-identity with the oracle's dict accumulation — is unchanged
        # versus the previous concatenate-then-bincount form, while the peak
        # allocation drops from O(total postings) to O(doc_count): no
        # multi-MB concat per query (first-touch page faults on fresh large
        # buffers are pathologically slow on some kernels).
        scores: np.ndarray | None = None
        matched = False
        for term in terms:
            chunks = chunks_by_term.get(term, [])
            if not chunks:
                continue
            idx, tf, denom_base, dl = self._term_postings(chunks, term)
            if df_by_term is not None:
                df = df_by_term[term]
            elif self._has_tombs:
                df = int(idx.size)  # live df: decode-time mask already applied
            else:
                df = sum(c["n_postings"] for c in chunks)
            if df == 0:
                continue
            idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
            if override_avg:
                # federation scores under the union avgdl, not the cached one
                denom_base = k1 * ((1.0 - b) + (b * dl) / avgdl)
            denom = tf + denom_base
            contrib = (idf * tf) * (k1 + 1.0) / denom
            part = np.bincount(idx, weights=contrib, minlength=all_ids.size)
            matched = True
            if scores is None:
                scores = part
            else:
                scores += part
        if not matched or scores is None:
            return np.zeros(0, dtype=np.uint64), np.zeros(0)
        nz = np.flatnonzero(scores)
        return all_ids[nz], scores[nz]

    def _exact_scores_sharded(
        self,
        terms: list[str],
        chunks_by_term: dict[str, list[dict]],
        *,
        doc_count: int | None = None,
        avg_doc_len: float | None = None,
        df_by_term: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Memory-bounded exact scoring: one salt-range shard at a time.

        Bit-identical to the dense path by construction: a doc's score is the
        sum of its per-term contributions in query-term order, each computed
        by the same float64 expression; partitioning the DOC space changes
        neither any per-posting value nor any per-doc accumulation order (all
        contributions are > 0 — idf > 0 since its log argument exceeds 1 —
        so skipped-term +0.0 adds are exact identities).  Output is
        docID-ascending, same as the dense path, because shards are processed
        in ascending docID-range order.  Peak memory per query is
        O(max_dense_docs), independent of doc_count (verified by
        ``tests/test_build_and_search.py::test_sharded_scorer_*``).
        """
        k1, b = self.k1, self.b
        avgdl = self.live_avg_doc_len if avg_doc_len is None else avg_doc_len
        n_docs = self.live_doc_count if doc_count is None else doc_count
        override_avg = (
            avg_doc_len is not None and avg_doc_len != self.live_avg_doc_len
        )
        span = self._shard_span_salts
        idf_by_term: dict[str, float] = {}
        decoded: dict[str, list] = {}
        shard_ids: set[int] = set()
        for term in terms:
            chunks = chunks_by_term.get(term, [])
            if not chunks:
                continue
            parts = self._term_postings_raw(chunks, term)
            # df is GLOBAL (all shards), so idf is shard-independent; with
            # pending deletions it counts the decode-time-masked postings
            if df_by_term is not None:
                df = df_by_term[term]
            elif self._has_tombs:
                df = sum(int(p[1].size) for p in parts)
            else:
                df = sum(c["n_postings"] for c in chunks)
            if df == 0:
                continue
            idf_by_term[term] = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
            decoded[term] = parts
            shard_ids.update(p[0] // span for p in parts)
        if not decoded:
            return np.zeros(0, dtype=np.uint64), np.zeros(0)
        out_ids: list[np.ndarray] = []
        out_scores: list[np.ndarray] = []
        for sid in sorted(shard_ids):
            local_ids = self._shard_doc_ids(sid)
            if local_ids.size == 0:
                continue
            self._peak_dense_docs = max(self._peak_dense_docs, int(local_ids.size))
            scores: np.ndarray | None = None
            for term in terms:
                parts = decoded.get(term)
                if not parts:
                    continue
                sel = [p for p in parts if p[0] // span == sid]
                if not sel:
                    continue
                if len(sel) > 1:
                    doc_ids = np.concatenate([p[1] for p in sel])
                    tf = np.concatenate([p[2] for p in sel])
                    denom_base = np.concatenate([p[3] for p in sel])
                    dl = np.concatenate([p[4] for p in sel])
                else:
                    _, doc_ids, tf, denom_base, dl = sel[0]
                if override_avg:
                    denom_base = k1 * ((1.0 - b) + (b * dl) / avgdl)
                idx = np.searchsorted(local_ids, doc_ids)
                denom = tf + denom_base
                contrib = (idf_by_term[term] * tf) * (k1 + 1.0) / denom
                part = np.bincount(idx, weights=contrib, minlength=local_ids.size)
                if scores is None:
                    scores = part
                else:
                    scores += part
            if scores is None:
                continue
            nz = np.flatnonzero(scores)
            if nz.size:
                out_ids.append(local_ids[nz])
                out_scores.append(scores[nz])
        if not out_ids:
            return np.zeros(0, dtype=np.uint64), np.zeros(0)
        return np.concatenate(out_ids), np.concatenate(out_scores)

    @staticmethod
    def _top_k(doc_ids: np.ndarray, scores: np.ndarray, k: int):
        if doc_ids.size == 0 or k <= 0:
            return []
        if doc_ids.size > 8 * k:
            # two-phase: argpartition to a candidate set, widened to include
            # every row tying the boundary score so tie-break stays exact
            cut = min(2 * k, doc_ids.size - 1)
            cand = np.argpartition(-scores, cut)[: cut + 1]
            kth = np.partition(-scores[cand], k - 1)[k - 1]
            cand = np.flatnonzero(scores >= -kth)
        else:
            cand = np.arange(doc_ids.size)
        order = np.lexsort((doc_ids[cand], -scores[cand]))
        ranked = cand[order][:k]
        return [(int(doc_ids[i]), float(scores[i])) for i in ranked]

    # above this many candidate postings, the vectorized exact scorer beats
    # cursor-walking WAND (pruning cannot pay for per-posting Python)
    AUTO_WAND_MAX_POSTINGS = 30_000

    def explain(self, query: str, doc_id: int) -> dict:
        """Per-term BM25 score breakdown for ONE document (Lucene-explain).

        ``doc_id`` is the engine's internal docID exactly as ``search``
        returns it.  Each query term contributes
        ``(idf * tf) * (k1 + 1) / (tf + k1*(1 - b + b*dl/avgdl))`` — the
        per-posting expression of the exact scorer, computed with the SAME
        scalar operations — so ``sum(t["contribution"])`` in query-term
        order is bit-identical to the doc's ``search`` score.  Terms absent
        from the doc (or from the corpus) report ``tf=0, contribution=0``.
        Deleted (tombstoned) docs explain as all-absent: the decode-time
        mask already dropped their postings.
        """
        terms = self.preprocess_query(query)
        out = {
            "doc_id": int(doc_id),
            "score": 0.0,
            "doc_count": self.live_doc_count,
            "avg_doc_len": self.live_avg_doc_len,
            "k1": self.k1,
            "b": self.b,
            "terms": [],
        }
        if not terms or self.live_doc_count == 0 or self.live_avg_doc_len <= 0:
            return out
        chunks_by_term = self.term_chunks(terms)
        k1 = self.k1
        n_docs = self.live_doc_count
        total = 0.0
        for term in terms:
            row = {
                "term": term,
                "tf": 0,
                "df": 0,
                "doc_len": None,
                "idf": 0.0,
                "contribution": 0.0,
            }
            chunks = chunks_by_term.get(term, [])
            if chunks:
                # sharded searchers cache raw per-chunk payloads under
                # ('raw', term); don't pollute that namespace with a dense
                # entry — pass term=None to skip the cache there
                idx, tf, denom_base, dl = self._term_postings(
                    chunks, None if self._sharded else term
                )
                all_ids = self._doc_id_index()
                if self._has_tombs:
                    df = int(idx.size)
                else:
                    df = sum(c["n_postings"] for c in chunks)
                if df > 0:
                    row["df"] = df
                    row["idf"] = math.log(
                        (n_docs - df + 0.5) / (df + 0.5) + 1.0
                    )
                    pos = np.searchsorted(all_ids, np.uint64(doc_id))
                    if pos < all_ids.size and all_ids[pos] == np.uint64(doc_id):
                        hit = np.flatnonzero(idx == pos)
                        if hit.size:
                            j = int(hit[0])
                            tf_d = tf[j]
                            # scalar mirror of the vector kernel: same ops,
                            # same order, bit-identical contribution
                            contrib = (
                                (row["idf"] * tf_d)
                                * (k1 + 1.0)
                                / (tf_d + denom_base[j])
                            )
                            row["tf"] = int(tf_d)
                            row["doc_len"] = int(dl[j])
                            row["contribution"] = float(contrib)
                            total += contrib
            out["terms"].append(row)
        out["score"] = float(total)
        return out

    def search(self, query: str, k: int = 10, method: str = "auto"):
        """BM25 top-k: ``[(doc_id, score)]`` ranked by (score desc, docID asc).

        ``method``: "exact" (vectorized term-at-a-time), "wand" (block-max
        WAND), "impact" (Threshold-Algorithm over the opt-in impact-ordered
        layout — requires ``BuildConfig(impact_postings=True)``), or "auto"
        — pick per query by candidate volume.  All are rank-identical; auto
        only chooses the faster engine (preferring impact over wand for
        cold selective queries when the index carries the layout).
        """
        terms = self.preprocess_query(query)
        if not terms or self.live_doc_count == 0 or self.live_avg_doc_len <= 0:
            return []
        if self._has_tombs:
            # pending deletions: only the exact scorer masks tombstoned
            # postings and recomputes live df/idf; WAND block bounds and
            # impact frontiers were encoded over the physical postings and
            # cannot be made tight under deletion, so those arms require a
            # physical index (purge_deletes / compact_index)
            if method == "auto":
                method = "exact"
            elif method in ("wand", "impact"):
                raise ValueError(
                    f"index has {self._deletes.get('n_deleted')} pending "
                    f"deletions; method={method!r} needs a physical index — "
                    "run purge_deletes()/compact_index, or use method='exact'"
                )
        # explicit method="impact" fetches the companion columns in the ONE
        # read; only auto-routing pays the (imp-only) upgrade fetch after a
        # base-column read decided the route
        chunks_by_term = self.term_chunks(terms, with_impact=(method == "impact"))
        if method == "auto":
            total = sum(
                c["n_postings"] for cl in chunks_by_term.values() for c in cl
            )
            uncached = sum(
                c["n_postings"]
                for t in terms
                if t not in self._postings_cache
                for c in chunks_by_term.get(t, [])
            )
            if uncached <= self.AUTO_WAND_MAX_POSTINGS:
                # cheap to decode (or already hot) → the vectorized exact
                # scorer is pure in-memory math and beats any cursor walk
                method = "exact"
            else:
                # big cold volume: block-max WAND wins only when the heap
                # threshold can actually skip the common term's blocks —
                # i.e. at most ONE common term, driven by rare high-idf
                # companions.  With 2+ common terms pruning never pays for
                # the per-posting Python walk, and exact (which also
                # populates the decoded-postings cache, so the cost never
                # recurs) is the right choice.
                dfs = [
                    sum(c["n_postings"] for c in chunks_by_term[t])
                    for t in terms
                    if chunks_by_term.get(t)
                ]
                n_common = sum(1 for df in dfs if df * 100 > self.doc_count)
                selective = n_common <= 1 and any(
                    df * 100 <= self.doc_count for df in dfs
                )
                if not selective:
                    method = "exact"
                else:
                    method = "impact" if self._impact else "wand"
        if method == "impact":
            from .impact import impact_topk

            # upgrade fetch: routing above used base columns only; the TA
            # scorer needs the impact companion payload for these terms
            chunks_by_term = self.term_chunks(terms, with_impact=True)
            return impact_topk(
                terms,
                chunks_by_term,
                doc_count=self.doc_count,
                avg_doc_len=self.avg_doc_len,
                k=k,
                k1=self.k1,
                b=self.b,
            )
        if method == "exact":
            doc_ids, scores = self._exact_scores(terms, chunks_by_term)
            return self._top_k(doc_ids, scores, k)
        if method == "wand":
            from .wand import block_max_wand

            return block_max_wand(
                terms,
                chunks_by_term,
                doc_count=self.doc_count,
                avg_doc_len=self.avg_doc_len,
                k=k,
                k1=self.k1,
                b=self.b,
                decoded_provider=self._wand_tail_provider,
            )
        raise ValueError(f"unknown method {method!r}")

    def _wand_tail_provider(self, chunks: list[dict], term: str):
        """Cached raw decode for the WAND drain — DENSE terms only.

        Small terms return None (the drain's decode_tail on a short chunk is
        cheaper than a full decode that the cache floor would never keep).
        A sharded searcher decodes once into the ``("raw", term)`` cache; a
        non-sharded searcher reuses (or populates) the SAME dense-coordinate
        cache entry the exact path uses — per-chunk raw views are derived
        from it by a gather + slicing — so one term never occupies the
        postings budget twice under two key namespaces.
        """
        if sum(c["n_postings"] for c in chunks) < self._postings_cache_min:
            return None
        if self._sharded:
            return self._term_postings_raw(chunks, term)
        idx, tf_f, denom_base, dl_f = self._term_postings(chunks, term)
        doc_ids = self._doc_id_index()[idx]  # exact inverse of searchsorted
        parts, off = [], 0
        for c in chunks:  # dense concat preserved chunk order
            n = int(c["n_postings"])
            sl = slice(off, off + n)
            parts.append(
                (int(c.get("salt", 0)), doc_ids[sl], tf_f[sl],
                 denom_base[sl], dl_f[sl])
            )
            off += n
        return parts

    def expand_prefix(self, prefix: str, max_terms: int | None = None) -> list[str]:
        """Sorted corpus terms starting with ``prefix``.

        Reads the per-generation term-dictionary sidecars (sorted by term,
        so the range predicate prunes parquet row groups); legacy indexes
        without dictionaries fall back to a columnar scan of the segment
        ``term`` column (correct, unpruned).  Terms whose postings were
        fully superseded by later generations may appear — they score
        exactly 0 downstream, so expansion stays correct.

        ``max_terms``: truncate lexicographically (deterministic) — the
        guard against a one-letter prefix expanding to the whole vocabulary.
        """
        if not prefix:
            raise ValueError("empty prefix would expand to the whole vocabulary")
        hi = prefix + chr(0x10FFFF)
        flt = (pc.field("term") >= prefix) & (pc.field("term") < hi)
        dict_files = [
            f
            for gens in self._wave_gens.values()
            for g in gens
            for f in g.get("termdict", [])
        ]
        if dict_files:
            tbl = pads.dataset(dict_files, filesystem=self._fs).to_table(
                columns=["term"], filter=flt
            )
        else:
            seg_files = [
                f
                for gens in self._wave_gens.values()
                for g in gens
                for f in g["files"]
            ]
            tbl = pads.dataset(seg_files, filesystem=self._fs).to_table(
                columns=["term"], filter=flt
            )
        terms = sorted(set(tbl.column("term").to_pylist()))
        if max_terms is not None and len(terms) > max_terms:
            terms = terms[:max_terms]
        return terms

    def expand_suffix(self, suffix: str, max_terms: int | None = None) -> list[str]:
        """Sorted corpus terms ending with ``suffix`` (leading wildcard).

        Unlike the prefix path, the forward-sorted dictionary cannot
        range-prune a suffix predicate, so this is one vectorized columnar
        scan of the term dictionary (vocabulary-sized, not corpus-sized)
        per call — ``pc.ends_with`` over the dict column.  A production
        index serving heavy leading-wildcard traffic would add a
        reversed-term dictionary sidecar; the scan keeps this exact and
        dependency-free."""
        if not suffix:
            raise ValueError("empty suffix would expand to the whole vocabulary")
        return self._scan_dict_terms(
            lambda col: pc.ends_with(col, pattern=suffix), max_terms
        )

    def expand_contains(self, infix: str, max_terms: int | None = None) -> list[str]:
        """Sorted corpus terms containing ``infix`` (double wildcard)."""
        if not infix:
            raise ValueError("empty infix would expand to the whole vocabulary")
        return self._scan_dict_terms(
            lambda col: pc.match_substring(col, pattern=infix), max_terms
        )

    def _scan_dict_terms(self, pred, max_terms: int | None) -> list[str]:
        """One columnar scan of the term dictionary (segment fallback),
        filtered by ``pred(column) -> BooleanArray``."""
        dict_files = [
            f
            for gens in self._wave_gens.values()
            for g in gens
            for f in g.get("termdict", [])
        ]
        if dict_files:
            tbl = pads.dataset(dict_files, filesystem=self._fs).to_table(
                columns=["term"]
            )
        else:
            seg_files = [
                f
                for gens in self._wave_gens.values()
                for g in gens
                for f in g["files"]
            ]
            tbl = pads.dataset(seg_files, filesystem=self._fs).to_table(
                columns=["term"]
            )
        col = tbl.column("term")
        hits = col.filter(pred(col))
        terms = sorted(set(hits.to_pylist()))
        if max_terms is not None and len(terms) > max_terms:
            terms = terms[:max_terms]
        return terms

    def search_prefix(
        self, prefix: str, k: int = 10, max_terms: int | None = 1024
    ) -> list[tuple[int, float]]:
        """BM25 top-k treating every term with the given prefix as a query
        term (wildcard ``prefix*`` — beyond-reference: the reference can
        only score literal query tokens).  Scoring is the exact scorer over
        the expanded term list in lexicographic order, so results are
        deterministic and SQL-checkable."""
        terms = self.expand_prefix(prefix, max_terms)
        if not terms or self.live_doc_count == 0 or self.live_avg_doc_len <= 0:
            return []
        chunks_by_term = self.term_chunks(terms)
        doc_ids, scores = self._exact_scores(terms, chunks_by_term)
        return self._top_k(doc_ids, scores, k)

    def _dictionary_terms(
        self, nlen_range: tuple[int, int] | None = None
    ) -> dict[str, int]:
        """term → df over the LIVE postings, cached per searcher.

        Single-generation indexes read the term-dictionary sidecars (exact
        by construction).  Multi-generation (incremental) indexes fall back
        to a supersede-aware scan of the segment (term, n_postings, salt)
        columns: per-generation dictionaries have no supersede filter, so
        summing them would double-count every doc a delta generation
        re-indexed (and keep dfs for terms its docs no longer contain).
        One read either way — the vocabulary dict is cached and length
        filters are applied against the cache.
        """
        if self._dict_cache is None:
            agg: dict[str, int] = {}
            single_gen = all(
                len(gens) == 1 for gens in self._wave_gens.values()
            )
            dict_files = [
                f
                for gens in self._wave_gens.values()
                for g in gens
                for f in g.get("termdict", [])
            ]
            if dict_files and single_gen:
                tbl = pads.dataset(dict_files, filesystem=self._fs).to_table(
                    columns=["term", "df"]
                )
                for t, d in zip(
                    tbl.column("term").to_pylist(), tbl.column("df").to_numpy()
                ):
                    agg[t] = agg.get(t, 0) + int(d)
            else:
                for gens in self._wave_gens.values():
                    for gen in gens:
                        tbl = pads.dataset(
                            gen["files"], filesystem=self._fs
                        ).to_table(columns=["term", "n_postings", "salt"])
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
                        for t, d in zip(
                            tbl.column("term").to_pylist(),
                            tbl.column("n_postings").to_numpy(),
                        ):
                            agg[t] = agg.get(t, 0) + int(d)
            self._dict_cache = agg
        if nlen_range is None:
            return self._dict_cache
        lo, hi = nlen_range
        return {
            t: d for t, d in self._dict_cache.items() if lo <= len(t) <= hi
        }

    @staticmethod
    def _within_edit1(a: str, b: str) -> bool:
        """True iff levenshtein(a, b) <= 1 (linear two-pointer check)."""
        la, lb = len(a), len(b)
        if abs(la - lb) > 1:
            return False
        if la == lb:
            return sum(x != y for x, y in zip(a, b)) <= 1
        if la > lb:
            a, b, la, lb = b, a, lb, la
        # a is shorter by one: one skip allowed in b
        i = j = 0
        skipped = False
        while i < la and j < lb:
            if a[i] == b[j]:
                i += 1
                j += 1
            elif skipped:
                return False
            else:
                skipped = True
                j += 1
        return True

    def expand_fuzzy(self, term: str, max_terms: int | None = None) -> list[str]:
        """Corpus terms within Levenshtein distance 1 of ``term``, sorted.

        Dictionary-driven: candidates are pre-filtered to length ±1, then
        checked with a linear edit-distance-1 test.  The per-candidate
        Python loop is vocabulary-scale (never postings-scale); at extreme
        vocabularies a length+first-char-bucketed dictionary layout would
        prune further — documented trade-off, not needed at current sizes.
        ``max_terms`` keeps the highest-df candidates (deterministic tie:
        term ascending) — close typos of common words beat rare noise.
        """
        if not term:
            raise ValueError("empty term")
        cand = self._dictionary_terms((len(term) - 1, len(term) + 1))
        hits = [t for t in cand if self._within_edit1(term, t)]
        hits.sort()
        if max_terms is not None and len(hits) > max_terms:
            hits = sorted(
                hits, key=lambda t: (-cand[t], t)
            )[:max_terms]
            hits.sort()
        return hits

    def autocomplete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix suggestions ranked by document frequency (df desc, term
        asc) — the search-box "suggest as you type" surface, served from
        the term-dictionary sidecar (beyond-reference).  df is physical
        (pending deletions shift it only until a purge/compaction; ranking
        quality, not correctness, is at stake here)."""
        if not prefix:
            raise ValueError("empty prefix")
        cand = self._dictionary_terms()
        rows = sorted(
            ((t, d) for t, d in cand.items() if t.startswith(prefix)),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return rows[:k]

    def suggest(self, term: str) -> str | None:
        """Spell-suggestion: the highest-df term within edit distance 1
        (the term itself wins when present — df order, tie term asc)."""
        cand = self._dictionary_terms((len(term) - 1, len(term) + 1))
        best = None
        for t in cand:
            if self._within_edit1(term, t):
                key = (-cand[t], t)
                if best is None or key < best[0]:
                    best = (key, t)
        return best[1] if best else None

    def search_fuzzy(
        self, query: str, k: int = 10, max_terms_per_token: int | None = 8
    ) -> list[tuple[int, float]]:
        """BM25 top-k where every query token is expanded to its corpus
        terms within edit distance 1 (typo-tolerant retrieval —
        beyond-reference).  The expanded union is scored by the exact
        scorer in lexicographic order (deterministic, SQL-checkable)."""
        tokens = self.preprocess_query(query)
        expanded: set[str] = set()
        for t in tokens:
            expanded.update(self.expand_fuzzy(t, max_terms_per_token))
        terms = sorted(expanded)
        if not terms or self.live_doc_count == 0 or self.live_avg_doc_len <= 0:
            return []
        chunks_by_term = self.term_chunks(terms)
        doc_ids, scores = self._exact_scores(terms, chunks_by_term)
        return self._top_k(doc_ids, scores, k)

    def search_boolean(
        self,
        must: list[str] | None = None,
        should: list[str] | None = None,
        must_not: list[str] | None = None,
        k: int = 10,
        min_should_match: int = 0,
    ) -> list[tuple[int, float]]:
        """Boolean-filtered BM25 top-k (beyond-reference: the reference has
        no boolean operators, ``vexor/bm25.py:64-89`` is pure OR).

        Result docs contain EVERY ``must`` term, NO ``must_not`` term, and
        — when ``min_should_match`` > 0 — at least that many DISTINCT
        ``should`` terms; ranking is the exact scorer over ``must +
        should`` (dedup order-preserving, capped like
        ``preprocess_query``), tie-broken (score desc, docID asc).
        Filters are vectorized membership tests against decoded posting
        docID arrays — no per-doc Python.
        """
        from ..spec import MAX_QUERY_TERMS

        must = [t for t in (must or []) if t]
        should = [t for t in (should or []) if t]
        must_not = [t for t in (must_not or []) if t]
        scoring = list(dict.fromkeys(must + should))[:MAX_QUERY_TERMS]
        if not scoring or self.live_doc_count == 0 or self.live_avg_doc_len <= 0:
            return []
        all_terms = list(dict.fromkeys(scoring + must + should + must_not))
        chunks_by_term = self.term_chunks(all_terms)

        def term_docs(term: str) -> np.ndarray:
            from ..index.codec import decode_chunk

            chunks = chunks_by_term.get(term, [])
            if not chunks:
                return np.zeros(0, dtype=np.uint64)
            docs = np.concatenate([decode_chunk(c)[0] for c in chunks])
            docs.sort()  # chunk lists are gen-then-salt ordered, not global
            return docs

        for t in must:
            if not chunks_by_term.get(t):
                return []  # a must term absent from the corpus matches nothing
        doc_ids, scores = self._exact_scores(scoring, chunks_by_term)
        if min_should_match > 0:
            # should terms capped out of the scoring set must still seed
            # candidates: a doc matching >= m should terms exclusively via
            # capped-out terms is a valid result (its score is 0.0 — the
            # scoring terms simply don't occur in it)
            in_scoring = set(scoring)
            capped_out = [
                t for t in dict.fromkeys(should) if t not in in_scoring
            ]
            extra = [term_docs(t) for t in capped_out]
            extra = [e for e in extra if e.size]
            if extra:
                ex = np.unique(np.concatenate(extra))
                # term_docs is a RAW decode (no tombstone mask, unlike
                # _exact_scores' candidates): drop deleted docs before
                # seeding, or a deleted doc matching only capped-out
                # should terms would reappear in results
                tomb = self._tombstones()
                if tomb is not None and tomb.size:
                    ex = ex[self._live_mask(ex, tomb)]
                new = ex[~np.isin(ex, doc_ids)]
                if new.size:
                    doc_ids = np.concatenate([doc_ids, new])
                    scores = np.concatenate(
                        [scores, np.zeros(new.size, dtype=scores.dtype)]
                    )
        if doc_ids.size == 0:
            return []
        keep = np.ones(doc_ids.size, dtype=bool)
        for t in dict.fromkeys(must):
            members = term_docs(t)
            idx = np.searchsorted(members, doc_ids)
            idx[idx >= members.size] = members.size - 1
            keep &= members.size > 0
            keep &= members[idx] == doc_ids
        for t in dict.fromkeys(must_not):
            members = term_docs(t)
            if members.size == 0:
                continue
            idx = np.searchsorted(members, doc_ids)
            idx[idx >= members.size] = members.size - 1
            keep &= members[idx] != doc_ids
        if min_should_match > 0 and should:
            cnt = np.zeros(doc_ids.size, dtype=np.int32)
            for t in dict.fromkeys(should):
                members = term_docs(t)
                if members.size == 0:
                    continue
                idx = np.searchsorted(members, doc_ids)
                idx[idx >= members.size] = members.size - 1
                cnt += (members[idx] == doc_ids).astype(np.int32)
            keep &= cnt >= min_should_match
        if not keep.any():
            return []
        return self._top_k(doc_ids[keep], scores[keep], k)

    def expansion_terms(
        self, terms: list[str], *, fb_docs: int = 10, fb_terms: int = 10
    ) -> list[str]:
        """Pseudo-relevance-feedback expansion terms (RM3-flavored).

        Classic PRF (Rocchio / relevance-model family, public literature):
        take the top ``fb_docs`` BM25 results for the original query, weight
        each feedback doc by its rank (top doc weight ``fb_docs`` … rank-r
        doc weight ``fb_docs - r + 1``), score every term by
        ``sum(tf * doc_weight)`` over the feedback docs, and return the top
        ``fb_terms`` non-query terms by (weight desc, term asc).  All
        weights are INTEGER sums, so the ranking is order-independent and
        exactly reproducible by a SQL oracle; the feedback-doc cut uses the
        6-decimal-rounded score (stable across engines whose float sums
        differ in the last bits).

        The per-doc term vectors come from a docID-pruned read of the docs
        checkpoint — O(fb_docs) rows, never a corpus scan.
        """
        if not terms:
            return []
        chunks_by_term = self.term_chunks(terms)
        doc_ids, scores = self._exact_scores(terms, chunks_by_term)
        if doc_ids.size == 0:
            return []
        order = np.lexsort((doc_ids, -np.round(scores, 6)))
        fb_ids = doc_ids[order[:fb_docs]]
        rank_w = {int(d): fb_docs - r for r, d in enumerate(fb_ids)}
        tbl = self._docs_ds.to_table(
            columns=["doc_id", "terms", "tfs"],
            filter=pc.field("doc_id").isin(pa.array(fb_ids, type=pa.uint64())),
        )
        qset = set(terms)
        weights: dict[str, int] = {}
        for row in tbl.to_pylist():
            w = rank_w[int(row["doc_id"])]
            for t, f in zip(row["terms"] or [], row["tfs"] or []):
                if t in qset:
                    continue
                weights[t] = weights.get(t, 0) + int(f) * w
        ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        return [t for t, _ in ranked[:fb_terms]]

    def search_prf(
        self,
        query: str,
        k: int = 10,
        *,
        fb_docs: int = 10,
        fb_terms: int = 10,
    ) -> list[tuple[int, float]]:
        """BM25 top-k with pseudo-relevance-feedback query expansion
        (beyond-reference: the reference scores literal query tokens only).

        The expanded query = original terms + :meth:`expansion_terms`,
        order-preserving dedup, capped like ``preprocess_query``; scoring
        is the plain exact scorer over the expanded term list."""
        from ..spec import MAX_QUERY_TERMS

        terms = self.preprocess_query(query)
        if not terms or self.live_doc_count == 0 or self.live_avg_doc_len <= 0:
            return []
        expansion = self.expansion_terms(
            terms, fb_docs=fb_docs, fb_terms=fb_terms
        )
        expanded = list(dict.fromkeys(terms + expansion))[:MAX_QUERY_TERMS]
        chunks_by_term = self.term_chunks(expanded)
        doc_ids, scores = self._exact_scores(expanded, chunks_by_term)
        return self._top_k(doc_ids, scores, k)

    # -- hybrid (RRF fusion with a dense ranking) --------------------------
    def search_hybrid(
        self,
        query: str,
        dense_order: list[int],
        k: int = 10,
        *,
        rrf_k: int | None = None,
        dense_weight: float | None = None,
        bm25_weight: float | None = None,
    ) -> list[tuple[int, float]]:
        """Weighted reciprocal-rank fusion of a dense ranking with BM25.

        ``dense_order``: docIDs in dense-similarity-descending order (from
        any embedding backend; see ``functions/ann.py``).  Fusion follows the
        reference exactly (``bm25.py:92-115``): float32 accumulation,
        ``w*(k+1)/(k+rank)`` for every doc in dense order plus the same for
        docs with positive BM25 score ordered by (-score, docID); final
        ranking by (fused desc, docID asc).
        """
        terms = self.preprocess_query(query)
        chunks_by_term = self.term_chunks(terms) if terms else {}
        doc_ids, scores = (
            self._exact_scores(terms, chunks_by_term)
            if terms
            else (np.zeros(0, dtype=np.uint64), np.zeros(0))
        )
        bm25_order = [
            d
            for d, _ in sorted(
                ((int(d), s) for d, s in zip(doc_ids, scores) if s > 0),
                key=lambda item: (-item[1], item[0]),
            )
        ]
        fused = rrf_fuse_orders(
            dense_order,
            bm25_order,
            rrf_k=rrf_k,
            dense_weight=dense_weight,
            bm25_weight=bm25_weight,
        )
        ranked = sorted(fused.items(), key=lambda item: (-item[1], item[0]))
        return [(d, float(s)) for d, s in ranked[:k]]

    # -- dense arm over the index's stored embedding column ----------------
    def search_dense(self, query_text: str, k: int = 10) -> list[tuple[int, float]]:
        """Cosine top-k over embeddings STORED in the index (build with
        ``embed_dim > 0``) — the reference's primary ranking path (cosine
        over cached chunk embeddings, ``vexor/search.py:42-206``).

        The docs checkpoint streams through in record batches (column-pruned
        to doc_id + embedding); per-batch rounded tie-widened partial top-k
        keeps memory bounded.  Returns [(docID, cosine)] by (cosine desc,
        docID asc).
        """
        if "embedding" not in self._docs_ds.schema.names:
            raise ValueError(
                "index has no stored embeddings (build with embed_dim > 0)"
            )
        cfg = self.manifest["config"]
        if cfg.get("embed_provider"):
            # same provider the index was built with (constructed once per
            # searcher; spec is secret-free — keys come from the env)
            if getattr(self, "_dense_provider", None) is None:
                from ..providers import make_provider

                self._dense_provider = make_provider(cfg["embed_provider"])
            q = self._dense_provider.embed([query_text])[0].astype(np.float64)
        else:
            from ..functions.embed import hash_embed

            q = hash_embed(
                [query_text],
                dim=int(cfg.get("embed_dim") or 0),
                n=2,
                mode=cfg.get("embed_mode", "word"),
                as_float32=False,
            )[0]
        qn = np.linalg.norm(q)
        if qn == 0:
            return []
        q = q / qn
        tomb = self._tombstones()
        cand: list[tuple[float, int]] = []  # (-cos, docID)
        for rb in self._docs_ds.to_batches(
            columns=["doc_id", "embedding"], batch_size=8192
        ):
            ids = rb.column("doc_id").to_numpy()
            if ids.size == 0:
                continue
            from ..functions.ann import embedding_matrix

            mat = embedding_matrix(rb.column("embedding"))
            if tomb is not None and tomb.size:
                live = self._live_mask(ids.astype(np.uint64), tomb)
                if not live.all():
                    ids, mat = ids[live], mat[live]
                    if ids.size == 0:
                        continue
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            sims = np.round((mat / norms[:, None]) @ q, 6)
            if sims.size > k:
                kth = -np.partition(-sims, k - 1)[k - 1]
                keep = np.flatnonzero(sims >= kth)
            else:
                keep = np.arange(sims.size)
            cand.extend((-float(sims[i]), int(ids[i])) for i in keep)
        cand.sort()
        return [(d, -nc) for nc, d in cand[:k]]

    def search_hybrid_text(
        self, query: str, k: int = 10, dense_k: int = 50
    ) -> list[tuple[int, float]]:
        """End-to-end hybrid from a text query alone: the dense arm comes
        from the index's stored embeddings, fused with BM25 via RRF."""
        dense = self.search_dense(query, k=dense_k)
        return self.search_hybrid(query, [d for d, _ in dense], k=k)

    # -- staleness ---------------------------------------------------------
    def is_current(self) -> bool:
        """Does the committed manifest still match the input files on disk?

        O(#input files) footer-free stat check (the reference re-stats every
        corpus file per search, ``cache.py:1897-1940``; a manifest
        fingerprint gives the same guarantee without the O(N-rows) cost).
        """
        from ..hashing import file_fingerprint

        try:
            return (
                file_fingerprint(self.manifest["input_files"])
                == self.manifest["input_fingerprint"]
            )
        except OSError:
            return False

    # -- hits rendering ----------------------------------------------------
    def lookup_urls(self, doc_ids: list[int]) -> dict[int, str]:
        if not doc_ids:
            return {}
        tbl = self._docs_ds.to_table(
            columns=["doc_id", "url"],
            filter=pc.field("doc_id").isin(pa.array(doc_ids, type=pa.uint64())),
        )
        return dict(zip(tbl["doc_id"].to_pylist(), tbl["url"].to_pylist()))

    def lookup_meta(self, doc_ids: list[int]) -> dict[int, tuple[str, str | None]]:
        """docID → (url, preview) for hit rendering."""
        if not doc_ids:
            return {}
        cols = ["doc_id", "url"]
        schema_names = self._docs_ds.schema.names
        has_preview = "preview" in schema_names
        if has_preview:
            cols.append("preview")
        tbl = self._docs_ds.to_table(
            columns=cols,
            filter=pc.field("doc_id").isin(pa.array(doc_ids, type=pa.uint64())),
        )
        previews = (
            tbl["preview"].to_pylist() if has_preview else [None] * tbl.num_rows
        )
        return {
            d: (u, p)
            for d, u, p in zip(
                tbl["doc_id"].to_pylist(), tbl["url"].to_pylist(), previews
            )
        }

    def search_hits(self, queries: list[dict], method: str = "auto") -> pa.Table:
        """Run a query set → ``hits(query_id, rank, doc_id, url, preview, score)``."""
        rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
        for q in queries:
            results = self.search(q["query"], q.get("k", 10), method=method)
            for rank, (doc_id, score) in enumerate(results, start=1):
                rows["query_id"].append(q.get("query_id"))
                rows["rank"].append(rank)
                rows["doc_id"].append(doc_id)
                rows["score"].append(score)
        meta = self.lookup_meta(sorted(set(rows["doc_id"])))
        tbl = pa.table(
            {
                "query_id": pa.array(rows["query_id"], type=pa.int64()),
                "rank": pa.array(rows["rank"], type=pa.int32()),
                "doc_id": pa.array(rows["doc_id"], type=pa.uint64()),
                "url": pa.array(
                    [meta.get(d, (None, None))[0] for d in rows["doc_id"]],
                    type=pa.string(),
                ),
                "preview": pa.array(
                    [meta.get(d, (None, None))[1] for d in rows["doc_id"]],
                    type=pa.string(),
                ),
                "score": pa.array(rows["score"], type=pa.float64()),
            }
        )
        return tbl
