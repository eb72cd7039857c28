"""Per-layer measurements, taken from outside the program.

Spans are recorded around the public functions of each layer (installed
only in the traced run); the build stages that run inside Ray workers are
timed by calling the same stage functions directly on the run's corpus.
"""

from __future__ import annotations

import time
from pathlib import Path

from .trace import Tracer, median, quantile

# span names
SEARCH = "query/searcher.search"
PREPROCESS = "query/searcher.preprocess_query"
TERM_CHUNKS = "query/searcher.term_chunks"
LOOKUP = "query/searcher.lookup_urls"
DECODE = "index/codec.decode_chunk"
COMMIT = "index/manifest.commit_partition"
FINALIZE = "index/manifest.finalize"
BUILD = "index/build.build_index"
COMPACT = "index/build.compact_index"
DELETE = "index/deletes.delete_docs"
PURGE = "index/deletes.purge_deletes"

SCORE_METHODS = ("exact", "wand")
PROBE_REPEATS = 3


def _chunk_counts(rec: dict, out: dict) -> None:
    chunks = [c for cl in out.values() for c in cl]
    rec["postings"] = sum(int(c["n_postings"]) for c in chunks)
    rec["bytes"] = sum(
        len(c[k]) for c in chunks for k in ("doc_blob", "tf_blob", "dl_blob") if k in c
    )


def _decoded(rec: dict, out) -> None:
    rec["postings"] = int(out[0].size)


def install_query_spans(tracer: Tracer) -> None:
    from vexor_ray.index import codec
    from vexor_ray.query.searcher import Searcher

    tracer.wrap(Searcher, "search", SEARCH)
    tracer.wrap(Searcher, "preprocess_query", PREPROCESS)
    tracer.wrap(Searcher, "term_chunks", TERM_CHUNKS, _chunk_counts)
    tracer.wrap(Searcher, "lookup_urls", LOOKUP)
    tracer.wrap(codec, "decode_chunk", DECODE, _decoded)


def install_build_spans(tracer: Tracer) -> None:
    from vexor_ray.index import build, deletes
    from vexor_ray.index.manifest import BuildManifest

    tracer.wrap(BuildManifest, "commit_partition", COMMIT)
    tracer.wrap(BuildManifest, "finalize", FINALIZE)
    tracer.wrap(build, "build_index", BUILD)
    tracer.wrap(build, "compact_index", COMPACT)
    tracer.wrap(deletes, "delete_docs", DELETE)
    tracer.wrap(deletes, "purge_deletes", PURGE)


def query_layers(tracer: Tracer, phase: str) -> dict[str, float]:
    """Query-path metrics from the spans of one phase of the run."""
    searches = tracer.select(SEARCH, phase)
    chunks = tracer.select(TERM_CHUNKS, phase)
    postings_per_search: dict[int, int] = {}
    for i in chunks:
        parent = tracer.spans[i]["parent"]
        postings_per_search[parent] = (
            postings_per_search.get(parent, 0) + tracer.spans[i]["postings"]
        )
    decodes = [i for i in tracer.select(DECODE) if tracer.spans[i]["phase"] != "setup"]
    decoded = sum(tracer.spans[i]["postings"] for i in decodes)
    decode_s = sum(tracer.duration(i) for i in decodes)
    chunk_ms = [tracer.duration(i) * 1e3 for i in chunks]
    return {
        "searcher.preprocess_us": median(
            tracer.duration(i) * 1e6 for i in tracer.select(PREPROCESS, phase)
        ),
        "searcher.term_chunks_ms.p50": median(chunk_ms),
        "searcher.term_chunks_ms.p95": quantile(chunk_ms, 0.95),
        "searcher.term_chunks_bytes": median(tracer.spans[i]["bytes"] for i in chunks),
        "searcher.postings_per_query": median(
            postings_per_search.get(i, 0) for i in searches
        ),
        "codec.decode_us_per_kposting": (
            decode_s * 1e6 / (decoded / 1e3) if decoded else 0.0
        ),
        "searcher.search_self_ms": median(
            t * 1e3 for t in tracer.self_times(searches)
        ),
        "searcher.lookup_urls_ms": median(
            tracer.duration(i) * 1e3 for i in tracer.select(LOOKUP, phase)
        ),
    }


def score_matrix(searcher, probe: dict[str, list[str]], k: int = 10) -> dict[str, float]:
    """Median ms of ``search(method=m)`` per query class, on fetched chunks."""
    out: dict[str, float] = {}
    per_method: dict[str, dict[str, list[float]]] = {m: {} for m in SCORE_METHODS}
    for cls, queries in probe.items():
        for q in queries:
            searcher.term_chunks(searcher.preprocess_query(q))
            for m in SCORE_METHODS:
                times = []
                for _ in range(PROBE_REPEATS):
                    t0 = time.perf_counter()
                    searcher.search(q, k, method=m)
                    times.append(time.perf_counter() - t0)
                per_method[m].setdefault(cls, []).append(median(times) * 1e3)
    for m, by_cls in per_method.items():
        for cls, ms in by_cls.items():
            out[f"searcher.score_ms.{m}.{cls}"] = median(ms)
    return out


def index_layers(index_dir: Path) -> dict[str, float]:
    """Stage walls, postings and bytes from the committed manifest."""
    from vexor_ray.index.manifest import load_manifest

    man = load_manifest(str(index_dir))
    parts = man["partitions"]

    def wall(stage: str) -> float:
        return sum(p["metrics"].get("wall_s", 0.0) for p in parts if p["stage"] == stage)

    live = {f for files in man["waves"].values() for f in files}
    segs = [p for p in parts if p["stage"] == "segments" and set(p["output_files"]) <= live]
    postings = sum(p["metrics"].get("postings", 0) for p in segs)
    seg_bytes = sum(Path(f).stat().st_size for f in live)
    return {
        "build.stage1_s": wall("docs_tok"),
        "build.stage2_s": wall("segments"),
        "build.termdict_s": wall("termdict"),
        "build.postings": postings,
        "build.chunk_rows": sum(p["metrics"].get("chunk_rows", 0) for p in segs),
        "build.segment_bytes": seg_bytes,
        "build.checkpoint_bytes": sum(
            Path(f).stat().st_size for f in man["docs_files"]
        ),
        "codec.bytes_per_posting": seg_bytes / postings if postings else 0.0,
    }


def commit_layers(tracer: Tracer, op: int) -> dict[str, float]:
    """Manifest commit cost of the build that ran as operation ``op``."""
    spans = [
        i for i, s in enumerate(tracer.spans)
        if s["op"] == op and s["name"] in (COMMIT, FINALIZE)
    ]
    return {
        "manifest.commit_ms": sum(tracer.duration(i) for i in spans) * 1e3,
        "manifest.commits": len(spans),
    }


def stage_costs(files: list[Path], cfg, tokenize_batch: int = 1024) -> dict[str, float]:
    """Time each build stage's function directly on the run's input files.

    Needs a live Ray session (the docID read is a Ray Data pipeline)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vexor_ray.index.build import encode_runs, explode_postings
    from vexor_ray.refimpl.textnorm import extract_text
    from vexor_ray.stages.docids import read_with_doc_ids
    from vexor_ray.stages.tokenize import TokenizeDocs

    paths = [str(f) for f in sorted(files)]
    t0 = time.perf_counter()
    read = read_with_doc_ids(paths, ["url", "html"]).materialize()
    read_s = time.perf_counter() - t0
    pages = pa.concat_tables(
        [pq.read_table(p, columns=["url", "html"]) for p in paths]
    )
    ids = [((fi << 32) | r) for fi, p in enumerate(paths)
           for r in range(pq.ParquetFile(p).metadata.num_rows)]
    if read.count() != len(ids):
        raise RuntimeError("read_with_doc_ids lost rows")

    htmls = pages.column("html").to_pylist()
    t0 = time.perf_counter()
    texts = [extract_text(h) for h in htmls]
    extract_s = time.perf_counter() - t0

    keep = [i for i, t in enumerate(texts) if t is not None]
    docs = pa.table(
        {
            "doc_id": pa.array([ids[i] for i in keep], type=pa.uint64()),
            "url": pa.array([pages.column("url")[i].as_py() for i in keep]),
            "text": pa.array([texts[i] for i in keep], type=pa.large_string()),
        }
    )
    tok = TokenizeDocs(with_preview=False)
    t0 = time.perf_counter()
    tok_tbl = pa.concat_tables(
        [tok(docs.slice(s, tokenize_batch)) for s in range(0, docs.num_rows, tokenize_batch)]
    )
    tokenize_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    exploded = explode_postings(
        tok_tbl, salt_shift=cfg.salt_shift, num_waves=1, wave=None
    )
    explode_s = time.perf_counter() - t0
    n_post = exploded.num_rows
    ordered = exploded.sort_by([("th", "ascending"), ("salt", "ascending")])
    avgdl = sum(tok_tbl.column("doc_len").to_pylist()) / max(tok_tbl.num_rows, 1)
    t0 = time.perf_counter()
    encode_runs(ordered, avg_doc_len=avgdl, block_size=cfg.block_size, k1=cfg.k1, b=cfg.b)
    encode_s = time.perf_counter() - t0
    return {
        "docids.read_s": read_s,
        "extract.us_per_page": extract_s * 1e6 / len(htmls),
        "tokenize.us_per_page": tokenize_s * 1e6 / max(docs.num_rows, 1),
        "tokenize.tokens": tok.n_tokens,
        "build.explode_us_per_kposting": explode_s * 1e6 / (n_post / 1e3),
        "build.encode_us_per_kposting": encode_s * 1e6 / (n_post / 1e3),
    }
