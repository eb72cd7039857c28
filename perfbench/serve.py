"""Query-serving process: one closed-loop client over one Searcher.

Run as ``python -m perfbench.serve <config.json>`` from the repository root.
It never builds anything, so its peak RSS is the serving footprint.  One
operation is ``Searcher.search(q, k)`` followed by ``Searcher.lookup_urls``
on its hits; each waits for the previous one.  The config names the index,
the query list, the warm-up count, and either a window in seconds (queries
cycle through the list until it ends) or a fixed query count, and the terms
whose chunks are fetched once at start-up, as a long-running server holds them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from .checks import deleted_error, ordering_error
from .layers import install_query_spans, query_layers, score_matrix
from .refscore import query_terms
from .trace import Tracer, slice_qps

MAX_ERRORS_KEPT = 5


def serve(cfg: dict) -> dict:
    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        install_query_spans(tracer)
    from vexor_ray.query.searcher import Searcher

    t0 = time.perf_counter()
    searcher = Searcher(cfg["index"])
    open_ms = (time.perf_counter() - t0) * 1e3
    queries = cfg["queries"]
    deleted = set(cfg.get("deleted_urls", ()))
    sample_n = cfg["sample"]
    sample: dict[int, dict] = {}
    errors: list[str] = []
    check_errors: list[str] = []
    lat_ms: list[float] = []
    lat_cls: list[str] = []
    done_s: list[float] = []
    counts = {"attempted": 0, "failed": 0}

    def run_one(i: int, timed: bool) -> None:
        q = queries[i % len(queries)]
        if tracer is not None:
            tracer.op = i
        counts["attempted"] += 1
        t = time.perf_counter()
        try:
            hits = searcher.search(q["q"], q["k"])
            urls = searcher.lookup_urls([d for d, _ in hits])
        except Exception:
            counts["failed"] += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(traceback.format_exc(limit=3))
            return
        if timed:
            now = time.perf_counter()
            lat_ms.append((now - t) * 1e3)
            lat_cls.append(q["cls"])
            done_s.append(now - start)
        hit_urls = [urls.get(d) for d, _ in hits]
        err = ordering_error(hits) or deleted_error(hit_urls, deleted)
        if err and len(check_errors) < MAX_ERRORS_KEPT:
            check_errors.append(f"query {q['q'][:60]!r}: {err}")
        j = i % len(queries)
        if j < sample_n and j not in sample:
            sample[j] = {"hits": hits, "urls": hit_urls}

    if cfg["prefetch"]:
        searcher.term_chunks(cfg["prefetch"])
    warmup = cfg["warmup"]
    for i in range(warmup):
        run_one(i, timed=False)
    if tracer is not None:
        tracer.phase = "window"
    window_start_wall = time.time()
    start = time.perf_counter()
    i = warmup
    if cfg["seconds"] > 0:
        while time.perf_counter() - start < cfg["seconds"]:
            run_one(i, timed=True)
            i += 1
    else:
        for i in range(warmup, warmup + cfg["count"]):
            run_one(i, timed=True)
    elapsed = time.perf_counter() - start
    out = {
        "open_ms": open_ms,
        "window_start_wall": window_start_wall,
        "elapsed_s": elapsed,
        "lat_ms": lat_ms,
        "lat_cls": lat_cls,
        "qps": slice_qps(done_s),
        **counts,
        "errors": errors,
        "check_errors": check_errors,
        "sample": {str(j): v for j, v in sample.items()},
        "distinct_terms": len(
            {t for q in queries[: counts["attempted"]] for t in query_terms(q["q"])}
        ),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = {"searcher.open_ms": open_ms, **query_layers(tracer, "window")}
        if cfg.get("probe"):
            tracer.phase = "probe"
            layers.update(score_matrix(searcher, cfg["probe"]))
        out["layers"] = layers
        tracer.write(Path(cfg["spans_out"]))
    return out


def main(argv: list[str]) -> int:
    with open(argv[1]) as f:
        cfg = json.load(f)
    out = serve(cfg)
    with open(cfg["out"], "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
