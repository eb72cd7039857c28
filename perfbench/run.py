"""perfbench: the vexor_ray benchmark.

    python3 perfbench/run.py --workload <build|serve_hot|serve_wide|update>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The last line on stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; everything else (Ray,
Ray Data and program logs, progress notes) goes to stderr.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics, measured from spans around calls
into each layer.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import corpus as gen  # noqa: E402
from perfbench import layers  # noqa: E402
from perfbench.checks import rank_error, same_hits, url_error  # noqa: E402
from perfbench.refscore import RefCorpus  # noqa: E402
from perfbench.session import (  # noqa: E402
    RaySession,
    become_subreaper,
    log,
    wait_for_children,
)
from perfbench.trace import Tracer, median, quantile  # noqa: E402

PAGES = 2000  # base corpus of every workload
APPEND_PAGES = 500  # the shard the update path appends
ROWS_PER_FILE = 500
# Index recipe of the serving and update workloads: one wave, which is what
# a few-thousand-page index needs; the base corpus is one shard group, so an
# append forms a group of its own.  The build workload measures the default
# BuildConfig.
RECIPE = {"num_waves": 1, "shard_group_size": PAGES // ROWS_PER_FILE}

SERVE_QUERIES = 4000  # stream length; a window cycles through it
SAMPLE = 60  # head of each stream checked rank-identical to the reference
WARMUP = 30  # queries run before the window, after the hot-set prefetch
CHECK_QUERIES = 200  # build workload: every one is checked
BUILD_QUERIES = 1200  # build workload: timed queries after the checked ones
UPDATE_QUERIES = 600
DELETE_BATCHES = 4

HOT_MIX = {"hot": .4, "multi": .35, "selective": .1, "dup": .05,
           "absent": .05, "cjk": .05}
WIDE_MIX = {"single": .35, "multi": .35, "selective": .15, "dup": .08,
            "absent": .04, "cjk": .03}
CHECK_MIX = {"hot": .2, "multi": .25, "single": .05, "selective": .2,
             "long": .1, "dup": .1, "absent": .05, "cjk": .05}
UPDATE_MIX = {"hot": .3, "multi": .3, "selective": .15, "deleted": .15,
              "dup": .05, "absent": .03, "cjk": .02}


def _process_start_wall() -> float:
    """Wall-clock time at which this process started (10 ms resolution)."""
    stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return time.time() - (uptime - int(stat[19]) / os.sysconf("SC_CLK_TCK"))


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Run:
    """State of one benchmark run: counters, metrics, checks, processes."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = Tracer() if args.trace else None
        self.run_dir = ROOT / "perfbench" / ".runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.trace_dir = ROOT / "perfbench" / ".traces"
        self.session = RaySession(ROOT, self.run_dir)
        self.started_wall = _process_start_wall()
        self.window_start_wall: float | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self._children = 0

    # -- operations ---------------------------------------------------------
    def timed(self, fn, *args, **kwargs):
        """One operation: (result or None on exception, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            log(f"operation {getattr(fn, '__name__', fn)} failed:\n{traceback.format_exc()}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def check(self, label: str, err: str | None) -> None:
        if err:
            self.problems.append(f"{label}: {err}")

    def start_window(self) -> None:
        log("window starts")
        self.window_start_wall = time.time()
        if self.tracer is not None:
            self.tracer.phase = "window"

    def op_id(self, n: int) -> None:
        if self.tracer is not None:
            self.tracer.op = n

    def serve(self, index: Path, queries: list[dict], *, warmup=0, prefetch=(),
              seconds=0.0, count=0, sample=0, deleted=(), probe=None) -> dict | None:
        """Run queries in a fresh serving process (perfbench/serve.py)."""
        self._children += 1
        tag = f"serve{self._children}"
        log(f"{tag}: {len(queries)} queries")
        cfg = {
            "index": str(index), "queries": queries, "warmup": warmup,
            "prefetch": list(prefetch),
            "seconds": seconds, "count": count, "sample": sample,
            "deleted_urls": sorted(deleted), "trace": self.tracer is not None,
            "probe": probe if self.tracer is not None else None,
            "out": str(self.run_dir / f"{tag}.out.json"),
            "spans_out": str(self.trace_dir / f"{self.workload}-{self.seed}.{tag}.jsonl"),
        }
        cfg_path = self.run_dir / f"{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=str(ROOT))
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.serve", str(cfg_path)],
            cwd=ROOT, env=env, timeout=150,
        )
        out_path = Path(cfg["out"])
        if proc.returncode != 0 or not out_path.exists():
            lost = count or 1
            self.attempted += lost
            self.failed += lost
            self.problems.append(f"serving process exited with {proc.returncode}")
            return None
        res = json.loads(out_path.read_text())
        log(f"{tag} done")
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        for err in res["errors"]:
            log(f"query failed:\n{err}")
        for err in res["check_errors"]:
            self.problems.append(err)
        return res

    # -- metrics ------------------------------------------------------------
    def query_metrics(self, res: dict | None) -> None:
        lat = res["lat_ms"] if res else []
        self.e2e["query_p50_ms"] = median(lat)
        self.e2e["query_p95_ms"] = quantile(lat, 0.95)
        self.e2e["query_qps"] = res["qps"] if lat else 0.0
        self.e2e["searcher_rss_mb"] = res["rss_mb"] if res else 0.0
        if res and "layers" in res:
            self.layers.update(res["layers"])
        if res:
            log(f"{len(lat)} timed queries, {res['distinct_terms']} distinct query terms; "
                f"{len(lat) / res['elapsed_s']:.1f} queries/s over the window, "
                f"{res['qps']:.1f} median over its slices")
            by_cls: dict[str, list[float]] = {}
            for ms, cls in zip(lat, res["lat_cls"]):
                by_cls.setdefault(cls, []).append(ms)
            for cls, ms in sorted(by_cls.items()):
                log(f"  {cls:9s} n={len(ms):4d} p50={median(ms):7.2f} ms "
                    f"max={max(ms):7.2f} ms")

    def build_metrics(self, corpus, index: Path, docs: int, seconds: float, op: int) -> None:
        self.e2e["build_docs_per_s"] = docs / seconds
        self.e2e["index_bytes_per_input_byte"] = (
            _dir_bytes(index) / corpus.html_bytes(0, corpus.n_base)
        )
        if self.tracer is not None:
            self.layers.update(layers.commit_layers(self.tracer, op))
            self.layers.update(layers.index_layers(index))

    def sample_checks(self, res: dict | None, queries: list[dict], ref, corpus) -> None:
        """Rank identity of the sampled queries, and their urls."""
        if res is None:
            return
        url_of = {corpus.doc_id(i): u for i, u in enumerate(corpus.urls)}
        for j, got in res["sample"].items():
            q = queries[int(j)]
            hits = [(int(d), float(s)) for d, s in got["hits"]]
            label = f"query {q['q'][:60]!r}"
            self.check(label, rank_error(hits, ref, q["q"], q["k"]))
            self.check(label, url_error(got["urls"], [url_of.get(d) for d, _ in hits]))
        if len(res["sample"]) < min(SAMPLE, len(queries)) and not res["failed"]:
            self.problems.append("sampled queries missing from the serving output")


# ---------------------------------------------------------------------------
# building blocks shared by the workloads
# ---------------------------------------------------------------------------


def _ref(corpus, lo: int, hi: int) -> RefCorpus:
    ids = [corpus.doc_id(i) for i in range(lo, hi)]
    return RefCorpus(ids, corpus.urls[lo:hi], corpus.htmls[lo:hi])


def _hot_set(corpus) -> list[str]:
    """Terms a long-running server over this corpus holds in its caches."""
    return corpus.hot + list(gen.NEEDLES) + [gen.ABSENT_TERM]


def _recipe():
    from vexor_ray.index.build import BuildConfig

    return BuildConfig(**RECIPE)


def _setup_index(run: Run, corpus, pages: Path, cfg) -> Path:
    """The from-scratch build every serving and update run starts from."""
    from vexor_ray.index import build as vbuild

    index = run.run_dir / "index"
    run.op_id(0)
    t0 = time.perf_counter()
    man = vbuild.build_index(str(pages), str(index), cfg)
    log("index built")
    run.build_metrics(corpus, index, man["stats"]["doc_count"], time.perf_counter() - t0, 0)
    return index


def _groups(index: Path) -> dict[str, float]:
    from vexor_ray.index.manifest import BuildManifest

    return {
        k: r.committed_at
        for k, r in BuildManifest(str(index)).load_partitions().items()
        if r.stage == "docs_tok"
    }


def _maintain(run: Run, corpus, index: Path, pages: Path, cfg, deletions: list[int],
              queries: list[dict] | None = None) -> dict:
    """Append a shard, delete in batches, optionally serve, then purge."""
    from vexor_ray.index import build as vbuild
    from vexor_ray.index import deletes as vdeletes
    from vexor_ray.index.manifest import load_manifest

    base_docs = load_manifest(str(index))["stats"]["doc_count"]
    corpus.write(pages, corpus.n_base, corpus.n_total)
    before = _groups(index)
    run.op_id(100)
    man, append_s = run.timed(vbuild.build_index, str(pages), str(index), cfg)
    after = _groups(index)
    appended = man["stats"]["doc_count"] - base_docs if man else 0
    batches = [deletions[i::DELETE_BATCHES] for i in range(DELETE_BATCHES)]
    delete_ms = []
    for b, rows in enumerate(batches):
        run.op_id(101 + b)
        _, s = run.timed(vdeletes.delete_docs, str(index), [corpus.urls[i] for i in rows])
        delete_ms.append(s * 1e3)
    res = None
    if queries is not None:
        # the deleted pages' url tokens are fetched at start-up with the hot
        # set: else ~25 cold fetches (4% of the stream) sit right at p95
        res = run.serve(index, queries, warmup=WARMUP, count=len(queries), sample=SAMPLE,
                        prefetch=_hot_set(corpus) + [corpus.row_tokens[i] for i in deletions],
                        deleted={corpus.urls[i] for i in deletions})
    run.op_id(200)
    _, purge_s = run.timed(vdeletes.purge_deletes, str(pages), str(index), cfg)
    if run.tracer is not None:
        compact = run.tracer.select(layers.COMPACT)
        run.layers.update({
            "build.append_s": append_s,
            "append_docs_per_s": appended / append_s,
            "build.append_groups_retokenized": sum(
                1 for k, t in after.items() if before.get(k) != t
            ),
            "build.append_groups_total": len(after),
            "deletes.delete_docs_ms": median(delete_ms),
            "delete_commit_ms": median(delete_ms),
            "deletes.purge_s": purge_s,
            "purge_s": purge_s,
            "build.compact_s": run.tracer.duration(compact[-1]) if compact else 0.0,
        })
    return {"appended_docs": appended, "serve": res}


def _trace_sweep(run: Run, corpus, index: Path, pages: Path, cfg) -> None:
    """Traced build and serving runs only: the build-stage and maintenance
    layers that their timed part does not exercise, run after the checks."""
    run.tracer.phase = "sweep"
    run.session.start()
    run.layers.update(layers.stage_costs(_base_files(corpus, pages), cfg))
    _maintain(run, corpus, index, pages, cfg, gen.pick_deletions(corpus, run.seed))


def _base_files(corpus, pages: Path) -> list[Path]:
    return sorted(pages.glob("*.parquet"))[: corpus.n_base // ROWS_PER_FILE]


def _totals_check(run: Run, index: Path, ref) -> None:
    """build: corpus totals and needle dfs equal the reference's."""
    import pyarrow.parquet as pq

    from vexor_ray.index.manifest import load_manifest
    from vexor_ray.query.searcher import Searcher

    man = load_manifest(str(index))
    got = {
        "doc count": man["stats"]["doc_count"],
        "total tokens": man["stats"]["total_doc_len"],
        "total postings": layers.index_layers(index)["build.postings"],
        "vocabulary": sum(
            pq.ParquetFile(f).metadata.num_rows
            for gens in man["wave_gens"].values() for g in gens for f in g["termdict"]
        ),
    }
    want = {
        "doc count": ref.n_docs, "total tokens": ref.total_tokens,
        "total postings": ref.total_postings, "vocabulary": ref.vocab,
    }
    for name in got:
        if got[name] != want[name]:
            run.problems.append(f"{name}: index {got[name]}, reference {want[name]}")
    searcher = Searcher(str(index))
    for term, df in gen.NEEDLES.items():
        if not searcher.df(term) == ref.df(term) == df:
            run.problems.append(f"df({term}): index {searcher.df(term)}, designed {df}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def workload_build(run: Run) -> None:
    from vexor_ray.index import build as vbuild

    corpus = gen.make_corpus(run.seed, PAGES, APPEND_PAGES, ROWS_PER_FILE)
    pages = run.run_dir / "pages"
    corpus.write(pages, 0, corpus.n_base)
    log("inputs written")
    run.session.start()
    run.start_window()
    start = time.perf_counter()
    docs, build_s, rounds, index = 0, 0.0, 0, None
    while True:  # whole builds; another only if it fits in the window
        if index is not None:
            shutil.rmtree(index)
        index = run.run_dir / f"index-{rounds}"
        run.op_id(rounds)
        man, dt = run.timed(vbuild.build_index, str(pages), str(index))
        rounds += 1
        if man is not None:
            docs += man["stats"]["doc_count"]
            build_s += dt
        if time.perf_counter() - start + dt > run.seconds:
            break
    log(f"{rounds} builds in the window")
    if not build_s:
        raise RuntimeError("no build completed")
    run.build_metrics(corpus, index, docs, build_s, rounds - 1)
    run.session.stop()
    # the checked queries run first, untimed; then a timed hot-set stream
    checked = gen.make_queries(corpus, CHECK_MIX, CHECK_QUERIES, run.seed)
    queries = checked + gen.make_queries(corpus, HOT_MIX, BUILD_QUERIES, run.seed)
    res = run.serve(index, queries, warmup=len(checked), count=BUILD_QUERIES,
                    sample=len(checked), prefetch=_hot_set(corpus),
                    probe=gen.probe_queries(corpus, run.seed))
    run.query_metrics(res)
    ref = _ref(corpus, 0, corpus.n_base).index()
    _totals_check(run, index, ref)
    run.sample_checks(res, queries, ref, corpus)
    if run.tracer is not None:
        from vexor_ray.index.build import BuildConfig

        _trace_sweep(run, corpus, index, pages, BuildConfig())


def _workload_serve(run: Run, wide: bool) -> None:
    corpus = gen.make_corpus(run.seed, PAGES, APPEND_PAGES, ROWS_PER_FILE)
    pages = run.run_dir / "pages"
    corpus.write(pages, 0, corpus.n_base)
    log("inputs written")
    run.session.start()
    index = _setup_index(run, corpus, pages, _recipe())
    run.session.stop()  # the serving window gets the core to itself
    queries = gen.make_queries(corpus, WIDE_MIX if wide else HOT_MIX, SERVE_QUERIES,
                               run.seed, wide=wide)
    res = run.serve(index, queries, warmup=WARMUP,
                    prefetch=_hot_set(corpus),
                    seconds=run.seconds, sample=SAMPLE,
                    probe=gen.probe_queries(corpus, run.seed))
    if res is not None:
        run.window_start_wall = res["window_start_wall"]
    run.query_metrics(res)
    ref = _ref(corpus, 0, corpus.n_base).index()
    run.sample_checks(res, queries, ref, corpus)
    if run.tracer is not None:
        _trace_sweep(run, corpus, index, pages, _recipe())


def workload_serve_hot(run: Run) -> None:
    _workload_serve(run, wide=False)


def workload_serve_wide(run: Run) -> None:
    _workload_serve(run, wide=True)


def workload_update(run: Run) -> None:
    from vexor_ray.query.searcher import Searcher

    corpus = gen.make_corpus(run.seed, PAGES, APPEND_PAGES, ROWS_PER_FILE)
    pages = run.run_dir / "pages"
    corpus.write(pages, 0, corpus.n_base)
    log("inputs written")
    run.session.start()
    cfg = _recipe()
    index = _setup_index(run, corpus, pages, cfg)
    deletions = gen.pick_deletions(corpus, run.seed)
    queries = gen.make_queries(corpus, UPDATE_MIX, UPDATE_QUERIES, run.seed,
                               deleted_rows=deletions)
    run.start_window()
    out = _maintain(run, corpus, index, pages, cfg, deletions, queries)
    res = out["serve"]
    run.query_metrics(res)

    full = _ref(corpus, 0, corpus.n_total)
    deleted_ids = [corpus.doc_id(i) for i in deletions]
    complement = full.index(exclude=deleted_ids)
    n_base_docs = sum(1 for d in full.docs if d < corpus.doc_id(corpus.n_base))
    if out["appended_docs"] != len(full.docs) - n_base_docs:
        run.problems.append(
            f"append added {out['appended_docs']} docs, expected {len(full.docs) - n_base_docs}"
        )
    run.sample_checks(res, queries, complement, corpus)
    searcher = Searcher(str(index))
    if searcher.doc_count != complement.n_docs:
        run.problems.append(
            f"doc count after purge {searcher.doc_count}, expected {complement.n_docs}"
        )
    if res is not None:
        for j, got in res["sample"].items():
            q = queries[int(j)]
            after = searcher.search(q["q"], q["k"])
            before = [(int(d), float(s)) for d, s in got["hits"]]
            run.check(f"query {q['q'][:60]!r} after purge", same_hits(before, after))
    if run.tracer is not None:
        run.tracer.phase = "probe"
        run.layers.update(layers.score_matrix(searcher, gen.probe_queries(corpus, run.seed)))
        run.layers.update(layers.stage_costs(_base_files(corpus, pages), cfg))


WORKLOADS = {
    "build": workload_build,
    "serve_hot": workload_serve_hot,
    "serve_wide": workload_serve_wide,
    "update": workload_update,
}


def _result(run: Run, spec: dict) -> dict:
    wanted = spec["per_layer"] if run.tracer is not None else spec["end_to_end"]
    run.e2e["setup_s"] = (run.window_start_wall or time.time()) - run.started_wall
    if run.tracer is not None:  # the tracing overhead is this against an untraced run
        log("end-to-end under tracing: " + json.dumps({k: round(v, 4) for k, v in run.e2e.items()}))
    values = run.layers if run.tracer is not None else run.e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # stdout carries the result line only: every other writer, this
    # process's and its children's, goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    become_subreaper()
    try:
        import vexor_ray  # noqa: F401
    except ImportError as exc:
        log(f"vexor_ray cannot be imported ({exc}); no operation can run")
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args)
    run.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if run.tracer is not None:
            layers.install_build_spans(run.tracer)
        WORKLOADS[args.workload](run)
        result = _result(run, spec)
    finally:
        if run.tracer is not None:
            run.tracer.write(run.trace_dir / f"{run.workload}-{run.seed}.main.jsonl")
        run.session.stop()
        signalled = wait_for_children()
        if signalled:
            log(f"{signalled} leftover processes had to be signalled")
        run.session.remove_fallback_dir()
        shutil.rmtree(run.run_dir, ignore_errors=True)
    log("done")
    for p in run.problems:
        log(f"CHECK FAILED: {p}")
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
