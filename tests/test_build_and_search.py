"""End-to-end rank-identity: Ray engine vs pure-Python oracle.

Builds the index with aggressive salting (small salt_shift) and multiple
waves so the skew machinery is exercised even at 1k docs, then asserts for
every fixture query: exact docID order match and float64 scores equal to
rel_tol 1e-9 (they are bit-identical by construction; the tolerance guards
platform noise only).
"""

from __future__ import annotations

import math

import pyarrow.parquet as pq

from vexor_ray.fixtures.pages import generate_queries
from vexor_ray.index.build import BuildConfig, build_index
from vexor_ray.query.searcher import Searcher
from vexor_ray.refimpl import search as oracle_search


def test_manifest_stats_match_oracle(built_index, oracle_1k):
    _, manifest = built_index
    assert manifest["stats"]["doc_count"] == oracle_1k.doc_count
    assert math.isclose(
        manifest["stats"]["avg_doc_len"], oracle_1k.avg_doc_len, rel_tol=1e-12
    )


def test_docids_match_oracle_lineage_ids(built_index, oracle_1k):
    out, manifest = built_index
    tbl = pq.read_table(manifest["docs_files"], columns=["doc_id", "url"])
    engine = dict(zip(tbl["doc_id"].to_pylist(), tbl["url"].to_pylist()))
    assert engine == oracle_1k.urls


def test_df_matches_oracle(built_index, oracle_1k):
    out, _ = built_index
    s = Searcher(out)
    for term in ["needledfone", "needledftwo", "needledften", "needledfhundred"]:
        assert s.df(term) == oracle_1k.df(term), term
    # a hot term split across many salted chunks must still sum to oracle df
    hot = max(oracle_1k.postings, key=lambda t: len(oracle_1k.postings[t]))
    chunks = s.term_chunks([hot])[hot]
    assert len(chunks) > 1, "salting did not split the hottest term"
    assert sum(c["n_postings"] for c in chunks) == oracle_1k.df(hot)


def test_rank_identity_all_fixture_queries(built_index, oracle_1k):
    out, _ = built_index
    s = Searcher(out)
    queries = generate_queries(120, seed=42)
    n_nonempty = 0
    for q in queries:
        expected = oracle_search(oracle_1k, q["query"], q["k"])
        got = s.search(q["query"], q["k"], method="exact")
        assert [d for d, _ in got] == [d for d, _ in expected], q
        for (_, gs), (_, es) in zip(got, expected):
            assert math.isclose(gs, es, rel_tol=1e-9), q
        n_nonempty += bool(expected)
    assert n_nonempty > 100  # the suite actually exercises scoring


def test_tie_break_pair(built_index, oracle_1k, pages_1k):
    """The duplicate-body pair must tie exactly and order by docID."""
    import pyarrow.dataset as pads

    out, _ = built_index
    s = Searcher(out)
    tbl = pads.dataset(sorted(str(f) for f in pages_1k.glob("part-*.parquet"))).to_table()
    texts = tbl.column("text").to_pylist()
    term = texts[13].split()[3]
    dups = [
        d
        for d, u in oracle_1k.urls.items()
        if u.endswith("-00000013.html") or u.endswith("-00000014.html")
    ]
    results = s.search(term, k=oracle_1k.doc_count)
    scores = {d: sc for d, sc in results}
    assert scores[dups[0]] == scores[dups[1]]
    ranks = {d: r for r, (d, _) in enumerate(results)}
    assert ranks[min(dups)] < ranks[max(dups)]


def test_search_hits_table(built_index):
    out, _ = built_index
    s = Searcher(out)
    hits = s.search_hits([{"query_id": 1, "query": "needledften", "k": 5}])
    assert hits.column_names == ["query_id", "rank", "doc_id", "url", "preview", "score"]
    assert hits.num_rows == 5
    urls = hits["url"].to_pylist()
    assert all(u and u.startswith("https://") for u in urls)


def test_resume_skips_completed_partitions(built_index, pages_1k):
    out, manifest1 = built_index
    # re-running the full build must skip everything (no recompute, same manifest)
    cfg = BuildConfig(
        salt_shift=8,
        num_waves=2,
        partitions_per_wave=4,
        shard_group_size=2,
        tokenize_concurrency=2,
    )
    import time

    t0 = time.perf_counter()
    manifest2 = build_index(pages_1k, out, cfg)
    assert time.perf_counter() - t0 < 5.0  # pure manifest scan, no Ray jobs
    assert manifest2["stats"] == manifest1["stats"]
    assert {p["partition_id"] for p in manifest2["partitions"]} == {
        p["partition_id"] for p in manifest1["partitions"]
    }


def test_postings_cache_and_warmup_consistency(ray_session, tmp_path):
    """The decoded-postings cache and serving warmup never change results."""
    from vexor_ray.fixtures.pages import generate_queries, write_pages
    from vexor_ray.index.build import BuildConfig, build_index
    from vexor_ray.query.searcher import Searcher

    pages = write_pages(tmp_path / "pages", 300, seed=42, rows_per_file=100)
    idx = tmp_path / "idx"
    build_index(
        pages,
        idx,
        BuildConfig(num_waves=2, partitions_per_wave=2, shard_group_size=2,
                    tokenize_concurrency=2, salt_shift=8),
    )
    cold = Searcher(idx)
    # force cache population for even tiny terms so the hit path is real
    cold._postings_cache_min = 1
    queries = generate_queries(20, seed=13)
    first = [cold.search(q["query"], k=10, method="auto") for q in queries]
    assert cold._postings_cache  # something actually got cached
    second = [cold.search(q["query"], k=10, method="auto") for q in queries]
    assert first == second

    warm = Searcher(idx)
    warm._postings_cache_min = 1
    n = warm.warm_hot_terms(32)
    assert n > 0 and len(warm._postings_cache) == n
    warmed = [warm.search(q["query"], k=10, method="auto") for q in queries]
    assert warmed == first


def test_sharded_scorer_bit_identity(built_index, oracle_1k):
    """Salt-range-sharded exact scoring (the bounded-memory path for indexes
    beyond max_dense_docs) is bit-identical to the dense path, and its peak
    dense allocation is the shard span — independent of doc_count."""
    out, _ = built_index
    dense = Searcher(out)
    sharded = Searcher(out, max_dense_docs=64)  # force many shards at 1k docs
    assert sharded._sharded
    queries = generate_queries(60, seed=7)
    n_nonempty = 0
    for q in queries:
        a = dense.search(q["query"], q["k"], method="exact")
        b = sharded.search(q["query"], q["k"], method="exact")
        assert a == b, q  # docIDs AND float64 scores, bit-exact
        n_nonempty += bool(a)
    assert n_nonempty > 30
    span_docs = sharded._shard_span_salts << sharded.salt_shift
    assert 0 < sharded._peak_dense_docs <= span_docs
    assert sharded._peak_dense_docs < dense.doc_count
    # oracle spot check through the sharded path
    expected = oracle_search(oracle_1k, "needledften", 10)
    got = sharded.search("needledften", 10, method="exact")
    assert [d for d, _ in got] == [d for d, _ in expected]


def test_sharded_scorer_warm_cache_and_hybrid(built_index):
    out, _ = built_index
    dense = Searcher(out)
    sharded = Searcher(out, max_dense_docs=64)
    sharded._postings_cache_min = 1
    n = sharded.warm_hot_terms(16)
    assert n > 0 and len(sharded._postings_cache) == n
    queries = generate_queries(20, seed=99)
    for q in queries:
        assert sharded.search(q["query"], q["k"], method="exact") == dense.search(
            q["query"], q["k"], method="exact"
        )
    # hybrid fusion goes through _exact_scores too
    dense_order = [d for d, _ in dense.search("needledften http", 20)]
    assert sharded.search_hybrid(
        "needledften http", dense_order, k=10
    ) == dense.search_hybrid("needledften http", dense_order, k=10)


def test_sharded_scorer_federation_overrides(built_index):
    """Global-stats overrides (the federation path) agree across modes."""
    import numpy as np

    out, _ = built_index
    dense = Searcher(out)
    sharded = Searcher(out, max_dense_docs=64)
    terms = dense.preprocess_query("the needledften http crawl")
    chunks_d = dense.term_chunks(terms)
    chunks_s = sharded.term_chunks(terms)
    dfs = {t: sum(c["n_postings"] for c in chunks_d.get(t, [])) for t in terms}
    kw = dict(
        doc_count=dense.doc_count * 3,
        avg_doc_len=dense.avg_doc_len * 1.5,
        df_by_term=dfs,
    )
    ids_a, sc_a = dense._exact_scores(terms, chunks_d, **kw)
    ids_b, sc_b = sharded._exact_scores(terms, chunks_s, **kw)
    np.testing.assert_array_equal(ids_a, ids_b)
    np.testing.assert_array_equal(sc_a, sc_b)


def test_gen_file_pruning_interval_select(tmp_path):
    """_gen_files_for_ths keeps every file whose [min,max] covers a term hash
    — exact for disjoint (sorted-backend) ranges, safe for overlapping
    (hash-backend) ranges."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vexor_ray.query.searcher import Searcher

    # three files: disjoint [0,10], [10,20] (boundary shared), overlap [5,15]
    paths = []
    for i, ths in enumerate([[0, 10], [10, 20], [5, 15]]):
        p = tmp_path / f"f{i}.parquet"
        pq.write_table(
            pa.table({"th": pa.array(ths, type=pa.uint64())}), p
        )
        paths.append(str(p))
    gen = {"files": paths, "bounds": None}
    sel = Searcher._gen_files_for_ths(gen, np.array([10], dtype=np.uint64))
    assert {p.rsplit("/", 1)[-1] for p in sel} == {"f0.parquet", "f1.parquet", "f2.parquet"}
    sel = Searcher._gen_files_for_ths(gen, np.array([3], dtype=np.uint64))
    assert {p.rsplit("/", 1)[-1] for p in sel} == {"f0.parquet"}
    sel = Searcher._gen_files_for_ths(gen, np.array([99], dtype=np.uint64))
    assert sel == []


def test_searcher_refuses_other_posting_codec(built_index, tmp_path):
    """An index an earlier version built with a bit-packing posting codec
    must be rebuilt: varint decode would misread its streams silently."""
    import json
    import shutil

    import pytest

    out, _ = built_index
    copy = tmp_path / "idx"
    copy.mkdir()
    for f in out.iterdir():
        if f.is_file():  # snapshot objects and the pointer, no data
            shutil.copy(f, copy / f.name)
    name = json.loads((copy / "CURRENT").read_text())["manifest"]

    def set_codec(value):
        man = json.loads((copy / name).read_text())
        man["config"]["posting_codec"] = value
        (copy / name).write_text(json.dumps(man))

    set_codec("varint")
    assert Searcher(copy).search("needledfone", k=3) == Searcher(out).search(
        "needledfone", k=3
    )
    set_codec("bitpack")
    with pytest.raises(ValueError, match="'bitpack'.*rebuild"):
        Searcher(copy)
