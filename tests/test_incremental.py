"""Row-level incrementality: changing one shard re-tokenizes only that shard
and rebuilds only a delta GENERATION of postings — not the whole index —
while queries over the incrementally-updated index stay exactly equal to a
from-scratch build over the same corpus (reference behavior analogue:
``vexor/services/index_service.py:565-643`` re-indexes only changed files).
"""

from __future__ import annotations

import json

import pyarrow.parquet as pq
import pytest

from vexor_ray.fixtures.pages import generate_pages, generate_queries, write_pages
from vexor_ray.index.build import BuildConfig, build_index
from vexor_ray.query.searcher import Searcher


def _cfg(**kw):
    base = dict(
        num_waves=2,
        partitions_per_wave=2,
        shard_group_size=1,
        tokenize_concurrency=2,
        salt_shift=8,
        shuffle_backend="hash",
    )
    base.update(kw)
    return BuildConfig(**base)


@pytest.fixture(scope="module")
def incr_setup(ray_session, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("incr")
    pages = write_pages(tmp_path / "pages", 400, seed=42, rows_per_file=100)
    idx = tmp_path / "idx"
    build_index(pages, idx, _cfg())

    # change the CONTENT of one middle shard (different page set, fewer rows)
    shards = sorted(pages.glob("part-*.parquet"))
    other = generate_pages(120, seed=77)
    pq.write_table(other.slice(40, 60), shards[2])

    rec_dir = idx / "_manifest"
    before_tok = {p.name: p.read_text() for p in rec_dir.glob("docs_tok--*.json")}
    manifest = build_index(pages, idx, _cfg())
    after_tok = {p.name: p.read_text() for p in rec_dir.glob("docs_tok--*.json")}

    fresh = tmp_path / "idx_fresh"
    fresh_manifest = build_index(pages, fresh, _cfg())
    return {
        "pages": pages,
        "idx": idx,
        "fresh": fresh,
        "manifest": manifest,
        "fresh_manifest": fresh_manifest,
        "before_tok": before_tok,
        "after_tok": after_tok,
    }


def test_only_changed_shard_retokenized(incr_setup):
    changed = [
        n
        for n in incr_setup["before_tok"]
        if incr_setup["before_tok"][n] != incr_setup["after_tok"][n]
    ]
    assert changed == ["docs_tok--group-00002.json"]


def test_delta_generation_covers_only_changed_file(incr_setup):
    manifest = incr_setup["manifest"]
    gens_by_wave = manifest["wave_gens"]
    for w, gens in gens_by_wave.items():
        assert [g["gen"] for g in gens] == [0, 1]
        assert gens[1]["covers_files"] == [2]
        # the delta generation is small: it holds postings for one shard
        delta_rows = sum(
            pq.ParquetFile(f).metadata.num_rows for f in gens[1]["files"]
        )
        full_rows = sum(
            pq.ParquetFile(f).metadata.num_rows for f in gens[0]["files"]
        )
        assert 0 < delta_rows < full_rows


def test_incremental_stats_match_fresh(incr_setup):
    assert incr_setup["manifest"]["stats"] == incr_setup["fresh_manifest"]["stats"]


def test_incremental_queries_match_fresh_build(incr_setup):
    s_incr = Searcher(incr_setup["idx"])
    s_fresh = Searcher(incr_setup["fresh"])
    queries = generate_queries(40, seed=7)
    for q in queries:
        exact_incr = s_incr.search(q["query"], k=10, method="exact")
        exact_fresh = s_fresh.search(q["query"], k=10, method="exact")
        assert exact_incr == exact_fresh, q["query"]
        # WAND over scaled old-generation bounds stays rank-identical
        wand_incr = s_incr.search(q["query"], k=10, method="wand")
        assert wand_incr == exact_fresh, q["query"]


def test_noop_rebuild_adds_no_generation(incr_setup):
    manifest = build_index(incr_setup["pages"], incr_setup["idx"], _cfg())
    for w, gens in manifest["wave_gens"].items():
        assert [g["gen"] for g in gens] == [0, 1]


def test_compaction_merges_generations(incr_setup):
    from vexor_ray.index.build import compact_index

    idx = incr_setup["idx"]
    s_before = Searcher(idx)
    queries = generate_queries(15, seed=21)
    want = [s_before.search(q["query"], k=10, method="exact") for q in queries]

    manifest = compact_index(incr_setup["pages"], idx, _cfg())
    for w, gens in manifest["wave_gens"].items():
        # one FULL generation per wave (numbered after the deltas it merged)
        assert len(gens) == 1 and gens[0]["full"]
        assert gens[0]["covers_files"] == [0, 1, 2, 3]
    # tokenize stage untouched (docs_tok records keep their committed_at)
    tok_names = {
        p["partition_id"] for p in manifest["partitions"] if p["stage"] == "docs_tok"
    }
    assert tok_names == {f"group-{i:05d}" for i in range(4)}
    s_after = Searcher(idx)
    got = [s_after.search(q["query"], k=10, method="exact") for q in queries]
    assert got == want


def test_config_change_forces_full_rebuild(incr_setup, tmp_path):
    manifest = build_index(
        incr_setup["pages"], incr_setup["idx"], _cfg(block_size=64)
    )
    for w, gens in manifest["wave_gens"].items():
        assert [g["gen"] for g in gens] == [0]
        assert gens[0]["covers_files"] == [0, 1, 2, 3]


def test_compaction_crash_leaves_old_index_readable(ray_session, tmp_path):
    """A kill at ANY point during compaction must leave the committed index
    fully readable (the crash-safety protocol: old generations are deleted
    only after the new manifest commits)."""
    from pathlib import Path

    from vexor_ray.index.build import compact_index
    from vexor_ray.index.manifest import InjectedFault

    # self-contained index with an incremental history (gens [0, 1]);
    # manifest_history=1 keeps no old snapshots, so compaction GC must
    # remove every superseded generation (the pre-snapshot contract)
    cfg_kw = dict(manifest_history=1)
    pages = write_pages(tmp_path / "pages", 200, seed=42, rows_per_file=50)
    idx = tmp_path / "idx_crash"
    build_index(pages, idx, _cfg(**cfg_kw))
    shards = sorted(pages.glob("part-*.parquet"))
    pq.write_table(generate_pages(120, seed=55).slice(20, 40), shards[1])
    manifest_before = build_index(pages, idx, _cfg(**cfg_kw))
    assert all(len(g) == 2 for g in manifest_before["wave_gens"].values())
    queries = generate_queries(10, seed=33)
    want = [Searcher(idx).search(q["query"], k=10, method="exact") for q in queries]

    # kill mid-compaction (after the first segment-partition commit)
    with pytest.raises(InjectedFault):
        compact_index(pages, idx, _cfg(fail_after_partitions=1, **cfg_kw))

    # the previously committed manifest is untouched and fully readable
    s = Searcher(idx)
    got = [s.search(q["query"], k=10, method="exact") for q in queries]
    assert got == want

    # a re-run finishes the compaction; results unchanged; old gens GC'd
    manifest = compact_index(pages, idx, _cfg(**cfg_kw))
    for w, gens in manifest["wave_gens"].items():
        assert len(gens) == 1 and gens[0]["full"]
    seg_dirs = sorted(p.name for p in (idx / "segments").iterdir())
    live = {
        Path(f).parent.name
        for gens in manifest["wave_gens"].values()
        for g in gens
        for f in g["files"]
    }
    assert set(seg_dirs) == live  # no superseded/orphan dirs survive
    got = [Searcher(idx).search(q["query"], k=10, method="exact") for q in queries]
    assert got == want


def test_live_searcher_survives_online_compaction(ray_session, tmp_path):
    """A long-lived Searcher created before a compaction keeps answering
    (bit-identically) after the superseded generations are GC'd: the
    missing-file retry reloads the new manifest once."""
    from vexor_ray.index.build import compact_index

    pages = write_pages(tmp_path / "pages", 200, seed=42, rows_per_file=50)
    idx = tmp_path / "idx_live"
    build_index(pages, idx, _cfg())
    shards = sorted(pages.glob("part-*.parquet"))
    pq.write_table(generate_pages(120, seed=55).slice(20, 40), shards[1])
    build_index(pages, idx, _cfg())

    s_live = Searcher(idx)  # holds the pre-compaction manifest
    queries = generate_queries(10, seed=44)
    want = [s_live.search(q["query"], k=10, method="exact") for q in queries[:3]]

    compact_index(pages, idx, _cfg())  # replaces + deletes old segment dirs

    # cached terms keep answering from the decoded cache; NEW terms hit the
    # deleted files and must transparently refresh
    got_cached = [s_live.search(q["query"], k=10, method="exact") for q in queries[:3]]
    assert got_cached == want
    fresh = Searcher(idx)
    for q in queries[3:]:
        assert s_live.search(q["query"], k=10, method="exact") == fresh.search(
            q["query"], k=10, method="exact"
        )


def test_dropped_file_forces_full_rebuild(ray_session, tmp_path):
    """Dropping the last file of a two-file shard group keeps every group
    id alive, but a delta generation could only cover the files still
    there: the dropped file's postings would stay live in gen 0.  The wave
    must be rebuilt from scratch instead."""
    pages = write_pages(tmp_path / "pages", 400, seed=42, rows_per_file=100)
    cfg = BuildConfig(
        num_waves=1, shard_group_size=2, partitions_per_wave=2, tokenize_concurrency=2
    )
    idx = tmp_path / "idx"
    build_index(pages, idx, cfg)
    sorted(pages.glob("part-*.parquet"))[3].unlink()
    manifest = build_index(pages, idx, cfg)
    for w, gens in manifest["wave_gens"].items():
        assert [g["gen"] for g in gens] == [0], w
        assert gens[0]["covers_files"] == [0, 1, 2], w

    fresh = tmp_path / "idx_fresh"
    build_index(pages, fresh, cfg)
    s_incr, s_fresh = Searcher(idx), Searcher(fresh)
    for q in generate_queries(40, seed=7):
        assert s_incr.search(q["query"], k=10, method="exact") == s_fresh.search(
            q["query"], k=10, method="exact"
        ), q["query"]


def test_wave_count_change_keeps_tokenize_checkpoint(ray_session, tmp_path):
    """The docs_tok checkpoint does not depend on num_waves: changing the
    wave count re-runs only stage 2, and the result equals a fresh build."""
    pages = write_pages(tmp_path / "pages", 400, seed=42, rows_per_file=100)
    base = dict(shard_group_size=2, partitions_per_wave=2, tokenize_concurrency=2)
    idx = tmp_path / "idx"
    build_index(pages, idx, BuildConfig(num_waves=2, **base))

    def tok_files():
        return {
            p.name: json.loads(p.read_text())["output_files"]
            for p in (idx / "_manifest").glob("docs_tok--*.json")
        }

    before = tok_files()
    manifest = build_index(pages, idx, BuildConfig(num_waves=1, **base))
    assert tok_files() == before and len(before) == 2
    assert [g["gen"] for g in manifest["wave_gens"]["0"]] == [0]
    assert set(manifest["wave_gens"]) == {"0"}

    fresh = tmp_path / "idx_fresh"
    build_index(pages, fresh, BuildConfig(num_waves=1, **base))
    s_re, s_fresh = Searcher(idx), Searcher(fresh)
    for q in generate_queries(40, seed=7):
        assert s_re.search(q["query"], k=10, method="exact") == s_fresh.search(
            q["query"], k=10, method="exact"
        ), q["query"]


def test_compact_ignores_unknown_config_keys(ray_session, tmp_path):
    """compact_index without a config rebuilds from the manifest's, which
    an earlier version may have written with knobs that are gone now."""
    from vexor_ray.index.build import compact_index

    pages = write_pages(tmp_path / "pages", 200, seed=42, rows_per_file=100)
    idx = tmp_path / "idx"
    build_index(pages, idx, _cfg(num_waves=1))
    name = json.loads((idx / "CURRENT").read_text())["manifest"]
    man = json.loads((idx / name).read_text())
    man["config"]["retired_knob"] = 256
    (idx / name).write_text(json.dumps(man))
    want = Searcher(idx).search("needledfone", k=5)
    compact_index(pages, idx)
    assert Searcher(idx).search("needledfone", k=5) == want
